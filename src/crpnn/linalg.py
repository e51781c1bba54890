"""Validated dense float64 operations with exact multiply counting.

Matrices are 2-D C-contiguous float64 arrays, column vectors 1-D ones.  Each
operation here coerces and checks its operands, then runs the matching
kernel of :mod:`crpnn.kernels`, which every product in the package (the
forward and backward passes included) bottoms out in.  Counting is an
optional argument of each kernel, not a separate code path, so an
instrumented multiply count is a count of the code that actually ran.  Pass
a :class:`MultiplyCounter` to accumulate, leave it ``None`` to skip; ``out``
changes where the result goes, not the count.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


@dataclass
class MultiplyCounter:
    """Per-invocation accumulator of scalar multiplications (never global)."""

    count: int = 0

    def add(self, k):
        self.count += int(k)


def as_array(x, ndim=None, name="operand"):
    """Coerce to C-contiguous float64, optionally demanding a dimensionality."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    return arr


def check_finite(arr, name="array"):
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def matmul(a, b, counter=None, out=None):
    """Matrix product a @ b; b may be a matrix or a column vector.

    Counts a.rows * a.cols * b.cols scalar multiplications.
    """
    a = as_array(a, 2, "left operand")
    b = as_array(b, None, "right operand")
    if b.ndim not in (1, 2):
        raise ShapeError(f"right operand must be 1- or 2-dimensional, got shape {b.shape}")
    if a.shape[1] != b.shape[0]:
        rhs = b.shape if b.ndim == 2 else f"vector of dim {b.shape[0]}"
        raise ShapeError(f"cannot multiply {a.shape} by {rhs}")
    if b.ndim == 2:
        return kernels.matmul(a, b, out=out, counter=counter)
    col = None if out is None else out.reshape(-1, 1)
    return kernels.matmul(a, b.reshape(-1, 1), out=col, counter=counter).ravel()


def hadamard(a, b, counter=None, out=None):
    """Elementwise product of two same-shape vectors or matrices.

    Counts one multiplication per entry.
    """
    a = as_array(a)
    b = as_array(b)
    if a.shape != b.shape:
        raise ShapeError(f"hadamard operands differ in shape: {a.shape} vs {b.shape}")
    return kernels.hadamard(a, b, out=out, counter=counter)


def elementwise_power(v, c, counter=None, out=None):
    """Raise every entry to the c-th power via c-1 successive Hadamard products.

    Counts (c-1) * v.size multiplications; c must be a positive integer (the
    bias coordinate makes degree 0 unnecessary, so c == 0 is rejected).
    """
    if int(c) != c or c < 1:
        raise ValueError(f"power must be a positive integer, got {c!r}")
    return kernels.power(as_array(v), int(c), out=out, counter=counter)


def augment(x):
    """Append the constant bias coordinate 1 to a vector: [x_1..x_n] -> [x_1..x_n, 1]."""
    x = as_array(x, 1, "input vector")
    return augment_cols(x.reshape(-1, 1)).ravel()


def augment_cols(xs):
    """Columnwise bias augmentation: append a row of ones to an n x K matrix."""
    xs = as_array(xs, 2, "input matrix")
    out = np.empty((xs.shape[0] + 1, xs.shape[1]))
    out[:-1] = xs
    out[-1] = 1.0
    return out
