"""Dense float64 matrix/vector operations with exact multiply counting.

Matrices are 2-D C-contiguous float64 arrays, column vectors 1-D ones.  All
network math flows through the operations here, so an instrumented multiply
count is a count of the code that actually ran: counting is an optional
argument on each operation, not a separate code path.  Pass a
:class:`MultiplyCounter` to accumulate, leave it ``None`` to skip.  The
products also take an ``out`` array to write into, as the kernels in
:mod:`crpnn.kernels` do; it changes where the result goes, not the count.
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
    if b.ndim == 1:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"cannot multiply {a.shape} by vector of dim {b.shape[0]}")
        col = None if out is None else out.reshape(-1, 1)
        out = kernels.matmul(a, b.reshape(-1, 1), out=col).ravel()
        cols = 1
    elif b.ndim == 2:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
        out = kernels.matmul(a, b, out=out)
        cols = b.shape[1]
    else:
        raise ShapeError(f"right operand must be 1- or 2-dimensional, got shape {b.shape}")
    if counter is not None:
        counter.add(a.shape[0] * a.shape[1] * cols)
    return out


def hadamard(a, b, counter=None, out=None):
    """Elementwise product of two same-shape vectors or matrices.

    Counts one multiplication per entry.
    """
    a = as_array(a)
    b = as_array(b)
    if a.shape != b.shape:
        raise ShapeError(f"hadamard operands differ in shape: {a.shape} vs {b.shape}")
    out = kernels.hadamard(a, b, out=out)
    if counter is not None:
        counter.add(a.size)
    return out


def elementwise_power(v, c, counter=None, out=None):
    """Raise every entry to the c-th power via c-1 successive Hadamard products.

    Counts (c-1) * v.size multiplications; c must be a positive integer (the
    bias coordinate makes degree 0 unnecessary, so c == 0 is rejected).
    """
    if int(c) != c or c < 1:
        raise ValueError(f"power must be a positive integer, got {c!r}")
    v = as_array(v)
    out = kernels.power(v, int(c), out=out)
    if counter is not None:
        counter.add((int(c) - 1) * v.size)
    return out


def augment(x):
    """Append the constant bias coordinate 1 to a vector: [x_1..x_n] -> [x_1..x_n, 1]."""
    x = as_array(x, 1, "input vector")
    out = np.empty(x.shape[0] + 1)
    out[:-1] = x
    out[-1] = 1.0
    return out


def augment_cols(xs):
    """Columnwise bias augmentation: append a row of ones to an n x K matrix."""
    xs = as_array(xs, 2, "input matrix")
    out = np.empty((xs.shape[0] + 1, xs.shape[1]))
    out[:-1] = xs
    out[-1] = 1.0
    return out
