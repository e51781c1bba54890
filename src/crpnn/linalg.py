"""Helpers shared by every module: ShapeError, MultiplyCounter and coercion.

The products live in :mod:`crpnn.kernels`, which check nothing: callers
check shapes once per pass and pass a :class:`MultiplyCounter` to count.
"""

from dataclasses import dataclass

import numpy as np


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

