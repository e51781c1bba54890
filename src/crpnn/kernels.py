"""Dense numpy kernels under every product in the package.

Every dense product in the package (forward passes, backprop, benchmarks)
bottoms out in one of the five kernels below.  Each takes an optional
keyword-only ``out`` array of the result's shape, writes the result there
and returns it; without ``out`` it allocates the result.  ``out`` must not
overlap an operand, except that the elementwise ``hadamard`` may write over
either of its operands.

All kernels expect C-contiguous float64 arrays; the validated wrappers in
:mod:`crpnn.linalg` guarantee that.
"""

import numpy as np


def matmul(a, b, *, out=None):
    return np.matmul(a, b, out=out)


def matmul_nt(a, b, *, out=None):
    """a @ b.T"""
    return np.matmul(a, b.T, out=out)


def matmul_tn(a, b, *, out=None):
    """a.T @ b"""
    return np.matmul(a.T, b, out=out)


def hadamard(a, b, *, out=None):
    return np.multiply(a, b, out=out)


def power(x, c, *, out=None):
    # c-1 successive elementwise products, never pow()
    if out is None:
        out = x.copy()
    else:
        np.copyto(out, x)
    for _ in range(c - 1):
        np.multiply(out, x, out=out)
    return out


def backend_name():
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"
