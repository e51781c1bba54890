"""Dense numpy kernels under every product in the package.

Every dense product in the package (forward passes, backprop, benchmarks)
bottoms out in one of the five kernels below.  ``matmul_nt`` also takes
stacks of matrices, (s, r, k) by (s, c, k), and runs the s products in one
call; each slice equals the 2-D product bit for bit.  Each takes an optional
keyword-only ``out`` array of the result's shape, writes the result there
and returns it; without ``out`` it allocates the result.  ``out`` must not
overlap an operand, except that the elementwise ``hadamard`` may write over
either of its operands.

Each also takes a keyword-only ``counter`` and adds the scalar multiplies
it ran, the package's only count formulas.  Kernels check nothing: their
callers pass C-contiguous float64 operands of matching shapes, which the
forward and backward passes check once per pass.
"""

import numpy as np


def matmul(a, b, *, out=None, counter=None):
    if counter is not None:
        counter.add(a.shape[0] * a.shape[1] * b.shape[1])
    return np.matmul(a, b, out=out)


def matmul_nt(a, b, *, out=None, counter=None):
    """a @ b.T, or over stacks of matrices, each of ``a`` times its ``b`` transposed"""
    if counter is not None:
        counter.add(a.size * b.shape[-2])
    # the method, not np.swapaxes (1 us more per call) nor .mT (numpy >= 2.0)
    return np.matmul(a, b.swapaxes(-1, -2), out=out)


def matmul_tn(a, b, *, out=None, counter=None):
    """a.T @ b"""
    if counter is not None:
        counter.add(a.shape[1] * a.shape[0] * b.shape[1])
    return np.matmul(a.T, b, out=out)


def hadamard(a, b, *, out=None, counter=None):
    if counter is not None:
        counter.add(a.size)
    return np.multiply(a, b, out=out)


def power(x, c, *, out=None, counter=None):
    # c-1 successive elementwise products, never pow()
    if counter is not None:
        counter.add((c - 1) * x.size)
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
