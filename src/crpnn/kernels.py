"""Dense numpy kernels under every product in the package.

Every dense product in the package (forward passes, backprop, benchmarks)
bottoms out in one of the five kernels below.  ``matmul_nt`` also takes
stacks of matrices, (s, r, k) by (s, c, k), and runs the s products in one
call; each slice equals the 2-D product bit for bit.  Each takes a required
keyword-only ``out`` array of the result's shape, owned by the caller,
writes the result there and returns it: no kernel allocates its result.
``out`` must not overlap an operand, except that the elementwise
``hadamard`` may write over either of its operands.

A 2-D product into an ``out`` of at most ``DOT_OUTPUT_BUDGET`` bytes (a
6x682 block) runs through ``ndarray.dot``, which makes the same BLAS call
as ``np.matmul`` at half its call cost on narrow operands and gives the same
bits.  So does a ``matmul_tn`` of inner size 1 (the m=1 output layer's
outer product) at every width.  Other wide outputs and the stacked
``matmul_nt`` run through ``np.matmul``, whose cost grows more slowly.

Each also takes a keyword-only ``counter`` and adds the scalar multiplies
it ran, the package's only count formulas.  Kernels check nothing: their
callers pass C-contiguous float64 operands of matching shapes: weights that
a model checked when it was built, and inputs that each pass checks once.
"""

import numpy as np


# Largest output, in bytes, that a 2-D product writes through
# ndarray.dot instead of np.matmul.  Both make the same BLAS call and give the
# same bits, but np.matmul is a gufunc and costs about 0.5 us more per call,
# while dot's own cost grows faster with the output.  n=5, one thread, 6xK
# output (scripts/kernel_sweep.py): 0.54 against 1.11 us at K=32, 2.5 against
# 3.0 us at K=682 (32 KiB), break-even at K=1000-1200, 19.4 against 13.8 us at
# K=5000.  The budget sits below the break-even, where dot still takes 18% less.
DOT_OUTPUT_BUDGET = 32 * 1024


def matmul(a, b, *, out, counter=None):
    if counter is not None:
        counter.add(a.shape[0] * a.shape[1] * b.shape[1])
    if out.nbytes <= DOT_OUTPUT_BUDGET:
        return a.dot(b, out=out)
    return np.matmul(a, b, out=out)


def matmul_nt(a, b, *, out, counter=None):
    """a @ b.T, or over stacks of matrices, each of ``a`` times its ``b`` transposed"""
    if counter is not None:
        counter.add(a.size * b.shape[-2])
    if out.ndim == 2 and out.nbytes <= DOT_OUTPUT_BUDGET:
        return a.dot(b.T, out=out)
    # the method, not np.swapaxes (1 us more per call) nor .mT (numpy >= 2.0)
    return np.matmul(a, b.swapaxes(-1, -2), out=out)


def matmul_tn(a, b, *, out, counter=None):
    """a.T @ b"""
    if counter is not None:
        counter.add(a.shape[1] * a.shape[0] * b.shape[1])
    if out.nbytes <= DOT_OUTPUT_BUDGET or a.shape[0] == 1:  # inner size 1
        return a.T.dot(b, out=out)
    return np.matmul(a.T, b, out=out)


def hadamard(a, b, *, out, counter=None):
    if counter is not None:
        counter.add(a.size)
    return np.multiply(a, b, out=out)


def power(x, c, *, out, counter=None):
    # c-1 successive elementwise products, never pow()
    if counter is not None:
        counter.add((c - 1) * x.size)
    np.copyto(out, x)
    for _ in range(c - 1):
        np.multiply(out, x, out=out)
    return out


def backend_name():
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"
