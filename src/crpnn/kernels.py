"""Dense numpy kernels under every product in the package.

Every dense product in the package (forward passes, backprop, benchmarks)
bottoms out in one of three kernels: ``matmul`` runs every 2-D product on the
views its caller passes (Wᵀ·D as ``matmul(W.T, D)``, D·Aᵀ as ``matmul(D,
A.T)``); ``matmul_nt`` runs a stack (s, r, k) by (s, c, k) as the s products
a·bᵀ in one call, each slice equal to the 2-D product bit for bit; and
``hadamard`` multiplies elementwise, so that X^c is c-1 of its calls.  Each
takes a required keyword-only ``out`` array of the result's shape, owned by
the caller, writes the result there and returns it: no kernel allocates its
result.  ``out`` must not overlap an operand, except that the elementwise
``hadamard`` may write over either of its operands.

``matmul`` runs through ``ndarray.dot`` when its output is at most
``DOT_OUTPUT_BUDGET`` bytes (a 6x682 block) or its inner size is 1 (the m=1
output layer's outer product): the same BLAS call as ``np.matmul`` and the
same bits, at half its call cost on narrow operands.  Other products run
through ``np.matmul``, whose cost grows more slowly.

Each also takes a keyword-only ``counter`` and adds the scalar multiplies
it ran, the package's only count formulas.  Kernels check nothing: their
callers pass float64 operands of matching shapes (C-contiguous arrays or
their transposes) and C-contiguous ``out`` buffers: weights that a model
checked when it was built, and inputs that each pass checks once.
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
    """a @ b for 2-D ``a`` and ``b``, either of which may be a transposed view"""
    if counter is not None:
        counter.add(a.shape[0] * a.shape[1] * b.shape[1])
    if out.nbytes <= DOT_OUTPUT_BUDGET or a.shape[1] == 1:
        return a.dot(b, out=out)
    return np.matmul(a, b, out=out)


def matmul_nt(a, b, *, out, counter=None):
    """Over stacks of matrices, each of ``a`` times its ``b`` transposed"""
    if counter is not None:
        counter.add(a.size * b.shape[-2])
    # the method, not np.swapaxes (1 us more per call) nor .mT (numpy >= 2.0)
    return np.matmul(a, b.swapaxes(-1, -2), out=out)


def hadamard(a, b, *, out, counter=None):
    if counter is not None:
        counter.add(a.size)
    return np.multiply(a, b, out=out)


def backend_name():
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"
