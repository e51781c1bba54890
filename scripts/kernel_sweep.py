"""Time per call of ``np.matmul`` against ``ndarray.dot`` for the engine's 2-D products.

Usage, from the root of a checkout:

    python3 scripts/kernel_sweep.py

At n=5 (a 6x6 hidden weight) and with BLAS on one thread, for each 2-D
product that the engine writes into a buffer of its own and for each width K
from 16 to 5000, prints the best-of-``REPEATS`` time per call of both entry
points, each called as ``f(a, b, out=out)``, with the size of the output and
whether the two results are equal bit for bit.  The products are:

- ``W.A``, a layer's forward product, ``kernels.matmul(W, A)``;
- ``Wt.D``, an error sent back through a layer, ``kernels.matmul(W.T, D)``;
- ``D.At``, a weight gradient, ``kernels.matmul(D, A.T)``;

each with m = 6 rows of output or error (a hidden layer) and m = 1 (the
output layer, whose ``Wt.D`` is the (6x1).(1xK) outer product).

The last lines check the routing rule of ``kernels.matmul``.  First, the
crossover over every product whose inner size is more than 1: the largest
output on which ``dot`` is faster for every such product up to that size,
and the smallest output on which ``np.matmul`` is faster, then the
committed ``kernels.DOT_OUTPUT_BUDGET`` and whether it lies below that
crossover.  Second, for ``Wt.D`` at m = 1, whose inner size is 1 and which
``kernels.matmul`` sends through ``dot`` at every width, the number of
widths at which ``dot`` is faster.  Both depend on the numpy and BLAS
build, so re-run this script after changing either: a budget that no
longer lies below the crossover shows there.
"""

import math
import os
import sys
import time

WIDTHS = (16, 32, 64, 128, 256, 512, 682, 850, 1000, 1200, 1365, 2000, 3000, 5000)
WIDTH = 6  # n + 1 at n=5
REPEATS = 9
CALLS = 300


def operands(np, rng, product, m, cols):
    """(a, b, out) of one product, with the views the engine passes to ``kernels.matmul``."""
    w = rng.uniform(-1, 1, (m, WIDTH))
    act = rng.uniform(-1, 1, (WIDTH, cols))
    err = rng.uniform(-1, 1, (m, cols))
    if product == "W.A":
        return w, act, np.empty((m, cols))
    if product == "Wt.D":
        return w.T, err, np.empty((WIDTH, cols))
    return err, act.T, np.empty((m, WIDTH))


def seconds(call, args, out):
    start = time.perf_counter()
    for _ in range(CALLS):
        call(*args, out=out)
    return time.perf_counter() - start


def crossover(rows):
    """(largest output up to which dot wins every product, the first product matmul wins)"""
    lost = sorted((nbytes, product, m, cols) for product, m, cols, nbytes, t_mm, t_dot in rows
                  if t_dot >= t_mm)
    if not lost:
        return max(row[3] for row in rows), None
    return max((row[3] for row in rows if row[3] < lost[0][0]), default=0), lost[0]


def main():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import numpy as np

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    from crpnn import kernels

    rng = np.random.default_rng(0)
    print(f"numpy {np.__version__}, n=5, one BLAS thread, "
          f"best of {REPEATS} x {CALLS} calls, time per call in us")
    print(f"{'product':7s} {'m':>2s} {'K':>5s} {'out bytes':>10s} {'matmul':>8s} {'dot':>8s}  same bits")
    rows = []
    for product in ("W.A", "Wt.D", "D.At"):
        for m in (WIDTH, 1):
            for cols in WIDTHS:
                a, b, out = operands(np, rng, product, m, cols)
                same = np.array_equal(a.dot(b, out=out.copy()), np.matmul(a, b))
                best = [math.inf, math.inf]
                for _ in range(REPEATS):  # alternate, so that both see the same load
                    best[0] = min(best[0], seconds(np.matmul, (a, b), out))
                    best[1] = min(best[1], seconds(a.dot, (b,), out))
                t_mm, t_dot = (t / CALLS * 1e6 for t in best)
                rows.append((product, m, cols, out.nbytes, t_mm, t_dot))
                print(f"{product:7s} {m:2d} {cols:5d} {out.nbytes:10d} {t_mm:8.2f} {t_dot:8.2f}  {same}")
    outer = [row for row in rows if row[:2] == ("Wt.D", 1)]
    fits, lost = crossover([row for row in rows if row not in outer])
    print(f"inner size > 1: dot is faster on every product whose output is at most {fits} bytes")
    if lost:
        nbytes, product, m, cols = lost
        print(f"inner size > 1: np.matmul is first faster at {nbytes} bytes ({product}, m={m}, K={cols})")
    budget = kernels.DOT_OUTPUT_BUDGET
    verdict = "lies below" if budget <= fits else "does NOT lie below"
    print(f"kernels.DOT_OUTPUT_BUDGET = {budget} bytes {verdict} the crossover "
          f"(dot faster up to {fits} bytes)")
    wins = sum(t_dot < t_mm for *_, t_mm, t_dot in outer)
    print(f"inner size 1 (Wt.D, m=1), sent through dot at every width: dot is faster at "
          f"{wins} of {len(outer)} widths")


if __name__ == "__main__":
    main()
