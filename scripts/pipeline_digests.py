"""Digests of every file the benchmark's CLI pipelines write.

Usage, from the root of a checkout:

    python3 scripts/pipeline_digests.py

For each workload of ``perfbench/workloads.py`` (``paper-l14``: K=5000, full
batch, CR-PNN II at order 20, 20 epochs; ``minibatch-l14``: K=2000, batch
32, order 14, 5 epochs; lr 0.01 for both) and each seed in ``SEEDS``, runs
``crpnn.cli.main`` in-process on the argv sequence of that workload's
pipeline phase (``gen``, then ``train``, ``eval`` and ``spectrum`` for each
variant) in a temporary directory, and prints one ``sha256  file`` line per
output.  Dataset, model, metrics, eval and spectrum files must stay
byte-identical across engine and training changes, so the output of two
commits must be equal; to check a commit that lacks this script, copy it
into that checkout and run it there.

As ``perfbench/run.py`` does, the package is imported from ``src/`` of the
checkout this file sits in, and BLAS runs single-threaded.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (0, 1)


def main():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from crpnn import cli
    import workloads

    with tempfile.TemporaryDirectory() as root:
        for name, workload in workloads.WORKLOADS.items():
            for seed in SEEDS:
                with workloads.Run(workload, seed, 0.0, root) as run:
                    for argv in run.argvs:
                        with contextlib.redirect_stdout(io.StringIO()):
                            code = cli.main(argv)
                        if code != 0:
                            raise SystemExit(f"{name} seed {seed}: `{argv[0]}` exited {code}")
                    for file in sorted(os.listdir(run.tmp)):
                        with open(os.path.join(run.tmp, file), "rb") as fh:
                            digest = hashlib.sha256(fh.read()).hexdigest()
                        print(f"{digest}  {name}/seed{seed}/{file}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
