"""Digests of every file the benchmark's CLI pipelines write.

Usage, from the root of a checkout:

    python3 scripts/pipeline_digests.py [--against DIR]

For each workload of ``perfbench/workloads.py`` (``paper-l14``: K=5000, full
batch, CR-PNN II at order 20, 20 epochs; ``minibatch-l14``: K=2000, batch
32, order 14, 5 epochs; lr 0.01 for both) and each seed in ``SEEDS``, runs
``crpnn.cli.main`` in-process on the argv sequence of that workload's
pipeline phase (``gen``, then ``train``, ``eval`` and ``spectrum`` for each
variant) in a temporary directory, and prints one ``sha256  file`` line per
output.  It then runs a small ``compare`` on the generated ``data.csv``
(both variants at order 8, two seeds from the workload's, 3 epochs, the
workload's learning rate and batch size) and prints the digest of its
table with the wall-time ``seconds`` column removed.  It also runs the
workload's ``Run.setup()``, which steps each variant through one epoch of
public ``backward`` + ``sgd_step`` calls and one ``train`` epoch, and prints
one line per variant: the digests of the weights after each, then the
``train`` epoch's final MSE; a failed set-up check exits non-zero.  Last,
for each seed it runs a small ``bench`` (``BENCH_ARGV``) and prints the
digest of its JSON report with the four ``*_seconds_*`` fields removed,
which leaves the protocol and the analytic and instrumented multiply
counts.  Dataset, model, metrics, eval, spectrum, compare, set-up and bench
outputs must stay byte-identical across engine, training and CLI changes,
so the output of two commits must be equal.

As ``perfbench/run.py`` does, the package is imported from ``src/`` of the
checkout this file sits in, and BLAS runs single-threaded.  With
``--against DIR`` the digests are taken twice, each in a fresh interpreter:
once of this checkout's ``src/`` and once of ``DIR/src/``, both driven by
this checkout's ``perfbench/workloads.py``.  The lines that differ are
printed as a unified diff (``DIR``'s lines first), and the exit status is 1
if any differ.
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (0, 1)
BENCH_ARGV = ["bench", "--n", "2", "--order", "4", "--samples", "50",
              "--forward-reps", "2", "--epochs", "2", "--runs", "2"]


def _run(cli, name, seed, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{name} seed {seed}: `{argv[0]}` exited {code}")
    return out.getvalue()


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _weights_sha256(weights):
    return _sha256(b"".join(w.tobytes() for w in weights))


def digest(src):
    """Print the digest lines of the package imported from the directory ``src``."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    from crpnn import cli
    import workloads

    with tempfile.TemporaryDirectory() as root:
        for name, workload in workloads.WORKLOADS.items():
            for seed in SEEDS:
                with workloads.Run(workload, seed, 0.0, root) as run:
                    for argv in run.argvs:
                        _run(cli, name, seed, argv)
                    for file in sorted(os.listdir(run.tmp)):
                        with open(os.path.join(run.tmp, file), "rb") as fh:
                            print(f"{_sha256(fh.read())}  {name}/seed{seed}/{file}")
                    # order 8 is the smallest at n=5 where the variants differ (CR-PNN II: c=2)
                    compare = [
                        "compare", "--variant", "both", "--orders", "8",
                        "--seeds", "2", "--seed", str(seed), "--epochs", "3",
                        "--lr", repr(workloads.LEARNING_RATE),
                        "--data", os.path.join(run.tmp, "data.csv"),
                    ]
                    if workload.batch_size is not None:
                        compare += ["--batch-size", str(workload.batch_size)]
                    table = _run(cli, name, seed, compare)
                    rows = "".join(line.rsplit(",", 1)[0] + "\n" for line in table.splitlines())
                    print(f"{_sha256(rows.encode())}  {name}/seed{seed}/compare.csv without seconds")
                    run.setup()
                    if run.tally.failed:
                        raise SystemExit(f"{name} seed {seed}: Run.setup checks failed: {run.tally.reasons}")
                    for v in workloads.VARIANTS:
                        weights, mse = run.after_train[v]
                        print(f"{_weights_sha256(run.after_epoch[v])}  {_weights_sha256(weights)}  "
                              f"{mse!r}  {name}/seed{seed}/{v} Run.setup epoch, train")
    for seed in SEEDS:
        report = json.loads(_run(cli, "bench", seed, BENCH_ARGV + ["--seed", str(seed)]))
        report["results"] = [{k: v for k, v in result.items() if "_seconds_" not in k}
                             for result in report["results"]]
        print(f"{_sha256(json.dumps(report, indent=2).encode())}  bench/seed{seed}/report.json without seconds")


def _digest_lines(src):
    """The digest lines of the package in ``src``, taken in a fresh interpreter."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import pipeline_digests; pipeline_digests.digest(sys.argv[2])"
    proc = subprocess.run([sys.executable, "-c", code, HERE, src], stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"digests of {src} failed with exit status {proc.returncode}")
    return proc.stdout.splitlines()


def main(argv=None):
    parser = argparse.ArgumentParser(description="Digest every output of the benchmark's CLI pipelines.")
    parser.add_argument("--against", metavar="DIR",
                        help="compare with the digests of the checkout DIR, e.g. the parent commit's")
    args = parser.parse_args(argv)
    if args.against is None:
        digest(os.path.join(ROOT, "src"))
        return 0
    theirs_src = os.path.join(os.path.abspath(args.against), "src")
    if not os.path.isdir(os.path.join(theirs_src, "crpnn")):
        parser.error(f"{args.against} has no src/crpnn package")
    theirs, ours = _digest_lines(theirs_src), _digest_lines(os.path.join(ROOT, "src"))
    diff = list(difflib.unified_diff(theirs, ours, args.against, ROOT, lineterm="", n=0))
    for line in diff:
        print(line)
    if diff:
        return 1
    print(f"all {len(ours)} digest lines equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
