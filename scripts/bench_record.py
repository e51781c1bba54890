"""Record the benchmark of a checkout into one ``BENCH_<tag>.json`` file.

Usage, from the root of a checkout:

    python3 scripts/bench_record.py --tag TAG [--root DIR]

Runs ``DIR/perfbench/run.py`` unmodified (``DIR`` defaults to this
checkout), each run in a fresh process: for each workload, the seeds in
``SEEDS`` untraced and the first of them once more traced, every run for
``SECONDS`` seconds.  From each run it keeps the ``facts`` line and the
last line, one JSON object of metrics.  It then runs one small ``crpnn
bench`` of ``DIR``'s package (``BENCH_ARGV``, the paper's n=5, order 14,
K=5000), whose report carries the multiply-count audit.

The record adds ``git rev-parse HEAD`` of ``DIR`` and the tracked files
that differ from it, the seeds and the host's load average when the record
started, and is written with sorted keys to ``BENCH_<tag>.json`` at the root
of this checkout.  A full record takes about ten minutes.  A run that exits non-zero stops the record.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-l14", "minibatch-l14")
SEEDS = (1, 2, 3)
SECONDS = 50
BENCH_ARGV = ["bench", "--n", "5", "--order", "14", "--samples", "5000",
              "--forward-reps", "20", "--epochs", "5", "--runs", "3", "--seed", "0"]


def run(argv, cwd, env=None):
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench_record: `{' '.join(argv)}` exited {done.returncode}")
    return done.stdout


def perfbench(root, workload, seed, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    lines = run(argv, root).splitlines()
    facts = next(json.loads(line[len("facts "):]) for line in lines if line.startswith("facts "))
    return {"seed": seed, "trace": trace, "facts": facts, "result": json.loads(lines[-1])}


def crpnn_bench(root):
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    return json.loads(run([sys.executable, "-m", "crpnn.cli", *BENCH_ARGV], root, env))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True, help="names the output, BENCH_<tag>.json")
    parser.add_argument("--root", default=ROOT, help="checkout to benchmark (default: this one)")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    record = {
        "tag": args.tag,
        "commit": run(["git", "rev-parse", "HEAD"], root).strip(),
        # tracked files that differ from that commit, when the record is of a working tree
        "uncommitted": [line[3:] for line in
                        run(["git", "status", "--porcelain", "--untracked-files=no"], root).splitlines()],
        "loadavg_at_start": list(os.getloadavg()),
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "runs": {},
    }
    for workload in WORKLOADS:
        runs = [perfbench(root, workload, seed, 0) for seed in SEEDS]
        runs.append(perfbench(root, workload, SEEDS[0], 1))
        record["runs"][workload] = runs
        print(f"{workload}: {len(runs)} runs", file=sys.stderr)
    record["crpnn_bench"] = {"argv": BENCH_ARGV, "report": crpnn_bench(root)}
    out = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
