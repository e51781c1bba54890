"""Benchmark of the crpnn package: one workload per process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-l14 --seed 1 --seconds 50 --trace 0

Workloads: ``paper-l14`` and ``minibatch-l14`` (see ``workloads.py`` and
``README.md``).  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the same measurement followed by traced samples
and reports the per-layer metrics instead.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` of the checkout this file sits in,
never from an installed copy; without it the benchmark exits with code 2.
BLAS runs single-threaded: every workload is one closed-loop caller.

glibc's malloc runs with fixed thresholds (``pin_malloc``).  By default it
moves its mmap and trim thresholds as the process frees memory, so whether
the engine's 6xK arrays come back as fresh, page-faulting memory on every
pass depends on what the process did before: CR-PNN I's forward pass at
K=2000 took 0 or about 60 faults per pass depending on the seed, and its
time moved by half.  With arrays up to 32 MiB served from the heap and the
heap never trimmed, no pass faults after warm-up, whatever ran before.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = "1"
# mallopt parameters (malloc.h) and their fixed values.
MALLOC_PINNED = {"M_TRIM_THRESHOLD": (-1, 1 << 30), "M_MMAP_THRESHOLD": (-3, 32 << 20)}


def pin_malloc():
    """Fix glibc's malloc thresholds; returns the values set ({} off glibc)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return {}
    return {name: value for name, (param, value) in MALLOC_PINNED.items()
            if mallopt(param, value) == 1}


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-l14", "minibatch-l14"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import crpnn from this checkout's src/; returns False when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "crpnn", "__init__.py")):
        return False
    sys.path.insert(0, SRC)
    import crpnn

    return os.path.dirname(os.path.abspath(crpnn.__file__)) == os.path.join(SRC, "crpnn")


def main(argv=None):
    args = parse(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    malloc = pin_malloc()
    if not import_package():
        print(f"perfbench: no crpnn package under {SRC}", file=sys.stderr)
        return 2
    import workloads

    facts, metrics = workloads.execute(
        args.workload, args.seed, args.seconds, args.trace, ROOT, STARTED
    )
    facts["malloc"] = malloc
    print("facts " + json.dumps(facts, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    attempted = facts["attempted"]
    failed = facts["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
