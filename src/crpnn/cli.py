"""Command-line surface: gen / train / eval / spectrum / bench / compare.

Every subcommand is deterministic given its seed (wall-time fields aside)
and works from plain CSV/JSON files, so pipelines are reproducible and
diff-able.  `CRPNN_SEED` supplies a default seed when --seed is omitted.

Exit codes: 0 success, 1 runtime/data error, 2 usage error.
"""

import argparse
import os
import stat
import sys
import time

import numpy as np

from . import bench as bench_mod
from .csvio import write_csv
from .datagen import (
    default_inputs,
    gen_random_polynomial,
    make_dataset,
    read_dataset_csv,
    write_dataset_csv,
)
from .network import (
    MAX_ORDER,
    VARIANTS,
    NetworkSpec,
    init_weights,
    load_model,
    predict_batch,
    save_model,
)
from .spectrum import expand_to_spectrum, export_spectrum
from .training import TrainConfig, TrainingDivergedError, loss_mse, train

# Every typed error of the package subclasses ValueError; MemoryError is a size too large to allocate.
_RUNTIME_ERRORS = (ValueError, TrainingDivergedError, FloatingPointError, OSError, MemoryError)


def _parse_orders(tokens):
    """Expand order tokens: plain ints plus inclusive `lo-hi` ranges, each
    refused before it is expanded if it reaches above MAX_ORDER."""
    orders = []
    for token in tokens:
        lo, sep, hi = token.partition("-")
        if not (sep and lo and hi):
            lo = hi = token
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise ValueError(f"bad order token {token!r}") from None
        if hi_i < lo_i:
            raise ValueError(f"bad order token {token!r}")
        if hi_i > MAX_ORDER:
            raise ValueError(f"order token {token!r} exceeds MAX_ORDER ({MAX_ORDER})")
        orders.extend(range(lo_i, hi_i + 1))
    return orders


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crpnn",
        description="Polynomial networks with controllable order and readable "
        "relation spectra: data generation, training, expansion and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="RNG seed, the base seed of bench and compare (default: CRPNN_SEED or 0)")
    config = TrainConfig()
    fitting = argparse.ArgumentParser(add_help=False)
    fitting.add_argument("--data", required=True, help="dataset CSV path")
    fitting.add_argument("--epochs", type=int, default=config.epochs, help="training epochs (default %(default)s)")
    fitting.add_argument("--lr", type=float, default=config.learning_rate, help="learning rate (default %(default)s)")
    fitting.add_argument("--batch-size", type=int, default=None, help="minibatch size (default: full batch)")
    fitting.add_argument("--init-scale", type=float, default=None, help="uniform init half-width (default 1/sqrt(n+1))")

    p = sub.add_parser("gen", parents=[seeded], help="generate a random polynomial target and a dataset")
    p.add_argument("--n", type=int, required=True, help="input dimension")
    p.add_argument("--degree", type=int, required=True, help="max total degree of the target")
    p.add_argument("--items", type=int, required=True, help="number of monomials")
    p.add_argument("--coeff-low", type=float, default=-1.0, help="coefficient range low end (default -1)")
    p.add_argument("--coeff-high", type=float, default=1.0, help="coefficient range high end (default 1)")
    p.add_argument("--out", required=True, help="target polynomial CSV path")
    p.add_argument("--data-out", default=None, help="also evaluate the target on sampled inputs and write a dataset CSV")
    p.add_argument("--samples", type=int, default=1000, help="dataset sample count (default 1000)")
    p.add_argument("--t-start", type=float, default=0.0, help="trajectory start time (default 0)")
    p.add_argument("--t-end", type=float, default=7.0, help="trajectory end time (default 7)")

    p = sub.add_parser("train", parents=[seeded, fitting], help="train a network on a dataset CSV")
    p.add_argument("--variant", choices=VARIANTS, required=True, help="network structure")
    p.add_argument("--order", type=int, required=True, help="network order (max total degree)")
    p.add_argument("--lr-decay", type=float, default=None, help="per-epoch multiplicative decay (default none)")
    p.add_argument("--model-out", required=True, help="trained model JSON path")
    p.add_argument("--metrics-out", default=None, help="per-epoch `epoch,mse` CSV path")

    p = sub.add_parser("eval", help="score a trained model on a dataset CSV")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--out", default=None, help="per-sample actual-vs-predicted CSV path")

    p = sub.add_parser("spectrum", help="expand a trained model into its relation spectrum")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--out", required=True, help="spectrum CSV path")

    protocol = bench_mod.BenchProtocol()
    p = sub.add_parser("bench", parents=[seeded], help="time forward passes and training epochs for both variants")
    p.add_argument("--variant", choices=VARIANTS + ("both",), default="both", help="which structures to time (default both)")
    p.add_argument("--n", type=int, default=protocol.n, help="input dimension (default %(default)s)")
    p.add_argument("--m", type=int, default=protocol.m, help="output dimension (default %(default)s)")
    p.add_argument("--order", type=int, default=protocol.order, help="network order (default %(default)s)")
    p.add_argument("--samples", type=int, default=protocol.samples, help="batch columns per pass (default %(default)s)")
    p.add_argument("--forward-reps", type=int, default=protocol.forward_reps, help="timed forward passes (default %(default)s)")
    p.add_argument("--epochs", type=int, default=protocol.epochs, help="timed training epochs (default %(default)s)")
    p.add_argument("--runs", type=int, default=protocol.runs, help="independent runs (default %(default)s)")
    p.add_argument("--lr", type=float, default=protocol.learning_rate, help="learning rate for timed epochs (default %(default)s)")
    p.add_argument("--out", default=None, help="report JSON path (default: stdout)")

    p = sub.add_parser("compare", parents=[seeded, fitting], help="train both variants over orders and seeds, emit an MSE table")
    p.add_argument("--variant", choices=VARIANTS + ("both",), default="both", help="which structures to train (default both)")
    p.add_argument("--orders", nargs="+", required=True, help="orders, e.g. `7 9 14` or `7-14`")
    p.add_argument("--seeds", type=int, default=10, help="seeds per (variant, order) cell (default 10)")
    p.add_argument("--out", default=None, help="table CSV path (default: stdout)")
    p.set_defaults(lr_decay=None)

    return parser


def parse_cli(argv):
    """Parse arguments into a command namespace; exits with code 2 on usage errors."""
    return build_parser().parse_args(argv)


_INPUT_OPTIONS = ("data", "model")
_OUTPUT_OPTIONS = ("out", "data_out", "model_out", "metrics_out")


def _file_key(path):
    """What identifies the file at ``path``: its device and inode when it
    exists, None when it exists and is not a regular file (written in place,
    so it may repeat), else its resolved path."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return (st.st_dev, st.st_ino) if stat.S_ISREG(st.st_mode) else None


def _check_output_paths(args):
    """Refuse, before any work, an output option given as the empty string or
    naming the same file as another output or an input of the command."""
    seen = {}
    for name in _INPUT_OPTIONS + _OUTPUT_OPTIONS:
        path = getattr(args, name, None)
        if path is None:
            continue
        option, output = f"--{name.replace('_', '-')}", name in _OUTPUT_OPTIONS
        if output and path == "":
            raise ValueError(f"{option} must name a file, got an empty path")
        key = _file_key(path)
        if output and key in seen:
            raise ValueError(f"{option} and {seen[key]} name the same file {path!r}")
        if key is not None:
            seen.setdefault(key, option)


def _write_or_print(payload, path):
    """Write bytes to path whole or not at all, or print them when path is None.

    A path that is not a regular file, such as /dev/stdout or a pipe, is
    written in place.  A regular file is replaced by a temporary file made
    beside it, which takes over the old file's permission bits.
    """
    if path is None:
        sys.stdout.write(payload.decode("utf-8"))
        return
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as fh:
            fh.write(payload)
        return
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(payload)
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


def _read(path, parse):
    with open(path, "rb") as fh:
        return parse(fh.read())


def _fit(args, spec, dataset, seed):
    """Initialise a model of `spec` and train it with the parsed training options."""
    model = init_weights(spec, seed=seed, scale=args.init_scale)
    config = TrainConfig(learning_rate=args.lr, epochs=args.epochs, batch_size=args.batch_size,
                         seed=seed, lr_decay=args.lr_decay)
    return train(model, dataset, config)


def cmd_gen(args):
    target = gen_random_polynomial(
        args.n, args.degree, args.items, args.coeff_low, args.coeff_high, args.seed
    )
    outputs = [(export_spectrum(target), args.out)]
    if args.data_out is not None:
        rng = np.random.default_rng(args.seed)
        inputs = default_inputs(args.n, args.samples, rng, args.t_start, args.t_end)
        outputs.append((write_dataset_csv(make_dataset(target, inputs)), args.data_out))
    for payload, path in outputs:
        _write_or_print(payload, path)
    return 0


def cmd_train(args):
    dataset = _read(args.data, read_dataset_csv)
    spec = NetworkSpec.create(args.variant, dataset.n, dataset.m, args.order)
    model, record = _fit(args, spec, dataset, args.seed)
    _write_or_print(save_model(model), args.model_out)
    if args.metrics_out is not None:
        rows = enumerate(record.mse_per_epoch)
        _write_or_print(write_csv(["epoch", "mse"], rows), args.metrics_out)
    print(f"final_mse={record.final_mse!r}")
    return 0


def cmd_eval(args):
    model = _read(args.model, load_model)
    dataset = _read(args.data, read_dataset_csv)
    predictions = predict_batch(model, dataset.inputs)
    mse = loss_mse(predictions, dataset.targets)
    if args.out is not None:
        m = dataset.m
        if m == 1:
            header = ["t_index", "actual", "predicted"]
        else:
            header = (
                ["t_index"]
                + [f"actual_{j + 1}" for j in range(m)]
                + [f"predicted_{j + 1}" for j in range(m)]
            )
        samples = np.concatenate((dataset.targets, predictions)).T.tolist()
        rows = ([k, *row] for k, row in enumerate(samples))
        _write_or_print(write_csv(header, rows), args.out)
    print(f"final_mse={mse!r}")
    return 0


def cmd_spectrum(args):
    model = _read(args.model, load_model)
    _write_or_print(export_spectrum(expand_to_spectrum(model)), args.out)
    return 0


def _variant_list(choice):
    return list(VARIANTS) if choice == "both" else [choice]


def cmd_bench(args):
    protocol = bench_mod.BenchProtocol(
        variants=tuple(_variant_list(args.variant)),
        n=args.n,
        m=args.m,
        order=args.order,
        samples=args.samples,
        forward_reps=args.forward_reps,
        epochs=args.epochs,
        runs=args.runs,
        seed=args.seed,
        learning_rate=args.lr,
    )
    report = bench_mod.run_bench(protocol)
    _write_or_print(report.to_json().encode("utf-8"), args.out)
    return 0


def cmd_compare(args):
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    orders = _parse_orders(args.orders)
    dataset = _read(args.data, read_dataset_csv)
    # every cell is planned before the first one trains, so a bad one fails at once
    specs = [NetworkSpec.create(variant, dataset.n, dataset.m, order)
             for variant in _variant_list(args.variant) for order in orders]
    rows = []
    for spec in specs:
        for seed in range(args.seed, args.seed + args.seeds):
            start = time.perf_counter()
            try:
                final_mse = _fit(args, spec, dataset, seed)[1].final_mse
            except (TrainingDivergedError, FloatingPointError):
                final_mse = float("inf")  # a diverged seed stays in the table
            rows.append([spec.variant, spec.order, seed, final_mse, time.perf_counter() - start])
    header = ["variant", "order", "seed", "final_mse", "seconds"]
    _write_or_print(write_csv(header, rows), args.out)
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "eval": cmd_eval,
    "spectrum": cmd_spectrum,
    "bench": cmd_bench,
    "compare": cmd_compare,
}


def execute(args):
    """Run a parsed command; returns the process exit code."""
    try:
        _check_output_paths(args)
        if "seed" in args and args.seed is None:
            raw = os.environ.get("CRPNN_SEED", "0")
            try:
                args.seed = int(raw)
            except ValueError:
                raise ValueError(f"CRPNN_SEED must be an integer, got {raw!r}") from None
        return _COMMANDS[args.command](args)
    except _RUNTIME_ERRORS as exc:
        print(f"crpnn {args.command}: error: {exc}", file=sys.stderr)
        return 1


def main(argv=None):
    return execute(parse_cli(argv))


if __name__ == "__main__":
    sys.exit(main())
