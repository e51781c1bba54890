"""The benchmark's workloads: set-up, timed phases, output checks and metrics.

Every workload runs the same four timed phases on its own configuration
(sample count K, per-variant order, batch size, targets):

* ``forward``: one ``network.predict_batch`` over all K samples;
* ``epoch``: one epoch of ``training.backward`` + ``training.sgd_step`` (full
  batch, or every minibatch of a fixed seeded order), no metric;
* ``train_epoch``: one ``training.train`` epoch, full-dataset MSE included;
* ``pipeline``: the CLI in-process: ``gen``, then ``train``, ``eval`` and
  ``spectrum`` for each variant, with files in a temporary directory.

The four take turns in rounds of a fixed number of samples each, until
``--seconds`` are spent and every percentile has the samples it needs, so
every phase samples the whole run.  The two variants alternate sample by
sample, so both see the same machine noise.  Every timed operation
is checked after the clock stops; see ``Run`` for the checks.

With tracing on, the same run is followed by a fixed number of sample pairs
per phase, one untraced and one traced, so the per-layer totals always cover
the same work and the pairs give the tracing overhead.
"""

import contextlib
import gc
import hashlib
import io
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import tracemalloc
import traceback
from dataclasses import dataclass

import numpy as np

from crpnn import cli, datagen, kernels, linalg, network, spectrum, topology, training

import stats
from tracing import Tracer, self_times

VARIANTS = (network.CRPNN1, network.CRPNN2)
N_INPUTS = 5
TARGET_DEGREE = 14
TARGET_ITEMS = 2772
LEARNING_RATE = 0.01
SETUP_REPEATS = 5
ORACLE_POINTS = 100
TOL = 1e-9  # |a - e| / (1 + |e|), as the package's own spectrum oracle
PHASES = ("forward", "epoch", "train_epoch", "pipeline")
# Gated engine timings are the fastest of their samples.  On a shared
# 2-vCPU host the speed of a run switches between two modes about 1.7x
# apart, for seconds to tens of seconds, and the share of time in the slow
# mode changes from run to run (some runs spend under a twentieth of it in
# the fast one), so the median and even the p5 of samples of a few
# milliseconds jump between modes from run to run.  A pipeline iteration
# (about a second) averages over the modes, and its median is steadier.
# Engine phases also feed p90 (and forward p99) in the traced run.
MIN_SAMPLES = {
    "forward": stats.min_samples(0.99),
    "epoch": stats.min_samples(0.9),
    "train_epoch": stats.min_samples(0.9),
    "pipeline": 10,
}
TRACED_PAIRS = {"forward": 20, "epoch": 4, "train_epoch": 4, "pipeline": 2}
SHOWN_FAILURES = 3
# Operations that keep failing leave too few samples; stop waiting for them.
GIVE_UP_S = 60.0
ENGINE_PHASES = PHASES[:-1]


@dataclass(frozen=True)
class Workload:
    name: str
    samples: int
    orders: dict
    batch_size: int | None
    noise_targets: bool
    # Per-variant order and epochs of the CLI pipeline's ``train``.
    pipeline_orders: dict
    pipeline_epochs: int
    # Samples per variant per round of each phase.  Every round runs every
    # phase, so each phase's samples spread over the whole run.
    per_round: dict


WORKLOADS = {
    # The paper's timing protocol: n=5, order 14, K=5000 five-sine samples,
    # uniform-noise targets.  6xK operands; nearly all engine time is in
    # kernels.  Its pipeline trains and expands CR-PNN II at order 20, where
    # spectrum expansion is dearest.
    "paper-l14": Workload(
        "paper-l14", 5000, {"crpnn1": 14, "crpnn2": 14}, None, True,
        {"crpnn1": 14, "crpnn2": 20}, 20,
        {"forward": 100, "epoch": 80, "train_epoch": 60, "pipeline": 1},
    ),
    # Same layers, 6x32 operands: per-call validation and dispatch dominate,
    # and the last minibatch of each epoch has 16 columns.
    "minibatch-l14": Workload(
        "minibatch-l14", 2000, {"crpnn1": 14, "crpnn2": 14}, 32, False,
        {"crpnn1": 14, "crpnn2": 14}, 5,
        {"forward": 100, "epoch": 12, "train_epoch": 12, "pipeline": 1},
    ),
}


def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def mults_per_sample(variant, order):
    count = topology.mult_count_crpnn1 if variant == network.CRPNN1 else topology.mult_count_crpnn2
    return count(N_INPUTS, 1, order)


def reference_forward(model, xs):
    """CR-PNN I/II forward written out with plain numpy, independent of crpnn."""
    xa = np.vstack([xs, np.ones((1, xs.shape[1]))])
    a = xa
    for i, w in enumerate(model.weights[:-1]):
        gate = xa ** model.spec.plan.power if (i == 0 and model.spec.plan) else xa
        a = (w @ a) * gate
    return model.weights[-1] @ a


def close(actual, expected, tol):
    """Entrywise |a - e| / (1 + |e|) below tol."""
    return bool(np.all(np.abs(actual - expected) / (1.0 + np.abs(expected)) < tol))


def same_weights(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


@dataclass
class Op:
    """One timed operation: ``prepare`` and ``check`` run off the clock."""

    run: object
    check: object
    prepare: object = None


class Run:
    """One benchmark process: set-up, the timed phases and their checks.

    Checks feeding ``failed``: the instrumented multiply count equals the
    topology formula times K; forward output matches a plain-numpy reference
    and is bit-identical across passes; every epoch and ``train`` epoch from
    the same start gives bit-identical weights; every CLI command exits 0;
    ``eval`` reports the same ``final_mse`` as ``train``; pipeline outputs are
    byte-identical across iterations; and the exported spectrum reproduces the
    trained model at 100 dataset points to 1e-9.
    """

    def __init__(self, workload, seed, seconds, root):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.tally = stats.Tally()
        self.samples = {}
        self.faults = {}
        self.pairs = {"untraced": 0, "traced": 0}
        self.segments = {}
        self.counted = {}
        self.digests = None
        self.bytes_written = 0
        self.tmp = None

    # -- set-up ---------------------------------------------------------

    def setup(self):
        """Build inputs, models and references; warm up; audit counts."""
        w, seed = self.w, self.seed
        inputs = datagen.sample_sine_trajectory(w.samples)
        if w.noise_targets:
            targets = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(1, w.samples))
        else:
            target = datagen.gen_random_polynomial(
                N_INPUTS, TARGET_DEGREE, TARGET_ITEMS, seed=seed
            )
            targets = datagen.make_dataset(target, inputs).targets
        self.dataset = datagen.Dataset(inputs, targets)
        self.noise = np.random.default_rng([seed, 1]).uniform(-1.0, 1.0, size=(1, w.samples))
        if w.batch_size is None:
            self.batches = [slice(None)]
        else:
            order = np.random.default_rng([seed, 2]).permutation(w.samples)
            self.batches = [order[lo:lo + w.batch_size] for lo in range(0, w.samples, w.batch_size)]
        self.config = training.TrainConfig(
            learning_rate=LEARNING_RATE, epochs=1, batch_size=w.batch_size, seed=seed
        )
        self.models, self.outputs, self.after_epoch, self.after_train = {}, {}, {}, {}
        for v in VARIANTS:
            spec = network.NetworkSpec.create(v, N_INPUTS, 1, w.orders[v])
            model = network.init_weights(spec, seed=seed)
            counter = linalg.MultiplyCounter()
            out = network.predict_batch(model, inputs, counter)
            self.counted[v] = counter.count
            expected = mults_per_sample(v, w.orders[v]) * w.samples
            self.tally.record(counter.count == expected, f"{v}: counted {counter.count} != {expected}")
            self.tally.record(
                close(out, reference_forward(model, inputs), TOL),
                f"{v}: forward differs from the reference",
            )
            self.models[v], self.outputs[v] = model, out
            trainee = model.copy()
            self._epoch(trainee)
            self.after_epoch[v] = trainee.weights
            trainee, record = training.train(model.copy(), self.dataset, self.config)
            self.after_train[v] = (trainee.weights, record.final_mse)

    def _epoch(self, model):
        for idx in self.batches:
            grads = training.backward(model, self.dataset.inputs[:, idx], self.noise[:, idx])
            training.sgd_step(model, grads, LEARNING_RATE)

    # -- phase operations ------------------------------------------------

    def ops(self, phase):
        return getattr(self, f"_ops_{phase}")()

    def _ops_forward(self):
        def op(v):
            model, ref = self.models[v], self.outputs[v]
            return Op(
                run=lambda: network.predict_batch(model, self.dataset.inputs),
                check=lambda out: np.array_equal(out, ref),
            )
        return {v: op(v) for v in VARIANTS}

    def _ops_epoch(self):
        def op(v):
            start, trainee = self.models[v].weights, self.models[v].copy()

            def prepare():
                for dst, src in zip(trainee.weights, start):
                    np.copyto(dst, src)

            return Op(
                run=lambda: self._epoch(trainee),
                check=lambda _: same_weights(trainee.weights, self.after_epoch[v]),
                prepare=prepare,
            )
        return {v: op(v) for v in VARIANTS}

    def _ops_train_epoch(self):
        def op(v):
            fresh = []
            weights, mse = self.after_train[v]
            return Op(
                run=lambda: training.train(fresh.pop(), self.dataset, self.config),
                check=lambda out: same_weights(out[0].weights, weights) and out[1].final_mse == mse,
                prepare=lambda: fresh.append(self.models[v].copy()),
            )
        return {v: op(v) for v in VARIANTS}

    def _ops_pipeline(self):
        return {"all": Op(run=self._pipeline, check=self._check_pipeline, prepare=gc.collect)}

    # -- the CLI pipeline --------------------------------------------------

    def _path(self, name):
        return os.path.join(self.tmp, name)

    def _argvs(self):
        w, seed = self.w, str(self.seed)
        argvs = [[
            "gen", "--n", str(N_INPUTS), "--degree", str(TARGET_DEGREE),
            "--items", str(TARGET_ITEMS), "--samples", str(w.samples), "--seed", seed,
            "--out", self._path("target.csv"), "--data-out", self._path("data.csv"),
        ]]
        for v in VARIANTS:
            train = [
                "train", "--variant", v, "--order", str(w.pipeline_orders[v]),
                "--data", self._path("data.csv"), "--epochs", str(w.pipeline_epochs),
                "--lr", repr(LEARNING_RATE), "--seed", seed,
                "--model-out", self._path(f"{v}.json"),
                "--metrics-out", self._path(f"{v}-metrics.csv"),
            ]
            if w.batch_size is not None:
                train += ["--batch-size", str(w.batch_size)]
            argvs += [
                train,
                ["eval", "--model", self._path(f"{v}.json"), "--data", self._path("data.csv"),
                 "--out", self._path(f"{v}-eval.csv")],
                ["spectrum", "--model", self._path(f"{v}.json"),
                 "--out", self._path(f"{v}-spectrum.csv")],
            ]
        return argvs

    def _pipeline(self):
        results = []
        for argv in self.argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            results.append((argv[0], code, out.getvalue().strip()))
        return results

    def _check_pipeline(self, results):
        ok = all(code == 0 for _, code, _ in results)
        mses = [text for cmd, _, text in results if cmd in ("train", "eval")]
        ok &= all(mses[i] == mses[i + 1] and mses[i].startswith("final_mse=")
                  for i in range(0, len(mses), 2))
        digests = {name: self._digest(name) for name in sorted(os.listdir(self.tmp))}
        if self.digests is None:
            self.digests = digests
            self.bytes_written = sum(os.path.getsize(self._path(n)) for n in digests)
            ok &= all(self._oracle(v) for v in VARIANTS)
        return ok and digests == self.digests

    def _digest(self, name):
        with open(self._path(name), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def _oracle(self, v):
        """The exported spectrum reproduces the saved model at dataset points."""
        with open(self._path("data.csv"), "rb") as fh:
            data = datagen.read_dataset_csv(fh.read())
        with open(self._path(f"{v}.json"), "rb") as fh:
            model = network.load_model(fh.read())
        with open(self._path(f"{v}-spectrum.csv"), "rb") as fh:
            poly = spectrum.import_spectrum(fh.read())
        cols = np.linspace(0, data.size - 1, ORACLE_POINTS).round().astype(int)
        xs = data.inputs[:, cols]
        return close(spectrum.evaluate_spectrum_cols(poly, xs),
                     network.predict_batch(model, xs), TOL)

    # -- timing ------------------------------------------------------------

    def sample(self, key, op, tracer=None):
        """Time one operation; returns (seconds, minor faults), None if it failed."""
        if op.prepare is not None:
            op.prepare()
        faults = minflt()
        if tracer is not None:
            tracer.install()
        begin = time.perf_counter()
        try:
            result = op.run()
        except Exception:
            elapsed = None
            if self.tally.failed < SHOWN_FAILURES:
                traceback.print_exc(file=sys.stderr)
        else:
            elapsed = time.perf_counter() - begin
        finally:
            if tracer is not None:
                tracer.uninstall()
        faults = minflt() - faults
        if elapsed is None:
            self.tally.record(False, f"{key}: raised")
            return None
        if not self.tally.record(bool(op.check(result)), f"{key}: wrong output"):
            return None
        return elapsed, faults

    def _take(self, phase, ops, count):
        for v in ops:
            self.samples.setdefault((phase, v), [])
            self.faults.setdefault((phase, v), [])
        for _ in range(count):
            for v, op in ops.items():
                got = self.sample(f"{phase}.{v}", op)
                if got is not None:
                    self.samples[(phase, v)].append(got[0])
                    self.faults[(phase, v)].append(got[1])

    def _done(self, deadline):
        """Past the deadline with enough samples, or GIVE_UP_S past it."""
        now = time.perf_counter()
        enough = all(len(samples) >= MIN_SAMPLES[p] for (p, _), samples in self.samples.items())
        return now >= deadline and (enough or now >= deadline + GIVE_UP_S)

    def measure(self):
        """Rounds of every phase until --seconds are up."""
        deadline = time.perf_counter() + self.seconds
        while True:
            for phase in PHASES:
                ops = self.ops(phase)
                gc.collect()
                self._take(phase, ops, self.w.per_round[phase])
            if self._done(deadline):
                return

    def traced_pairs(self, tracer):
        for phase in PHASES:
            ops = self.ops(phase)
            gc.collect()
            for i in range(TRACED_PAIRS[phase]):
                for v, op in ops.items():
                    # alternate which side of the pair runs first
                    if i % 2:
                        plain = self.sample(f"{phase}.{v}", op)
                    lo = len(tracer)
                    traced = self.sample(f"{phase}.{v}", op, tracer)
                    self.segments.setdefault((phase, v), []).append((lo, len(tracer)))
                    if not i % 2:
                        plain = self.sample(f"{phase}.{v}", op)
                    if plain is not None and traced is not None:
                        self.pairs["untraced"] += plain[0]
                        self.pairs["traced"] += traced[0]

    def alloc_per_pass(self):
        """Peak bytes numpy and Python allocate above the start of one pass."""
        out = {}
        tracemalloc.start()
        try:
            for v in VARIANTS:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                network.predict_batch(self.models[v], self.dataset.inputs)
                out[v] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return out

    def __enter__(self):
        scratch = os.path.join(self.root, ".perfbench")
        os.makedirs(scratch, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="pipeline-", dir=scratch)
        self.argvs = self._argvs()
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.tmp, ignore_errors=True)


# -- metrics -------------------------------------------------------------


def _timing(run, phase, v, q):
    values = run.samples[(phase, v)]
    if q == 0.5:
        return stats.median(values)
    value = stats.tail_percentile(values, q)
    if value is None:
        raise RuntimeError(f"{phase}.{v}: {len(values)} samples are too few for p{round(q * 100)}")
    return value


def end_to_end(run, setup_s):
    metrics = {"setup_s": (setup_s, "s")}
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    for phase in ENGINE_PHASES:
        for v in VARIANTS:
            metrics[f"{phase}_ms.min.{v}"] = (1e3 * min(run.samples[(phase, v)]), "ms")
    metrics["pipeline_s.p50"] = (_timing(run, "pipeline", "all", 0.5), "s")
    return metrics


class SpanView:
    """Sums over recorded spans, by exact name or by layer prefix."""

    def __init__(self, spans):
        self.s = spans
        self.names = list(spans["names"])
        self.duration = (spans["end"] - spans["start"]) / 1e9
        self.self_s = self_times(spans["start"], spans["end"], spans["parent"]) / 1e9

    def mask(self, name=None, layer=None, within=None):
        ids = [i for i, n in enumerate(self.names)
               if n == name or (layer is not None and n.split(".")[0] == layer)]
        selected = np.isin(self.s["name"], ids)
        if within is not None:
            inside = np.zeros_like(selected)
            for lo, hi in within:
                inside[lo:hi] = True
            selected &= inside
        return selected

    def total(self, column, **where):
        values = {"duration": self.duration, "self": self.self_s}.get(column)
        if values is None:
            return int(self.s[column][self.mask(**where)].sum())
        return float(values[self.mask(**where)].sum())

    def count(self, **where):
        return int(self.mask(**where).sum())


def per_layer(run, view, alloc):
    w = run.w
    m = {}
    seg = run.segments

    def spans_of(phase):
        return [s for (p, _), segs in seg.items() if p == phase for s in segs]

    mults = view.total("work", layer="kernels")
    nbytes = view.total("nbytes", layer="kernels")
    kernel_self = view.total("self", layer="kernels")
    m["kernels.calls"] = (view.count(layer="kernels"), "count")
    m["kernels.self_s"] = (kernel_self, "s")
    m["kernels.mults_computed"] = (mults, "count")
    m["kernels.bytes_computed"] = (nbytes, "B")
    m["kernels.mults_per_byte"] = (mults / nbytes, "ratio")
    m["kernels.ns_per_mult"] = (1e9 * kernel_self / mults, "ns")
    m["linalg.calls"] = (view.count(layer="linalg"), "count")
    m["linalg.self_s"] = (view.total("self", layer="linalg"), "s")
    for v in VARIANTS:
        m[f"linalg.mults_counted.{v}"] = (run.counted[v], "count")

    m["network.predict_batch.self_s"] = (view.total("self", name="network.predict_batch"), "s")
    for v in VARIANTS:
        faults = run.faults[("forward", v)]
        m[f"network.minflt_per_pass.{v}"] = (sum(faults) / len(faults), "count")
        m[f"network.alloc_bytes_per_pass.{v}"] = (alloc[v], "B")
        m[f"network.forward_ms.p50.{v}"] = (1e3 * _timing(run, "forward", v, 0.5), "ms")
        m[f"network.forward_ms.p90.{v}"] = (1e3 * _timing(run, "forward", v, 0.9), "ms")
        m[f"network.forward_ms.p99.{v}"] = (1e3 * _timing(run, "forward", v, 0.99), "ms")
    m["network.save_model_s"] = (view.total("duration", name="network.save_model"), "s")
    m["network.load_model_s"] = (view.total("duration", name="network.load_model"), "s")

    m["training.backward.self_s"] = (view.total("self", name="training.backward"), "s")
    m["training.sgd_step.self_s"] = (view.total("self", name="training.sgd_step"), "s")
    m["training.loss_mse_s"] = (view.total("duration", name="training.loss_mse"), "s")
    for phase in ("epoch", "train_epoch"):
        for v in VARIANTS:
            m[f"training.{phase}_ms.p50.{v}"] = (1e3 * _timing(run, phase, v, 0.5), "ms")
            m[f"training.{phase}_ms.p90.{v}"] = (1e3 * _timing(run, phase, v, 0.9), "ms")
    train_segs = spans_of("train_epoch")
    columns = (view.total("work", name="training.backward", within=train_segs)
               + view.total("work", name="network.predict_batch", within=train_segs))
    m["training.forward_passes_per_epoch"] = (columns / (w.samples * len(train_segs)), "ratio")
    for v in VARIANTS:
        faults = run.faults[("epoch", v)]
        m[f"training.minflt_per_epoch.{v}"] = (sum(faults) / len(faults), "count")
    train_mask = view.mask(name="training.train", within=train_segs)
    train_ids = np.flatnonzero(train_mask)
    under_train = np.isin(view.s["parent"], train_ids)
    metric = (view.mask(name="network.predict_batch") | view.mask(name="training.loss_mse")) & under_train
    m["training.metric_share"] = (
        float(view.duration[metric].sum() / view.duration[train_mask].sum()), "ratio")

    pipe = spans_of("pipeline")
    expand = view.mask(name="spectrum.expand_to_spectrum", within=pipe)
    # each pipeline iteration expands the variants in VARIANTS order
    expand_s = view.duration[expand]
    for i, v in enumerate(VARIANTS):
        m[f"spectrum.expand_s.{v}"] = (float(expand_s[i::len(VARIANTS)].sum()), "s")
    m["spectrum.expand_terms"] = (view.total("work", name="spectrum.expand_to_spectrum", within=pipe), "count")
    m["spectrum.export_s"] = (view.total("duration", name="spectrum.export_spectrum", within=pipe), "s")
    m["spectrum.export_bytes"] = (view.total("nbytes", name="spectrum.export_spectrum", within=pipe), "B")
    m["spectrum.evaluate_cols_s"] = (view.total("duration", name="spectrum.evaluate_spectrum_cols", within=pipe), "s")

    m["datagen.gen_random_polynomial_s"] = (view.total("duration", name="datagen.gen_random_polynomial", within=pipe), "s")
    m["datagen.make_dataset.self_s"] = (view.total("self", name="datagen.make_dataset", within=pipe), "s")
    m["datagen.write_csv_s"] = (view.total("duration", name="datagen.write_dataset_csv", within=pipe), "s")
    m["datagen.read_csv_s"] = (view.total("duration", name="datagen.read_dataset_csv", within=pipe), "s")
    m["datagen.csv_bytes"] = (view.total("nbytes", name="datagen.write_dataset_csv", within=pipe), "B")

    for cmd in ("gen", "train", "eval", "spectrum"):
        m[f"cli.{cmd}.self_s"] = (view.total("self", name=f"cli.cmd_{cmd}", within=pipe), "s")
    m["cli.bytes_written"] = (run.bytes_written, "B")

    for v in VARIANTS:
        m[f"topology.mults_per_sample.{v}"] = (mults_per_sample(v, w.orders[v]), "count")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    m["proc.utime_s"] = (usage.ru_utime, "s")
    m["proc.stime_s"] = (usage.ru_stime, "s")
    m["proc.minflt"] = (usage.ru_minflt, "count")
    m["trace.overhead_ratio"] = (run.pairs["traced"] / run.pairs["untraced"], "ratio")
    m["trace.spans"] = (len(view.duration), "count")
    i, ii = VARIANTS
    m["paper.time_ratio"] = (_timing(run, "forward", ii, 0.5) / _timing(run, "forward", i, 0.5), "ratio")
    m["paper.mult_ratio"] = (mults_per_sample(ii, w.orders[ii]) / mults_per_sample(i, w.orders[i]), "ratio")
    return m


def facts(run):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": run.w.name,
        "seed": run.seed,
        "seconds": run.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "backend": kernels.backend_name(),
        "samples": {f"{p}.{v}": len(s) for (p, v), s in run.samples.items()},
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "error_rate": run.tally.error_rate,
        "failures": run.tally.reasons[:SHOWN_FAILURES],
    }


def execute(name, seed, seconds, trace, root, started):
    """Run one workload; returns (facts, metrics) with metrics as name -> (value, unit)."""
    imported = time.perf_counter() - started
    with Run(WORKLOADS[name], seed, seconds, root) as run:
        setups = []
        for _ in range(SETUP_REPEATS):
            begin = time.perf_counter()
            run.setup()
            setups.append(time.perf_counter() - begin)
        setup_s = imported + stats.median(setups)
        run.measure()
        if not trace:
            return facts(run), end_to_end(run, setup_s)
        tracer = Tracer()
        run.traced_pairs(tracer)
        alloc = run.alloc_per_pass()
        spans = tracer.spans()
        out = os.path.join(root, ".perfbench", f"spans-{name}-seed{seed}-{os.getpid()}.npz")
        np.savez(out, **spans)
        return facts(run), per_layer(run, SpanView(spans), alloc)
