"""Wall-clock timing harness for the two variants, with multiply-count audit.

Per run: a fresh seeded model and a fresh input batch; one untimed forward
pass (which doubles as the instrumented count audit) and one untimed
one-epoch ``train`` call warm the caches, then ``forward_reps`` batched
forward passes and one full-batch ``train`` call of ``epochs`` epochs are
timed separately on a monotonic clock.  Statistics are aggregated across
runs with the (runs-1)-divisor standard deviation.

Multiply counts cover multiplications only; additions are never counted.
A timed epoch is the epoch ``crpnn train`` runs: one full-batch step, whose
forward pass also gives the last epoch's MSE (the call's last epoch adds
one forward pass for its own).  Training targets are seeded uniform noise: timing
does not depend on what the labels mean.
"""

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import kernels
from .datagen import Dataset, default_inputs
from .linalg import MultiplyCounter, as_int
from .network import CRPNN1, CRPNN2, NetworkSpec, init_weights, predict_batch
from .topology import _mult_count
from .training import TrainConfig, _check_rate, train

COUNT_NOTE = "multiply counts cover multiplications only; additions are not counted"


@dataclass(frozen=True)
class BenchProtocol:
    variants: tuple = (CRPNN1, CRPNN2)
    n: int = 5
    m: int = 1
    order: int = 14
    samples: int = 5000
    forward_reps: int = 1000
    epochs: int = 1000
    runs: int = 10
    seed: int = 0
    learning_rate: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "seed", as_int("seed", self.seed))  # frozen
        for name in ("n", "m", "order", "samples", "forward_reps", "epochs", "runs"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        _check_rate("learning_rate", self.learning_rate)


@dataclass
class VariantResult:
    variant: str
    forward_seconds_mean: float
    forward_seconds_sd: float
    epoch_seconds_mean: float
    epoch_seconds_sd: float
    mults_per_sample: int
    mults_per_forward: int
    measured_mults_per_forward: int


@dataclass
class BenchReport:
    protocol: BenchProtocol
    results: list = field(default_factory=list)

    def result_for(self, variant):
        for r in self.results:
            if r.variant == variant:
                return r
        raise KeyError(variant)

    def to_json(self):
        doc = {**asdict(self), "kernel_backend": kernels.backend_name(), "note": COUNT_NOTE}
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _stats(values):
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, sd


def run_bench(protocol):
    """Execute the timing protocol and return a BenchReport."""
    report = BenchReport(protocol=protocol)
    for variant in protocol.variants:
        spec = NetworkSpec.create(variant, protocol.n, protocol.m, protocol.order)
        per_sample = _mult_count(spec.n, spec.m, spec.order, spec.power)
        per_forward = per_sample * protocol.samples

        forward_times = []
        epoch_times = []
        measured = None
        for run in range(protocol.runs):
            run_seed = protocol.seed + run
            rng = np.random.default_rng(run_seed)
            model = init_weights(spec, seed=run_seed)
            inputs = default_inputs(protocol.n, protocol.samples, rng)
            targets = rng.uniform(-1.0, 1.0, size=(protocol.m, protocol.samples))

            # untimed warm-up forward doubles as the instrumented count audit
            counter = MultiplyCounter()
            predict_batch(model, inputs, counter)
            measured = counter.count
            if measured != per_forward:
                raise RuntimeError(
                    f"instrumented count {measured} != analytic count "
                    f"{per_forward} for {variant} (n={protocol.n}, "
                    f"m={protocol.m}, order={protocol.order})"
                )

            start = time.perf_counter()
            for _ in range(protocol.forward_reps):
                predict_batch(model, inputs)
            forward_times.append(time.perf_counter() - start)

            dataset = Dataset(inputs, targets)
            train(model.copy(), dataset, TrainConfig(protocol.learning_rate, epochs=1))  # warm-up
            trainee, config = model.copy(), TrainConfig(protocol.learning_rate, epochs=protocol.epochs)
            start = time.perf_counter()
            train(trainee, dataset, config)
            epoch_times.append(time.perf_counter() - start)

        fwd_mean, fwd_sd = _stats(forward_times)
        ep_mean, ep_sd = _stats(epoch_times)
        report.results.append(
            VariantResult(
                variant=variant,
                forward_seconds_mean=fwd_mean,
                forward_seconds_sd=fwd_sd,
                epoch_seconds_mean=ep_mean,
                epoch_seconds_sd=ep_sd,
                mults_per_sample=per_sample,
                mults_per_forward=per_forward,
                measured_mults_per_forward=measured,
            )
        )
    return report
