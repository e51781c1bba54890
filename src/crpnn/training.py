"""Backpropagation learning rule, training loop and gradient checking.

The gradients returned by :func:`backward` are exact gradients of the
internal loss J = (1/(2B)) * sum over the batch of ||y_hat - y||^2, the
unique quadratic for which the output seed is plainly (y_hat - y) and the
weight update carries a 1/B prefactor.  The reported metric is the plain
entry-averaged MSE, which equals 2*J at full batch for single-output models
(m * MSE / 2 == J in general).

Backward chain, innermost layer last (X~ is the bias-augmented input):

* output layer:   dZ = dA
* Taylor layer:   dZ = dA o X~
* expanded layer: dZ = dA o X~^c
* per layer:      dW = (1/B) dZ A_prev^T,   dA_prev = W^T dZ
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .linalg import ShapeError, as_array
from .network import predict_batch, _forward_cols

DIVERGENCE_CEILING = 1e12
GRAD_CHECK_MAX_PARAMS = 2000


class TrainingDivergedError(RuntimeError):
    """Epoch MSE became non-finite or exceeded the divergence ceiling."""


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 2000
    batch_size: int | None = None  # None trains on the full dataset each step
    seed: int = 0
    lr_decay: float | None = None  # multiplicative factor applied per epoch

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.lr_decay is not None and self.lr_decay <= 0:
            raise ValueError(f"lr_decay must be positive, got {self.lr_decay}")


@dataclass
class TrainRecord:
    mse_per_epoch: list = field(default_factory=list)
    final_mse: float = float("nan")
    epochs_run: int = 0
    wall_seconds: float = 0.0


def loss_mse(predictions, targets):
    """Mean of squared entry-wise differences over all K*m entries."""
    predictions = as_array(predictions)
    targets = as_array(targets)
    if predictions.shape != targets.shape:
        raise ShapeError(
            f"prediction shape {predictions.shape} != target shape {targets.shape}"
        )
    diff = predictions - targets
    return float(np.mean(diff * diff))


def internal_loss(model, inputs, targets):
    """J = (1/(2B)) * sum of squared residuals over the batch."""
    inputs = as_array(inputs, 2)
    targets = as_array(targets, 2)
    diff = predict_batch(model, inputs) - targets
    return float((diff * diff).sum() / (2.0 * inputs.shape[1]))


def _check_batch(model, inputs, targets):
    spec = model.spec
    if inputs.shape[1] == 0:
        raise ShapeError("batch is empty")
    if inputs.shape[0] != spec.n:
        raise ShapeError(f"model expects {spec.n} input rows, got {inputs.shape[0]}")
    if targets.shape[0] != spec.m:
        raise ShapeError(f"model expects {spec.m} target rows, got {targets.shape[0]}")
    if targets.shape[1] != inputs.shape[1]:
        raise ShapeError(
            f"batch has {inputs.shape[1]} input columns but {targets.shape[1]} target columns"
        )


def backward(model, inputs, targets):
    """Gradients of the internal loss w.r.t. every weight matrix.

    Returns one gradient matrix per weight, shape-congruent with the model.
    The output seed is formed in place in the forward output, and the error
    of each hidden layer is written into the forward cache slot that held
    that layer's output, which its own gradient has already read: the pass
    allocates nothing beyond the forward cache and the gradients, and no
    product writes over its own operand.  The gate Hadamard and the 1/B
    scaling run in place.  Overflow raises FloatingPointError, not a warning.
    """
    inputs = as_array(inputs, 2, "batch inputs")
    targets = as_array(targets, 2, "batch targets")
    _check_batch(model, inputs, targets)
    batch = inputs.shape[1]

    weights = model.weights
    grads = [None] * len(weights)
    inv_batch = 1.0 / batch

    with np.errstate(over="ignore", invalid="ignore"):
        y, xa, xc, acts = _forward_cols(model, inputs, want_cache=True)
        if not np.isfinite(y).all():
            raise FloatingPointError(
                "forward pass overflowed (non-finite activations); "
                "scale inputs to [-1, 1] before training"
            )
        d_pre = np.subtract(y, targets, out=y)
        grads[-1] = kernels.matmul_nt(d_pre, acts[-1])
        for i in range(len(weights) - 2, -1, -1):
            # d_pre sits in acts[i + 2] (or y); acts[i + 1] is no longer needed
            d_pre = kernels.matmul_tn(weights[i + 1], d_pre, out=acts[i + 1])
            gate = xc if i == 0 and xc is not None else xa
            kernels.hadamard(d_pre, gate, out=d_pre)
            grads[i] = kernels.matmul_nt(d_pre, acts[i])
        for g in grads:
            g *= inv_batch

    for idx, g in enumerate(grads):
        if not np.isfinite(g).all():
            raise FloatingPointError(
                f"gradient for weight matrix {idx} is non-finite; "
                "scale inputs to [-1, 1] before training"
            )
    return grads


def sgd_step(model, grads, learning_rate):
    """In-place descent step: W <- W - learning_rate * dW."""
    if len(grads) != len(model.weights):
        raise ShapeError(
            f"got {len(grads)} gradients for {len(model.weights)} weight matrices"
        )
    for w, g in zip(model.weights, grads):
        if w.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != weight shape {w.shape}")
        w -= learning_rate * g
    return model


def train(model, dataset, config, metrics_path=None):
    """Run (mini)batch gradient descent; returns (model, TrainRecord).

    Records the full-dataset MSE after every epoch (also streamed to
    ``metrics_path`` as `epoch,mse` rows when given) and aborts loudly if it
    goes non-finite or above 1e12.  Deterministic for a given config seed;
    full-batch runs never touch the RNG.
    """
    inputs = as_array(dataset.inputs, 2, "dataset inputs")
    targets = as_array(dataset.targets, 2, "dataset targets")
    _check_batch(model, inputs, targets)
    total = inputs.shape[1]
    batch = config.batch_size if config.batch_size is not None else total
    if batch > total:
        raise ValueError(f"batch_size {batch} exceeds dataset size {total}")

    rng = np.random.default_rng(config.seed)
    lr = config.learning_rate
    record = TrainRecord()
    start = time.perf_counter()
    metrics_file = open(metrics_path, "w", encoding="utf-8") if metrics_path else None
    try:
        if metrics_file:
            metrics_file.write("epoch,mse\n")
        for epoch in range(config.epochs):
            if batch < total:
                order = rng.permutation(total)
                for lo in range(0, total, batch):
                    idx = order[lo : lo + batch]
                    grads = backward(model, inputs[:, idx], targets[:, idx])
                    sgd_step(model, grads, lr)
            else:
                grads = backward(model, inputs, targets)
                sgd_step(model, grads, lr)
            with np.errstate(over="ignore", invalid="ignore"):
                # a diverging model overflows here; the ceiling check reports it
                mse = loss_mse(predict_batch(model, inputs), targets)
            record.mse_per_epoch.append(mse)
            record.epochs_run = epoch + 1
            if metrics_file:
                metrics_file.write(f"{epoch},{mse!r}\n")
                metrics_file.flush()
            if not np.isfinite(mse) or mse > DIVERGENCE_CEILING:
                record.wall_seconds = time.perf_counter() - start
                raise TrainingDivergedError(
                    f"training diverged at epoch {epoch}: mse={mse!r} "
                    f"(learning rate {lr!r} too large for this topology?)"
                )
            if config.lr_decay is not None:
                lr *= config.lr_decay
    finally:
        if metrics_file:
            metrics_file.close()
    record.wall_seconds = time.perf_counter() - start
    record.final_mse = (
        record.mse_per_epoch[-1]
        if record.mse_per_epoch
        else loss_mse(predict_batch(model, inputs), targets)
    )
    return model, record


def grad_check(model, inputs, targets, step_scale=1e-6, rel_floor=1e-5):
    """Worst relative gap between backward() and central finite differences.

    The per-entry gap is |analytic - numeric| / max(|analytic|, |numeric|,
    rel_floor); the floor makes the comparison an absolute one of
    rel_floor^2-ish size near zero, where relative error is meaningless.
    Guarded to small models to keep the 2-forward-passes-per-weight cost sane.
    """
    if model.parameter_count() > GRAD_CHECK_MAX_PARAMS:
        raise ValueError(
            f"grad_check is limited to {GRAD_CHECK_MAX_PARAMS} parameters, "
            f"model has {model.parameter_count()}"
        )
    inputs = as_array(inputs, 2)
    targets = as_array(targets, 2)
    analytic = backward(model, inputs, targets)
    worst = 0.0
    for w, g in zip(model.weights, analytic):
        for idx in np.ndindex(w.shape):
            h = step_scale * max(1.0, abs(w[idx]))
            orig = w[idx]
            w[idx] = orig + h
            plus = internal_loss(model, inputs, targets)
            w[idx] = orig - h
            minus = internal_loss(model, inputs, targets)
            w[idx] = orig
            numeric = (plus - minus) / (2.0 * h)
            gap = abs(g[idx] - numeric) / max(abs(g[idx]), abs(numeric), rel_floor)
            if gap > worst:
                worst = gap
    return worst
