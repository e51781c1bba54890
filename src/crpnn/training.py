"""Backpropagation learning rule, training loop and gradient checking.

The gradient returned by :func:`backward` is the exact gradient of the
internal loss J = (1/(2B)) * sum over the batch of ||y_hat - y||^2, the
unique quadratic for which the output seed is plainly (y_hat - y) and the
weight update carries a 1/B prefactor.  The reported metric is the plain
entry-averaged MSE, which equals 2*J at full batch for single-output models
(m * MSE / 2 == J in general).

Training is arithmetic only: it opens no file and reads no clock.  A caller
that wants the per-epoch MSEs on disk writes them from the returned record.

Backward chain, innermost layer last (X~ is the bias-augmented input):

* output layer:       dZ = dA
* Taylor layer:       dZ = dA o X~
* first hidden layer: dZ = dA o X~^c  (c = ``spec.power``, 1 for CR-PNN I)
* per layer:          dW = (1/B) dZ A_prev^T,   dA_prev = W^T dZ

A wide pass forms each hidden dW as soon as its dZ exists.  A narrow one
(see ``ERROR_BLOCK_BUDGET``) does so for layer 0 only, and forms the dW of
layers 1..h-1 after the chain in one product over a stack.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .kernels import matmul
from .linalg import ShapeError, as_array, as_int
from .network import _aligned_empty, _fill_inputs, _layers, _packed, predict_batch

DIVERGENCE_CEILING = 1e12
GRAD_CHECK_MAX_PARAMS = 2000
GRAD_CHECK_STEP = 1e-6  # finite-difference step, relative to max(1, |w|)
GRAD_CHECK_FLOOR = 1e-5  # smallest denominator of a per-entry gap


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
        _check_rate("learning_rate", self.learning_rate)
        self.epochs, self.seed = as_int("epochs", self.epochs), as_int("seed", self.seed)
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if self.batch_size is not None:
            self.batch_size = as_int("batch_size", self.batch_size)
            if self.batch_size < 1:
                raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.lr_decay is not None:
            _check_rate("lr_decay", self.lr_decay)


def _check_rate(name, value):
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


@dataclass
class TrainRecord:
    mse_per_epoch: list = field(default_factory=list)
    final_mse: float = float("nan")


def loss_mse(predictions, targets):
    """Mean of squared entry-wise differences over all K*m entries."""
    predictions = as_array(predictions)
    targets = as_array(targets)
    if predictions.shape != targets.shape:
        raise ShapeError(
            f"prediction shape {predictions.shape} != target shape {targets.shape}"
        )
    if predictions.size == 0:
        raise ShapeError(f"loss of empty operands of shape {predictions.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        # overflow yields inf, which train's divergence check reports
        diff = predictions - targets
        return float(np.mean(diff * diff))


def _check_batch(model, inputs, targets):
    """The batch as C-contiguous float64 (n x B inputs, m x B targets), refused
    with ShapeError unless it is non-empty and sized for the model."""
    inputs = as_array(inputs, 2, "batch inputs")
    targets = as_array(targets, 2, "batch targets")
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
    return inputs, targets


def backward(model, inputs, targets):
    """Gradient of the internal loss w.r.t. ``model.params``.

    Returns a fresh C-contiguous float64 vector laid out as ``params``.  The
    pass allocates the forward cache and the gradient; a narrow pass (see
    ``ERROR_BLOCK_BUDGET``) also allocates one error block the size of the
    cache, and a wide one (K=5000 at n=5) nothing more.  Overflow raises
    FloatingPointError, a non-finite batch ValueError, not a warning.
    """
    inputs, targets = _check_batch(model, inputs, targets)
    spec, weights = model.spec, model.weights
    hidden, width, cols = len(weights) - 1, spec.n + 1, inputs.shape[1]
    grad, grads = _packed(spec, np.empty)
    # X~, cache slots, X~^c last for c > 1; aligned (see predict_batch) when eager, where it pays
    empty = np.empty if _stacks((hidden, width, cols)) else _aligned_empty
    operands = empty((hidden + 1 + (spec.power > 1), width, cols))
    xa, stack = operands[0], operands[1 : hidden + 1]
    cache = [*stack]
    with np.errstate(over="ignore", invalid="ignore"):
        xc = _fill_inputs(spec, inputs, xa, operands[-1])
        y = _layers(weights, xa, xc, cache, np.empty(targets.shape))
        d = np.subtract(y, targets, out=y)
        try:
            _errors(weights, xa, xc, cache, d, grad, grads, _error_block(stack, grad, np.empty))
        except FloatingPointError:  # only now is the batch checked: a finite one pays nothing
            for name, arr in (("batch inputs", inputs), ("batch targets", targets)):
                if not np.isfinite(arr).all():
                    raise ValueError(f"{name} contains non-finite entries") from None
            raise
    return grad


# A narrow pass writes its hidden errors into a (hidden, n+1, B) block of
# their own and forms layers 1..h-1's dW after the chain in one stacked
# product; a wide one forms each dW as soon as its error exists.  Full-batch
# train step on one thread at n=5, order 14, median stacked time / eager time
# over 60 alternating pairs (block size), with 2-D products through ndarray.dot:
#   CR-PNN I, 13 hidden:  0.89 at B=32 (20 KiB), 0.99 at 512 (312 KiB),
#     0.98 at 768 (468 KiB), 1.01 at 896 (546 KiB), 1.04 at 1024 (624 KiB),
#     1.27 at 2000, 1.34 at 5000
#   CR-PNN II, 7 hidden:  0.93 at B=32 (10 KiB), 0.97 at 512 (168 KiB),
#     0.985 at 1024 (336 KiB), 1.02 at 1700 (558 KiB), 1.06 at 2000, 1.17 at 5000
# Break-even lies at a block of 470-550 KiB (I) and 340-560 KiB (II), with
# 2 MiB of L2 per core.
ERROR_BLOCK_BUDGET = 512 * 1024  # bytes


def _stacks(shape):
    """Whether a pass whose (hidden, n+1, B) cache has ``shape`` runs the stacked chain."""
    return 0 < 8 * math.prod(shape) <= ERROR_BLOCK_BUDGET


def _error_block(stack, grad, empty):
    """For a forward cache held in the (hidden, n+1, B) array ``stack``:
    where the stacked gradient product pays (see ERROR_BLOCK_BUDGET), an
    error block from ``empty`` as (its per-layer slots, its layers 1..h-1,
    the cache of layers 0..h-2, their dW in ``grad``), the stacked
    product's operands; else None, the eager chain.  The views are formed
    once per buffer, not once per step: forming them in :func:`_errors`
    cost about 3 us of a 70 us minibatch step."""
    if not _stacks(stack.shape):
        return None
    hidden, width, _ = stack.shape
    block = empty(stack.shape)
    head = grad[: hidden * width * width].reshape(hidden, width, width)
    return [*block], block[1:], stack[:-1], head[1:]


def _errors(weights, xa, xc, cache, d, grad, grads, block):
    """Backward pass into ``grads``, the weight-shaped views of ``grad``,
    after a forward pass that kept its cache in the slots ``cache`` and whose
    output seed d = y - t the caller formed in ``d``.

    Hidden layer i's error goes into slot i of the error block when ``block``
    is from :func:`_error_block`, else into ``cache[i]``, whose output the
    gradient of layer i+1 has already read.  Each dW is formed as soon as
    its error exists, except that with ``block`` those of layers 1..h-1 are
    one stacked product against the cache after the chain.
    ``grad`` is scaled by 1/B and checked once.  Raises FloatingPointError
    if ``d`` or a gradient is non-finite; callers run it under ``np.errstate``.
    """
    if not np.isfinite(d).all():
        raise FloatingPointError(
            "forward pass overflowed (non-finite activations); "
            "scale inputs to [-1, 1] or lower the learning rate"
        )
    hidden = len(cache)
    matmul(d, (cache[-1] if hidden else xa).T, out=grads[-1])
    errors = cache if block is None else block[0]
    for i in range(hidden - 1, -1, -1):
        d = matmul(weights[i + 1].T, d, out=errors[i])
        kernels.hadamard(d, xc if i == 0 else xa, out=d)
        if block is None or i == 0:
            matmul(d, (cache[i - 1] if i else xa).T, out=grads[i])
    if block is not None:
        _, later_errors, earlier_cache, later_grads = block
        kernels.matmul_nt(later_errors, earlier_cache, out=later_grads)
    grad *= 1.0 / xa.shape[1]
    if not np.isfinite(grad).all():
        idx = next(i for i, g in enumerate(grads) if not np.isfinite(g).all())
        raise FloatingPointError(
            f"gradient for weight matrix {idx} is non-finite; "
            "scale inputs to [-1, 1] or lower the learning rate"
        )


def sgd_step(model, grad, learning_rate):
    """In-place step params <- params - learning_rate * grad, rounded as
    ``w -= learning_rate * g``, for ``grad`` laid out as ``params`` (as from
    :func:`backward`); any other ``grad`` raises ShapeError, ``params`` untouched."""
    params = model.params
    shape = grad.shape if isinstance(grad, np.ndarray) else type(grad).__name__
    if shape != params.shape:
        raise ShapeError(f"gradient {shape} is not laid out as params {params.shape}")
    params -= learning_rate * grad
    return model


def train(model, dataset, config):
    """Run (mini)batch gradient descent; returns (model, TrainRecord).

    Records the full-dataset MSE after every epoch and aborts loudly if it
    goes non-finite or above 1e12, before the next step: the
    TrainingDivergedError names the epoch and the MSE, and no record is
    returned.  Deterministic for a given config seed; full-batch runs never
    touch the RNG.  A full-batch epoch runs one forward pass: epoch e's MSE
    is taken from the y - t of step e+1's pass, which runs at the same
    weights, and only the last epoch adds a pass of its own.  A minibatch
    epoch ends with a forward pass over the dataset for its MSE.

    The dataset is checked once, before the first step.  The gradients are
    packed into one float64 vector laid out as ``model.params``.  Each width
    among the dataset, the batch and the last batch (at most three, the
    dataset's first) gets its buffers once: X~, X~^c and target rows in one
    block, the cache, the output and (within ``ERROR_BLOCK_BUDGET``) an error
    block.  The dataset's block is written once and its set runs the metric
    pass.  A minibatch step gathers its columns from there with one ``take``
    (a full-batch step gathers nothing), runs forward and backward on its
    width's set and updates ``model.params`` in place with ``g *= lr;
    params -= g``, rounding as ``w -= lr * g``.  When the call raises, the
    model keeps the steps taken before the error.
    """
    inputs, targets = _check_batch(model, dataset.inputs, dataset.targets)
    spec, weights, params = model.spec, model.weights, model.params
    total = inputs.shape[1]
    batch = config.batch_size if config.batch_size is not None else total
    if batch > total:
        raise ValueError(f"batch_size {batch} exceeds dataset size {total}")

    with np.errstate(over="ignore", invalid="ignore"):
        # aligned blocks: at K=5000 a pass took up to 37% longer at other offsets
        width, hidden = spec.n + 1, len(weights) - 1
        grad, grads = _packed(spec, _aligned_empty)
        # X~, X~^c (c > 1) and the targets share one block: one take per step
        rows = width * (1 + (spec.power > 1))
        work = {}  # per width, the dataset's first: block, its split, cache, output, error block
        for cols in (total, batch, total % batch):
            if cols and cols not in work:
                data = _aligned_empty((rows + spec.m, cols))
                split = data[:width], data[rows - width : rows], data[rows:]
                stack = _aligned_empty((hidden, width, cols))
                y = _aligned_empty((spec.m, cols))
                work[cols] = data, split, [*stack], y, _error_block(stack, grad, _aligned_empty)
        full, (xa, xc, _), slots, out, _ = work[total]
        xc = _fill_inputs(spec, inputs, xa, xc)
        full[rows:] = targets

        def metric():
            return loss_mse(_layers(weights, xa, xc, slots[:2], out), targets)

        def close_epoch(epoch, mse):
            nonlocal lr
            record.mse_per_epoch.append(mse)
            if not np.isfinite(mse) or mse > DIVERGENCE_CEILING:
                raise TrainingDivergedError(
                    f"training diverged at epoch {epoch}: mse={mse!r} "
                    f"(learning rate {lr!r} too large for this topology?)"
                )
            if config.lr_decay is not None:
                lr *= config.lr_decay

        rng = np.random.default_rng(config.seed)
        lr = config.learning_rate
        record = TrainRecord()
        for epoch in range(config.epochs):
            order = rng.permutation(total) if batch < total else None
            for lo in range(0, total, batch):
                data, (b_xa, b_xc, b_targets), cache, y, block = work[min(batch, total - lo)]
                if order is not None:  # mode="clip" writes out= without a buffer copy
                    full.take(order[lo : lo + batch], axis=1, out=data, mode="clip")
                _layers(weights, b_xa, b_xc, cache, y)
                d = np.subtract(y, b_targets, out=y)
                if order is None and epoch:
                    # at full batch this pass runs at the weights the last epoch left
                    close_epoch(epoch - 1, float(np.mean(d * d)))
                _errors(weights, b_xa, b_xc, cache, d, grad, grads, block)
                grad *= lr
                params -= grad
            if order is not None or epoch == config.epochs - 1:
                close_epoch(epoch, metric())
        record.final_mse = record.mse_per_epoch[-1] if record.mse_per_epoch else metric()
    return model, record


def grad_check(model, inputs, targets):
    """Worst relative gap between backward() and central finite differences
    of the internal loss, taken as J = m * loss_mse(predictions, targets) / 2.

    The per-entry gap is |analytic - numeric| / max(|analytic|, |numeric|,
    GRAD_CHECK_FLOOR); the floor makes the comparison an absolute one of
    GRAD_CHECK_FLOOR^2-ish size near zero, where relative error is
    meaningless.  A non-finite gap, as when the loss overflows at a
    perturbed weight, returns inf.  Guarded to small models to keep the
    2-forward-passes-per-weight cost sane.
    """
    params = model.params
    if params.size > GRAD_CHECK_MAX_PARAMS:
        raise ValueError(
            f"grad_check is limited to {GRAD_CHECK_MAX_PARAMS} parameters, "
            f"model has {params.size}"
        )
    analytic = backward(model, inputs, targets)

    def loss():
        return model.spec.m / 2.0 * loss_mse(predict_batch(model, inputs), targets)

    worst = 0.0
    for i, g in enumerate(analytic):
        orig = params[i]
        h = GRAD_CHECK_STEP * max(1.0, abs(orig))
        params[i] = orig + h
        plus = loss()
        params[i] = orig - h
        minus = loss()
        params[i] = orig
        numeric = (plus - minus) / (2.0 * h)
        gap = abs(g - numeric) / max(abs(g), abs(numeric), GRAD_CHECK_FLOOR)
        if not math.isfinite(gap):
            return math.inf
        worst = max(worst, gap)
    return worst
