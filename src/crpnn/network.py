"""Network variants, forward propagation, initialization and (de)serialization.

Both variants compute an exact multivariate polynomial of total degree at
most ``order`` in the inputs.  Layer-facing vectors are bias-augmented to
dimension n+1 with the constant in the last position, which is what lets the
multiplicative layers keep every lower-degree term alive.

Both run one layer plan of h = L - c hidden layers, c = ``spec.power``:
A^1 = (W^1 X~) o X~^c;  A^i = (W^i A^{i-1}) o X~  for i = 2..h;  Y = W_out A^h
CR-PNN I is the plan at c = 1; CR-PNN II's ``TopologyPlan`` sets c, and h = l+1.

Every pass lays out its operands one way: ``_fill_inputs`` writes X~ and
X~^c into buffers its caller owns, and ``_layers`` runs the weighted layers
on the caller's slots.  ``predict_batch``, ``training.backward`` and
``training.train`` differ only in where those buffers come from.

A model's weights are views into its one float64 vector ``params``, laid out
by ``_packed``, as is the gradient that ``training.backward`` returns.  Only the
constructor checks and converts weights; passes read the views as they are,
and ``training.sgd_step`` and ``training.train`` update ``params`` in place.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import hadamard, matmul
from .linalg import ShapeError, as_array, as_int
from .topology import TopologyPlan, plan_topology

CRPNN1 = "crpnn1"
CRPNN2 = "crpnn2"
VARIANTS = (CRPNN1, CRPNN2)
MAX_ORDER = 1000  # the paper's orders are at most 40; spectrum.MAX_EXPONENT is this bound


class ModelFormatError(ValueError):
    """Model document is malformed or inconsistent with its declared sizes."""


@dataclass(frozen=True)
class NetworkSpec:
    """Variant tag plus sizing, checked on construction, which also derives
    ``plan``: the CR-PNN II ``TopologyPlan``, None for CR-PNN I."""

    variant: str
    n: int
    m: int
    order: int
    plan: TopologyPlan | None = field(init=False, default=None)

    def __post_init__(self):
        for name in ("n", "m", "order"):  # frozen: not through __setattr__
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.variant == CRPNN2:
            object.__setattr__(self, "plan", plan_topology(self.n, self.m, self.order))
        elif self.n < 1 or self.m < 1 or self.order < 1:
            raise ValueError(f"invalid CR-PNN I sizing n={self.n}, m={self.m}, order={self.order}")
        if self.order > MAX_ORDER:
            raise ValueError(f"order {self.order} exceeds MAX_ORDER ({MAX_ORDER})")

    @property
    def power(self):
        """c, the power of X~ that gates the first hidden layer: 1 for CR-PNN I."""
        return self.plan.power if self.plan is not None else 1

    @classmethod
    def crpnn1(cls, n, m, order):
        return cls(CRPNN1, n, m, order)

    @classmethod
    def crpnn2(cls, n, m, order):
        return cls(CRPNN2, n, m, order)

    @classmethod
    def create(cls, variant, n, m, order):
        return cls(variant, n, m, order)

    def weight_shapes(self):
        """Expected weight-matrix shapes, input side first, output matrix last."""
        width = self.n + 1
        return [(width, width)] * (self.order - self.power) + [(self.m, width)]


@dataclass(frozen=True, init=False, eq=False)
class CrpnnModel:
    """A spec plus ``params``, one float64 vector laid out by :func:`_packed`,
    and ``weights``, its weight-shaped views (input side first).
    ``CrpnnModel(spec, arrays)`` refuses arrays whose count or shapes are not
    the spec's with ShapeError, and copies them into ``params`` as float64."""

    spec: NetworkSpec
    params: np.ndarray
    weights: tuple

    def __init__(self, spec, weights):
        # checked before anything is sized from the spec
        weights, shapes = [np.asarray(w) for w in weights], spec.weight_shapes()
        if len(weights) != len(shapes):
            raise ShapeError(
                f"expected {len(shapes)} weight matrices for {spec.variant} "
                f"(n={spec.n}, order={spec.order}), got {len(weights)}"
            )
        for idx, (w, shape) in enumerate(zip(weights, shapes)):
            if w.shape != shape:
                raise ShapeError(f"weight matrix {idx} has shape {w.shape}, expected {shape}")
        params, views = _packed(spec, _aligned_empty)
        # every matrix has n+1 columns, so its rows stack in _packed's order
        np.concatenate(weights, out=params.reshape(-1, spec.n + 1))
        self.__dict__.update(spec=spec, params=params, weights=tuple(views))  # frozen: not through __setattr__

    def copy(self):
        return CrpnnModel(self.spec, self.weights)


def _aligned_empty(shape):
    """An uninitialised C-contiguous float64 array starting on a 64-byte boundary."""
    nbytes = 8 * math.prod(shape)
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + nbytes].view(np.float64).reshape(shape)


def _packed(spec, empty):
    """A float64 vector from ``empty`` laid out as a model's ``params``, and its
    weight-shaped views: the hidden (n+1, n+1) matrices, then the output matrix."""
    width, hidden = spec.n + 1, spec.order - spec.power
    head = hidden * width * width
    flat = empty((head + spec.m * width,))
    return flat, [*flat[:head].reshape(hidden, width, width), flat[head:].reshape(spec.m, width)]


def _check_finite(weights):
    for idx, w in enumerate(weights):
        if not np.isfinite(w).all():
            raise ModelFormatError(f"weight matrix {idx} contains non-finite entries")


def init_weights(spec, seed, scale=None):
    """Draw every weight uniformly from (-r, r), r = scale or 1/sqrt(n+1).

    Deterministic for a given (spec, seed, scale).  A scale must be positive
    and leave the width 2r finite.
    """
    if scale is not None and not (scale > 0 and math.isfinite(2.0 * float(scale))):
        raise ValueError(f"scale must be positive with 2 * scale finite, got {scale}")
    r = scale if scale is not None else 1.0 / np.sqrt(spec.n + 1)
    rng = np.random.default_rng(seed)
    # one draw of every value in params order
    return CrpnnModel(spec, _packed(spec, lambda size: rng.uniform(-r, r, size))[1])


def _fill_inputs(spec, xcols, xa, xc, counter=None):
    """Write X~ (the columns of ``xcols`` over a row of ones) into ``xa`` and
    return X~^c, c = ``spec.power``: for c > 1 written into ``xc`` by c-1
    Hadamard products with X~ (never pow()), while X~^1 is ``xa`` itself
    and leaves ``xc`` untouched."""
    xa[:-1] = xcols
    xa[-1] = 1.0
    if spec.power == 1:
        return xa
    hadamard(xa, xa, out=xc, counter=counter)
    for _ in range(spec.power - 2):
        hadamard(xc, xa, out=xc, counter=counter)
    return xc


def _layers(weights, xa, xc, slots, y, counter=None):
    """The weighted layers on the caller's buffers, straight on the kernels.

    Hidden layer i writes ``slots[i % len(slots)]``, which must not hold X~
    or X~^c while a later layer reads it: one slot per hidden layer keeps
    the cache backprop reads, two make a ping-pong pair.  The output layer
    writes ``y``, which is returned.  Callers run it under ``np.errstate``
    so that overflow yields inf/nan, and check ``y`` where it must be finite.
    """
    a = xa
    for i, w in enumerate(weights[:-1]):
        gate = xc if i == 0 else xa
        out = slots[i % len(slots)]
        matmul(w, a, out=out, counter=counter)
        a = hadamard(out, gate, out=out, counter=counter)
    return matmul(weights[-1], a, out=y, counter=counter)


def forward(model, x, counter=None):
    """Single-sample forward pass; returns the m-dimensional output vector."""
    return predict_batch(model, as_array(x, 1, "input vector").reshape(-1, 1), counter).ravel()


def predict_batch(model, xs, counter=None):
    """Forward pass over an n x K matrix of column samples; returns m x K.

    X~ and the layers' two ping-pong slots share one block allocated per
    call; X~^c for c > 1 sits in slot 1 until layer 1 overwrites it.  The
    block starts on a 64-byte boundary: at n=5, L=14, K=5000 a pass took
    20-30% longer at the other offsets, wherever the heap put it.
    """
    spec = model.spec
    xs = as_array(xs, 2, "input matrix")
    if xs.shape[0] != spec.n:
        raise ShapeError(f"model expects {spec.n} input rows, got {xs.shape[0]}")
    xa, *slots = _aligned_empty((3, spec.n + 1, xs.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        xc = _fill_inputs(spec, xs, xa, slots[1], counter)
        return _layers(model.weights, xa, xc, slots, np.empty((spec.m, xs.shape[1])), counter)


def _plan_fields(spec):
    """The model document's record of a spec's plan: nulls for CR-PNN I."""
    plan = spec.plan
    return {"taylor_layers": plan.taylor_layers if plan else None, "power": plan.power if plan else None}


def save_model(model):
    """Serialize a model to a JSON document (bytes); round-trips bit-exactly."""
    spec = model.spec
    _check_finite(model.weights)
    doc = {
        "variant": spec.variant,
        "n": spec.n,
        "m": spec.m,
        "order": spec.order,
        **_plan_fields(spec),
        "weights": [
            {
                "rows": int(w.shape[0]),
                "cols": int(w.shape[1]),
                "data": [float(v) for v in w.ravel()],
            }
            for w in model.weights
        ],
    }
    return (json.dumps(doc, allow_nan=False) + "\n").encode("utf-8")


def _json_int(doc, key):
    """doc[key], refusing a float or bool that int() would truncate or accept."""
    value = doc[key]
    if type(value) is not int:
        raise TypeError(f"{key!r} must be a JSON integer, got {value!r}")
    return value


def load_model(data):
    """Parse a model document produced by :func:`save_model`."""
    try:
        doc = json.loads(data)
    except ValueError as exc:  # bad JSON or UTF-8, or an integer over the digit limit
        raise ModelFormatError(f"model document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    try:
        variant = doc["variant"]
        n = _json_int(doc, "n")
        m = _json_int(doc, "m")
        order = _json_int(doc, "order")
        raw_weights = doc["weights"]
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"model document is missing or mistypes a field: {exc}") from exc

    try:
        spec = NetworkSpec.create(variant, n, m, order)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc

    planned = _plan_fields(spec)
    declared = {key: doc.get(key) for key in planned}
    if json.dumps(declared) != json.dumps(planned):  # as text: true == 1 and 3.0 == 3
        raise ModelFormatError(
            f"declared (taylor_layers, power) {tuple(declared.values())} does not match "
            f"the plan {tuple(planned.values())} for {variant} n={n}, order={order}"
        )
    if not isinstance(raw_weights, list):
        raise ModelFormatError("'weights' must be a list")

    weights = []
    for idx, entry in enumerate(raw_weights):
        try:
            rows, cols, flat = _json_int(entry, "rows"), _json_int(entry, "cols"), entry["data"]
        except (KeyError, TypeError) as exc:
            raise ModelFormatError(f"weight matrix {idx} is malformed: {exc}") from exc
        if rows < 0 or cols < 0:  # -2 x -2 would pass the length check below
            raise ModelFormatError(f"weight matrix {idx} declares negative size {rows}x{cols}")
        if not isinstance(flat, list) or len(flat) != rows * cols:
            raise ModelFormatError(
                f"weight matrix {idx} declares {rows}x{cols} but carries "
                f"{len(flat) if isinstance(flat, list) else 'non-list'} entries"
            )
        # numpy would parse "1.5" and cast true; a bool is no JSON number
        bad = next((j for j, v in enumerate(flat) if type(v) not in (int, float)), None)
        if bad is not None:
            raise ModelFormatError(
                f"weight matrix {idx} has non-numeric data: entry {bad} is {flat[bad]!r}"
            )
        try:
            weights.append(np.asarray(flat, dtype=np.float64).reshape(rows, cols))
        except OverflowError as exc:  # an integer too large for a float
            raise ModelFormatError(f"weight matrix {idx} has non-numeric data: {exc}") from exc

    try:
        model = CrpnnModel(spec, weights)
    except ShapeError as exc:
        raise ModelFormatError(str(exc)) from exc
    _check_finite(model.weights)
    return model
