"""Network variants, forward propagation, initialization and (de)serialization.

Both variants compute an exact multivariate polynomial of total degree at
most ``order`` in the inputs.  Layer-facing vectors are bias-augmented to
dimension n+1 with the constant in the last position, which is what lets the
multiplicative layers keep every lower-degree term alive.

CR-PNN I:  A^0 = X~;  A^i = (W^i A^{i-1}) o X~  for i = 1..L-1;  Y = W_out A^{L-1}
CR-PNN II: A^1 = (W^1 X~) o X~^c;  A^i = (W^i A^{i-1}) o X~  for i = 2..l+1;
           Y = W_out A^{l+1}

Models are immutable after construction as far as this module is concerned;
only training mutates weights, and it owns its model exclusively.
"""

import json
from dataclasses import dataclass

import numpy as np

from .linalg import (
    ShapeError,
    as_array,
    augment_cols,
    check_finite,
    elementwise_power,
    hadamard,
    matmul,
)
from .topology import TopologyPlan, plan_topology

CRPNN1 = "crpnn1"
CRPNN2 = "crpnn2"
VARIANTS = (CRPNN1, CRPNN2)


class ModelFormatError(ValueError):
    """Model document is malformed or inconsistent with its declared sizes."""


@dataclass(frozen=True)
class NetworkSpec:
    """Variant tag plus sizing; ``plan`` is populated for CR-PNN II only."""

    variant: str
    n: int
    m: int
    order: int
    plan: TopologyPlan | None = None

    @classmethod
    def crpnn1(cls, n, m, order):
        if n < 1 or m < 1 or order < 1:
            raise ValueError(f"invalid CR-PNN I sizing n={n}, m={m}, order={order}")
        return cls(CRPNN1, n, m, order, None)

    @classmethod
    def crpnn2(cls, n, m, order):
        return cls(CRPNN2, n, m, order, plan_topology(n, m, order))

    @classmethod
    def create(cls, variant, n, m, order):
        if variant == CRPNN1:
            return cls.crpnn1(n, m, order)
        if variant == CRPNN2:
            return cls.crpnn2(n, m, order)
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")

    def weight_shapes(self):
        """Expected weight-matrix shapes, input side first, output matrix last."""
        width = self.n + 1
        if self.variant == CRPNN1:
            hidden = self.order - 1
        else:
            hidden = self.plan.taylor_layers + 1  # expanded layer + l Taylor layers
        return [(width, width)] * hidden + [(self.m, width)]


@dataclass
class CrpnnModel:
    """A spec plus its ordered weight matrices (input side first)."""

    spec: NetworkSpec
    weights: list

    def copy(self):
        return CrpnnModel(self.spec, [w.copy() for w in self.weights])

    def parameter_count(self):
        return sum(w.size for w in self.weights)


def _validate_weights(spec, weights):
    shapes = spec.weight_shapes()
    if len(weights) != len(shapes):
        raise ModelFormatError(
            f"expected {len(shapes)} weight matrices for {spec.variant} "
            f"(n={spec.n}, order={spec.order}), got {len(weights)}"
        )
    for idx, (w, shape) in enumerate(zip(weights, shapes)):
        if w.shape != shape:
            raise ModelFormatError(
                f"weight matrix {idx} has shape {w.shape}, expected {shape}"
            )
        check_finite(w, f"weight matrix {idx}")


def init_weights(spec, seed, scale=None):
    """Draw every weight uniformly from (-r, r), r = scale or 1/sqrt(n+1).

    Deterministic for a given (spec, seed, scale).
    """
    if scale is not None and scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    r = scale if scale is not None else 1.0 / np.sqrt(spec.n + 1)
    rng = np.random.default_rng(seed)
    weights = [rng.uniform(-r, r, size=shape) for shape in spec.weight_shapes()]
    return CrpnnModel(spec, weights)


def _forward_cols(model, xcols, counter=None, want_cache=False):
    """Batched forward pass; samples are columns of ``xcols`` (n x K).

    X~ is built once, and every hidden layer writes its product and then its
    Hadamard gate into one (n+1) x K slot allocated for this call.  Without
    ``want_cache`` the layers alternate between two slots (CR-PNN II keeps
    X~^c in the second until layer 1 overwrites it) and only the fresh
    m x K output survives the call.  With ``want_cache`` layer i keeps slot i
    of a (hidden, n+1, K) block, and the call also returns X~, X~^c (CR-PNN
    II only, else None) and the list of layer inputs [X~, slot 0, ...], which
    is exactly what backprop needs.  Callers run it under ``np.errstate``
    so that overflow yields inf/nan, not a warning, and check the result
    where they need it finite.
    """
    spec = model.spec
    if xcols.shape[0] != spec.n:
        raise ShapeError(
            f"model expects {spec.n} input rows, got {xcols.shape[0]}"
        )
    weights = model.weights
    xa = augment_cols(xcols)
    slots = np.empty((len(weights) - 1 if want_cache else 2,) + xa.shape)
    xc = None
    if spec.variant == CRPNN2:
        xc = elementwise_power(
            xa, spec.plan.power, counter, out=None if want_cache else slots[1]
        )
    a = xa
    for i, w in enumerate(weights[:-1]):
        gate = xc if i == 0 and xc is not None else xa
        out = slots[i % len(slots)]
        a = hadamard(matmul(w, a, counter, out=out), gate, counter, out=out)
    y = matmul(weights[-1], a, counter)
    if want_cache:
        return y, xa, xc, [xa, *slots]
    return y


def forward(model, x, counter=None):
    """Single-sample forward pass; returns the m-dimensional output vector."""
    x = as_array(x, 1, "input vector")
    with np.errstate(over="ignore", invalid="ignore"):
        return _forward_cols(model, x.reshape(-1, 1), counter).ravel()


def forward_crpnn1(model, x, counter=None):
    if model.spec.variant != CRPNN1:
        raise ValueError(f"model variant is {model.spec.variant}, not {CRPNN1}")
    return forward(model, x, counter)


def forward_crpnn2(model, x, counter=None):
    if model.spec.variant != CRPNN2:
        raise ValueError(f"model variant is {model.spec.variant}, not {CRPNN2}")
    return forward(model, x, counter)


def predict_batch(model, xs, counter=None):
    """Forward pass over an n x K matrix of column samples; returns m x K."""
    xs = as_array(xs, 2, "input matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        return _forward_cols(model, xs, counter)


def save_model(model):
    """Serialize a model to a JSON document (bytes); round-trips bit-exactly."""
    spec = model.spec
    _validate_weights(spec, model.weights)
    doc = {
        "variant": spec.variant,
        "n": spec.n,
        "m": spec.m,
        "order": spec.order,
        "taylor_layers": spec.plan.taylor_layers if spec.plan else None,
        "power": spec.plan.power if spec.plan else None,
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


def load_model(data):
    """Parse a model document produced by :func:`save_model`."""
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"model document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    try:
        variant = doc["variant"]
        n = int(doc["n"])
        m = int(doc["m"])
        order = int(doc["order"])
        raw_weights = doc["weights"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"model document is missing or mistypes a field: {exc}") from exc

    try:
        spec = NetworkSpec.create(variant, n, m, order)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc

    if spec.plan is not None:
        declared = (doc.get("taylor_layers"), doc.get("power"))
        planned = (spec.plan.taylor_layers, spec.plan.power)
        if declared != planned:
            raise ModelFormatError(
                f"declared (taylor_layers, power) {declared} does not match the "
                f"plan {planned} for n={n}, order={order}"
            )
    if not isinstance(raw_weights, list):
        raise ModelFormatError("'weights' must be a list")

    weights = []
    for idx, entry in enumerate(raw_weights):
        try:
            rows, cols, flat = int(entry["rows"]), int(entry["cols"]), entry["data"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"weight matrix {idx} is malformed: {exc}") from exc
        if not isinstance(flat, list) or len(flat) != rows * cols:
            raise ModelFormatError(
                f"weight matrix {idx} declares {rows}x{cols} but carries "
                f"{len(flat) if isinstance(flat, list) else 'non-list'} entries"
            )
        try:
            w = np.asarray(flat, dtype=np.float64).reshape(rows, cols)
        except (TypeError, ValueError) as exc:
            raise ModelFormatError(f"weight matrix {idx} has non-numeric data: {exc}") from exc
        if not np.isfinite(w).all():
            raise ModelFormatError(f"weight matrix {idx} contains non-finite entries")
        weights.append(np.ascontiguousarray(w))

    model = CrpnnModel(spec, weights)
    try:
        _validate_weights(spec, weights)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    return model
