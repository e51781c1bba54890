import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crpnn.linalg import MultiplyCounter, ShapeError
from crpnn.network import (
    CRPNN1,
    CRPNN2,
    MAX_ORDER,
    VARIANTS,
    CrpnnModel,
    ModelFormatError,
    NetworkSpec,
    _fill_inputs,
    forward,
    init_weights,
    load_model,
    predict_batch,
    save_model,
)
from crpnn.spectrum import MAX_EXPONENT, evaluate_spectrum, expand_to_spectrum
from crpnn.topology import mult_count_crpnn1, mult_count_crpnn2, plan_topology


def identity_crpnn2_toy():
    # n=1, order 5 (one Taylor layer, power 3); computes x^5 + 1
    spec = NetworkSpec.crpnn2(1, 1, 5)
    return CrpnnModel(spec, [np.eye(2), np.eye(2), np.array([[1.0, 1.0]])])


def identity_crpnn1_toy():
    # n=1, order 2; computes x^2 + 1
    spec = NetworkSpec.crpnn1(1, 1, 2)
    return CrpnnModel(spec, [np.eye(2), np.array([[1.0, 1.0]])])


def test_crpnn2_toy_forward():
    out = forward(identity_crpnn2_toy(), [2.0])
    np.testing.assert_allclose(out, [33.0])


def test_crpnn1_toy_forward():
    out = forward(identity_crpnn1_toy(), [2.0])
    np.testing.assert_allclose(out, [5.0])


def test_zero_weights_give_zero_output():
    spec = NetworkSpec.crpnn2(3, 2, 6)
    model = CrpnnModel(spec, [np.zeros(s) for s in spec.weight_shapes()])
    np.testing.assert_array_equal(forward(model, [0.3, -0.7, 0.1]), [0.0, 0.0])


def test_crpnn1_order_one_is_affine():
    spec = NetworkSpec.crpnn1(2, 1, 1)
    model = CrpnnModel(spec, [np.array([[2.0, -1.0, 0.5]])])
    np.testing.assert_allclose(forward(model, [1.0, 3.0]), [2.0 - 3.0 + 0.5])


def test_forward_dimension_mismatch():
    with pytest.raises(ShapeError):
        forward(identity_crpnn2_toy(), [1.0, 2.0])


def test_forward_rejects_already_augmented_input():
    # layers consume exactly one augmentation; an (n+1)-dim vector is a mismatch
    model = init_weights(NetworkSpec.crpnn1(3, 1, 4), seed=0)
    with pytest.raises(ShapeError):
        forward(model, [0.1, 0.2, 0.3, 1.0])


def test_init_weights_deterministic():
    spec = NetworkSpec.crpnn2(3, 2, 8)
    a = init_weights(spec, seed=9)
    b = init_weights(spec, seed=9)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


def test_init_weights_within_range_and_seed_sensitive():
    spec = NetworkSpec.crpnn1(4, 1, 5)
    r = 1.0 / np.sqrt(5)
    a = init_weights(spec, seed=1)
    assert all(np.abs(w).max() < r for w in a.weights)
    b = init_weights(spec, seed=2)
    assert any(not np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))
    c = init_weights(spec, seed=1, scale=0.01)
    assert all(np.abs(w).max() < 0.01 for w in c.weights)


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf"), 1e308])
def test_init_weights_refuses_a_scale_without_a_finite_positive_width(scale):
    with pytest.raises(ValueError, match="scale must be positive"):
        init_weights(NetworkSpec.crpnn1(2, 1, 3), seed=0, scale=scale)


def test_predict_batch_matches_forward_per_column():
    rng = np.random.default_rng(5)
    model = init_weights(NetworkSpec.crpnn2(3, 2, 7), seed=4)
    xs = rng.uniform(-1, 1, size=(3, 11))
    batch = predict_batch(model, xs)
    for k in range(xs.shape[1]):
        np.testing.assert_allclose(batch[:, k], forward(model, xs[:, k]), rtol=1e-12)


def test_predict_batch_column_permutation():
    rng = np.random.default_rng(6)
    model = init_weights(NetworkSpec.crpnn1(2, 1, 4), seed=3)
    xs = rng.uniform(-1, 1, size=(2, 9))
    perm = rng.permutation(9)
    np.testing.assert_array_equal(
        predict_batch(model, xs[:, perm]), predict_batch(model, xs)[:, perm]
    )


def test_batch_multiply_count_scales_with_columns():
    model = init_weights(NetworkSpec.crpnn2(5, 1, 14), seed=0)
    xs = np.random.default_rng(0).uniform(-1, 1, size=(5, 500))
    counter = MultiplyCounter()
    predict_batch(model, xs, counter)
    assert counter.count == 500 * 336


@pytest.mark.parametrize("variant", [CRPNN1, CRPNN2])
def test_forward_counts_match_formulas_on_grid(variant):
    rng = np.random.default_rng(7)
    for n in range(1, 5):
        for m in (1, 3):
            orders = range(n + 2, 12) if variant == CRPNN2 else range(1, 12)
            for order in orders:
                spec = NetworkSpec.create(variant, n, m, order)
                model = init_weights(spec, seed=1)
                counter = MultiplyCounter()
                forward(model, rng.uniform(-1, 1, size=n), counter)
                expected = (
                    mult_count_crpnn1(n, m, order)
                    if variant == CRPNN1
                    else mult_count_crpnn2(n, m, order)
                )
                assert counter.count == expected


@pytest.mark.parametrize("variant", [CRPNN1, CRPNN2])
def test_output_scaling_is_exact(variant):
    rng = np.random.default_rng(8)
    order = 6 if variant == CRPNN2 else 4
    model = init_weights(NetworkSpec.create(variant, 2, 2, order), seed=11)
    doubled = model.copy()
    doubled.weights[-1][:] *= 2.0
    x = rng.uniform(-1, 1, size=2)
    np.testing.assert_array_equal(forward(doubled, x), 2.0 * forward(model, x))
    spec_a = expand_to_spectrum(model)
    spec_b = expand_to_spectrum(doubled)
    for ta, tb in zip(spec_a.terms, spec_b.terms):
        assert ta.keys() == tb.keys()
        for key, coef in ta.items():
            assert tb[key] == 2.0 * coef


def test_save_load_roundtrip_bit_exact():
    model = init_weights(NetworkSpec.crpnn2(3, 2, 9), seed=21)
    blob = save_model(model)
    again = save_model(load_model(blob))
    assert blob == again


def test_load_preserves_predictions():
    model = init_weights(NetworkSpec.crpnn1(4, 1, 6), seed=2)
    probe = np.linspace(-1, 1, 4)
    restored = load_model(save_model(model))
    np.testing.assert_array_equal(forward(model, probe), forward(restored, probe))


def test_load_rejects_wrong_shape_naming_layer():
    import json

    model = init_weights(NetworkSpec.crpnn1(2, 1, 3), seed=0)
    doc = json.loads(save_model(model))
    doc["weights"][0] = {"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0, 4.0]}
    with pytest.raises(ModelFormatError, match=r"weight matrix 0 has shape"):
        load_model(json.dumps(doc).encode())


def test_load_rejects_garbage_and_nonfinite():
    with pytest.raises(ModelFormatError):
        load_model(b"not json at all")
    model = init_weights(NetworkSpec.crpnn1(1, 1, 2), seed=0)
    blob = save_model(model).decode()
    broken = blob.replace(
        blob.split('"data": [')[1].split("]")[0].split(", ")[0], "NaN", 1
    )
    with pytest.raises(ModelFormatError):
        load_model(broken.encode())


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_save_and_load_reject_a_non_finite_weight_alike(bad):
    import json

    model = init_weights(NetworkSpec.crpnn1(2, 1, 3), seed=0)
    doc = json.loads(save_model(model))
    doc["weights"][1]["data"][0] = bad  # json.dumps writes NaN / Infinity
    model.weights[1][0, 0] = bad
    message = "weight matrix 1 contains non-finite entries"
    with pytest.raises(ModelFormatError, match=message):
        save_model(model)
    with pytest.raises(ModelFormatError, match=message):
        load_model(json.dumps(doc).encode())


@pytest.mark.parametrize(
    "keys, value",
    [(("order",), 3.9), (("n",), 2.0), (("m",), True),
     (("weights", 0, "rows"), 3.7), (("weights", 1, "cols"), "3")],
    ids=["order-float", "n-integral-float", "m-bool", "rows-float", "cols-string"],
)
def test_load_rejects_sizes_that_are_not_json_integers(keys, value):
    import json

    doc = json.loads(save_model(init_weights(NetworkSpec.crpnn1(2, 1, 3), seed=0)))
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    with pytest.raises(ModelFormatError, match=f"'{keys[-1]}' must be a JSON integer"):
        load_model(json.dumps(doc).encode())


def test_load_rejects_inconsistent_plan():
    model = init_weights(NetworkSpec.crpnn2(2, 1, 6), seed=0)
    blob = save_model(model).decode()
    with pytest.raises(ModelFormatError, match="plan"):
        load_model(blob.replace('"power": 3', '"power": 2').encode())


@pytest.mark.parametrize(
    "variant, field, value",
    [(CRPNN1, "power", 7), (CRPNN1, "taylor_layers", 0), (CRPNN1, "power", 1),
     (CRPNN2, "power", 3.0)],
)
def test_load_rejects_plan_fields_that_save_would_not_write_back(variant, field, value):
    spec = NetworkSpec.create(variant, 2, 1, 6)  # CR-PNN II: 2 Taylor layers, power 3
    doc = json.loads(save_model(init_weights(spec, seed=0)))
    doc[field] = value
    with pytest.raises(ModelFormatError, match="does not match the plan"):
        load_model(json.dumps(doc).encode())


def test_a_crpnn1_document_without_plan_fields_loads():
    blob = save_model(init_weights(NetworkSpec.crpnn1(2, 1, 3), seed=0))
    doc = json.loads(blob)
    del doc["taylor_layers"], doc["power"]
    assert save_model(load_model(json.dumps(doc).encode())) == blob


@pytest.mark.parametrize("data", [["1.5", True], [1.5, True], [None, 2.0], [1.0, [2.0]]])
def test_load_rejects_weight_entries_that_are_not_json_numbers(data):
    doc = json.loads(save_model(init_weights(NetworkSpec.crpnn1(1, 1, 1), seed=0)))
    doc["weights"][0]["data"] = data
    with pytest.raises(ModelFormatError, match="weight matrix 0 has non-numeric data"):
        load_model(json.dumps(doc).encode())


def test_load_rejects_an_integer_too_large_for_a_float():
    doc = json.loads(save_model(init_weights(NetworkSpec.crpnn1(1, 1, 1), seed=0)))
    doc["weights"][0]["data"][0] = 10**400
    with pytest.raises(ModelFormatError, match="weight matrix 0 has non-numeric data"):
        load_model(json.dumps(doc).encode())
    with pytest.raises(ModelFormatError, match="not valid JSON"):
        load_model(b'{"n": ' + b"9" * 5000 + b"}")  # over the int digit limit


# sizes up to 10**12: a corrupt document must fail before anything is sized from it
SIZES = st.integers(-2, 6) | st.integers(1, 12).map(lambda e: 10**e) | st.integers(-(10**12), 10**12)
JSON = st.recursive(
    st.none() | st.booleans() | SIZES | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
FIELDS = ("order", "n", "m", "taylor_layers", "power", "variant", "weights")


@st.composite
def model_documents(draw):
    """A saved model with one field replaced, maybe a field of one weight
    entry replaced and maybe one field deleted; or any JSON object at all."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.dictionaries(st.text(max_size=8), JSON, max_size=6))
    variant = draw(st.sampled_from([CRPNN1, CRPNN2]))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    low = n + 2 if variant == CRPNN2 else 1
    spec = NetworkSpec.create(variant, n, m, draw(st.integers(low, low + 3)))
    doc = json.loads(save_model(init_weights(spec, seed=0)))
    entry = draw(st.sampled_from(doc["weights"]))
    entry.update(draw(st.dictionaries(st.sampled_from(sorted(entry)), SIZES | JSON, max_size=2)))
    key = draw(st.sampled_from(FIELDS))
    doc[key] = draw(JSON if key in ("variant", "weights") else SIZES)
    for key in draw(st.sets(st.sampled_from(FIELDS), max_size=1)):
        del doc[key]
    return doc


@settings(max_examples=300, deadline=None)
@given(model_documents())
@example({"variant": "crpnn1", "n": 1, "m": 1, "order": 10**12, "weights": []})
@example({"variant": "crpnn1", "n": 1, "m": 1, "order": 2, "weights": [
    {"rows": -2, "cols": -2, "data": [0.5, 0.5, 0.5, 0.5]}, {"rows": 1, "cols": 2, "data": [0.5, 0.5]}]})
def test_any_json_object_loads_and_round_trips_or_raises_model_format_error(doc):
    try:
        model = load_model(json.dumps(doc).encode())
    except ModelFormatError:
        return
    blob = save_model(model)
    again = load_model(blob)
    assert again.spec == model.spec and save_model(again) == blob


def test_a_spec_derives_its_plan_and_takes_none_from_its_caller():
    with pytest.raises(TypeError):
        NetworkSpec("crpnn1", 2, 1, 6, plan_topology(2, 1, 6))
    with pytest.raises(TypeError):
        NetworkSpec(CRPNN2, 2, 1, 6, plan=plan_topology(2, 1, 5))
    with pytest.raises(ValueError, match="unknown variant 'crpnnX'"):
        NetworkSpec("crpnnX", 2, 1, 3)
    assert NetworkSpec(CRPNN1, 2, 1, 6).plan is None
    assert NetworkSpec(CRPNN2, 2, 1, 6).plan == plan_topology(2, 1, 6)


@pytest.mark.parametrize("variant", VARIANTS)
def test_orders_above_max_order_are_refused(variant):
    assert MAX_EXPONENT == MAX_ORDER  # a model's spectrum stays importable
    assert NetworkSpec(variant, 1, 1, MAX_ORDER).order == MAX_ORDER
    for order in (MAX_ORDER + 1, 10**12, 10**20):
        with pytest.raises(ValueError, match=rf"order {order} exceeds MAX_ORDER \({MAX_ORDER}\)"):
            NetworkSpec(variant, 1, 1, order)


@settings(max_examples=150, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS + ("crpnnX",)),
    n=st.integers(-1, 4),
    m=st.integers(-1, 3),
    order=st.integers(-1, 12) | st.sampled_from([MAX_ORDER, MAX_ORDER + 1]),
)
def test_every_spec_that_constructs_round_trips_and_no_other_loads(variant, n, m, order):
    doc = {"variant": variant, "n": n, "m": m, "order": order, "weights": []}
    try:
        spec = NetworkSpec(variant, n, m, order)
    except ValueError:
        with pytest.raises(ModelFormatError):
            load_model(json.dumps(doc).encode())
        return
    assert load_model(save_model(init_weights(spec, seed=0))).spec == spec


def test_spectrum_forward_agreement_random_models():
    rng = np.random.default_rng(12)
    for variant in (CRPNN1, CRPNN2):
        for _ in range(5):
            n = int(rng.integers(1, 4))
            low = n + 2 if variant == CRPNN2 else 1
            order = int(rng.integers(low, 9))
            model = init_weights(
                NetworkSpec.create(variant, n, 1, order), seed=int(rng.integers(1000))
            )
            spectrum = expand_to_spectrum(model)
            for _ in range(20):
                x = rng.uniform(-1, 1, size=n)
                y_net = forward(model, x)
                y_poly = evaluate_spectrum(spectrum, x)
                assert abs(y_net[0] - y_poly[0]) / (1 + abs(y_net[0])) < 1e-9


# Engine specs with odd and even hidden-layer counts: CR-PNN I orders 4 and 5
# (3 and 4), CR-PNN II n=2 order 7 and n=3 order 7 / n=2 order 8 (3 and 4).
ENGINE_SPECS = [
    (CRPNN1, 2, 1, 1),
    (CRPNN1, 2, 1, 4),
    (CRPNN1, 2, 1, 5),
    (CRPNN2, 2, 2, 7),
    (CRPNN2, 3, 1, 7),
    (CRPNN2, 2, 1, 8),
]


def reference_forward(model, xs):
    """Allocate-per-op forward pass, one fresh array per op."""
    xa = np.vstack([xs, np.ones((1, xs.shape[1]))])
    xc = None
    if model.spec.variant == CRPNN2:
        xc = xa.copy()
        for _ in range(model.spec.plan.power - 1):
            xc = xc * xa
    a = xa
    for i, w in enumerate(model.weights[:-1]):
        a = (w @ a) * (xc if i == 0 and xc is not None else xa)
    return model.weights[-1] @ a


# X~, X~^c and the cached layer inputs are not returned by any public pass;
# the gradients of test_training.py's
# test_backward_is_bit_identical_to_allocating_reference read every one of them.
@pytest.mark.parametrize("cols", [1, 33])
@pytest.mark.parametrize("sizing", ENGINE_SPECS)
def test_forward_is_bit_identical_to_allocating_reference(sizing, cols):
    model = init_weights(NetworkSpec.create(*sizing), seed=4)
    xs = np.random.default_rng(cols).uniform(-1, 1, size=(sizing[1], cols))
    np.testing.assert_array_equal(predict_batch(model, xs), reference_forward(model, xs))
    single = reference_forward(model, xs[:, :1]).ravel()
    np.testing.assert_array_equal(forward(model, xs[:, 0]), single)


@pytest.mark.parametrize("sizing", ENGINE_SPECS)
def test_successive_predictions_do_not_share_memory(sizing):
    model = init_weights(NetworkSpec.create(*sizing), seed=2)
    xs = np.random.default_rng(0).uniform(-1, 1, size=(sizing[1], 9))
    first = predict_batch(model, xs)
    kept = first.copy()
    second = predict_batch(model, 0.5 * xs)
    assert not np.shares_memory(first, second)
    np.testing.assert_array_equal(first, kept)


@pytest.mark.parametrize("sizing", ENGINE_SPECS)
def test_forward_leaves_caller_input_unmodified(sizing):
    model = init_weights(NetworkSpec.create(*sizing), seed=2)
    xs = np.random.default_rng(0).uniform(-1, 1, size=(sizing[1], 9))
    before = xs.copy()
    predict_batch(model, xs)
    forward(model, xs[:, 3])
    np.testing.assert_array_equal(xs, before)


def filled_inputs(power, cols=37):
    """A CR-PNN II spec with n=6 whose plan has ``power``, its inputs, and X~
    and X~^c as ``_fill_inputs`` writes them into nan-filled buffers with a
    counter (orders 8..15 plan c = 1..8 at n=6)."""
    spec = NetworkSpec.crpnn2(6, 1, 7 + power)
    assert spec.power == power
    xs = np.random.default_rng(power).uniform(-1, 1, size=(6, cols))
    xa, xc = np.full((7, cols), np.nan), np.full((7, cols), np.nan)
    counter = MultiplyCounter()
    returned = _fill_inputs(spec, xs, xa, xc, counter)
    return xs, xa, xc, returned, counter.count


def test_fill_inputs_at_power_one_returns_x_tilde_and_leaves_xc_untouched():
    xs, xa, xc, returned, count = filled_inputs(1)
    assert returned is xa and count == 0
    assert np.isnan(xc).all()
    np.testing.assert_array_equal(xa, np.vstack([xs, np.ones((1, xs.shape[1]))]), strict=True)


@pytest.mark.parametrize("power", range(2, 9))
def test_fill_inputs_forms_the_power_by_repeated_hadamard_products(power):
    # bit for bit the copy-then-multiply power, at (c-1)(n+1)K multiplies;
    # the bias row stays 1
    xs, xa, xc, returned, count = filled_inputs(power)
    expected = xa.copy()
    for _ in range(power - 1):
        expected *= xa
    assert returned is xc and count == (power - 1) * 7 * xs.shape[1]
    np.testing.assert_array_equal(xc, expected, strict=True)
    assert (xa[-1] == 1.0).all() and (xc[-1] == 1.0).all()
    np.testing.assert_array_equal(xa[:-1], xs, strict=True)


def test_too_few_weight_matrices_raise_shape_error():
    # two matrices would run as CR-PNN I of order 2, not the declared order 3
    spec = NetworkSpec.crpnn1(2, 1, 3)
    with pytest.raises(ShapeError, match=r"expected 3 weight matrices .* got 2"):
        CrpnnModel(spec, init_weights(spec, seed=0).weights[1:])
    doc = json.loads(save_model(init_weights(spec, seed=0)))
    del doc["weights"][0]
    with pytest.raises(ModelFormatError, match=r"expected 3 weight matrices .* got 2"):
        load_model(json.dumps(doc).encode())


@pytest.mark.parametrize("layer", [0, -1])
@pytest.mark.parametrize("variant", [CRPNN1, CRPNN2])
def test_wrong_weight_shape_raises_shape_error_naming_shapes(variant, layer):
    spec = NetworkSpec.create(variant, 3, 2, 7)
    weights = list(init_weights(spec, seed=0).weights)
    rows, cols = spec.weight_shapes()[layer]
    weights[layer] = np.ones((rows, cols - 1))
    idx = layer % len(weights)
    message = rf"weight matrix {idx} has shape \({rows}, {cols - 1}\), expected \({rows}, {cols}\)"
    with pytest.raises(ShapeError, match=message):
        CrpnnModel(spec, weights)


def assert_packed(model):
    """``params`` is one C-contiguous float64 vector and ``weights`` its views,
    laid out as the hidden matrices in order and then the output matrix."""
    params = model.params
    assert params.dtype == np.float64 and params.ndim == 1 and params.flags.c_contiguous
    assert params.size == sum(math.prod(s) for s in model.spec.weight_shapes())
    assert [w.shape for w in model.weights] == model.spec.weight_shapes()
    assert all(w.dtype == np.float64 and w.flags.c_contiguous for w in model.weights)
    kept = params.copy()
    params[:] = np.arange(params.size)  # the views see every write at their own offsets
    np.testing.assert_array_equal(np.concatenate([w.ravel() for w in model.weights]), params)
    params[:] = kept


@pytest.mark.parametrize("sizing", ENGINE_SPECS)
def test_every_constructor_packs_the_weights_into_one_float64_vector(sizing):
    spec = NetworkSpec.create(*sizing)
    drawn = init_weights(spec, seed=3)
    arrays = [w.copy() for w in drawn.weights]
    built = CrpnnModel(spec, arrays)
    loaded = load_model(save_model(drawn))
    copied = drawn.copy()
    for model in (drawn, built, loaded, copied):
        assert_packed(model)
        np.testing.assert_array_equal(model.params, drawn.params, strict=True)
    assert not any(np.shares_memory(built.params, a) for a in arrays)
    assert not np.shares_memory(copied.params, drawn.params)


@pytest.mark.parametrize("sizing", ENGINE_SPECS)
def test_init_weights_draws_params_as_the_per_matrix_draws(sizing):
    # one draw over params equals one draw per matrix, input side first
    spec = NetworkSpec.create(*sizing)
    rng, r = np.random.default_rng(7), 1.0 / np.sqrt(spec.n + 1)
    per_matrix = [rng.uniform(-r, r, size=shape) for shape in spec.weight_shapes()]
    for w, expected in zip(init_weights(spec, seed=7).weights, per_matrix, strict=True):
        np.testing.assert_array_equal(w, expected, strict=True)


def test_a_model_is_frozen():
    model = init_weights(NetworkSpec.crpnn1(2, 1, 3), seed=0)
    with pytest.raises(TypeError):
        model.weights[0] = np.zeros((3, 3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.params = np.zeros_like(model.params)


@pytest.mark.parametrize("sizing", ENGINE_SPECS)
def test_float32_int_and_fortran_weights_are_copied_into_float64_params(sizing):
    model = init_weights(NetworkSpec.create(*sizing), seed=5)
    for convert in (lambda w: w.astype(np.float32), lambda w: np.round(4 * w).astype(np.int64),
                    np.asfortranarray):
        arrays = [convert(w) for w in model.weights]
        odd = CrpnnModel(model.spec, arrays)
        assert_packed(odd)
        for w, a in zip(odd.weights, arrays, strict=True):
            np.testing.assert_array_equal(w, a.astype(np.float64), strict=True)


@pytest.mark.parametrize("cols", [1, 32, 37])
@pytest.mark.parametrize("sizing", ENGINE_SPECS)
def test_float32_and_fortran_weights_match_float64_copies(sizing, cols):
    model = init_weights(NetworkSpec.create(*sizing), seed=5)
    single_arrays = [w.astype(np.float32) for w in model.weights]
    single = CrpnnModel(model.spec, single_arrays)
    single_as_double = CrpnnModel(model.spec, [w.astype(np.float64) for w in single_arrays])
    fortran = CrpnnModel(model.spec, [np.asfortranarray(w) for w in model.weights])
    xs = np.random.default_rng(cols).uniform(-1, 1, size=(sizing[1], cols))
    for odd, plain in ((single, single_as_double), (fortran, model)):
        np.testing.assert_array_equal(predict_batch(odd, xs), predict_batch(plain, xs))
        np.testing.assert_array_equal(forward(odd, xs[:, 0]), forward(plain, xs[:, 0]))
    assert single_arrays[0].dtype == np.float32  # the caller's arrays are kept


@pytest.mark.parametrize("variant", [CRPNN1, CRPNN2])
def test_predict_batch_allocates_only_its_buffers(variant):
    # X~, two (n+1) x K slots and the m x K output; n=5, K=5000 as in the benchmark
    model = init_weights(NetworkSpec.create(variant, 5, 1, 14), seed=0)
    xs = np.random.default_rng(0).uniform(-1, 1, size=(5, 5000))
    predict_batch(model, xs)
    expected = 8 * (3 * 6 * 5000 + 5000)
    tracemalloc.start()
    try:
        predict_batch(model, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert expected <= peak <= expected + 16 * 1024


@pytest.mark.parametrize("cols", [1, 32])
@pytest.mark.parametrize("sizing", ENGINE_SPECS)
def test_counter_does_not_change_outputs(sizing, cols):
    model = init_weights(NetworkSpec.create(*sizing), seed=8)
    xs = np.random.default_rng(cols).uniform(-1, 1, size=(sizing[1], cols))
    counter = MultiplyCounter()
    counted = predict_batch(model, xs, counter)
    np.testing.assert_array_equal(counted, predict_batch(model, xs))
    per_sample = (mult_count_crpnn1 if sizing[0] == CRPNN1 else mult_count_crpnn2)(*sizing[1:])
    assert counter.count == cols * per_sample
