import numpy as np
import pytest

from crpnn.linalg import MultiplyCounter, ShapeError
from crpnn.network import (
    CRPNN1,
    CRPNN2,
    CrpnnModel,
    ModelFormatError,
    NetworkSpec,
    _forward_cols,
    forward,
    forward_crpnn1,
    forward_crpnn2,
    init_weights,
    load_model,
    predict_batch,
    save_model,
)
from crpnn.spectrum import evaluate_spectrum, expand_to_spectrum
from crpnn.topology import mult_count_crpnn1, mult_count_crpnn2


def identity_crpnn2_toy():
    # n=1, order 5 (one Taylor layer, power 3); computes x^5 + 1
    spec = NetworkSpec.crpnn2(1, 1, 5)
    return CrpnnModel(spec, [np.eye(2), np.eye(2), np.array([[1.0, 1.0]])])


def identity_crpnn1_toy():
    # n=1, order 2; computes x^2 + 1
    spec = NetworkSpec.crpnn1(1, 1, 2)
    return CrpnnModel(spec, [np.eye(2), np.array([[1.0, 1.0]])])


def test_crpnn2_toy_forward():
    out = forward_crpnn2(identity_crpnn2_toy(), [2.0])
    np.testing.assert_allclose(out, [33.0])


def test_crpnn1_toy_forward():
    out = forward_crpnn1(identity_crpnn1_toy(), [2.0])
    np.testing.assert_allclose(out, [5.0])


def test_zero_weights_give_zero_output():
    spec = NetworkSpec.crpnn2(3, 2, 6)
    model = CrpnnModel(spec, [np.zeros(s) for s in spec.weight_shapes()])
    np.testing.assert_array_equal(forward(model, [0.3, -0.7, 0.1]), [0.0, 0.0])


def test_crpnn1_order_one_is_affine():
    spec = NetworkSpec.crpnn1(2, 1, 1)
    model = CrpnnModel(spec, [np.array([[2.0, -1.0, 0.5]])])
    np.testing.assert_allclose(forward(model, [1.0, 3.0]), [2.0 - 3.0 + 0.5])


def test_variant_guards():
    with pytest.raises(ValueError):
        forward_crpnn1(identity_crpnn2_toy(), [1.0])
    with pytest.raises(ValueError):
        forward_crpnn2(identity_crpnn1_toy(), [1.0])


def test_forward_dimension_mismatch():
    with pytest.raises(ShapeError):
        forward(identity_crpnn2_toy(), [1.0, 2.0])


def test_forward_rejects_already_augmented_input():
    # layers consume exactly one augmentation; an (n+1)-dim vector is a mismatch
    model = init_weights(NetworkSpec.crpnn1(3, 1, 4), seed=0)
    from crpnn.linalg import augment

    with pytest.raises(ShapeError):
        forward(model, augment([0.1, 0.2, 0.3]))


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
    doubled.weights[-1] *= 2.0
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


def test_load_rejects_inconsistent_plan():
    model = init_weights(NetworkSpec.crpnn2(2, 1, 6), seed=0)
    blob = save_model(model).decode()
    with pytest.raises(ModelFormatError, match="plan"):
        load_model(blob.replace('"power": 3', '"power": 2').encode())


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
    """Allocate-per-op forward pass: output, X~, X~^c and every layer input."""
    xa = np.vstack([xs, np.ones((1, xs.shape[1]))])
    xc = None
    if model.spec.variant == CRPNN2:
        xc = xa.copy()
        for _ in range(model.spec.plan.power - 1):
            xc = xc * xa
    acts = [xa]
    for i, w in enumerate(model.weights[:-1]):
        acts.append((w @ acts[-1]) * (xc if i == 0 and xc is not None else xa))
    return model.weights[-1] @ acts[-1], xa, xc, acts


@pytest.mark.parametrize("cols", [1, 33])
@pytest.mark.parametrize("sizing", ENGINE_SPECS)
def test_forward_is_bit_identical_to_allocating_reference(sizing, cols):
    model = init_weights(NetworkSpec.create(*sizing), seed=4)
    xs = np.random.default_rng(cols).uniform(-1, 1, size=(sizing[1], cols))
    y_ref, xa_ref, xc_ref, acts_ref = reference_forward(model, xs)
    np.testing.assert_array_equal(predict_batch(model, xs), y_ref)
    single = reference_forward(model, xs[:, :1])[0].ravel()
    np.testing.assert_array_equal(forward(model, xs[:, 0]), single)
    y, xa, xc, acts = _forward_cols(model, xs, want_cache=True)
    np.testing.assert_array_equal(y, y_ref)
    np.testing.assert_array_equal(xa, xa_ref)
    if xc_ref is None:
        assert xc is None
    else:
        np.testing.assert_array_equal(xc, xc_ref)
    assert len(acts) == len(acts_ref)
    for a, a_ref in zip(acts, acts_ref):
        np.testing.assert_array_equal(a, a_ref)


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
    _forward_cols(model, xs, want_cache=True)
    np.testing.assert_array_equal(xs, before)
