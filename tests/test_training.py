import contextlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crpnn.datagen import Dataset
from crpnn.kernels import DOT_OUTPUT_BUDGET
from crpnn.linalg import MultiplyCounter, ShapeError
from crpnn.network import CRPNN1, CRPNN2, CrpnnModel, NetworkSpec, init_weights, predict_batch
from crpnn.spectrum import RelationSpectrum, evaluate_spectrum_cols
from crpnn.topology import mult_count_crpnn1, mult_count_crpnn2
from crpnn.training import (
    ERROR_BLOCK_BUDGET,
    TrainConfig,
    TrainingDivergedError,
    backward,
    grad_check,
    loss_mse,
    sgd_step,
    train,
)


def test_loss_mse_by_hand():
    assert loss_mse([[1.0, 1.0]], [[0.0, 0.0]]) == 1.0
    assert loss_mse([[3.0]], [[1.0]]) == 4.0
    assert loss_mse([[2.0, -1.0]], [[2.0, -1.0]]) == 0.0


def test_loss_mse_shape_mismatch():
    with pytest.raises(ShapeError):
        loss_mse(np.ones((2, 3)), np.ones((3, 2)))


@pytest.mark.parametrize("shape", [(1, 0), (0, 4), (0,)])
def test_loss_mse_of_empty_operands_raises_shape_error_naming_the_shape(shape):
    # not numpy's "Mean of empty slice" warning and a nan
    with pytest.raises(ShapeError, match=f"empty operands of shape {re.escape(str(shape))}"):
        loss_mse(np.empty(shape), np.empty(shape))


def test_backward_hand_example():
    # single affine output layer, one sample: grad = (prediction - target) * input^T
    model = CrpnnModel(NetworkSpec.crpnn1(1, 1, 1), [np.array([[1.0, 1.0]])])
    np.testing.assert_array_equal(backward(model, [[2.0]], [[1.0]]), [4.0, 2.0], strict=True)


def test_backward_zero_at_perfect_fit():
    model = CrpnnModel(NetworkSpec.crpnn1(1, 1, 1), [np.array([[1.0, 0.0]])])
    xs = np.array([[0.5, -0.5, 2.0]])
    np.testing.assert_array_equal(backward(model, xs, xs.copy()), np.zeros(2), strict=True)


def test_backward_batch_equals_mean_of_single_samples():
    rng = np.random.default_rng(0)
    model = init_weights(NetworkSpec.crpnn2(2, 2, 5), seed=4)
    xs = rng.uniform(-1, 1, size=(2, 6))
    ys = rng.uniform(-1, 1, size=(2, 6))
    whole = backward(model, xs, ys)
    averaged = np.mean([backward(model, xs[:, k : k + 1], ys[:, k : k + 1]) for k in range(6)], axis=0)
    assert np.abs(whole - averaged).max() <= 1e-12 * max(1.0, np.abs(whole).max())


def test_backward_overflow_diagnostic():
    model = init_weights(NetworkSpec.crpnn2(1, 1, 40), seed=0)
    huge = np.full((1, 3), 1e12)
    with pytest.raises(FloatingPointError, match=r"\[-1, 1\]"):
        backward(model, huge, np.ones((1, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_backward_blames_non_finite_batch_inputs(bad):
    # zero inputs cannot overflow the pass; the batch is at fault
    model = init_weights(NetworkSpec.crpnn1(2, 1, 3), seed=0)
    xs = np.zeros((2, 2))
    xs[1, 0] = bad
    with pytest.raises(ValueError, match="batch inputs contains non-finite entries"):
        backward(model, xs, np.zeros((1, 2)))


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_backward_and_grad_check_blame_non_finite_batch_targets(bad):
    model = init_weights(NetworkSpec.crpnn1(2, 1, 3), seed=0)
    for check in (backward, grad_check):
        with pytest.raises(ValueError, match="batch targets contains non-finite entries"):
            check(model, np.zeros((2, 2)), [[bad, 0.0]])


def test_sgd_step_arithmetic():
    model = CrpnnModel(NetworkSpec.crpnn1(1, 1, 1), [np.array([[1.0, 1.0]])])
    sgd_step(model, np.array([2.0, 0.0]), 0.1)
    np.testing.assert_allclose(model.params, [0.8, 1.0])
    np.testing.assert_allclose(model.weights[0], [[0.8, 1.0]])


def test_sgd_step_zero_cases():
    model = init_weights(NetworkSpec.crpnn1(2, 1, 3), seed=1)
    before = model.params.copy()
    sgd_step(model, np.zeros_like(model.params), 0.5)
    np.testing.assert_array_equal(model.params, before)
    sgd_step(model, backward(model, np.ones((2, 1)), np.ones((1, 1))), 0.0)
    np.testing.assert_array_equal(model.params, before)


@pytest.mark.parametrize("variant", [CRPNN1, CRPNN2])
@pytest.mark.parametrize("batch", [1, 4])
def test_gradients_match_finite_differences(variant, batch):
    rng = np.random.default_rng(42)
    for n in (1, 2, 3):
        low = n + 2 if variant == CRPNN2 else 1
        for order in range(low, 10, 3):
            model = init_weights(
                NetworkSpec.create(variant, n, 1, order), seed=int(rng.integers(1000))
            )
            xs = rng.uniform(-1, 1, size=(n, batch))
            ys = rng.uniform(-1, 1, size=(1, batch))
            assert grad_check(model, xs, ys) < 1e-5


def test_grad_check_zero_error_regime():
    model = CrpnnModel(NetworkSpec.crpnn1(1, 1, 1), [np.array([[1.0, 0.0]])])
    xs = np.array([[0.25, -0.75]])
    assert grad_check(model, xs, xs.copy()) < 1e-5


def test_grad_check_reports_inf_when_its_finite_differences_overflow():
    # both perturbed losses overflow to inf, so the numeric gradient is nan
    spec = NetworkSpec.crpnn1(1, 1, 2)
    model = CrpnnModel(spec, [np.full(s, 1e100) for s in spec.weight_shapes()])
    assert grad_check(model, np.array([[0.5, -0.25]]), np.zeros((1, 2))) == float("inf")


@pytest.mark.parametrize("where", ["first", "middle hidden", "last"])
@pytest.mark.parametrize("variant", [CRPNN1, CRPNN2])
def test_grad_check_sees_one_wrong_gradient_entry(monkeypatch, variant, where):
    # backward off by 1.0 at one entry of params: index 0, one half-way
    # through the hidden matrices, or P-1 (the output matrix)
    import crpnn.training

    spec = NetworkSpec.create(variant, 2, 1, 5)
    model = init_weights(spec, seed=2)
    rng = np.random.default_rng(3)
    xs, ys = rng.uniform(-1, 1, size=(2, 4)), rng.uniform(-1, 1, size=(1, 4))
    assert grad_check(model, xs, ys) < 1e-5
    hidden = (len(spec.weight_shapes()) - 1) * (spec.n + 1) ** 2
    index = {"first": 0, "middle hidden": hidden // 2, "last": model.params.size - 1}[where]
    true_backward = crpnn.training.backward

    def skewed_backward(*args):
        grad = true_backward(*args)
        grad[index] += 1.0
        return grad

    monkeypatch.setattr(crpnn.training, "backward", skewed_backward)
    assert grad_check(model, xs, ys) >= 0.5


def test_grad_check_guards_large_models():
    model = init_weights(NetworkSpec.crpnn1(9, 1, 40), seed=0)
    with pytest.raises(ValueError, match="parameters"):
        grad_check(model, np.zeros((9, 1)), np.zeros((1, 1)))


def test_single_small_step_decreases_the_loss():
    rng = np.random.default_rng(9)
    for variant, order in ((CRPNN1, 4), (CRPNN2, 6)):
        for seed in range(5):
            model = init_weights(NetworkSpec.create(variant, 2, 1, order), seed=seed)
            xs = rng.uniform(-1, 1, size=(2, 1))
            ys = rng.uniform(-1, 1, size=(1, 1))
            before = loss_mse(predict_batch(model, xs), ys)
            grad = backward(model, xs, ys)
            if not grad.any():
                continue
            sgd_step(model, grad, 1e-6)
            assert loss_mse(predict_batch(model, xs), ys) < before


@pytest.mark.parametrize("variant", [CRPNN1, CRPNN2])
@pytest.mark.parametrize("m", [2, 3])
def test_backward_is_the_gradient_of_m_times_mse_over_two(variant, m):
    # grad_check differentiates m * MSE / 2; at m > 1 a missing factor m shows
    rng = np.random.default_rng(14)
    model = init_weights(NetworkSpec.create(variant, 2, m, 5), seed=3)
    xs = rng.uniform(-1, 1, size=(2, 20))
    ys = rng.uniform(-1, 1, size=(m, 20))
    assert grad_check(model, xs, ys) < 1e-5


def test_loss_mse_overflows_to_inf_without_a_warning():
    # finite predictions near 1e200 whose squares overflow
    spec = NetworkSpec.crpnn1(1, 1, 2)
    model = CrpnnModel(spec, [np.full(shape, 1e100) for shape in spec.weight_shapes()])
    assert loss_mse(predict_batch(model, [[0.5, -0.25]]), [[0.0, 0.0]]) == np.inf


def quadratic_dataset(seed=42, samples=200):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1, 1, size=(2, samples))
    target = RelationSpectrum(
        n=2, m=1, terms=({(0, 0): 0.5, (1, 0): 1.0, (1, 1): -2.0, (0, 2): 1.0},)
    )
    return Dataset(inputs=xs, targets=evaluate_spectrum_cols(target, xs))


def test_train_converges_on_realizable_quadratic():
    ds = quadratic_dataset()
    model = init_weights(NetworkSpec.crpnn1(2, 1, 2), seed=0)
    model, record = train(model, ds, TrainConfig(learning_rate=0.05, epochs=4000, seed=0))
    assert record.final_mse < 1e-4
    assert len(record.mse_per_epoch) == 4000


def test_train_zero_epochs_is_identity():
    ds = quadratic_dataset()
    model = init_weights(NetworkSpec.crpnn1(2, 1, 2), seed=0)
    before = [w.copy() for w in model.weights]
    model, record = train(model, ds, TrainConfig(epochs=0))
    assert record.mse_per_epoch == []
    assert np.isfinite(record.final_mse)
    for w, b in zip(model.weights, before):
        np.testing.assert_array_equal(w, b)


def test_train_deterministic_given_seed():
    ds = quadratic_dataset()
    runs = []
    for _ in range(2):
        model = init_weights(NetworkSpec.crpnn1(2, 1, 2), seed=7)
        _, record = train(
            model, ds, TrainConfig(learning_rate=0.03, epochs=50, batch_size=32, seed=7)
        )
        runs.append(record.mse_per_epoch)
    assert runs[0] == runs[1]


def test_train_minibatch_covers_all_samples():
    ds = quadratic_dataset(samples=101)  # ragged final batch
    model = init_weights(NetworkSpec.crpnn1(2, 1, 2), seed=1)
    _, record = train(
        model, ds, TrainConfig(learning_rate=0.03, epochs=30, batch_size=25, seed=1)
    )
    assert record.final_mse < record.mse_per_epoch[0]


def test_train_divergence_aborts_loudly():
    ds = quadratic_dataset()
    model = init_weights(NetworkSpec.crpnn1(2, 1, 2), seed=0)
    with pytest.raises(TrainingDivergedError, match="diverged"):
        train(model, ds, TrainConfig(learning_rate=50.0, epochs=500, seed=0))


def test_lr_decay_changes_trajectory():
    ds = quadratic_dataset()
    trajectories = []
    for decay in (None, 0.9):
        model = init_weights(NetworkSpec.crpnn1(2, 1, 2), seed=3)
        _, record = train(
            model, ds, TrainConfig(learning_rate=0.05, epochs=20, seed=3, lr_decay=decay)
        )
        trajectories.append(record.mse_per_epoch)
    assert trajectories[0] != trajectories[1]


# Odd and even hidden-layer counts for both variants (see test_network.py),
# CR-PNN I order 1 (no hidden layer) and a two-output CR-PNN II.
ENGINE_SPECS = [
    (CRPNN1, 2, 1, 1),
    (CRPNN1, 2, 1, 4),
    (CRPNN1, 2, 1, 5),
    (CRPNN2, 2, 2, 7),
    (CRPNN2, 3, 1, 7),
    (CRPNN2, 2, 1, 8),
]


def reference_backward(model, xs, ts):
    """Allocate-per-op forward and backward passes, one fresh array per op."""
    xa = np.vstack([xs, np.ones((1, xs.shape[1]))])
    gates = [xa] * (len(model.weights) - 1)
    if model.spec.variant == CRPNN2:
        xc = xa.copy()
        for _ in range(model.spec.plan.power - 1):
            xc = xc * xa
        gates[0] = xc
    acts = [xa]
    for w, gate in zip(model.weights[:-1], gates):
        acts.append((w @ acts[-1]) * gate)
    inv_batch = 1.0 / xs.shape[1]
    d_act = model.weights[-1] @ acts[-1] - ts
    grads = [(d_act @ acts[-1].T) * inv_batch]
    for i in range(len(model.weights) - 2, -1, -1):
        d_act = (model.weights[i + 1].T @ d_act) * gates[i]
        grads.insert(0, (d_act @ acts[i].T) * inv_batch)
    return grads


# wider than the error-block budget at any hidden-layer count: the eager chain
WIDE = ERROR_BLOCK_BUDGET // 8 + 1
# widths whose hidden (n+1, B) products fit DOT_OUTPUT_BUDGET at n <= 3,
# and exceed it at n >= 2
WITHIN_DOT = DOT_OUTPUT_BUDGET // (8 * 4)
OVER_DOT = DOT_OUTPUT_BUDGET // (8 * 3) + 1


@pytest.mark.parametrize("cols", [1, 32, 37, WITHIN_DOT, OVER_DOT, WIDE])
@pytest.mark.parametrize("sizing", ENGINE_SPECS)
def test_backward_is_bit_identical_to_allocating_reference(sizing, cols):
    model = init_weights(NetworkSpec.create(*sizing), seed=6)
    rng = np.random.default_rng(cols)
    xs = rng.uniform(-1, 1, size=(sizing[1], cols))
    ts = rng.uniform(-1, 1, size=(sizing[2], cols))
    expected = np.concatenate([g.ravel() for g in reference_backward(model, xs, ts)])
    np.testing.assert_array_equal(backward(model, xs, ts), expected, strict=True)


@pytest.mark.parametrize("sizing", ENGINE_SPECS)
def test_backward_leaves_caller_arrays_unmodified(sizing):
    model = init_weights(NetworkSpec.create(*sizing), seed=6)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1, 1, size=(sizing[1], 11))
    ts = rng.uniform(-1, 1, size=(sizing[2], 11))
    before = [xs.copy(), ts.copy(), model.params.copy()]
    first = backward(model, xs, ts)
    kept = first.copy()
    second = backward(model, xs, ts)
    for arr, orig in zip([xs, ts, model.params], before, strict=True):
        np.testing.assert_array_equal(arr, orig)
    assert not np.shares_memory(first, second)
    np.testing.assert_array_equal(first, kept)


@pytest.mark.parametrize("sizing", ENGINE_SPECS)
def test_backward_returns_one_fresh_vector_laid_out_as_params(sizing):
    # laid out as params: hidden matrices in order, the output matrix last
    model = init_weights(NetworkSpec.create(*sizing), seed=6)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1, 1, size=(sizing[1], 5))
    ts = rng.uniform(-1, 1, size=(sizing[2], 5))
    grad = backward(model, xs, ts)
    assert grad.ndim == 1 and grad.dtype == np.float64 and grad.flags.c_contiguous
    assert grad.size == model.params.size
    assert not np.shares_memory(grad, backward(model, xs, ts))
    assert not np.shares_memory(grad, model.params)


def test_too_few_weight_matrices_raise_shape_error():
    # two matrices would train as CR-PNN I of order 2, not the declared order 3
    spec = NetworkSpec.crpnn1(2, 1, 3)
    with pytest.raises(ShapeError, match=r"expected 3 weight matrices .* got 2"):
        backward(CrpnnModel(spec, init_weights(spec, seed=0).weights[1:]),
                 np.zeros((2, 4)), np.zeros((1, 4)))


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
        backward(CrpnnModel(spec, weights), np.zeros((3, 5)), np.zeros((2, 5)))


@pytest.mark.parametrize("cols", [1, 32, 37])
@pytest.mark.parametrize("sizing", ENGINE_SPECS)
def test_float32_and_fortran_weights_give_float64_gradients(sizing, cols):
    model = init_weights(NetworkSpec.create(*sizing), seed=5)
    single_arrays = [w.astype(np.float32) for w in model.weights]
    single = CrpnnModel(model.spec, single_arrays)
    single_as_double = CrpnnModel(model.spec, [w.astype(np.float64) for w in single_arrays])
    fortran = CrpnnModel(model.spec, [np.asfortranarray(w) for w in model.weights])
    rng = np.random.default_rng(cols)
    xs = rng.uniform(-1, 1, size=(sizing[1], cols))
    ts = rng.uniform(-1, 1, size=(sizing[2], cols))
    for odd, plain in ((single, single_as_double), (fortran, model)):
        grad = backward(odd, xs, ts)
        assert grad.ndim == 1 and grad.dtype == np.float64 and grad.flags.c_contiguous
        np.testing.assert_array_equal(grad, backward(plain, xs, ts), strict=True)


@pytest.mark.parametrize("kind", ["one short", "one long", "2-D", "per-matrix list"])
@pytest.mark.parametrize("variant", [CRPNN1, CRPNN2])
def test_sgd_step_refuses_anything_but_a_params_vector_and_leaves_the_params(variant, kind):
    model = init_weights(NetworkSpec.create(variant, 3, 2, 7), seed=0)
    grad = backward(model, np.zeros((3, 4)), np.ones((2, 4)))
    bad = {
        "one short": grad[:-1],
        "one long": np.append(grad, 0.0),
        "2-D": grad.reshape(-1, 4),
        "per-matrix list": [np.ones_like(w) for w in model.weights],
    }[kind]
    before = model.params.copy()
    with pytest.raises(ShapeError, match="is not laid out as params"):
        sgd_step(model, bad, 0.1)
    np.testing.assert_array_equal(model.params, before)


@pytest.mark.parametrize("sizing", ENGINE_SPECS)
def test_sgd_step_is_the_per_matrix_update_bit_for_bit(sizing):
    # for backward's gradient and for a hand-made vector, each split as the weights
    model = init_weights(NetworkSpec.create(*sizing), seed=5)
    rng = np.random.default_rng(1)
    xs = rng.uniform(-1, 1, size=(sizing[1], 9))
    backward_grad = backward(model, xs, rng.uniform(-1, 1, size=(sizing[2], 9)))
    hand_made = rng.uniform(-1e3, 1e3, size=model.params.size)
    ends = np.cumsum([w.size for w in model.weights])[:-1]
    for grad in (backward_grad, hand_made):
        grads = [g.reshape(w.shape) for g, w in zip(np.split(grad, ends), model.weights, strict=True)]
        for lr in (0.01, 0.3, 7.0):
            expected = [w - lr * g for w, g in zip(model.weights, grads)]
            params = model.params
            assert sgd_step(model, grad, lr) is model and model.params is params
            for w, w_ref in zip(model.weights, expected, strict=True):
                np.testing.assert_array_equal(w, w_ref, strict=True)


@contextlib.contextmanager
def counted_kernels():
    """Every kernel that the passes call, wrapped to add to one MultiplyCounter,
    which is yielded; the kernels are restored on exit."""
    import crpnn.kernels
    import crpnn.network
    import crpnn.training

    tally, saved = MultiplyCounter(), []

    def counted(kernel):
        return lambda *args, out, counter=None: kernel(*args, out=out, counter=tally)

    for module in (crpnn.kernels, crpnn.network, crpnn.training):
        for name in ("matmul", "matmul_nt", "hadamard"):
            if hasattr(module, name):
                saved.append((module, name, getattr(module, name)))
                setattr(module, name, counted(getattr(module, name)))
    try:
        yield tally
    finally:
        for module, name, kernel in saved:
            setattr(module, name, kernel)


def backward_mults(variant, n, m, order):
    """forward + 2m(n+1) + (h-1)(n+1)^2 + h(n+1) + h(n+1)^2 per sample, h = L - c"""
    width, hidden = n + 1, order - NetworkSpec.create(variant, n, m, order).power
    forward = (mult_count_crpnn1 if variant == CRPNN1 else mult_count_crpnn2)(n, m, order)
    return forward + 2 * m * width + (hidden - 1) * width**2 + hidden * width + hidden * width**2


def test_backward_mults_at_the_paper_sizing():
    assert backward_mults(CRPNN1, 5, 1, 14) == 1542
    assert backward_mults(CRPNN2, 5, 1, 14) == 858


@st.composite
def work_sizings(draw):
    # CR-PNN I from order 2: at order 1 no hidden layer is sent an error
    variant = draw(st.sampled_from([CRPNN1, CRPNN2]))
    n = draw(st.integers(1, 4))
    low = n + 2 if variant == CRPNN2 else 2
    return variant, n, draw(st.integers(1, 3)), draw(st.integers(low, low + 5))


@settings(max_examples=30, deadline=None)
@given(work_sizings())
@example((CRPNN1, 5, 1, 14))
@example((CRPNN2, 5, 1, 14))
def test_a_backward_pass_runs_the_formulas_multiplies(sizing):
    # on the stacked chain (3 columns) and on the eager one (WIDE)
    variant, n, m, order = sizing
    model = init_weights(NetworkSpec.create(variant, n, m, order), seed=0)
    for cols in (3, WIDE):
        rng = np.random.default_rng(cols)
        xs, ts = rng.uniform(-1, 1, size=(n, cols)), rng.uniform(-1, 1, size=(m, cols))
        with counted_kernels() as counter:
            backward(model, xs, ts)
        assert counter.count == cols * backward_mults(*sizing)


@pytest.mark.parametrize("variant", [CRPNN1, CRPNN2])
def test_backward_allocates_only_cache_and_gradients(variant):
    # n=5, K=5000 as in the benchmark: X~, the (hidden, n+1, K) cache, X~^c
    # (CR-PNN II), the m x K output and the gradients, plus a small slack
    spec = NetworkSpec.create(variant, 5, 1, 14)
    model = init_weights(spec, seed=0)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1, 1, size=(5, 5000))
    ts = rng.uniform(-1, 1, size=(1, 5000))
    backward(model, xs, ts)
    hidden = len(model.weights) - 1
    columns = (1 + hidden + (variant == CRPNN2)) * 6 + 1
    expected = 8 * (columns * 5000 + model.params.size)
    tracemalloc.start()
    try:
        grad = backward(model, xs, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert expected <= peak <= expected + 16 * 1024
    # the vector owns its memory: it keeps no larger buffer alive
    assert grad.base is None and grad.size == model.params.size


def test_backward_at_power_one_keeps_no_power_slot():
    # CR-PNN II at L = n+2 plans c = 1: X~^1 is X~ itself, so the pass holds
    # X~ and the (hidden, n+1, K) cache only, as CR-PNN I of that order does
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1, 1, size=(5, 5000))
    ts = rng.uniform(-1, 1, size=(1, 5000))
    peaks = []
    for variant in (CRPNN1, CRPNN2):
        model = init_weights(NetworkSpec.create(variant, 5, 1, 7), seed=0)
        assert model.spec.power == 1
        backward(model, xs, ts)
        tracemalloc.start()
        try:
            backward(model, xs, ts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    expected = 8 * (((1 + 6) * 6 + 1) * 5000 + 6 * 36 + 6)
    assert all(expected <= peak <= expected + 16 * 1024 for peak in peaks)


def test_nonfinite_gradient_names_its_matrix():
    # the activations stay finite; only the first layer's error overflows
    model = init_weights(NetworkSpec.crpnn1(1, 1, 3), seed=0)
    model.weights[0][:] = 1e-308
    model.weights[1][:] = 1e308
    model.weights[2][:] = 1.0
    with pytest.raises(FloatingPointError, match="gradient for weight matrix 0 is non-finite"):
        backward(model, np.ones((1, 2)), np.zeros((1, 2)))


def reference_train(model, dataset, config):
    """train() written as the loop of public calls it replaced.

    Per batch backward + sgd_step, per epoch loss_mse of predict_batch.
    Returns the epoch MSEs and the error raised (or None); the model is left
    as the loop left it.
    """
    inputs, targets = dataset.inputs, dataset.targets
    total = inputs.shape[1]
    batch = config.batch_size or total
    rng = np.random.default_rng(config.seed)
    lr = config.learning_rate
    mses = []
    try:
        for epoch in range(config.epochs):
            if batch < total:
                order = rng.permutation(total)
                for lo in range(0, total, batch):
                    idx = order[lo : lo + batch]
                    sgd_step(model, backward(model, inputs[:, idx], targets[:, idx]), lr)
            else:
                sgd_step(model, backward(model, inputs, targets), lr)
            mse = loss_mse(predict_batch(model, inputs), targets)
            mses.append(mse)
            if not np.isfinite(mse) or mse > 1e12:
                raise TrainingDivergedError(
                    f"training diverged at epoch {epoch}: mse={mse!r} "
                    f"(learning rate {lr!r} too large for this topology?)"
                )
            if config.lr_decay is not None:
                lr *= config.lr_decay
    except (TrainingDivergedError, FloatingPointError) as exc:
        return mses, exc
    return mses, None


def assert_train_matches_reference(model, dataset, config):
    expected = model.copy()
    ref_mses, ref_err = reference_train(expected, dataset, config)
    try:
        _, record = train(model, dataset, config)
        err = None
    except (TrainingDivergedError, FloatingPointError) as exc:
        record, err = None, exc
    assert type(err) is type(ref_err) and str(err) == str(ref_err)
    if err is None:
        assert record.mse_per_epoch == ref_mses
        assert record.final_mse == ref_mses[-1]
    for w, w_ref in zip(model.weights, expected.weights, strict=True):
        np.testing.assert_array_equal(w, w_ref, strict=True)
    return err


def dataset_for(spec, samples, seed):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1, 1, size=(spec.n, samples))
    return Dataset(inputs=xs, targets=rng.uniform(-1, 1, size=(spec.m, samples)))


@pytest.mark.parametrize("lr_decay", [None, 0.9])
@pytest.mark.parametrize("batch_size", [None, 8])
@pytest.mark.parametrize("sizing", [(CRPNN1, 2, 1, 5), (CRPNN1, 3, 2, 4), (CRPNN2, 2, 1, 8), (CRPNN2, 2, 2, 7)])
def test_train_is_bit_identical_to_the_loop_of_public_calls(sizing, batch_size, lr_decay):
    # K=37 and B=8 leave a short last batch of 5 columns
    spec = NetworkSpec.create(*sizing)
    model = init_weights(spec, seed=2)
    config = TrainConfig(learning_rate=0.05, epochs=4, batch_size=batch_size, seed=3, lr_decay=lr_decay)
    err = assert_train_matches_reference(model, dataset_for(spec, 37, 1), config)
    assert err is None


@pytest.mark.parametrize("lr_decay", [None, 0.9])
@pytest.mark.parametrize("variant", [CRPNN1, CRPNN2])
def test_train_matches_the_loop_of_public_calls_on_both_sides_of_the_size_rule(variant, lr_decay):
    # full-batch passes over the error-block budget run the eager chain,
    # minibatches (and the short last batch) the stacked product; hidden
    # (4, B) products at B=64 and WITHIN_DOT go through ndarray.dot, at
    # OVER_DOT and full batch through np.matmul
    spec = NetworkSpec.create(variant, 3, 1, 7)
    hidden = len(spec.weight_shapes()) - 1
    samples = ERROR_BLOCK_BUDGET // (8 * hidden * 4) + 3
    assert 8 * hidden * 4 * OVER_DOT <= ERROR_BLOCK_BUDGET < 8 * hidden * 4 * samples
    assert 8 * 4 * WITHIN_DOT <= DOT_OUTPUT_BUDGET < 8 * 4 * OVER_DOT
    ds = dataset_for(spec, samples, 7)
    for batch_size in (None, 64, WITHIN_DOT, OVER_DOT):
        config = TrainConfig(learning_rate=0.05, epochs=2, batch_size=batch_size, seed=5, lr_decay=lr_decay)
        assert assert_train_matches_reference(init_weights(spec, seed=3), ds, config) is None


@pytest.mark.parametrize("variant", [CRPNN1, CRPNN2])
def test_a_full_batch_epoch_runs_one_forward_pass(monkeypatch, variant):
    # epoch e's MSE comes from the forward pass of step e+1; the last epoch
    # adds one pass; a minibatch epoch runs one per batch plus its metric
    import crpnn.training

    calls = []

    def counting_layers(*args, **kwargs):
        calls.append(args[-1].shape[1])
        return layers(*args, **kwargs)

    layers = crpnn.training._layers
    monkeypatch.setattr(crpnn.training, "_layers", counting_layers)
    spec = NetworkSpec.create(variant, 2, 1, 6)
    ds = dataset_for(spec, 37, 8)
    for batch_size, epochs, widths in [
        (None, 5, [37] * 6), (None, 1, [37, 37]), (None, 0, [37]), (16, 3, [16, 16, 5, 37] * 3),
    ]:
        calls.clear()
        config = TrainConfig(learning_rate=0.05, epochs=epochs, batch_size=batch_size, seed=1)
        train(init_weights(spec, seed=0), ds, config)
        assert calls == widths


@pytest.mark.parametrize(
    "variant, batch_size, lr",
    [(CRPNN1, None, 10.0), (CRPNN2, None, 10.0), (CRPNN1, 8, 20.0), (CRPNN2, 8, 5.0)],
)
def test_train_diverges_like_the_loop_of_public_calls(variant, batch_size, lr):
    spec = NetworkSpec.create(variant, 2, 1, 6)
    model = init_weights(spec, seed=0, scale=0.9)
    config = TrainConfig(learning_rate=lr, epochs=50, batch_size=batch_size, seed=1)
    err = assert_train_matches_reference(model, dataset_for(spec, 37, 4), config)
    assert isinstance(err, TrainingDivergedError)


@pytest.mark.parametrize("variant", [CRPNN1, CRPNN2])
def test_overflow_mid_epoch_leaves_the_weights_of_the_loop_of_public_calls(variant):
    # one sample overflows the forward pass; the batches before it have stepped
    spec = NetworkSpec.create(variant, 2, 1, 6)
    ds = dataset_for(spec, 37, 5)
    ds.inputs[0, 36] = 1e200
    model = init_weights(spec, seed=0)
    before = [w.copy() for w in model.weights]
    config = TrainConfig(learning_rate=0.05, epochs=3, batch_size=8, seed=2)
    err = assert_train_matches_reference(model, ds, config)
    assert isinstance(err, FloatingPointError)
    assert not all(np.array_equal(w, b) for w, b in zip(model.weights, before))


@st.composite
def train_cases(draw):
    variant = draw(st.sampled_from([CRPNN1, CRPNN2]))
    n = draw(st.integers(1, 4))
    low = n + 2 if variant == CRPNN2 else 1
    spec = NetworkSpec.create(variant, n, draw(st.integers(1, 2)), draw(st.integers(low, low + 5)))
    samples = draw(st.integers(1, 40))
    batch_sizes = [None, 1, samples]
    non_divisors = [b for b in range(2, samples) if samples % b]
    if non_divisors:
        batch_sizes.append(draw(st.sampled_from(non_divisors)))
    config = TrainConfig(
        learning_rate=draw(st.sampled_from([0.05, 0.5, 1e4])),  # 1e4 can diverge
        epochs=draw(st.integers(1, 3)),
        batch_size=draw(st.sampled_from(batch_sizes)),
        seed=draw(st.integers(0, 2**32 - 1)),
        lr_decay=draw(st.sampled_from([None, 0.9])),
    )
    model = init_weights(spec, seed=draw(st.integers(0, 2**32 - 1)))
    return model, dataset_for(spec, samples, draw(st.integers(0, 2**32 - 1))), config


@settings(max_examples=80, deadline=None)
@given(train_cases())
def test_train_is_bit_identical_to_the_loop_of_public_calls_on_any_sizing(case):
    # guards the one-take gather of X~, X~^c and the targets for every batch width
    model, dataset, config = case
    assert_train_matches_reference(model, dataset, config)


@pytest.mark.parametrize("cut", ["count", "shape"])
def test_bad_weights_raise_before_training(cut):
    spec = NetworkSpec.crpnn1(2, 1, 3)
    weights = init_weights(spec, seed=0).weights
    weights = weights[1:] if cut == "count" else [weights[0][:, :-1], *weights[1:]]
    with pytest.raises(ShapeError):
        train(CrpnnModel(spec, weights), quadratic_dataset(), TrainConfig(epochs=2))


@pytest.mark.parametrize("kind", ["int64", "read-only"])
def test_train_steps_on_the_models_params_not_on_the_arrays_it_was_built_from(kind):
    spec = NetworkSpec.crpnn1(2, 1, 3)
    arrays = list(init_weights(spec, seed=0).weights)
    if kind == "int64":
        arrays[1] = np.round(4 * arrays[1]).astype(np.int64)
    else:
        arrays[1].flags.writeable = False
    before = [a.copy() for a in arrays]
    model = CrpnnModel(spec, arrays)
    start = model.params.copy()
    train(model, quadratic_dataset(), TrainConfig(epochs=2))
    assert not np.array_equal(model.params, start)
    for a, b in zip(arrays, before, strict=True):
        np.testing.assert_array_equal(a, b, strict=True)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0])
@pytest.mark.parametrize("name", ["learning_rate", "lr_decay"])
def test_train_config_rejects_rates_that_are_not_positive_and_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a positive finite number"):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("batch_size", [None, 8])
@pytest.mark.parametrize("variant", [CRPNN1, CRPNN2])
def test_train_writes_back_into_the_callers_arrays(variant, batch_size):
    # the caller's arrays are the model's params and its weight views: train steps them in place
    spec = NetworkSpec.create(variant, 2, 1, 7)
    model = init_weights(spec, seed=1)
    ds = dataset_for(spec, 37, 6)
    params, weights, start = model.params, model.weights, model.params.copy()
    config = TrainConfig(learning_rate=0.05, epochs=3, batch_size=batch_size, seed=4)
    fortran = CrpnnModel(spec, [w.copy(order="F") for w in model.weights])
    single = CrpnnModel(spec, [w.astype(np.float32) for w in model.weights])
    single_as_double = CrpnnModel(spec, [w.astype(np.float32).astype(np.float64) for w in model.weights])
    trained, _ = train(model, ds, config)
    assert trained is model and model.params is params and model.weights is weights
    assert not np.array_equal(params, start)
    # the packed copy of Fortran or float32 weights trains as its float64 C copy, bit for bit
    for odd, plain in ((fortran, model), (single, train(single_as_double, ds, config)[0])):
        train(odd, ds, config)
        np.testing.assert_array_equal(odd.params, plain.params, strict=True)


@pytest.mark.parametrize("variant", [CRPNN1, CRPNN2])
@pytest.mark.parametrize("samples, batch_size", [(5000, None), (2000, 32), (5000, 32)])
def test_train_operands_start_on_64_byte_boundaries(monkeypatch, variant, samples, batch_size):
    # the benchmark widths: K=5000 full batch, B=32 with short batches of 16 and 8;
    # a public backward pass over the whole dataset is wide at both K
    import crpnn.network
    import crpnn.training

    offsets = set()

    def recording_layers(weights, xa, xc, slots, y, counter=None):
        offsets.update(a.ctypes.data % 64 for a in [xa, *slots] + ([] if xc is None else [xc]))
        return layers(weights, xa, xc, slots, y, counter)

    layers = crpnn.network._layers
    for module in (crpnn.network, crpnn.training):
        monkeypatch.setattr(module, "_layers", recording_layers)
    spec = NetworkSpec.create(variant, 5, 1, 14)
    model, ds = init_weights(spec, seed=0), dataset_for(spec, samples, 0)
    config = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=batch_size, seed=0)
    train(model, ds, config)
    backward(model, ds.inputs, ds.targets)
    predict_batch(model, ds.inputs)
    assert offsets == {0}


@pytest.mark.parametrize("xs_shape, ts_shape, message", [
    ((2, 0), (1, 0), "batch is empty"),
    ((3, 4), (1, 4), "model expects 2 input rows, got 3"),
    ((2, 4), (2, 4), "model expects 1 target rows, got 2"),
    ((2, 4), (1, 5), "batch has 4 input columns but 5 target columns"),
])
def test_backward_refuses_a_batch_that_does_not_fit_the_model(xs_shape, ts_shape, message):
    model = init_weights(NetworkSpec.crpnn1(2, 1, 3), seed=0)
    with pytest.raises(ShapeError, match=f"^{message}$"):
        backward(model, np.zeros(xs_shape), np.zeros(ts_shape))


def test_train_refuses_a_batch_larger_than_the_dataset():
    model = init_weights(NetworkSpec.crpnn1(2, 1, 3), seed=0)
    with pytest.raises(ValueError, match="^batch_size 201 exceeds dataset size 200$"):
        train(model, quadratic_dataset(), TrainConfig(epochs=1, batch_size=201))


@pytest.mark.parametrize("fields, message", [
    ({"epochs": -1}, "epochs must be non-negative, got -1"),
    ({"batch_size": 0}, "batch_size must be positive, got 0"),
    ({"epochs": 2.5}, "epochs must be an integer, got 2.5"),
    ({"batch_size": 8.0}, "batch_size must be an integer, got 8.0"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
])
def test_train_config_refuses_bad_counts(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TrainConfig(**fields)


def test_train_config_stores_numpy_and_bool_counts_as_ints():
    config = TrainConfig(epochs=np.int64(3), batch_size=np.int32(8), seed=True)
    assert (config.epochs, config.batch_size, config.seed) == (3, 8, 1)
    assert all(type(v) is int for v in (config.epochs, config.batch_size, config.seed))
