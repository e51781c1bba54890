import numpy as np
import pytest

from crpnn.datagen import Dataset
from crpnn.linalg import ShapeError
from crpnn.network import CRPNN1, CRPNN2, CrpnnModel, NetworkSpec, init_weights, predict_batch
from crpnn.spectrum import RelationSpectrum, evaluate_spectrum_cols
from crpnn.training import (
    TrainConfig,
    TrainingDivergedError,
    backward,
    grad_check,
    internal_loss,
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


def test_backward_hand_example():
    # single affine output layer, one sample: grad = (prediction - target) * input^T
    model = CrpnnModel(NetworkSpec.crpnn1(1, 1, 1), [np.array([[1.0, 1.0]])])
    grads = backward(model, [[2.0]], [[1.0]])
    np.testing.assert_array_equal(grads[0], [[4.0, 2.0]])


def test_backward_zero_at_perfect_fit():
    model = CrpnnModel(NetworkSpec.crpnn1(1, 1, 1), [np.array([[1.0, 0.0]])])
    xs = np.array([[0.5, -0.5, 2.0]])
    grads = backward(model, xs, xs.copy())
    np.testing.assert_array_equal(grads[0], np.zeros((1, 2)))


def test_backward_batch_equals_mean_of_single_samples():
    rng = np.random.default_rng(0)
    model = init_weights(NetworkSpec.crpnn2(2, 2, 5), seed=4)
    xs = rng.uniform(-1, 1, size=(2, 6))
    ys = rng.uniform(-1, 1, size=(2, 6))
    whole = backward(model, xs, ys)
    singles = [backward(model, xs[:, k : k + 1], ys[:, k : k + 1]) for k in range(6)]
    for layer, g in enumerate(whole):
        averaged = np.mean([s[layer] for s in singles], axis=0)
        assert np.abs(g - averaged).max() <= 1e-12 * max(1.0, np.abs(g).max())


def test_backward_overflow_diagnostic():
    model = init_weights(NetworkSpec.crpnn2(1, 1, 40), seed=0)
    huge = np.full((1, 3), 1e12)
    with pytest.raises(FloatingPointError, match=r"\[-1, 1\]"):
        backward(model, huge, np.ones((1, 3)))


def test_sgd_step_arithmetic():
    model = CrpnnModel(NetworkSpec.crpnn1(1, 1, 1), [np.array([[1.0, 1.0]])])
    sgd_step(model, [np.array([[2.0, 0.0]])], 0.1)
    np.testing.assert_allclose(model.weights[0], [[0.8, 1.0]])


def test_sgd_step_zero_cases():
    model = init_weights(NetworkSpec.crpnn1(2, 1, 3), seed=1)
    before = [w.copy() for w in model.weights]
    sgd_step(model, [np.zeros_like(w) for w in model.weights], 0.5)
    for w, b in zip(model.weights, before):
        np.testing.assert_array_equal(w, b)
    grads = backward(model, np.ones((2, 1)), np.ones((1, 1)))
    sgd_step(model, grads, 0.0)
    for w, b in zip(model.weights, before):
        np.testing.assert_array_equal(w, b)


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


def test_grad_check_guards_large_models():
    model = init_weights(NetworkSpec.crpnn1(9, 1, 40), seed=0)
    with pytest.raises(ValueError, match="parameters"):
        grad_check(model, np.zeros((9, 1)), np.zeros((1, 1)))


def test_single_small_step_decreases_internal_loss():
    rng = np.random.default_rng(9)
    for variant, order in ((CRPNN1, 4), (CRPNN2, 6)):
        for seed in range(5):
            model = init_weights(NetworkSpec.create(variant, 2, 1, order), seed=seed)
            xs = rng.uniform(-1, 1, size=(2, 1))
            ys = rng.uniform(-1, 1, size=(1, 1))
            before = internal_loss(model, xs, ys)
            grads = backward(model, xs, ys)
            if all(np.all(g == 0) for g in grads):
                continue
            sgd_step(model, grads, 1e-6)
            assert internal_loss(model, xs, ys) < before


def test_mse_is_twice_internal_loss_at_full_batch():
    rng = np.random.default_rng(14)
    model = init_weights(NetworkSpec.crpnn1(3, 1, 4), seed=3)
    xs = rng.uniform(-1, 1, size=(3, 20))
    ys = rng.uniform(-1, 1, size=(1, 20))
    mse = loss_mse(predict_batch(model, xs), ys)
    assert abs(mse - 2.0 * internal_loss(model, xs, ys)) < 1e-15


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
    assert record.epochs_run == 4000
    assert len(record.mse_per_epoch) == 4000


def test_train_zero_epochs_is_identity():
    ds = quadratic_dataset()
    model = init_weights(NetworkSpec.crpnn1(2, 1, 2), seed=0)
    before = [w.copy() for w in model.weights]
    model, record = train(model, ds, TrainConfig(epochs=0))
    assert record.mse_per_epoch == []
    assert record.epochs_run == 0
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


def test_train_writes_metrics_incrementally(tmp_path):
    ds = quadratic_dataset()
    model = init_weights(NetworkSpec.crpnn1(2, 1, 2), seed=0)
    path = tmp_path / "metrics.csv"
    _, record = train(model, ds, TrainConfig(epochs=5), metrics_path=str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,mse"
    assert len(lines) == 6
    assert float(lines[1].split(",")[1]) == record.mse_per_epoch[0]


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


@pytest.mark.parametrize("cols", [1, 32, 37])
@pytest.mark.parametrize("sizing", ENGINE_SPECS)
def test_backward_is_bit_identical_to_allocating_reference(sizing, cols):
    model = init_weights(NetworkSpec.create(*sizing), seed=6)
    rng = np.random.default_rng(cols)
    xs = rng.uniform(-1, 1, size=(sizing[1], cols))
    ts = rng.uniform(-1, 1, size=(sizing[2], cols))
    grads = backward(model, xs, ts)
    expected = reference_backward(model, xs, ts)
    assert len(grads) == len(expected)
    for g, g_ref in zip(grads, expected):
        np.testing.assert_array_equal(g, g_ref)


@pytest.mark.parametrize("sizing", ENGINE_SPECS)
def test_backward_leaves_caller_arrays_unmodified(sizing):
    model = init_weights(NetworkSpec.create(*sizing), seed=6)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1, 1, size=(sizing[1], 11))
    ts = rng.uniform(-1, 1, size=(sizing[2], 11))
    before = [xs.copy(), ts.copy()] + [w.copy() for w in model.weights]
    first = backward(model, xs, ts)
    kept = [g.copy() for g in first]
    second = backward(model, xs, ts)
    for arr, orig in zip([xs, ts] + model.weights, before):
        np.testing.assert_array_equal(arr, orig)
    for g, g_again, g_kept in zip(first, second, kept):
        assert not np.shares_memory(g, g_again)
        np.testing.assert_array_equal(g, g_kept)
