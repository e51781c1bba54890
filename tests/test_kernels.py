import importlib.util
from pathlib import Path

import numpy as np
import pytest

from crpnn import kernels
from crpnn.linalg import MultiplyCounter


def test_backend_name_is_known():
    assert kernels.backend_name() == "numpy"


def test_numpy_kernels_basics():
    a = np.arange(6.0).reshape(2, 3)
    b = np.arange(12.0).reshape(3, 4)
    np.testing.assert_array_equal(kernels.matmul(a, b), a @ b)
    np.testing.assert_array_equal(kernels.matmul_nt(a, a), a @ a.T)
    np.testing.assert_array_equal(kernels.matmul_tn(a, a), a.T @ a)
    np.testing.assert_array_equal(kernels.hadamard(b, b), b * b)
    np.testing.assert_array_equal(kernels.power(b, 3), b ** 3)
    cases = [
        (kernels.matmul, (a, b), a @ b),
        (kernels.matmul_nt, (a, a), a @ a.T),
        (kernels.matmul_tn, (a, a), a.T @ a),
        (kernels.hadamard, (b, b), b * b),
        (kernels.power, (b, 3), b ** 3),
    ]
    for kernel, args, expected in cases:
        out = np.full(expected.shape, np.nan)
        assert kernel(*args, out=out) is out
        np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("slices, rows, cols", [(1, 6, 32), (12, 6, 32), (3, 4, 5000), (5, 1, 7)])
def test_stacked_matmul_nt_is_the_per_slice_products(slices, rows, cols):
    rng = np.random.default_rng(slices)
    a = rng.uniform(-1, 1, (slices, rows, cols))
    b = rng.uniform(-1, 1, (slices, 6, cols))
    counter, slice_counter = MultiplyCounter(), MultiplyCounter()
    out = np.full((slices, rows, 6), np.nan)
    assert kernels.matmul_nt(a, b, out=out, counter=counter) is out
    for i in range(slices):
        expected = kernels.matmul_nt(a[i], b[i], counter=slice_counter)
        np.testing.assert_array_equal(out[i], expected, strict=True)
    assert counter.count == slice_counter.count == slices * rows * cols * 6


def test_hadamard_may_write_over_an_operand():
    b = np.arange(12.0).reshape(3, 4)
    gate = b + 1.0
    expected = b * gate
    assert kernels.hadamard(b, gate, out=b) is b
    np.testing.assert_array_equal(b, expected)


def test_power_one_is_identity():
    v = np.array([1.5, -0.25])
    counter = MultiplyCounter()
    np.testing.assert_array_equal(kernels.power(v, 1, counter=counter), v)
    assert counter.count == 0


def test_power_bias_coordinate_fixed_point():
    out = kernels.power(np.array([3.0, 1.0]), 5)
    assert out[1] == 1.0
    assert out[0] == 243.0


def test_power_addition_law():
    rng = np.random.default_rng(2)
    v = rng.uniform(0.5, 1.5, size=8)
    for a, b in [(1, 1), (2, 3), (4, 2)]:
        combined = kernels.power(v, a + b)
        split = kernels.hadamard(kernels.power(v, a), kernels.power(v, b))
        assert np.abs(combined - split).max() / np.abs(combined).max() < 1e-12


def test_counters_are_independent():
    c1, c2 = MultiplyCounter(), MultiplyCounter()
    kernels.matmul(np.ones((2, 2)), np.ones((2, 2)), counter=c1)
    assert c1.count == 8 and c2.count == 0


def _perfbench_kernel_mults():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._KERNEL_MULTS


def test_kernel_counts_match_the_benchmark_formulas():
    rng = np.random.default_rng(0)
    a = rng.uniform(-1, 1, (3, 4))
    b = rng.uniform(-1, 1, (4, 5))
    c = rng.uniform(-1, 1, (5, 4))
    cases = {
        "matmul": (a, b),
        "matmul_nt": (a, c),
        "matmul_tn": (b, b),
        "hadamard": (b, c.T.copy()),
        "power": (b, 4),
    }
    formulas = _perfbench_kernel_mults()
    assert set(formulas) == set(cases)
    for name, args in cases.items():
        kernel = getattr(kernels, name)
        counter = MultiplyCounter()
        counted = kernel(*args, counter=counter)
        assert counter.count == formulas[name](*args) > 0
        np.testing.assert_array_equal(counted, kernel(*args))
