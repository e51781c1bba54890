import importlib.util
import inspect
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
    stack = np.arange(24.0).reshape(2, 3, 4)
    cases = [
        (kernels.matmul, (a, b), a @ b),
        (kernels.matmul, (a, a.T), a @ a.T),
        (kernels.matmul, (a.T, a), a.T @ a),
        (kernels.matmul_nt, (stack, stack), stack @ stack.swapaxes(1, 2)),
        (kernels.hadamard, (b, b), b * b),
    ]
    for kernel, args, expected in cases:
        out = np.full(expected.shape, np.nan)
        assert kernel(*args, out=out) is out
        np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("kernel, args", [
    (kernels.matmul, (np.ones((2, 3)), np.ones((3, 4)))),
    (kernels.matmul_nt, (np.ones((2, 2, 3)), np.ones((2, 2, 3)))),
    (kernels.hadamard, (np.ones(3), np.ones(3))),
])
def test_a_kernel_without_a_buffer_is_a_type_error(kernel, args):
    with pytest.raises(TypeError, match="out"):
        kernel(*args)
    with pytest.raises(TypeError, match="out"):
        kernel(*args, counter=MultiplyCounter())


@pytest.mark.parametrize("slices, rows, cols", [(1, 6, 32), (12, 6, 32), (3, 4, 5000), (5, 1, 7)])
def test_stacked_matmul_nt_is_the_per_slice_products(slices, rows, cols):
    rng = np.random.default_rng(slices)
    a = rng.uniform(-1, 1, (slices, rows, cols))
    b = rng.uniform(-1, 1, (slices, 6, cols))
    counter, slice_counter = MultiplyCounter(), MultiplyCounter()
    out = np.full((slices, rows, 6), np.nan)
    assert kernels.matmul_nt(a, b, out=out, counter=counter) is out
    for i in range(slices):
        expected = kernels.matmul(a[i], b[i].T, out=np.empty((rows, 6)), counter=slice_counter)
        np.testing.assert_array_equal(out[i], expected, strict=True)
    assert counter.count == slice_counter.count == slices * rows * cols * 6


# the widest 6-row output that goes through ndarray.dot, and one column more
WITHIN_DOT = kernels.DOT_OUTPUT_BUDGET // (8 * 6)


@pytest.mark.parametrize("cols", [1, 32, WITHIN_DOT, WITHIN_DOT + 1, 5000])
@pytest.mark.parametrize("rows", [6, 1])
def test_2d_products_into_out_equal_np_matmul_bit_for_bit(rows, cols):
    # the engine's products at n=5, on the views its callers pass: W.A,
    # W^T.D (at rows=1 the (6x1).(1xK) outer product), D.A^T, and x.x^T
    # on one buffer
    rng = np.random.default_rng(rows * cols)
    w = rng.uniform(-1, 1, (rows, 6))
    act = rng.uniform(-1, 1, (6, cols))
    err = rng.uniform(-1, 1, (rows, cols))
    cases = [
        (w, act, rows * 6 * cols),
        (w.T, err, rows * 6 * cols),
        (err, act.T, rows * 6 * cols),
        (act, act.T, 36 * cols),
    ]
    for a, b, mults in cases:
        expected = np.matmul(a, b)
        out = np.full(expected.shape, np.nan)
        counter = MultiplyCounter()
        assert kernels.matmul(a, b, out=out, counter=counter) is out
        np.testing.assert_array_equal(out, expected, strict=True)
        assert counter.count == mults


def test_np_matmul_serves_only_wide_products_of_inner_size_above_one_and_stacks(monkeypatch):
    calls, matmul = [], np.matmul
    monkeypatch.setattr(np, "matmul", lambda *args, **kwargs: calls.append(1) or matmul(*args, **kwargs))
    w = np.ones((8, 8))
    cols = kernels.DOT_OUTPUT_BUDGET // 64  # an 8-row output of exactly the budget
    narrow, wide = np.ones((8, cols)), np.ones((8, cols + 1))
    kernels.matmul(w, narrow, out=np.empty(narrow.shape))
    kernels.matmul(w.T, narrow, out=np.empty(narrow.shape))
    kernels.matmul(wide, wide.T, out=np.empty((8, 8)))
    # an inner size of 1 goes through dot at every width, with np.matmul's bits
    rng = np.random.default_rng(1)
    row, errors = rng.uniform(-1, 1, (1, 6)), rng.uniform(-1, 1, (1, 5000))
    outer = kernels.matmul(row.T, errors, out=np.empty((6, 5000)))
    assert len(calls) == 0
    np.testing.assert_array_equal(outer, matmul(row.T, errors), strict=True)
    kernels.matmul(w, wide, out=np.empty(wide.shape))
    kernels.matmul(w.T, wide, out=np.empty(wide.shape))
    kernels.matmul_nt(np.ones((2, 6, 32)), np.ones((2, 6, 32)), out=np.empty((2, 6, 6)))
    assert len(calls) == 3


def test_hadamard_may_write_over_an_operand():
    b = np.arange(12.0).reshape(3, 4)
    gate = b + 1.0
    expected = b * gate
    assert kernels.hadamard(b, gate, out=b) is b
    np.testing.assert_array_equal(b, expected)


def test_counters_are_independent():
    c1, c2 = MultiplyCounter(), MultiplyCounter()
    kernels.matmul(np.ones((2, 2)), np.ones((2, 2)), out=np.empty((2, 2)), counter=c1)
    assert c1.count == 8 and c2.count == 0


def _perfbench_kernel_mults():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._KERNEL_MULTS


def test_kernel_counts_match_the_benchmark_formulas():
    # the package's three kernels, each with a formula in perfbench's tracer
    # that agrees with its own count; the tracer may still list retired
    # kernels.  Its matmul_nt formula is the 2-D product's, so that case is
    # one 2-D slice.
    rng = np.random.default_rng(0)
    a = rng.uniform(-1, 1, (3, 4))
    b = rng.uniform(-1, 1, (4, 5))
    c = rng.uniform(-1, 1, (5, 4))
    cases = {
        "matmul": ((a, b), (3, 5)),
        "matmul_nt": ((a, c), (3, 5)),
        "hadamard": ((b, c.T.copy()), (4, 5)),
    }
    defined = {name for name, obj in vars(kernels).items()
               if inspect.isfunction(obj) and obj.__module__ == kernels.__name__}
    formulas = _perfbench_kernel_mults()
    assert set(cases) == defined - {"backend_name"} <= set(formulas)
    for name, (args, shape) in cases.items():
        kernel = getattr(kernels, name)
        counter = MultiplyCounter()
        counted = kernel(*args, out=np.empty(shape), counter=counter)
        assert counter.count == formulas[name](*args) > 0
        np.testing.assert_array_equal(counted, kernel(*args, out=np.empty(shape)))
