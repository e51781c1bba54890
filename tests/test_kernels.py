import numpy as np

from crpnn import kernels


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


def test_hadamard_may_write_over_an_operand():
    b = np.arange(12.0).reshape(3, 4)
    gate = b + 1.0
    expected = b * gate
    assert kernels.hadamard(b, gate, out=b) is b
    np.testing.assert_array_equal(b, expected)
