import numpy as np
import pytest

from crpnn.linalg import ShapeError, as_array, check_finite


def test_as_array_coerces_and_checks_dimensionality():
    arr = as_array([[1, 2], [3, 4]], 2)
    assert arr.dtype == np.float64 and arr.flags.c_contiguous
    assert as_array(arr) is arr
    with pytest.raises(ShapeError, match=r"input vector must be 1-dimensional, got shape \(2, 2\)"):
        as_array(arr, 1, "input vector")


def test_check_finite():
    v = np.array([1.0, -2.0])
    assert check_finite(v) is v
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="weights contains non-finite entries"):
            check_finite(np.array([1.0, bad]), "weights")
