import math

import numpy as np
import pytest

from crpnn.datagen import (
    CapacityError,
    Dataset,
    DatasetFormatError,
    default_inputs,
    gen_random_polynomial,
    make_dataset,
    read_dataset_csv,
    sample_sine_trajectory,
    write_dataset_csv,
)
from crpnn.linalg import ShapeError
from crpnn.spectrum import RelationSpectrum, _graded_exponents, evaluate_spectrum_cols


def recursive_monomials(n, degree):
    """Reference enumeration: the last exponent varies slowest."""
    if n == 1:
        return [(d,) for d in range(degree + 1)]
    out = []
    for d in range(degree + 1):
        out.extend(e + (d,) for e in recursive_monomials(n - 1, degree - d))
    return out


@pytest.mark.parametrize("n, degree", [(1, 0), (1, 5), (2, 6), (3, 4), (5, 14), (5, 20)])
def test_lexsorted_basis_is_the_generator_universe(n, degree):
    # the generator draws by index into this enumeration, so its order fixes
    # which monomials a seed picks
    basis = _graded_exponents(n, degree)
    universe = [tuple(e) for e in basis[np.lexsort(basis.T)].tolist()]
    assert universe == recursive_monomials(n, degree)


def test_generator_draws_by_index_into_the_universe():
    target = gen_random_polynomial(3, 4, 6, seed=0)
    picks = np.random.default_rng(0).choice(math.comb(3 + 4, 3), size=6, replace=False)
    assert list(target.terms[0]) == [recursive_monomials(3, 4)[i] for i in picks]
    assert all(type(e) is int for key in target.terms[0] for e in key)


@pytest.mark.parametrize("items", [2772, 4737])
def test_generator_produces_requested_item_counts(items):
    target = gen_random_polynomial(5, 14, items, seed=1)
    assert (target.n, target.m) == (5, 1)
    terms = target.terms[0]
    assert len(terms) == items
    assert max(sum(e) for e in terms) == 14


def test_generator_capacity_error():
    with pytest.raises(CapacityError, match="2"):
        gen_random_polynomial(1, 1, 3)


@pytest.mark.parametrize("args, kwargs, message", [
    ((0, 3, 1), {}, "invalid request: n=0, max_degree=3, n_items=1"),
    ((2, -1, 1), {}, "invalid request: n=2, max_degree=-1, n_items=1"),
    ((2, 3, 0), {}, "invalid request: n=2, max_degree=3, n_items=0"),
    ((2, 3, 1), {"coeff_low": 1.0, "coeff_high": 0.5}, "bad coefficient range [1.0, 0.5]"),
    ((2, 3, 1), {"coeff_low": 0.0, "coeff_high": 0.0}, "bad coefficient range [0.0, 0.0]"),
])
def test_generator_refuses_a_bad_request_or_coefficient_range(args, kwargs, message):
    with pytest.raises(ValueError) as info:
        gen_random_polynomial(*args, **kwargs)
    assert str(info.value) == message


def test_generator_universe_bound():
    assert math.comb(1 + 1, 1) == 2  # the case above really has 2 monomials
    with pytest.raises(CapacityError, match="bound"):
        gen_random_polynomial(10, 40, 10)


def test_generator_deterministic_and_seed_sensitive():
    a = gen_random_polynomial(3, 6, 30, seed=9)
    b = gen_random_polynomial(3, 6, 30, seed=9)
    c = gen_random_polynomial(3, 6, 30, seed=10)
    assert a.terms == b.terms
    assert a.terms != c.terms


def test_generator_no_duplicates_and_degree_present():
    for seed in range(20):
        target = gen_random_polynomial(2, 5, 4, seed=seed)
        terms = target.terms[0]
        assert len(terms) == 4  # dict keys are inherently distinct exponent tuples
        assert max(sum(e) for e in terms) == 5
        assert all(c != 0.0 for c in terms.values())


def test_generator_coefficient_range():
    target = gen_random_polynomial(2, 4, 10, coeff_low=0.5, coeff_high=2.0, seed=3)
    values = list(target.terms[0].values())
    assert all(0.5 <= v <= 2.0 for v in values)


@pytest.mark.parametrize(
    "low, high",
    [(np.nan, 1.0), (-np.inf, 1.0), (-1.0, np.inf), (-1.0, np.nan), (-1e308, 1e308),
     (-1.0, 10**400), (-(10**400), 1.0)],
)
def test_generator_refuses_a_coefficient_range_without_a_finite_width(low, high):
    with pytest.raises(ValueError, match="coefficient bounds must be finite with a finite width"):
        gen_random_polynomial(2, 2, 3, coeff_low=low, coeff_high=high, seed=0)


@pytest.mark.parametrize("t_start, t_end", [(0.0, np.inf), (-1e308, 1e308), (-np.inf, 3.0), (0.0, 1e308)])
def test_a_time_range_without_a_finite_trajectory_is_refused(t_start, t_end):
    with pytest.raises(ValueError, match=r"time range \[.*\] gives a non-finite trajectory"):
        sample_sine_trajectory(10, t_start, t_end)


def test_sine_trajectory_against_direct_formulas():
    xs = sample_sine_trajectory(137, 0.0, 7.0)
    t = np.linspace(0.0, 7.0, 137)
    direct = np.stack(
        [np.sin(2 * t), np.sin(3 * t), np.sin(5 * t), np.sin(7 * t + 20), np.sin(11 * t)]
    )
    assert np.abs(xs - direct).max() < 1e-15


def test_sine_trajectory_t0_column():
    xs = sample_sine_trajectory(50)
    np.testing.assert_allclose(
        xs[:, 0], [0.0, 0.0, 0.0, np.sin(20.0), 0.0], atol=1e-16
    )
    assert abs(xs[3, 0] - 0.9129453) < 1e-6


def test_sine_trajectory_range_and_endpoints():
    xs = sample_sine_trajectory(5000, 0.0, 7.0)
    assert xs.shape == (5, 5000)
    assert np.abs(xs).max() <= 1.0
    np.testing.assert_allclose(xs[0, -1], np.sin(14.0))


def test_sine_trajectory_validation():
    with pytest.raises(ValueError):
        sample_sine_trajectory(1)
    with pytest.raises(ValueError):
        sample_sine_trajectory(10, 3.0, 3.0)


def test_default_inputs_draw_from_the_callers_generator_off_the_sine_dimension():
    rng = np.random.default_rng(3)
    xs = default_inputs(5, 40, rng, 0.0, 2.0)
    np.testing.assert_array_equal(xs, sample_sine_trajectory(40, 0.0, 2.0))
    assert rng.uniform() == np.random.default_rng(3).uniform()  # left untouched
    expected = np.random.default_rng(4).uniform(-1.0, 1.0, size=(3, 40))
    np.testing.assert_array_equal(default_inputs(3, 40, np.random.default_rng(4)), expected)
    with pytest.raises(ValueError, match="need at least 1 sample, got 0"):
        default_inputs(3, 0, rng)


def test_make_dataset_constant_target():
    target = gen_random_polynomial(2, 0, 1, coeff_low=1.0, coeff_high=1.0, seed=0)
    ds = make_dataset(target, np.zeros((2, 4)))
    np.testing.assert_array_equal(ds.targets, np.ones((1, 4)))


def test_make_dataset_linear_target():
    target = RelationSpectrum(n=2, m=1, terms=({(1, 0): 2.0},))
    ds = make_dataset(target, np.array([[0.5], [9.0]]))
    np.testing.assert_allclose(ds.targets, [[1.0]])


def test_make_dataset_multi_output_henon_map():
    # x' = 1 - 1.4 x^2 + y, y' = 0.3 x
    henon = RelationSpectrum(
        n=2, m=2, terms=({(0, 0): 1.0, (2, 0): -1.4, (0, 1): 1.0}, {(1, 0): 0.3})
    )
    xs = np.random.default_rng(6).uniform(-1.0, 1.0, size=(2, 50))
    ds = make_dataset(henon, xs)
    assert (ds.n, ds.m, ds.size) == (2, 2, 50)
    np.testing.assert_array_equal(ds.targets, evaluate_spectrum_cols(henon, xs))
    x, y = xs
    np.testing.assert_allclose(ds.targets, [1.0 - 1.4 * x**2 + y, 0.3 * x], rtol=0, atol=1e-14)


def _reference_targets(spectrum, xs):
    """From 0.0, add coef * (powers multiplied left to right), term by term in
    the spectrum's order, one column at a time in Python floats."""
    out = []
    for terms in spectrum.terms:
        row = []
        for x in xs.T.tolist():
            acc = 0.0
            for exps, coef in terms.items():
                v = 1.0
                for xi, e in zip(x, exps):
                    p = 1.0
                    for _ in range(e):
                        p *= xi
                    v *= p
                acc += coef * v
            row.append(acc)
        out.append(row)
    return np.array(out)


def test_generated_targets_sum_terms_in_the_spectrums_order():
    # the summation rule that keeps every generated dataset byte-identical
    target = gen_random_polynomial(3, 8, 60, seed=4)
    xs = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, 40))
    np.testing.assert_array_equal(
        make_dataset(target, xs).targets, _reference_targets(target, xs)
    )


def test_make_dataset_dimension_mismatch():
    target = gen_random_polynomial(3, 2, 5, seed=1)
    with pytest.raises(ShapeError):
        make_dataset(target, np.zeros((2, 4)))


def test_make_dataset_refuses_an_overflowing_target_without_a_warning():
    # 3**1000 overflows; the pytest config turns a leaked RuntimeWarning into an error
    target = RelationSpectrum(1, 1, ({(1000,): 1.0},))
    with pytest.raises(ValueError, match="non-finite entries"):
        make_dataset(target, np.array([[3.0]]))


def test_dataset_reproducible():
    target = gen_random_polynomial(5, 6, 100, seed=11)
    a = make_dataset(target, sample_sine_trajectory(64))
    b = make_dataset(
        gen_random_polynomial(5, 6, 100, seed=11), sample_sine_trajectory(64)
    )
    assert np.array_equal(a.inputs, b.inputs) and np.array_equal(a.targets, b.targets)


def test_dataset_csv_roundtrip_identical_bytes():
    target = gen_random_polynomial(3, 4, 12, seed=2)
    ds = make_dataset(target, np.random.default_rng(0).uniform(-1, 1, (3, 9)))
    blob = write_dataset_csv(ds)
    again = write_dataset_csv(read_dataset_csv(blob))
    assert blob == again


def test_dataset_csv_schema_instance():
    parsed = read_dataset_csv(b"x1,x2,y1\n0.5,-1,2\n")
    assert parsed.n == 2 and parsed.m == 1 and parsed.size == 1
    np.testing.assert_array_equal(parsed.inputs, [[0.5], [-1.0]])
    np.testing.assert_array_equal(parsed.targets, [[2.0]])


def test_dataset_csv_errors_carry_line_numbers():
    with pytest.raises(DatasetFormatError, match="line 1"):
        read_dataset_csv(b"a,b,c\n1,2,3\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        read_dataset_csv(b"x1,x2,y1\n1,2,3\n1,2\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        read_dataset_csv(b"x1,y1\nfoo,1\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        read_dataset_csv(b"x1,y1\nnan,1\n")
    with pytest.raises(DatasetFormatError):
        read_dataset_csv(b"x1,y1\n")


def test_dataset_validates_shapes():
    with pytest.raises(ShapeError):
        Dataset(inputs=np.ones((2, 3)), targets=np.ones((1, 4)))
    with pytest.raises(ShapeError, match="dataset has no samples"):
        Dataset(inputs=np.ones((2, 0)), targets=np.ones((1, 0)))
