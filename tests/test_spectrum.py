import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crpnn.linalg import ShapeError
from crpnn.network import (
    CRPNN1,
    CRPNN2,
    CrpnnModel,
    NetworkSpec,
    forward,
    init_weights,
    load_model,
    predict_batch,
    save_model,
)
from crpnn.spectrum import (
    CANONICAL_REL_EPS,
    MAX_EXPONENT,
    MAX_OUTPUT_INDEX,
    RelationSpectrum,
    SpectrumFormatError,
    SpectrumSizeError,
    _graded_exponents,
    _shift_map,
    compare_spectra,
    evaluate_spectrum,
    evaluate_spectrum_cols,
    expand_to_spectrum,
    export_spectrum,
    import_spectrum,
)


# Reference expansion: sparse dicts of exponent tuples pushed term by term
# through every layer.  The dense expansion must export the same bytes.


def _ref_canonical(poly):
    if not poly:
        return {}
    top = max(abs(c) for c in poly.values())
    if top == 0.0:
        return {}
    floor = CANONICAL_REL_EPS * top
    return {e: c for e, c in poly.items() if abs(c) >= floor and c != 0.0}


def _ref_linear(weight, polys):
    out = []
    for i in range(weight.shape[0]):
        acc = {}
        for j in range(weight.shape[1]):
            wij = weight[i, j]
            if wij == 0.0:
                continue
            for exps, coef in polys[j].items():
                v = acc.get(exps, 0.0) + wij * coef
                if v == 0.0:
                    acc.pop(exps, None)
                else:
                    acc[exps] = v
        out.append(acc)
    return out


def _ref_shift(poly, var, amount, n):
    if var == n or amount == 0:
        return poly
    out = {}
    for exps, coef in poly.items():
        e = list(exps)
        e[var] += amount
        out[tuple(e)] = coef
    return out


def reference_expand(model):
    spec = model.spec
    n = spec.n
    zero = (0,) * n
    polys = [{tuple(int(i == j) for i in range(n)): 1.0} for j in range(n)]
    polys.append({zero: 1.0})
    amounts = [1] * (len(model.weights) - 1)
    if spec.variant == CRPNN2:
        amounts[0] = spec.plan.power
    for w, amount in zip(model.weights, amounts):
        polys = _ref_linear(w, polys)
        polys = [_ref_shift(p, j, amount, n) for j, p in enumerate(polys)]
    outputs = _ref_linear(model.weights[-1], polys)
    return RelationSpectrum(n=n, m=spec.m, terms=tuple(_ref_canonical(p) for p in outputs))


@st.composite
def sparse_models(draw):
    variant = draw(st.sampled_from([CRPNN1, CRPNN2]))
    n = draw(st.integers(1, 4))
    low = n + 2 if variant == CRPNN2 else 1
    order = draw(st.integers(low, 10))
    m = draw(st.integers(1, 2))
    model = init_weights(NetworkSpec.create(variant, n, m, order), seed=draw(st.integers(0, 2**32 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
    for w in model.weights:
        w[rng.random(w.shape) < share] = 0.0
    if draw(st.booleans()):
        model.weights[int(rng.integers(len(model.weights)))][0] = 0.0  # an all-zero row
    return model


@settings(max_examples=80, deadline=None)
@given(sparse_models())
def test_dense_expansion_exports_the_reference_bytes(model):
    assert export_spectrum(expand_to_spectrum(model)) == export_spectrum(reference_expand(model))


@pytest.mark.parametrize("n, degree", [(1, 0), (1, 7), (2, 4), (3, 5), (4, 3), (5, 2)])
def test_graded_exponents_order_and_count(n, degree):
    basis = _graded_exponents(n, degree)
    rows = [tuple(r) for r in basis.tolist()]
    assert len(rows) == math.comb(n + degree, n)
    expected = sorted(
        (e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree),
        key=lambda e: (sum(e), e),
    )
    assert rows == expected


@pytest.mark.parametrize("n, degree", [(5, 14), (5, 20)])
def test_graded_exponents_match_a_full_lexsort(n, degree):
    basis = _graded_exponents(n, degree)
    assert len(np.unique(basis, axis=0)) == len(basis) == math.comb(n + degree, n)
    assert basis.min() >= 0 and basis.sum(axis=1).max() == degree
    shuffled = basis[np.random.default_rng(0).permutation(len(basis))]
    expected = shuffled[np.lexsort((*shuffled.T[::-1], shuffled.sum(axis=1)))]
    np.testing.assert_array_equal(basis, expected)


@pytest.mark.parametrize("n, degree, amount", [(1, 6, 1), (1, 6, 4), (2, 5, 1), (3, 6, 2), (4, 5, 3)])
def test_shift_map_sends_each_row_to_its_shifted_monomial(n, degree, amount):
    basis = _graded_exponents(n, degree)
    shifts = _shift_map(basis, amount)
    assert shifts.dtype == np.int32
    sources = math.comb(n + degree - amount, n)
    assert shifts.shape == (n, sources)
    for j in range(n):
        moved = basis[:sources].copy()
        moved[:, j] += amount
        np.testing.assert_array_equal(basis[shifts[j]], moved)


def identity_crpnn2_toy():
    spec = NetworkSpec.crpnn2(1, 1, 5)
    return CrpnnModel(spec, [np.eye(2), np.eye(2), np.array([[1.0, 1.0]])])


def test_toy_expansion_is_x5_plus_1():
    spectrum = expand_to_spectrum(identity_crpnn2_toy())
    assert spectrum.terms == ({(5,): 1.0, (0,): 1.0},)


def test_expansion_checks_the_weights_like_the_engine():
    # the one model constructor checks them, so no model with bad weights reaches the expansion
    spec = NetworkSpec.crpnn1(2, 1, 3)
    with pytest.raises(ShapeError, match="expected 3 weight matrices"):
        expand_to_spectrum(CrpnnModel(spec, [np.eye(3), np.ones((1, 3))]))
    with pytest.raises(ShapeError, match=r"weight matrix 0 has shape \(3, 2\)"):
        expand_to_spectrum(CrpnnModel(spec, [np.ones((3, 2)), np.eye(3), np.ones((1, 3))]))


def test_zero_weights_expand_to_empty_spectrum():
    spec = NetworkSpec.crpnn1(2, 1, 3)
    model = CrpnnModel(spec, [np.zeros(s) for s in spec.weight_shapes()])
    spectrum = expand_to_spectrum(model)
    assert spectrum.terms == ({},)
    assert sum(len(t) for t in spectrum.terms) == 0


def test_an_expansion_that_overflows_raises_instead_of_dropping_terms():
    model = init_weights(NetworkSpec.crpnn1(2, 1, 10), seed=0)
    big = load_model(save_model(CrpnnModel(model.spec, [w * 1e40 for w in model.weights])))
    assert np.isnan(predict_batch(big, np.full((2, 3), 0.5))).all()
    with pytest.raises(FloatingPointError, match="expansion overflowed"):
        expand_to_spectrum(big)


@pytest.mark.parametrize("variant", [CRPNN1, CRPNN2])
def test_forward_agreement_at_random_points(variant):
    rng = np.random.default_rng(31)
    n, order = (3, 5) if variant == CRPNN1 else (3, 6)
    model = init_weights(NetworkSpec.create(variant, n, 2, order), seed=8)
    spectrum = expand_to_spectrum(model)
    for _ in range(100):
        x = rng.uniform(-1, 1, size=n)
        y_net = forward(model, x)
        y_poly = evaluate_spectrum(spectrum, x)
        assert np.max(np.abs(y_net - y_poly) / (1 + np.abs(y_net))) < 1e-9


@pytest.mark.parametrize("variant", [CRPNN1, CRPNN2])
def test_degree_bound(variant):
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        low = n + 2 if variant == CRPNN2 else 1
        order = int(rng.integers(low, 10))
        model = init_weights(
            NetworkSpec.create(variant, n, 1, order), seed=int(rng.integers(10_000))
        )
        terms = expand_to_spectrum(model).terms
        assert max((sum(e) for t in terms for e in t), default=0) <= order


def test_crpnn2_structural_zero_and_degree_coverage():
    # order 6 with two inputs: power 3 forces every coefficient of a monomial
    # of degree >= 4 to carry some x_j^3, so x1^2 x2^2 is structurally absent,
    # while total degrees 0..6 all stay reachable.
    for seed in range(100):
        model = init_weights(NetworkSpec.crpnn2(2, 1, 6), seed=seed)
        spectrum = expand_to_spectrum(model)
        assert abs(spectrum.coefficient(0, (2, 2))) < 1e-12
        degrees = {sum(e) for e, c in spectrum.terms[0].items() if abs(c) > 1e-12}
        assert degrees == set(range(7))


def test_crpnn2_degree_coverage_across_plans():
    # c <= l+2 keeps the low and high degree branches contiguous, so every
    # total degree up to the order stays reachable for random weights
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        for order in range(n + 2, 10):
            model = init_weights(
                NetworkSpec.crpnn2(n, 1, order), seed=int(rng.integers(10_000))
            )
            terms = expand_to_spectrum(model).terms[0]
            degrees = {sum(e) for e, c in terms.items() if abs(c) > 1e-12}
            assert degrees == set(range(order + 1)), (n, order)


def test_crpnn1_monomial_completeness():
    model = init_weights(NetworkSpec.crpnn1(2, 1, 3), seed=5)
    terms = expand_to_spectrum(model).terms[0]
    expected = {(i, j) for i in range(4) for j in range(4) if i + j <= 3}
    present = {e for e, c in terms.items() if abs(c) > 1e-12}
    assert present == expected


def test_expansion_guard():
    model = init_weights(NetworkSpec.crpnn1(10, 1, 40), seed=0)
    with pytest.raises(SpectrumSizeError, match="guard"):
        expand_to_spectrum(model)


def test_expansion_guard_counts_the_dense_block():
    # C(1002, 2) = 501,501 monomials is few, but 1001 rows of them are not
    spec = NetworkSpec.crpnn1(1000, 1, 2)
    model = CrpnnModel(spec, [np.ones(s) for s in spec.weight_shapes()])
    tracemalloc.start()
    try:
        with pytest.raises(SpectrumSizeError, match="guard"):
            expand_to_spectrum(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("m, terms", [(1, ({}, {(1, 0): 1.0})), (3, ({(1, 0): 1.0},)), (1, ())])
def test_spectrum_refuses_an_output_count_its_terms_do_not_have(m, terms):
    with pytest.raises(ShapeError, match=f"m={m} outputs but {len(terms)} term maps"):
        RelationSpectrum(n=2, m=m, terms=terms)


@pytest.mark.parametrize("terms", [{(1,): 1.0, (2,): 2.0}, {(1, 0): 1.0, (2,): 2.0, (0, 1, 1): 3.0}])
def test_spectrum_refuses_exponent_keys_of_another_length(terms):
    # evaluation would raise a bare IndexError and export write short rows
    with pytest.raises(ShapeError, match=r"exponent key \(\d,\) has 1 entries, not one per input \(n=2\)"):
        RelationSpectrum(n=2, m=1, terms=(terms,))


def test_evaluate_empty_spectrum():
    empty = RelationSpectrum(n=2, m=3, terms=({}, {}, {}))
    np.testing.assert_array_equal(evaluate_spectrum(empty, [0.5, 0.5]), np.zeros(3))


def test_evaluate_by_hand():
    s = RelationSpectrum(n=2, m=1, terms=({(1, 1): -2.0, (0, 0): 0.5},))
    np.testing.assert_allclose(evaluate_spectrum(s, [3.0, 4.0]), [-23.5])


def test_evaluate_at_zero_gives_constants():
    s = RelationSpectrum(n=2, m=2, terms=({(0, 0): 1.25, (2, 1): 9.0}, {(1, 0): 4.0},))
    np.testing.assert_array_equal(evaluate_spectrum(s, [0.0, 0.0]), [1.25, 0.0])


def test_evaluate_cols_matches_single_point():
    rng = np.random.default_rng(3)
    model = init_weights(NetworkSpec.crpnn2(3, 2, 6), seed=1)
    s = expand_to_spectrum(model)
    xs = rng.uniform(-1, 1, size=(3, 40))
    batch = evaluate_spectrum_cols(s, xs)
    for k in range(40):
        np.testing.assert_allclose(batch[:, k], evaluate_spectrum(s, xs[:, k]), rtol=1e-12)


def test_evaluate_dimension_mismatch():
    s = RelationSpectrum(n=2, m=1, terms=({},))
    with pytest.raises(ShapeError):
        evaluate_spectrum(s, [1.0, 2.0, 3.0])


def test_compare_spectra():
    a = RelationSpectrum(n=1, m=1, terms=({(1,): 1.0},))
    assert compare_spectra(a, a) == (0.0, 0)
    b = RelationSpectrum(n=1, m=1, terms=({(1,): 1.25},))
    assert compare_spectra(a, b) == (0.25, 0)
    c = RelationSpectrum(n=1, m=1, terms=({(2,): 1.0},))
    assert compare_spectra(a, c) == (1.0, 2)


def test_compare_spectra_dimension_mismatch():
    a = RelationSpectrum(n=1, m=1, terms=({},))
    b = RelationSpectrum(n=2, m=1, terms=({},))
    with pytest.raises(ShapeError):
        compare_spectra(a, b)


def test_export_schema_instance():
    s = RelationSpectrum(n=2, m=1, terms=({(2, 0): 3.0},))
    data = export_spectrum(s).decode()
    lines = data.strip().split("\n")
    assert lines[0] == "e_1,e_2,output,coefficient"
    assert lines[1] == "2,0,0,3.0"


def test_export_import_roundtrip_identical_bytes():
    model = init_weights(NetworkSpec.crpnn2(2, 2, 7), seed=13)
    s = expand_to_spectrum(model)
    blob = export_spectrum(s)
    again = export_spectrum(import_spectrum(blob))
    assert blob == again


def test_export_rows_sorted():
    model = init_weights(NetworkSpec.crpnn1(2, 2, 4), seed=2)
    rows = export_spectrum(expand_to_spectrum(model)).decode().strip().split("\n")[1:]
    parsed = [tuple(r.split(",")) for r in rows]
    keys = [(int(out), int(e1) + int(e2), (int(e1), int(e2))) for e1, e2, out, _ in parsed]
    assert keys == sorted(keys)


def test_export_sorts_rows_inserted_out_of_order():
    # keys in reverse graded order; a user-built spectrum may hold np.float64
    first = {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 3.0, (1, 0): 4.0, (0, 1): 5.0, (0, 0): 6.0}
    s = RelationSpectrum(n=2, m=2, terms=(first, {(1, 0): np.float64(7.0), (0, 0): 8.0}))
    rows = export_spectrum(s).decode().strip().split("\n")[1:]
    assert rows == [
        "0,0,0,6.0", "0,1,0,5.0", "1,0,0,4.0", "0,2,0,3.0", "1,1,0,2.0", "2,0,0,1.0",
        "0,0,1,8.0", "1,0,1,7.0",
    ]


def test_import_errors_carry_line_numbers():
    with pytest.raises(SpectrumFormatError, match="line 1"):
        import_spectrum(b"e_1,e_2,coefficient\n")
    with pytest.raises(SpectrumFormatError, match="line 2"):
        import_spectrum(b"e_1,output,coefficient\n1,0\n")
    with pytest.raises(SpectrumFormatError, match="line 3"):
        import_spectrum(b"e_1,output,coefficient\n1,0,2.0\n-1,0,1.0\n")
    with pytest.raises(SpectrumFormatError, match="line 2"):
        import_spectrum(b"e_1,output,coefficient\nx,0,2.0\n")


def test_import_refuses_an_output_index_above_the_guard():
    # one map is built per index up to the largest, so an unbounded index
    # would ask for 10^12 of them
    with pytest.raises(SpectrumFormatError, match="line 2: output index 1000000000000"):
        import_spectrum(b"e_1,output,coefficient\n1,1000000000000,1.0\n")
    above = f"e_1,output,coefficient\n1,0,1.0\n1,{MAX_OUTPUT_INDEX + 1},1.0\n"
    with pytest.raises(SpectrumFormatError, match="line 3"):
        import_spectrum(above.encode())
    s = import_spectrum(f"e_1,output,coefficient\n1,{MAX_OUTPUT_INDEX},1.0\n".encode())
    assert s.m == MAX_OUTPUT_INDEX + 1 and s.terms[-1] == {(1,): 1.0}


def test_import_refuses_an_exponent_above_the_guard():
    # evaluation builds one power per exponent up to the largest, so an
    # unbounded exponent would ask for 10^12 K-column arrays
    start = time.perf_counter()
    with pytest.raises(SpectrumFormatError, match=r"line 2: exponent in \(1000000000000,\)"):
        import_spectrum(b"e_1,output,coefficient\n1000000000000,0,1.0\n")
    assert time.perf_counter() - start < 1.0
    above = f"e_1,e_2,output,coefficient\n1,0,0,1.0\n0,{MAX_EXPONENT + 1},0,1.0\n"
    with pytest.raises(SpectrumFormatError, match="line 3"):
        import_spectrum(above.encode())
    s = import_spectrum(f"e_1,e_2,output,coefficient\n0,{MAX_EXPONENT},0,1.0\n".encode())
    assert s.terms == ({(0, MAX_EXPONENT): 1.0},)


def test_import_wrong_exponent_column_count():
    s = RelationSpectrum(n=2, m=1, terms=({(1, 0): 2.0},))
    text = export_spectrum(s).decode()
    # present the same rows under a 1-variable header
    broken = text.replace("e_1,e_2,output", "e_1,output", 1)
    with pytest.raises(SpectrumFormatError):
        import_spectrum(broken.encode())


def test_linearity_of_expansion():
    model = init_weights(NetworkSpec.crpnn2(2, 1, 6), seed=3)
    doubled = model.copy()
    doubled.weights[-1][:] *= 2.0
    a = expand_to_spectrum(model)
    b = expand_to_spectrum(doubled)
    assert a.terms[0].keys() == b.terms[0].keys()
    for key, coef in a.terms[0].items():
        assert b.terms[0][key] == 2.0 * coef
