"""Both variants run one layer plan: CR-PNN I is CR-PNN II's plan at c = 1.

Properties over the variant, n in 1..6, m in 1..3 and the order L, from 1
for CR-PNN I and from n+2 for CR-PNN II: the instrumented multiply count of
a batched pass equals the topology formula per sample, the expansion agrees
with the forward pass, and at L = n+2, where the CR-PNN II planner picks
c = 1, the two variants built with one seed are the same network bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crpnn.linalg import MultiplyCounter
from crpnn.network import CRPNN1, CRPNN2, NetworkSpec, init_weights, predict_batch
from crpnn.spectrum import evaluate_spectrum_cols, expand_to_spectrum, export_spectrum
from crpnn.topology import mult_count_crpnn1, mult_count_crpnn2

COUNTS = {CRPNN1: mult_count_crpnn1, CRPNN2: mult_count_crpnn2}
COLUMNS = 17


@st.composite
def sizings(draw):
    """(variant, n, m, order) with at most six orders above the lowest."""
    variant = draw(st.sampled_from([CRPNN1, CRPNN2]))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    low = 1 if variant == CRPNN1 else n + 2
    return variant, n, m, draw(st.integers(low, low + 6))


def inputs(n, seed):
    return np.random.default_rng(seed).uniform(-1, 1, size=(n, COLUMNS))


@settings(max_examples=60, deadline=None)
@given(sizings(), st.integers(0, 2**32 - 1))
def test_batch_count_is_the_topology_formula_times_the_columns(sizing, seed):
    model = init_weights(NetworkSpec.create(*sizing), seed=seed)
    counter = MultiplyCounter()
    predict_batch(model, inputs(sizing[1], seed), counter)
    assert counter.count == COUNTS[sizing[0]](*sizing[1:]) * COLUMNS


@settings(max_examples=60, deadline=None)
@given(sizings(), st.integers(0, 2**32 - 1))
def test_expansion_matches_the_forward_pass(sizing, seed):
    model = init_weights(NetworkSpec.create(*sizing), seed=seed)
    xs = inputs(sizing[1], seed)
    expected = predict_batch(model, xs)
    actual = evaluate_spectrum_cols(expand_to_spectrum(model), xs)
    assert np.max(np.abs(actual - expected) / (1 + np.abs(expected))) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_crpnn2_at_order_n_plus_2_is_crpnn1(n, m, seed):
    models = [init_weights(NetworkSpec.create(v, n, m, n + 2), seed=seed) for v in (CRPNN1, CRPNN2)]
    assert [model.spec.power for model in models] == [1, 1]
    xs = inputs(n, seed)
    counters = [MultiplyCounter(), MultiplyCounter()]
    outputs = [predict_batch(model, xs, c).tobytes() for model, c in zip(models, counters)]
    spectra = [export_spectrum(expand_to_spectrum(model)) for model in models]
    assert outputs[0] == outputs[1]
    assert spectra[0] == spectra[1]
    assert counters[0].count == counters[1].count
    assert mult_count_crpnn1(n, m, n + 2) == mult_count_crpnn2(n, m, n + 2)
