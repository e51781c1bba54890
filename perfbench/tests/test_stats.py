import pytest

import stats


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(list(range(1, 100)), 0.9) is None
    assert stats.tail_percentile(list(range(1, 101)), 0.9) == 90
    assert stats.tail_percentile(list(range(1, 1000)), 0.99) is None
    assert stats.tail_percentile(list(range(1, 1001)), 0.99) == 990


def test_min_samples_matches_the_rule():
    assert stats.min_samples(0.9) == 100
    assert stats.min_samples(0.99) == 1000
    for q in (0.9, 0.99):
        n = stats.min_samples(q)
        assert stats.beyond(n, q) == stats.MIN_BEYOND
        assert stats.beyond(n - 1, q) < stats.MIN_BEYOND


def test_percentile_is_nearest_rank_and_order_free():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 0.5) == 3.0
    assert stats.percentile(values, 0.2) == 1.0
    assert stats.percentile(values, 0.21) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_tally_counts_failures_against_attempts():
    tally = stats.Tally()
    assert tally.error_rate == 0.0
    assert tally.record(True, "a")
    assert not tally.record(False, "b: wrong output")
    tally.record(True, "c")
    tally.record(True, "d")
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.error_rate == pytest.approx(0.25)
    assert tally.reasons == ["b: wrong output"]
