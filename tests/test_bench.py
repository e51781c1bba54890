import json

import pytest

from crpnn.bench import COUNT_NOTE, BenchProtocol, BenchReport, run_bench
from crpnn.kernels import backend_name
from crpnn.topology import TopologyError, mult_count_crpnn1, mult_count_crpnn2


def tiny_protocol(**overrides):
    defaults = dict(
        n=3, m=1, order=6, samples=40, forward_reps=3, epochs=2, runs=2, seed=1
    )
    defaults.update(overrides)
    return BenchProtocol(**defaults)


def test_counts_match_formulas():
    report = run_bench(tiny_protocol())
    r1 = report.result_for("crpnn1")
    r2 = report.result_for("crpnn2")
    assert r1.mults_per_sample == mult_count_crpnn1(3, 1, 6)
    assert r2.mults_per_sample == mult_count_crpnn2(3, 1, 6)
    assert r1.measured_mults_per_forward == r1.mults_per_forward == r1.mults_per_sample * 40
    assert r2.measured_mults_per_forward == r2.mults_per_forward == r2.mults_per_sample * 40


def test_single_run_sd_is_zero():
    report = run_bench(tiny_protocol(runs=1))
    for result in report.results:
        assert result.forward_seconds_sd == 0.0
        assert result.epoch_seconds_sd == 0.0
        assert result.forward_seconds_mean > 0.0
        assert result.epoch_seconds_mean > 0.0


def test_report_json_fields():
    report = run_bench(tiny_protocol(runs=1))
    doc = json.loads(report.to_json())
    assert doc["kernel_backend"] == "numpy"
    assert "additions are not counted" in doc["note"]
    assert doc["protocol"]["samples"] == 40
    assert {r["variant"] for r in doc["results"]} == {"crpnn1", "crpnn2"}
    for r in doc["results"]:
        assert r["measured_mults_per_forward"] == r["mults_per_forward"]


def test_a_report_derives_its_backend_and_note():
    with pytest.raises(TypeError):
        BenchReport(tiny_protocol(), kernel_backend="cuda")
    with pytest.raises(TypeError):
        BenchReport(tiny_protocol(), [], "numpy", COUNT_NOTE)
    doc = json.loads(BenchReport(tiny_protocol()).to_json())
    assert list(doc) == ["protocol", "results", "kernel_backend", "note"]
    assert (doc["kernel_backend"], doc["note"], doc["results"]) == (backend_name(), COUNT_NOTE, [])
    assert doc["protocol"]["variants"] == ["crpnn1", "crpnn2"]


def test_inadmissible_topology_rejected():
    with pytest.raises(TopologyError):
        run_bench(tiny_protocol(n=5, order=6))


def test_protocol_validation():
    with pytest.raises(ValueError):
        tiny_protocol(runs=0)
    for rate in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ValueError, match="learning_rate must be a positive finite number"):
            tiny_protocol(learning_rate=rate)


def test_nonstandard_input_dim_uses_uniform_inputs():
    report = run_bench(tiny_protocol(n=2, order=5, variants=("crpnn2",)))
    assert report.result_for("crpnn2").mults_per_sample == mult_count_crpnn2(2, 1, 5)
