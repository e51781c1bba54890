import numpy as np
import pytest

import crpnn.cli
import crpnn.network
import crpnn.training
from crpnn.linalg import MultiplyCounter
from crpnn.network import NetworkSpec, init_weights

import workloads
from tracing import Tracer, self_times


def test_self_time_subtracts_direct_children_only():
    # root [0,100] holds a [10,40] and b [50,90]; b holds c [60,70]
    start = [0, 10, 50, 60]
    end = [100, 40, 90, 70]
    parent = [-1, 0, 0, 2]
    assert list(self_times(start, end, parent)) == [30, 30, 30, 10]


def test_self_times_sum_to_the_root_duration():
    rng = np.random.default_rng(3)
    # a chain of nested spans, each child strictly inside its parent
    start = np.cumsum(rng.integers(1, 5, size=8))
    end = start[-1] + np.cumsum(rng.integers(1, 5, size=8))[::-1]
    parent = np.arange(-1, 7)
    assert self_times(start, end, parent).sum() == end[0] - start[0]


def test_wrappers_cover_every_binding_and_come_off():
    originals = (crpnn.network.matmul, crpnn.training.kernels.matmul_nt,
                 crpnn.cli.expand_to_spectrum, crpnn.cli._COMMANDS["train"])
    tracer = Tracer()
    tracer.install()
    try:
        installed = (crpnn.network.matmul, crpnn.training.kernels.matmul_nt,
                     crpnn.cli.expand_to_spectrum, crpnn.cli._COMMANDS["train"])
    finally:
        tracer.uninstall()
    for before, during in zip(originals, installed):
        assert during is not before and during.__wrapped__ is before
    assert (crpnn.network.matmul, crpnn.training.kernels.matmul_nt,
            crpnn.cli.expand_to_spectrum, crpnn.cli._COMMANDS["train"]) == originals


def test_traced_forward_nests_and_counts_the_audited_multiplies():
    model = init_weights(NetworkSpec.create("crpnn2", 3, 1, 7), seed=0)
    xs = np.random.default_rng(0).uniform(-1, 1, size=(3, 40))
    counter = MultiplyCounter()
    crpnn.network.predict_batch(model, xs, counter)
    tracer = Tracer()
    tracer.install()
    try:
        crpnn.network.predict_batch(model, xs)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    names = [spans["names"][i] for i in spans["name"]]
    assert names[0] == "network.predict_batch" and spans["parent"][0] == -1
    assert spans["work"][0] == 40
    kernel = np.array([n.startswith("kernels.") for n in names])
    assert spans["work"][kernel].sum() == counter.count
    for i in np.flatnonzero(kernel):
        assert names[spans["parent"][i]].startswith("linalg.")
    assert (self_times(spans["start"], spans["end"], spans["parent"]) >= 0).all()


@pytest.fixture
def run(tmp_path):
    return workloads.Run(workloads.WORKLOADS["minibatch-l14"], 0, 1.0, str(tmp_path))


def test_failed_operations_count_toward_error_rate(run):
    def boom():
        raise FloatingPointError("overflow")

    ok = workloads.Op(run=lambda: 1, check=lambda out: out == 1)
    wrong = workloads.Op(run=lambda: 2, check=lambda out: out == 1)
    raises = workloads.Op(run=boom, check=lambda out: True)
    assert run.sample("ok", ok) is not None
    assert run.sample("wrong", wrong) is None
    assert run.sample("raises", raises) is None
    assert (run.tally.attempted, run.tally.failed) == (3, 2)
    assert run.tally.reasons == ["wrong: wrong output", "raises: raised"]
    assert run.tally.error_rate == pytest.approx(2 / 3)
