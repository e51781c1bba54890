import math

import pytest

from crpnn.topology import (
    TopologyError,
    TopologyPlan,
    mult_count_crpnn1,
    mult_count_crpnn2,
    plan_topology,
)


def reference_layer_plan(n, order):
    """Independent trace of the sizing loop: grow l from n until 2l+3 >= L."""
    taylor = n
    while order > 2 * taylor + 3:
        taylor = taylor + 1
    return taylor, order - taylor - 1, taylor + 2


@pytest.mark.parametrize(
    "n, m, order, taylor, power, layers",
    [
        (5, 1, 7, 5, 1, 7),
        (5, 1, 14, 6, 7, 8),
        (1, 1, 5, 1, 3, 3),
    ],
)
def test_plan_topology_known_cases(n, m, order, taylor, power, layers):
    plan = plan_topology(n, m, order)
    assert plan.taylor_layers == taylor
    assert plan.power == power
    assert plan.total_layers == layers
    assert order == plan.taylor_layers + plan.power + 1


def test_a_plan_derives_its_layer_count():
    with pytest.raises(TypeError):
        TopologyPlan(3, 2, 99)
    assert TopologyPlan(3, 2).total_layers == 5


def test_plan_topology_rejects_low_orders():
    with pytest.raises(TopologyError, match="CR-PNN I"):
        plan_topology(2, 1, 3)
    with pytest.raises(TopologyError):
        plan_topology(5, 1, 6)


def test_plan_topology_matches_reference_loop_everywhere():
    for n in range(1, 11):
        for order in range(n + 2, 41):
            plan = plan_topology(n, 1, order)
            taylor, power, layers = reference_layer_plan(n, order)
            assert (plan.taylor_layers, plan.power, plan.total_layers) == (
                taylor,
                power,
                layers,
            )


def test_closed_form_taylor_count():
    for n in range(1, 11):
        for order in range(n + 2, 41):
            plan = plan_topology(n, 1, order)
            assert plan.taylor_layers == max(n, math.ceil((order - 3) / 2))


def test_plan_at_a_huge_order_takes_no_loop():
    # a corrupt model document may declare any order; planning it is O(1)
    plan = plan_topology(2, 1, 10**12)
    assert (plan.taylor_layers, plan.power) == (5 * 10**11 - 1, 5 * 10**11)


def test_plan_invariants_hold_on_grid():
    for n in range(1, 11):
        for order in range(n + 2, 41):
            plan = plan_topology(n, 3, order)
            assert plan.taylor_layers >= n
            assert 1 <= plan.power <= plan.taylor_layers + 2
            assert order == plan.taylor_layers + plan.power + 1
            assert plan.total_layers == plan.taylor_layers + 2


def test_mult_count_crpnn1():
    assert mult_count_crpnn1(5, 1, 14) == 552
    assert mult_count_crpnn1(1, 1, 2) == 8
    for n in (1, 3, 7):
        for m in (1, 2):
            assert mult_count_crpnn1(n, m, 1) == m * (n + 1)


def test_mult_count_crpnn2():
    assert mult_count_crpnn2(5, 1, 14) == 336
    assert mult_count_crpnn2(1, 1, 5) == 18


def test_savings_term():
    saved = mult_count_crpnn1(5, 1, 14) - mult_count_crpnn2(5, 1, 14)
    plan = plan_topology(5, 1, 14)
    assert saved == 216 == (14 - plan.total_layers) * (5 + 1) ** 2


def test_count_gap_matches_savings_everywhere():
    for n in range(1, 8):
        for m in range(1, 4):
            for order in range(n + 2, 30):
                plan = plan_topology(n, m, order)
                gap = mult_count_crpnn1(n, m, order) - mult_count_crpnn2(n, m, order)
                assert gap == (order - plan.total_layers) * (n + 1) ** 2
                if order >= plan.total_layers:
                    assert mult_count_crpnn2(n, m, order) <= mult_count_crpnn1(n, m, order)
