"""Layer planning and analytic per-sample multiply counts for both variants.

Both variants reach order L with one layer plan: A^1 = (W^1 X~) o X~^c, then
Taylor layers A^i = (W^i A^{i-1}) o X~, h = L - c hidden layers in all, and an
output layer.  CR-PNN I is the plan at c = 1.  CR-PNN II has l Taylor layers
after A^1: l starts at the input dimension n and grows only until the maximum
reachable order 2l+3 covers the request, and c = L - l - 1 takes up the rest.

The multiply counts are exact per-sample forward-pass counts (additions are
not counted), and equal what the instrumented kernels report on real passes.
"""

from dataclasses import dataclass


class TopologyError(ValueError):
    """Requested (n, order) combination is not realizable by CR-PNN II."""


@dataclass(frozen=True)
class TopologyPlan:
    """Derived sizing record for a CR-PNN II network of a given order."""

    taylor_layers: int # l
    power: int         # c: elementwise power applied by the expanded layer

    @property
    def total_layers(self):  # weighted layers, l + 2
        return self.taylor_layers + 2


def plan_topology(n, m, order):
    """Size a CR-PNN II network for a target order.

    Takes the least Taylor-layer count l >= n whose reachable maximum 2l+3
    covers the order, l = max(n, (order - 2) // 2), and c = order - l - 1.
    Orders below n + 2 would force c < 1; those belong to CR-PNN I.
    """
    if n < 1 or m < 1:
        raise ValueError(f"dimensions must be positive, got n={n}, m={m}")
    if order < n + 2:
        raise TopologyError(
            f"CR-PNN II is inapplicable for order {order} with n={n} "
            f"(needs order >= n+2); use CR-PNN I for orders below n+2"
        )
    taylor = max(n, (order - 2) // 2)
    power = order - taylor - 1
    return TopologyPlan(taylor_layers=taylor, power=power)


def _mult_count(n, m, order, power):
    """Exact per-sample forward multiply count of the plan with power c:
    (n+1)^2 + (n+1) for each of the L - c hidden layers, (c-1)(n+1) for X~^c
    and m(n+1) for the output layer."""
    width = n + 1
    return (order - power) * (width ** 2 + width) + (power - 1) * width + m * width


def mult_count_crpnn1(n, m, order):
    """Exact per-sample forward multiply count of CR-PNN I."""
    if n < 1 or m < 1 or order < 1:
        raise ValueError(f"invalid configuration n={n}, m={m}, order={order}")
    return _mult_count(n, m, order, 1)


def mult_count_crpnn2(n, m, order):
    """Exact per-sample forward multiply count of CR-PNN II."""
    return _mult_count(n, m, order, plan_topology(n, m, order).power)

