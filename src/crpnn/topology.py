"""Layer planning and analytic per-sample multiply counts for both variants.

CR-PNN I reaches order L with L-1 stacked Taylor layers plus an output layer.
CR-PNN II covers the same order with l Taylor layers, one expanded layer of
power c and an output layer, where l starts at the input dimension n and
grows only until the maximum reachable order 2l+3 covers the request; the
expanded-layer power takes up the rest, c = L - l - 1, so L = l + c + 1.

The multiply counts are exact per-sample forward-pass counts (additions are
not counted), and equal what the instrumented kernels report on real passes.
"""

from dataclasses import dataclass


class TopologyError(ValueError):
    """Requested (n, order) combination is not realizable by CR-PNN II."""


@dataclass(frozen=True)
class TopologyPlan:
    """Derived sizing record for a CR-PNN II network of a given order."""

    n: int             # input dimension
    m: int             # output dimension
    order: int         # L: max total degree of the computed polynomial
    taylor_layers: int # l
    power: int         # c: elementwise power applied by the expanded layer
    total_layers: int  # weighted layers, l + 2


def plan_topology(n, m, order):
    """Size a CR-PNN II network for a target order.

    Grows the Taylor-layer count from l = n while the requested order exceeds
    the reachable maximum 2l+3, then sets c = order - l - 1.  Orders below
    n + 2 would force c < 1; those belong to CR-PNN I.
    """
    if n < 1 or m < 1:
        raise ValueError(f"dimensions must be positive, got n={n}, m={m}")
    if order < n + 2:
        raise TopologyError(
            f"CR-PNN II is inapplicable for order {order} with n={n} "
            f"(needs order >= n+2); use CR-PNN I for orders below n+2"
        )
    taylor = n
    while order > 2 * taylor + 3:
        taylor += 1
    power = order - taylor - 1
    return TopologyPlan(
        n=n,
        m=m,
        order=order,
        taylor_layers=taylor,
        power=power,
        total_layers=taylor + 2,
    )


def mult_count_crpnn1(n, m, order):
    """Exact per-sample forward multiply count of CR-PNN I."""
    if n < 1 or m < 1 or order < 1:
        raise ValueError(f"invalid configuration n={n}, m={m}, order={order}")
    return (order - 1) * ((n + 1) ** 2 + (n + 1)) + m * (n + 1)


def mult_count_crpnn2(n, m, order):
    """Exact per-sample forward multiply count of CR-PNN II."""
    plan = plan_topology(n, m, order)
    width = n + 1
    return (
        width ** 2
        + plan.power * width
        + plan.taylor_layers * (width ** 2 + width)
        + m * width
    )

