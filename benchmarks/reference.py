"""Independent exact follower cost for scenarios with capacities and fixed costs.

Let F be the technologies that carry an activation cost. Once the subset of F
allowed to run is fixed, the follower's problem is a bounded fill with integer
data: routing demand in ascending exact net unit cost, each route up to its
capacity, is optimal and gives whole units. Taking the cheapest total over all
2^|F| subsets, each charged its own fixed costs, gives the exact optimum. A
subset whose routes cannot absorb the demand is skipped; a subset that pays for
a technology it leaves idle is never cheaper than the subset without it.

This uses only the scenario's and policy's data fields, none of the package's
solvers or evaluators, so it can judge them.
"""

from __future__ import annotations

from decimal import Decimal
from itertools import combinations


def reference_cost(scenario, policy) -> Decimal:
    """Minimum industry cost of the follower's response to `policy`."""
    fixed = scenario.technology_fixed_costs
    demand = scenario.demand
    priced = sorted(
        (route.unit_cost + policy.tax_rate * route.unit_emissions
         - policy.subsidy_rates.get(route.route_id, Decimal(0)),
         route.route_id, route.technology_id)
        for route in scenario.routes)
    best = None
    techs = sorted(fixed)
    for size in range(len(techs) + 1):
        for active in combinations(techs, size):
            remaining = demand
            total = sum((fixed[t] for t in active), Decimal(0))
            for unit_cost, route_id, tech in priced:
                if remaining == 0:
                    break
                if tech in fixed and tech not in active:
                    continue
                take = min(remaining, scenario.capacity_limits.get(route_id, demand))
                total += unit_cost * take
                remaining -= take
            if remaining == 0 and (best is None or total < best):
                best = total
    if best is None:
        raise ValueError("no technology subset can absorb the demand")
    return best
