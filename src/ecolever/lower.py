"""Exact solvers for the industry's cost-minimizing technology allocation.

The industry reacts to a fixed policy by routing all demand at minimum net
cost. In the pure per-unit-linear case the optimum is a greedy argmin over
per-unit net costs, with ties resolved leader-favorably (and funds-aware) by
`optimistic_select`. Scenarios with technology activation costs or capacity
limits go through an enumeration of the active fixed-cost technologies, each
followed by a capacity-bounded greedy fill.

Every solver here runs in exact decimal arithmetic, and two routes tie only
when their net unit costs are exactly equal, the rule `enumerate_lower` uses
too, so every path answers with a true cost minimum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from decimal import Decimal

from .errors import InfeasibleError, ResourceBoundError, ValidationError
from .model import (
    Allocation,
    LowerResult,
    PolicyVector,
    RouteSpec,
    Scenario,
    ZERO,
    evaluate_allocation,
    to_decimal,
    validate_policy,
)


def net_unit_cost(route: RouteSpec, policy: PolicyVector) -> Decimal:
    """Per-unit cost the industry sees on a route once tax and subsidy apply."""
    return (route.unit_cost
            + policy.tax_rate * route.unit_emissions
            - policy.subsidy_rates.get(route.route_id, ZERO))


@dataclass(frozen=True)
class TieSet:
    """Routes whose net unit costs equal the minimum exactly."""

    route_ids: tuple
    net_unit_cost: Decimal

    def __post_init__(self):
        object.__setattr__(self, "route_ids", tuple(sorted(self.route_ids)))


def solve_lower_greedy(scenario: Scenario, policy: PolicyVector):
    """Exact follower optimum for pure-linear scenarios.

    Returns (TieSet, canonical Allocation). The canonical allocation puts all
    demand on the lexicographically first tie member; leader-aware tie
    resolution is `optimistic_select`'s job.
    """
    if not scenario.routes:
        raise InfeasibleError("no routes to allocate demand to")
    if not scenario.is_pure_linear():
        raise ValidationError(
            ["solve_lower_greedy requires a pure-linear scenario "
             "(no fixed costs, no capacity limits); use solve_lower_milp"])
    validate_policy(scenario, policy)
    best, tie_ids = None, []
    for route in scenario.routes:
        cost = net_unit_cost(route, policy)
        if best is None or cost < best:
            best, tie_ids = cost, [route.route_id]
        elif cost == best:
            tie_ids.append(route.route_id)
    tie = TieSet(route_ids=tie_ids, net_unit_cost=best)
    units = {tie.route_ids[0]: scenario.demand} if scenario.demand else {}
    return tie, Allocation(units=units)


def _leader_unit_value(route: RouteSpec, leader_objective) -> Decimal:
    # Minimization form: smaller is better for the leader.
    if leader_objective == "min-ghg":
        return route.unit_emissions
    if leader_objective == "max-circularity":
        return -route.unit_circularity
    if leader_objective == "most-profitable":
        return ZERO  # no preference; canonical order decides
    raise ValidationError([f"unknown leader objective: {leader_objective!r}"])


def optimistic_select(scenario: Scenario, policy: PolicyVector, tie: TieSet,
                      leader_objective, available_funds) -> Allocation:
    """Resolve a follower tie in the leader's favor, capped by public funds.

    Every returned allocation lies on the follower's optimal face (all mass on
    tie routes), so the follower's objective is untouched. Among those, the
    funds constraint is the self-consistent balance

        subsidy_outlay(alloc) <= available_funds + tax_rate * emissions(alloc)

    i.e. a knapsack with per-unit weights subsidy_r - tax * emissions_r. The
    continuous optimum mixes at most two tie routes; each two-route mixture is
    rounded toward feasibility. If even the best single route violates funds,
    the leader-best allocation is returned anyway and the caller flags it.
    """
    funds = to_decimal(available_funds, "available_funds")
    demand = scenario.demand
    if demand == 0:
        return Allocation({})
    routes = [scenario.route(rid) for rid in tie.route_ids]
    value = {r.route_id: _leader_unit_value(r, leader_objective) for r in routes}
    weight = {r.route_id: policy.subsidy_for(r.route_id) - policy.tax_rate * r.unit_emissions
              for r in routes}

    candidates = []
    for r in routes:
        if weight[r.route_id] * demand <= funds:
            candidates.append({r.route_id: demand})
    for r1, r2 in itertools.combinations(routes, 2):
        w1, w2 = weight[r1.route_id], weight[r2.route_id]
        if w1 == w2:
            continue  # mixtures are never cheaper than the better single route
        n1 = (funds - w2 * demand) / (w1 - w2)
        n1 = int(n1.to_integral_value(rounding="ROUND_FLOOR" if w1 > w2 else "ROUND_CEILING"))
        n1 = max(0, min(demand, n1))
        mix = {r1.route_id: n1, r2.route_id: demand - n1}
        if w1 * n1 + w2 * (demand - n1) <= funds:
            candidates.append(mix)

    def score(units):
        leader = sum((value[rid] * n for rid, n in units.items()), ZERO)
        outlay = sum((policy.subsidy_for(rid) * n for rid, n in units.items()), ZERO)
        key = tuple(sorted((rid, -n) for rid, n in units.items() if n))
        return (leader, outlay, key)

    if candidates:
        best = min(candidates, key=score)
        return Allocation({rid: n for rid, n in best.items() if n})
    # Nothing affordable on the optimal face: hand back the leader's favorite.
    fallback = min(routes, key=lambda r: (value[r.route_id], r.route_id))
    return Allocation({fallback.route_id: demand})


MAX_FIXED_TECHNOLOGIES = 16


def solve_lower_milp(scenario: Scenario, policy: PolicyVector) -> LowerResult:
    """Exact follower optimum for scenarios with fixed costs or capacities.

    Let F be the technologies that carry an activation cost. Once the subset
    of F allowed to run is fixed, filling demand in ascending (net unit cost,
    route id) order, each route up to its capacity, is optimal and gives
    whole units. Every subset is filled, in (size, itertools.combinations)
    order, and charged its own fixed costs; the first strictly cheapest one
    wins. A subset that pays for a technology its fill leaves idle is never
    cheaper than the same subset without it, so the winner's charge is the
    exact industry cost of its fill. Exact ties between routes go to the
    lower route id, the rule of solve_lower_greedy's canonical allocation.

    Raises ResourceBoundError when |F| exceeds MAX_FIXED_TECHNOLOGIES and
    InfeasibleError when no subset can absorb the demand.
    """
    fixed = scenario.technology_fixed_costs
    if len(fixed) > MAX_FIXED_TECHNOLOGIES:
        raise ResourceBoundError(
            f"{len(fixed)} fixed-cost technologies exceed {MAX_FIXED_TECHNOLOGIES}")
    validate_policy(scenario, policy)
    priced = sorted((net_unit_cost(r, policy), r.route_id, r.technology_id)
                    for r in scenario.routes)
    techs = sorted(fixed)
    best_cost = best_units = None
    for size in range(len(techs) + 1):
        for active in itertools.combinations(techs, size):
            cost = sum((fixed[t] for t in active), ZERO)
            units = {}
            remaining = scenario.demand
            for unit_cost, rid, tech in priced:
                if remaining == 0:
                    break
                if tech in fixed and tech not in active:
                    continue
                units[rid] = min(remaining, scenario.capacity_of(rid))
                cost += unit_cost * units[rid]
                remaining -= units[rid]
            if remaining == 0 and (best_cost is None or cost < best_cost):
                best_cost, best_units = cost, units
    if best_units is None:
        raise InfeasibleError("no allocation satisfies demand within capacities")
    return evaluate_allocation(scenario, Allocation(best_units), policy)
