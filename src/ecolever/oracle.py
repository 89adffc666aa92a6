"""Brute-force reference solvers.

These are deliberately naive: full enumeration of integer allocations for the
follower and a dense grid scan for the leader. They exist to cross-check the
fast solvers in tests, so they favor obviousness over speed and refuse
problems big enough that enumeration would silently take hours.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal

from .engine import Objective, best_policy
from .errors import ResourceBoundError, ValidationError
from .model import (
    Allocation,
    PolicyVector,
    Scenario,
    evaluate_allocation,
    price_allocation,
    to_decimal,
    validate_policy,
)

MAX_ENUMERATION = 1_000_000
MAX_GRID_POINTS = 10_000_000


@dataclass(frozen=True)
class EnumerationResult:
    best: object           # LowerResult of one argmin allocation
    optima: tuple          # every argmin Allocation, deterministic order
    count: int             # allocations enumerated


def _compositions(total, caps):
    """Yield every way to split `total` units across len(caps) slots,
    respecting per-slot caps (None = uncapped)."""
    k = len(caps)

    def rec(i, remaining, prefix):
        if i == k - 1:
            cap = caps[i]
            if cap is None or remaining <= cap:
                yield prefix + (remaining,)
            return
        cap = caps[i]
        top = remaining if cap is None else min(cap, remaining)
        for units in range(top + 1):
            yield from rec(i + 1, remaining - units, prefix + (units,))

    yield from rec(0, total, ())


def _enumeration_size(total, caps):
    # Upper bound: compositions of total into k parts, ignoring caps.
    k = len(caps)
    return math.comb(total + k - 1, k - 1)


def enumerate_lower(scenario: Scenario, policy: PolicyVector) -> EnumerationResult:
    """Exact follower optimum by trying every integer allocation.

    Each composition is a valid allocation by construction, so only the
    policy is validated, and each is priced, capacities and fixed costs
    included, by the solvers' own exact `price_allocation`.
    Raises ResourceBoundError when the search space exceeds MAX_ENUMERATION.
    """
    ids = scenario.route_ids()
    caps = [scenario.capacity_of(rid) for rid in ids]
    if _enumeration_size(scenario.demand, caps) > MAX_ENUMERATION:
        raise ResourceBoundError(
            f"enumeration space exceeds {MAX_ENUMERATION} allocations")
    validate_policy(scenario, policy)
    best_cost = None
    optima = []
    best_result = None
    count = 0
    for combo in _compositions(scenario.demand, caps):
        count += 1
        alloc = Allocation(units={rid: u for rid, u in zip(ids, combo)})
        result = price_allocation(scenario, alloc, policy)
        if best_cost is None or result.industry_cost < best_cost:
            best_cost = result.industry_cost
            best_result = result
            optima = [alloc]
        elif result.industry_cost == best_cost:
            optima.append(alloc)
    return EnumerationResult(best=best_result, optima=tuple(optima), count=count)


def enumerate_optimistic(scenario: Scenario, policy: PolicyVector, objective,
                         funds, enumeration: EnumerationResult | None = None) -> Allocation:
    """The leader's pick among the follower optima, by brute force.

    Keeps the `enumerate_lower` optima whose subsidy outlay is at most funds
    plus their tax payment, or all of them when none is, and returns the
    first by (leader value, subsidy outlay, canonical key), where the key
    prefers more units on the lower route id. Pass `enumeration` to rank an
    `enumerate_lower(scenario, policy)` result already at hand. Only min-ghg
    and max-circularity: for most-profitable `solve_lower` keeps its
    canonical fill, which this reference does not model.
    """
    objective = Objective(objective)
    if objective is Objective.MOST_PROFITABLE:
        raise ValidationError([f"enumerate_optimistic has no order for {objective.value}"])
    funds = to_decimal(funds, "funds")
    enumeration = enumeration or enumerate_lower(scenario, policy)
    results = [evaluate_allocation(scenario, allocation, policy)
               for allocation in enumeration.optima]
    fitting = [r for r in results if r.subsidy_outlay <= funds + r.tax_payment]

    def order(result):
        value = (result.total_emissions if objective is Objective.MIN_GHG
                 else -result.circularity_index)
        key = tuple(sorted((rid, -n) for rid, n in result.allocation.units.items()))
        return value, result.subsidy_outlay, key

    return min(fitting or results, key=order).allocation


@dataclass(frozen=True)
class GridAxis:
    """One axis of the policy grid: `steps` evenly spaced decimals in
    [lo, hi], endpoints included. lo == hi collapses to a single point."""

    lo: Decimal
    hi: Decimal
    steps: int

    def __post_init__(self):
        object.__setattr__(self, "lo", to_decimal(self.lo, "lo"))
        object.__setattr__(self, "hi", to_decimal(self.hi, "hi"))
        if self.hi < self.lo:
            raise ValueError("axis needs lo <= hi")
        if self.lo == self.hi:
            object.__setattr__(self, "steps", 1)
        elif self.steps < 2:
            raise ValueError("a non-degenerate axis needs steps >= 2")

    def points(self):
        if self.steps == 1:
            return [self.lo]
        span = self.hi - self.lo
        return [self.lo + span * k / (self.steps - 1) for k in range(self.steps)]


def grid_bilevel(scenario: Scenario, objective, budget, tax_axis: GridAxis,
                 subsidy_axes: dict):
    """Dense scan of the leader's policy grid; the exhaustive counterpart to
    the swarm search. subsidy_axes maps route id -> GridAxis (absent routes
    stay unsubsidized). Returns (policy, value, result, feasible) of the
    first grid point that ranks lowest in `engine.rank`: funds shortfall,
    then objective, then tax rate, then total subsidy rate.
    """
    objective = Objective(objective)
    budget = to_decimal(budget, "budget")
    sub_ids = sorted(subsidy_axes)
    total = tax_axis.steps
    for rid in sub_ids:
        total *= subsidy_axes[rid].steps
    if total > MAX_GRID_POINTS:
        raise ResourceBoundError(f"grid of {total} points exceeds {MAX_GRID_POINTS}")

    axes = [tax_axis.points()] + [subsidy_axes[rid].points() for rid in sub_ids]
    policies = (PolicyVector(tax_rate=tax, subsidy_rates=dict(zip(sub_ids, rates)))
                for tax, *rates in itertools.product(*axes))
    return best_policy(scenario, objective, budget, policies)
