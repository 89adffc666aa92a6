"""Brute-force reference solvers.

Full enumeration of integer allocations for the follower and a dense grid
scan for the leader. They exist to cross-check the fast solvers in tests and
`ecolever verify`, so they stay brute force: every grid point is evaluated,
and every composition of demand within the capacities is counted and enters
the least exact cost, with no bound pruning any. The follower enumeration
prices each route's split of each remainder once, in one table over the
routes' suffixes, on the exact prices and fees scaled to integers, so no sum
it forms can round (see `enumerate_lower`). Both refuse problems big enough
that enumeration would silently take hours.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from decimal import Decimal

from .engine import evaluate_policy, rank
from .errors import ResourceBoundError, ValidationError
from .model import (
    Allocation,
    Objective,
    PolicyVector,
    Scenario,
    ZERO,
    exactly,
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
    """How many compositions of `total` within the integer `caps` there are,
    saturating at MAX_ENUMERATION + 1."""
    limit = MAX_ENUMERATION + 1
    caps = [min(cap, total) for cap in caps]
    slack = sum(caps) - total
    if slack < 0:
        return 0
    # Laid end to end, the caps hold slack + 1 windows of `total` units. Each
    # window is a composition, and sliding it moves a unit to a later route
    # (no cap exceeds the window), so no two coincide: a large slack alone
    # exceeds the bound.
    if slack > MAX_ENUMERATION:
        return limit
    # Dropping cap - u units from each route counts the same compositions,
    # so count sums of the smaller side, one route at a time by prefix sums.
    side, rest = min(total, slack), sum(caps)
    ways = [1] + [0] * side
    for cap in caps:
        prefix = [0, *itertools.accumulate(ways)]
        # the routes not yet counted can take any amount from 0 to `rest`, so
        # every way of reaching side - rest..side so far completes at least once
        if prefix[-1] - prefix[max(0, side - rest)] >= limit:
            return limit
        rest -= cap
        ways = [min(prefix[j + 1] - prefix[max(0, j - cap)], limit)
                for j in range(side + 1)]
    return ways[side]


def enumerate_lower(scenario: Scenario, policy: PolicyVector) -> EnumerationResult:
    """Exact follower optimum by trying every integer allocation.

    Each route's net unit price is computed once, and a technology's fixed
    cost is added when the first of its routes takes a unit. From two routes
    on, prices and fees are scaled by one common factor to integers, and one
    table covers every suffix of the routes (those from i on): for each
    count of units left to it and each set of its fixed costs the prefix
    already pays, it holds the suffix's least cost and how many compositions
    lie below, and each entry tries every split between route i and the
    entries after it once, however many prefixes share it. The optima are
    read off the table with the units on each route in ascending order. No
    composition is pruned, `optima` holds every argmin in `_compositions`
    order and `count` counts every composition.

    No cost is rounded. A route price, or with one route the total, that
    needs more digits than the decimal context holds is refused with
    ResourceBoundError, and so is a first optimum that the solvers' own
    `price_allocation` cannot price exactly. Only the policy is validated.
    Raises ResourceBoundError when the search space exceeds MAX_ENUMERATION.
    """
    ids = scenario.route_ids()
    caps = [scenario.capacity_of(rid) for rid in ids]
    # caps only remove compositions, so the uncapped count settles most catalogs
    uncapped = math.comb(scenario.demand + len(ids) - 1, len(ids) - 1)
    if (uncapped > MAX_ENUMERATION
            and _enumeration_size(scenario.demand, caps) > MAX_ENUMERATION):
        raise ResourceBoundError(
            f"enumeration space exceeds {MAX_ENUMERATION} allocations")
    validate_policy(scenario, policy)
    with exactly("exact enumeration"):
        combos, count = _cheapest_compositions(scenario, policy, caps)
    optima = tuple(Allocation(units=dict(zip(ids, combo))) for combo in combos)
    return EnumerationResult(best=price_allocation(scenario, optima[0], policy),
                             optima=optima, count=count)


def _cheapest_compositions(scenario, policy, caps):
    """The search behind `enumerate_lower`: (the argmin compositions in
    `_compositions` order, the number of compositions covered)."""
    routes = [scenario.route(rid) for rid in scenario.route_ids()]
    # Inexact is trapped, so a price that would round raises
    prices = [route.unit_cost + policy.tax_rate * route.unit_emissions
              - policy.subsidy_for(route.route_id) for route in routes]
    techs = [route.technology_id for route in routes]
    fees = [scenario.technology_fixed_costs.get(tech, ZERO) for tech in techs]
    if len(routes) == 1:  # one route takes all of demand, which validation let it hold
        if scenario.demand:
            prices[0] * scenario.demand + fees[0]  # raises Inexact if it rounds
        return [(scenario.demand,)], 1
    # scaled by one common factor to integers, as `lower` scales the selector's
    # weights, no sum the table forms can round
    ratios = [value.as_integer_ratio() if value else (0, 1) for value in prices + fees]
    scale = math.lcm(*[d for _, d in ratios])
    scaled = [n * (scale // d) for n, d in ratios]
    return _suffix_table_optima(scaled[:len(routes)], techs, scaled[len(routes):],
                                caps, scenario.demand)


def _suffix_table_optima(prices, techs, fees, caps, demand):
    """`_cheapest_compositions` on integer prices and fees, by one table over
    suffixes. An entry, for the routes from i on and the fixed costs of
    theirs the prefix already pays, holds the least cost and the number of
    compositions below by the units left to them, each priced once however
    many prefixes lead to it. Reading the optima off it with route i's units
    in ascending order lists them in `_compositions` order."""
    last = len(prices) - 1
    # only a technology charged on two or more routes needs a bit: any other
    # fee falls due whenever its one route takes a unit
    shared = sorted({tech for tech, fee in zip(techs, fees) if fee and techs.count(tech) > 1})
    own = ahead = [0] * (last + 2)
    if shared:
        own = [1 << shared.index(tech) if tech in shared else 0 for tech in techs]  # bits
        ahead = [*itertools.accumulate(reversed(own), operator.or_)][::-1] + [0]  # of routes i..
    held = [0, *itertools.accumulate(caps)]  # units routes before i hold
    total = held[-1]  # the routes from i on hold total - held[i]
    # (i, paid bits of routes i..) -> (least, count, steps, stay, take): least
    # and count by units left, route i's cost by its units, and the entries
    # after it when route i stays empty and when it takes units
    table = {}

    def level(i, paid):
        entry = table.get((i, paid))
        if entry is None:
            price, cap, after = prices[i], caps[i], total - held[i + 1]
            fee = 0 if paid & own[i] else fees[i]
            low, high = max(0, demand - held[i]), min(demand, total - held[i])
            cap = min(cap, high)
            steps = [0]
            for u in range(1, cap + 1):
                steps.append(price * u + fee)
            if i == last:  # it takes the units left, one composition each
                entry = table[i, paid] = (steps, [1] * len(steps), None, None, None)
                return entry
            stay = level(i + 1, paid & ahead[i + 1])
            take = level(i + 1, (paid | own[i]) & ahead[i + 1])
            stay_least, stay_count, take_least, take_count = stay[0], stay[1], take[0], take[1]
            least, count = [None] * (high + 1), [0] * (high + 1)
            for r in range(low, high + 1):
                if r <= after:  # route i may stay empty
                    best, n, start = stay_least[r], stay_count[r], 1
                else:
                    best, n, start = math.inf, 0, r - after
                for u in range(start, (r if r < cap else cap) + 1):
                    cost = take_least[r - u] + steps[u]
                    n += take_count[r - u]
                    if cost < best:
                        best = cost
                least[r], count[r] = best, n
            entry = table[i, paid] = (least, count, steps, stay, take)
        return entry

    optima = []

    def expand(i, entry, remaining, head):
        least, _, steps, stay, take = entry
        if i == last:
            optima.append(head + (remaining,))
            return
        for u in range(max(0, remaining - total + held[i + 1]), min(remaining, caps[i]) + 1):
            below = take if u else stay
            if below[0][remaining - u] + steps[u] == least[remaining]:
                expand(i + 1, below, remaining - u, head + (u,))

    root = level(0, 0)
    expand(0, root, demand, ())
    return optima, root[1][demand]


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
    if enumeration is None:
        enumeration = enumerate_lower(scenario, policy)
    else:
        validate_policy(scenario, policy)
    # the optima are valid allocations by construction
    results = [price_allocation(scenario, allocation, policy)
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
            raise ValidationError(["axis needs lo <= hi"])
        if self.lo == self.hi:
            object.__setattr__(self, "steps", 1)
        elif self.steps < 2:
            raise ValidationError(["a non-degenerate axis needs steps >= 2"])

    def points(self):
        """The axis's points, each exact; ValidationError when a step needs
        more digits than the decimal context holds (say 0.1 in 15 steps)."""
        if self.steps == 1:
            return [self.lo]
        try:
            with exactly("the points"):
                span = self.hi - self.lo
                return [self.lo + span * k / (self.steps - 1) for k in range(self.steps)]
        except ResourceBoundError as exc:
            raise ValidationError([
                f"axis lo={self.lo}, hi={self.hi}, steps={self.steps}: {exc}"]) from None


def grid_bilevel(scenario: Scenario, objective, budget, tax_axis: GridAxis,
                 subsidy_axes: dict):
    """Dense scan of the leader's policy grid, streamed point by point and
    evaluating every one; the exhaustive counterpart to the exact leader.
    subsidy_axes maps route id -> GridAxis (absent routes stay
    unsubsidized). Returns (policy, value, result, feasible) of the first
    grid point that ranks lowest in `engine.rank`: funds shortfall, then
    objective, then tax rate, then total subsidy rate.
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
    best_key = None
    for tax, *rates in itertools.product(*axes):
        policy = PolicyVector(tax_rate=tax, subsidy_rates=dict(zip(sub_ids, rates)))
        value, result, _ = evaluate_policy(scenario, policy, objective, budget)
        key = rank(objective, budget, policy, value, result)
        if best_key is None or key < best_key:
            best_key, best = key, (policy, value, result)
    return (*best, best_key[0] == 0)
