"""Brute-force reference solvers.

Full enumeration of integer allocations for the follower and a dense grid
scan for the leader. They exist to cross-check the fast solvers in tests and
`ecolever verify`, so they stay brute force: every grid point is evaluated,
and every composition of demand within the capacities is counted and enters
the least exact cost, with no bound pruning any. From four routes on, where
no sum can round, the follower enumeration prices each route's split of each
remainder once, in one table over the routes' suffixes; otherwise it walks
every composition with running sums (see `enumerate_lower`). It refuses a
catalog whose sums would need rounding rather than rank rounded costs. Both
refuse problems big enough that enumeration would silently take hours.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from decimal import Decimal, Inexact, Rounded, getcontext, localcontext

from .engine import evaluate_policy, rank
from .errors import ResourceBoundError, ValidationError
from .model import (
    Allocation,
    Objective,
    PolicyVector,
    Scenario,
    ZERO,
    price_allocation,
    to_decimal,
    validate_policy,
)

MAX_ENUMERATION = 1_000_000
MAX_GRID_POINTS = 10_000_000
_INFINITY = Decimal("Infinity")


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
    cost is added when the first of its routes takes a unit. From four
    routes on, one table covers every suffix of the routes (those from i
    on): for each count of units left to it and each set of its fixed costs
    the prefix already pays, it holds the suffix's least cost, the units on
    route i that reach it and how many compositions lie below, and each
    entry tries every split between route i and the entries after it once,
    however many prefixes share it. Below four routes, or where a sum might
    round, it walks every prefix (the units on all routes but the last two)
    in `_compositions` order with the prefix's running cost, and prices each
    split of the remainder between the last two routes from it. Either way
    no composition is pruned, `optima` holds every argmin in
    `_compositions` order and `count` counts every composition.

    Every sum is exact. A catalog whose sums need more digits than the
    decimal context holds is refused with ResourceBoundError rather than
    ranked by rounded costs; the table, which adds in another order, runs
    only where no sum can round, so the refusals are those of a walk
    through every composition. Only the policy is validated, and the first
    optimum is priced by the solvers' own `price_allocation`. Raises
    ResourceBoundError when the search space exceeds MAX_ENUMERATION.
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
    with localcontext() as context:
        context.traps[Inexact] = True
        try:
            combos, count = _cheapest_compositions(scenario, policy, caps)
        except Inexact:
            raise ResourceBoundError(
                f"exact enumeration needs more than the context's "
                f"{context.prec} digits") from None
    optima = tuple(Allocation(units=dict(zip(ids, combo))) for combo in combos)
    return EnumerationResult(best=price_allocation(scenario, optima[0], policy),
                             optima=optima, count=count)


def _sums_hold(prices, fees, caps, demand):
    """Whether no cost the walk forms can round, in whatever order it adds.

    Each cost, and each partial sum on the way to it, adds up some of the
    terms price * units (at most min(cap, demand) units per route) and fees.
    When their absolute total needs no rounding it fits the context at the
    smallest exponent among them, and so does every such sum: a multiple of
    that last digit, and no larger.
    """
    context = getcontext()
    context.flags[Rounded] = False
    try:
        sum([p.copy_abs() * min(cap, demand) for p, cap in zip(prices, caps)] + fees, ZERO)
    except Inexact:
        return False
    return not context.flags[Rounded]


def _cheapest_compositions(scenario, policy, caps):
    """The search behind `enumerate_lower`: (the argmin compositions in
    `_compositions` order, the number of compositions covered)."""
    routes = [scenario.route(rid) for rid in scenario.route_ids()]
    prices = [route.unit_cost + policy.tax_rate * route.unit_emissions
              - policy.subsidy_for(route.route_id) for route in routes]
    techs = [route.technology_id for route in routes]
    fees = [scenario.technology_fixed_costs.get(tech, ZERO) for tech in techs]
    last = len(routes) - 1
    if not last:  # one route takes all of demand, which validation let it hold
        if scenario.demand:
            prices[0] * scenario.demand + fees[0]  # raises Inexact if it rounds
        return [(scenario.demand,)], 1
    # below four routes few remainders repeat, and a table costs more than it saves
    if last > 2 and _sums_hold(prices, fees, caps, scenario.demand):
        return _suffix_table_optima(prices, techs, fees, caps, scenario.demand)
    using = dict.fromkeys(techs, 0)  # routes of each technology holding units
    units = [0] * len(routes)
    least, optima, count = _INFINITY, [], 0
    second = last - 1
    price, last_price = prices[second], prices[last]
    second_tech, last_tech = techs[second], techs[last]

    def settle(remaining, cost, own_due, last_due):
        # price each split from this prefix's cost on, forming the sums a
        # composition-by-composition walk forms, and keep the cheapest
        nonlocal least, optima, count
        own = fees[second] if own_due else ZERO
        last_fee = fees[last] if last_due else ZERO
        shared_fee = ZERO if last_tech == second_tech else last_fee
        low, high = max(0, remaining - caps[last]), min(caps[second], remaining)
        count += max(0, high - low + 1)
        for u in range(low, high + 1):
            rest = remaining - u
            total = cost + price * u + own if u else cost
            if rest:
                total += last_price * rest + (shared_fee if u else last_fee)
            if total <= least:
                units[second], units[last] = u, rest
                if total < least:
                    least, optima = total, [tuple(units)]
                else:
                    optima.append(tuple(units))
        units[second] = units[last] = 0

    def walk(i, remaining, cost):
        # routes before i hold their units; route i takes u of the remaining
        if i == second:
            settle(remaining, cost, not using[second_tech], not using[last_tech])
            return
        tech = techs[i]
        own = ZERO if using[tech] else fees[i]
        walk(i + 1, remaining, cost)
        cost += own
        using[tech] += 1
        for u in range(1, min(caps[i], remaining) + 1):
            units[i] = u
            cost += prices[i]
            walk(i + 1, remaining - u, cost)
        units[i] = 0
        using[tech] -= 1

    walk(0, scenario.demand, ZERO)
    return optima, count


def _suffix_table_optima(prices, techs, fees, caps, demand):
    """`_cheapest_compositions` by one table over suffixes, for sums that
    cannot round (it adds in another order than the walk). An entry, for the
    routes from i on, the units left to them and the fixed costs of theirs
    the prefix already pays, holds the least cost, the ascending runs of
    units on route i that reach it, and the number of compositions below.
    Each is priced once however many prefixes lead to it, and expanding the
    runs in ascending order lists the optima in `_compositions` order."""
    last = len(prices) - 1
    charged = sorted({tech for tech, fee in zip(techs, fees) if fee})
    own = [1 << charged.index(tech) if fee else 0 for tech, fee in zip(techs, fees)]  # bits
    ahead = [*itertools.accumulate(reversed(own), operator.or_)][::-1] + [0]  # bits of routes i..
    room = [*itertools.accumulate(reversed(caps))][::-1] + [0]  # units routes i.. hold
    held = [0, *itertools.accumulate(caps)]  # units routes before i hold
    # (i, paid bits of routes i..) -> (least, runs, count), each by units left
    table = {}

    def level(i, paid):
        entry = table.get((i, paid))
        if entry is None:
            price, cap, after = prices[i], caps[i], room[i + 1]
            fee = ZERO if paid & own[i] else fees[i]
            low, high = max(0, demand - held[i]), min(demand, room[i])
            steps = [ZERO]
            for u in range(1, min(cap, high) + 1):
                steps.append(price * u + fee)
            if i == last:  # it takes the units left, one composition each
                entry = table[i, paid] = (steps, None, [1] * len(steps))
                return entry
            stay_least, _, stay_count = level(i + 1, paid & ahead[i + 1])
            take_least, _, take_count = level(i + 1, (paid | own[i]) & ahead[i + 1])
            least, runs, count = [None] * (high + 1), [None] * (high + 1), [0] * (high + 1)
            for r in range(low, high + 1):
                if r <= after:  # route i may stay empty
                    best, tied, n, start = stay_least[r], [range(0, 1)], stay_count[r], 1
                else:
                    best, tied, n, start = _INFINITY, [], 0, r - after
                for u in range(start, (r if r < cap else cap) + 1):
                    cost = take_least[r - u] + steps[u]
                    n += take_count[r - u]
                    if cost <= best:
                        if cost < best:
                            best, tied = cost, [range(u, u + 1)]
                        elif tied[-1].stop == u:
                            tied[-1] = range(tied[-1].start, u + 1)
                        else:
                            tied.append(range(u, u + 1))
                least[r], runs[r], count[r] = best, tied, n
            entry = table[i, paid] = (least, runs, count)
        return entry

    optima = []

    def expand(i, remaining, paid, head):
        if i == last:
            optima.append(head + (remaining,))
            return
        stay, take = paid & ahead[i + 1], (paid | own[i]) & ahead[i + 1]
        for run in table[i, paid][1][remaining]:
            for u in run:
                expand(i + 1, remaining - u, take if u else stay, head + (u,))

    count = level(0, 0)[2][demand]
    expand(0, demand, 0, ())
    return optima, count


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
        if self.steps == 1:
            return [self.lo]
        span = self.hi - self.lo
        return [self.lo + span * k / (self.steps - 1) for k in range(self.steps)]


def grid_bilevel(scenario: Scenario, objective, budget, tax_axis: GridAxis,
                 subsidy_axes: dict):
    """Dense scan of the leader's policy grid, streamed point by point and
    evaluating every one; the exhaustive counterpart to the exact leader and
    the swarm. subsidy_axes maps route id -> GridAxis (absent routes stay
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
