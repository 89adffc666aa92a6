"""The follower: the industry's cost-minimizing whole-unit allocation, with
its ties resolved in the leader's favor.

`solve_lower` is the one entry point, for every scenario. Let F be the
technologies that carry an activation cost. Once the subset of F allowed to
run is fixed, filling demand in ascending (net unit cost, route id) order,
each route up to its capacity, is a cost-minimal allocation in whole units.
One depth-first search along that order finds the cost-minimal subsets: at
the first route of each technology in F that a fill meets, it either pays
the fee or forbids the technology, so only the technologies a fill reaches
are ever decided. A pure-linear scenario (no F, no capacities) is the case
in which the cheapest route takes everything. `cheaper_fill` runs the same
search at an exact rational policy, for the rows of `engine.least_policy`.

The follower's optimal allocations are the faces of the cost-minimal
subsets: routes priced below a subset's marginal price sit at capacity, and
the routes at that price share the rest within their capacities. Industry is
indifferent among them, so the leader chooses (the optimistic convention of
Dempe, Foundations of Bilevel Programming, 2002): the allocation ranked first
by (leader value, subsidy outlay, canonical key) among those within the
public funds, or among all of them when none fits. On one face that choice
is a bounded knapsack with one equality (Kellerer, Pferschy and Pisinger,
Knapsack Problems, 2004), solved in closed form for one or two routes and by
an exact branch-and-bound for more, which refuses, rather than runs on, a
face needing more than MAX_SELECTOR_NODES nodes.

Every number here is an exact Decimal or integer, a sum that would round is
refused (`model.exactly`), and two routes tie only when their net unit
costs are exactly equal, as in `enumerate_lower`: every answer is a true
cost minimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal, Inexact
from fractions import Fraction
from operator import itemgetter

from .errors import ResourceBoundError, ValidationError
from .model import (
    Allocation,
    LowerResult,
    Objective,
    PolicyVector,
    RouteSpec,
    Scenario,
    ZERO,
    exactly,
    price_allocation,
    to_decimal,
    to_integers,
    validate_policy,
)

MAX_FIXED_TECHNOLOGIES = 16
MAX_SELECTOR_NODES = 50_000


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


def solve_lower(scenario: Scenario, policy: PolicyVector, leader_objective,
                funds) -> LowerResult:
    """The follower's optimal allocation that the leader prefers, priced
    (`model.price_allocation`) as a LowerResult.

    An allocation fits the funds when its subsidy outlay is at most funds
    plus its tax payment. Among the follower's optimal allocations this
    returns the first by (leader value, subsidy outlay, canonical key) among
    those that fit, or among all of them when none fits; the canonical key
    prefers more units on the lower route id. most-profitable ranks every
    optimum alike and takes the canonical fill of the first cost-minimal
    subset. The policy is validated once, here.

    Raises ResourceBoundError when |F| exceeds MAX_FIXED_TECHNOLOGIES, a
    tie needs more than MAX_SELECTOR_NODES selector nodes or a sum would
    round. The bound on |F| caps the search's worst case: 2^|F| branches,
    which only fills that reach every technology and tie on cost come near.
    Time follows the technologies the fills reach: at 16 one-route
    technologies a call takes about 0.1 ms at demand 1 and about 0.1 s where
    8,008 subsets tie.
    """
    objective = Objective(leader_objective)
    funds = to_decimal(funds, "funds")
    validate_policy(scenario, policy)
    with exactly("exact pricing"):
        priced, fills = _cheapest_fills(scenario, policy)
        units = fills[0][1]
        # a face holds more than the fill only if another route shares its price
        if objective is not Objective.MOST_PROFITABLE and scenario.demand and (
                len(fills) > 1 or list(map(itemgetter(0), priced)).count(fills[0][2]) > 1):
            faces = [_face(scenario, priced, *fill) for fill in fills]
            units = _select(scenario, policy, objective, funds, faces)
    return price_allocation(scenario, Allocation(units), policy)


def leader_floor(scenario: Scenario, policy: PolicyVector, leader_objective):
    """An exact lower bound on the leader's objective in minimization form
    (emissions, or minus the circularity index) over every allocation
    `solve_lower` can return for a validated policy; None when there is none
    this cheap.

    On a pure-linear scenario every unit goes to the routes at the least net
    unit cost, so emissions are at least demand times the least emissions
    among them, and the circularity index, a mean, is at most the largest
    circularity among them; at zero demand the objective is zero. None for
    capped or fixed-cost scenarios, for most-profitable, and when a net cost
    or the bound would need rounding.
    """
    objective = Objective(leader_objective)
    if objective is Objective.MOST_PROFITABLE or not scenario.is_pure_linear():
        return None
    if not scenario.demand:
        return ZERO
    routes = scenario.routes
    try:
        with exactly("exact pricing"):
            nets = [net_unit_cost(r, policy) for r in routes]
            least = min(nets)
            head = min(objective.unit_head(r) for net, r in zip(nets, routes) if net == least)
            return scenario.demand * head if objective is Objective.MIN_GHG else head
    except ResourceBoundError:
        return None


def _cheapest_fills(scenario: Scenario, policy: PolicyVector):
    """(priced, `_fills` over them): priced lists (net unit cost under the
    policy, route id, technology bit, capacity) for every route."""
    routes, fees = scenario.fill_table()
    tax, subsidies = policy.tax_rate, policy.subsidy_rates
    # net_unit_cost, inlined
    priced = [(cost + tax * emissions - subsidies.get(rid, ZERO), rid, bit, cap)
              for cost, emissions, rid, bit, cap in routes]
    return priced, _fills(scenario, priced, fees)


def cheaper_fill(scenario: Scenario, tax, subsidies, units):
    """A cost-minimal fill, as units, where it costs less than `units` at
    the exact rational policy (tax, subsidies: route id -> rate, as
    Fractions or Decimals); None where `units` is cost-minimal there.
    `_fills` runs on `Scenario.integer_table`, scaled once per scenario,
    times the policy's common denominator: each net unit cost is a few
    integer multiplies."""
    den, routes, fees = scenario.integer_table()
    tax, over = tax.as_integer_ratio()
    rates = {rid: rate.as_integer_ratio() for rid, rate in subsidies.items()}
    scale = math.lcm(over, *(d for _, d in rates.values()))
    tax *= scale // over
    rates = {rid: n * (scale // d) * den for rid, (n, d) in rates.items()}
    # every unit cost and fee times den * scale
    priced = [(cost * scale + emissions * tax - rates.get(rid, 0), rid, bit, cap)
              for rid, (cost, emissions, bit, cap) in routes.items()]
    fees = {bit: fee * scale for bit, fee in fees.items()}
    nets = {rid: net for net, rid, _, _ in priced}

    def cost(fill):  # unit costs plus the fee of every technology the fill uses
        return (sum(nets[rid] * n for rid, n in fill.items())
                + sum(fees[bit] for bit in {routes[rid][2] for rid in fill} if bit))

    fill = _fills(scenario, priced, fees)[0][1]
    return fill if cost(fill) < cost(units) else None


def _fills(scenario: Scenario, priced, fees):
    """The cost-minimal fills over priced routes and fees (exact Decimals,
    or integers scaled alike): sort the routes once, and search that order
    depth first, taking each route up to its capacity. The search
    branches at the first route of each fixed-cost technology it has not yet
    decided on: pay the technology's fee and use the route, or forbid the
    technology. A branch ends once demand is covered, so technologies its
    fill never reaches stay undecided and are never enumerated. A forbidding
    branch is dropped when its cost so far plus its remaining units at the
    next route's price already exceeds the least cost found: every later
    route costs at least that and fees are never negative. Call it on
    Decimals under `model.exactly`; where that bound would round, the branch
    is searched. The first branch pays every fee, and `Scenario` checks that
    the capacities, or an uncapped route, cover demand, so it always ends in
    a leaf.

    Returns (face mask, canonical units, marginal price) for each
    cost-minimal branch, the marginal price being that of the route where
    its fill stops (None at zero demand, where nothing branches). Ties are
    ordered by the branches' allowed technologies in (size,
    `itertools.combinations`) order, so the first fill is that of the first
    cost-minimal subset of F. The face mask adds every zero-fee technology
    the branch left undecided: the subsets that add them cost and fill the
    same, and their faces lie in that one. A technology paid for and left
    idle only adds its fee, so the least charge is the exact industry cost.
    """
    if len(fees) > MAX_FIXED_TECHNOLOGIES:
        raise ResourceBoundError(
            f"{len(fees)} fixed-cost technologies exceed {MAX_FIXED_TECHNOLOGIES}")
    demand = scenario.demand
    if scenario.is_pure_linear():  # uncapped and without fixed costs
        net, rid, _, _ = min(priced)
        return [(0, {rid: demand} if demand else {}, net)]
    every = sum(fees)
    free = sum(bit for bit, fee in fees.items() if not fee)
    if not demand:
        return [(free, {}, None)]
    order = sorted(priced)
    best_cost, leaves = None, []
    # (next route, cost, undecided bits, forbidden bits, remaining, units)
    stack = [(0, 0, every, 0, demand, {})]
    while stack:
        start, cost, undecided, forbidden, remaining, units = stack.pop()
        if best_cost is not None:  # a forbidding branch: bound it
            if start + 1 == len(order):
                continue
            try:
                if cost + remaining * order[start + 1][0] > best_cost:
                    continue
            except Inexact:
                pass
        for i in range(start, len(order)):
            net, rid, bit, cap = order[i]
            if bit & undecided:
                stack.append((i, cost, undecided ^ bit, forbidden | bit, remaining, units.copy()))
                undecided ^= bit
                cost += fees[bit]
            elif bit & forbidden:
                continue
            take = cap if cap < remaining else remaining  # min() costs more
            if take:
                units[rid] = take
                cost += net * take
                remaining -= take
            if remaining == 0:
                break
        else:
            continue  # demand not covered
        leaf = (every & ~(undecided | forbidden), forbidden, units, net)
        if best_cost is None or cost < best_cost:
            best_cost, leaves = cost, [leaf]
        elif cost == best_cost:
            leaves.append(leaf)
    if len(leaves) > 1:
        leaves.sort(key=lambda leaf: (leaf[0].bit_count(),
                                      [i for i in range(leaf[0].bit_length()) if leaf[0] >> i & 1]))
    return [(allowed | free & ~forbidden, units, marginal)
            for allowed, forbidden, units, marginal in leaves]


def _face(scenario: Scenario, priced, mask, units, marginal):
    """One cost-minimal subset's face as (pinned units, bounds, rest): the
    routes priced below the marginal price keep their units, and the rest of
    demand may go to the routes at it, each up to its bound. bounds is keyed
    in route-id order, holds only routes that can take a unit, and is empty
    when the fill is the face's only point."""
    at_margin = {rid: cap for net, rid, bit, cap in priced
                 if net == marginal and not bit & ~mask}
    if len(at_margin) > 1:
        pinned = {rid: n for rid, n in units.items() if rid not in at_margin}
        rest = scenario.demand - sum(pinned.values())
        bounds = {rid: min(at_margin[rid], rest) for rid in sorted(at_margin)
                  if at_margin[rid] and rest}
        if len(bounds) > 1 and sum(bounds.values()) > rest:
            return pinned, bounds, rest
    return units, {}, 0


def _select(scenario: Scenario, policy: PolicyVector, objective: Objective, funds,
            faces) -> dict:
    """The leader's pick over the union of faces, as units: first by (leader
    value, subsidy outlay, canonical key) among the allocations within
    funds, or among all of them when none fits."""
    subsidies = policy.subsidy_rates

    def weight(rid):  # funds drawn per unit: subsidy paid less tax collected
        route = scenario.route(rid)
        return route.unit_cost - net_unit_cost(route, policy)

    def value(rid):
        return objective.unit_head(scenario.route(rid))

    picks, fallbacks = [], []
    for pinned, bounds, rest in faces:
        # routes alike in value, outlay and funds drawn, and next in id order,
        # search as one (alike routes stall it), and the key fills them in order
        groups = [list(g) for _, g in itertools.groupby(
            bounds, lambda rid: (value(rid), subsidies.get(rid, ZERO), weight(rid)))]
        ids = [rid for rid, *_ in groups]
        upper = [min(rest, sum(map(bounds.get, g))) for g in groups]
        left = funds - sum((weight(rid) * n for rid, n in pinned.items()), ZERO)
        if len(ids) == 1:  # one split, all of rest on the group: nothing to order
            cost, pick = [0], _best_whole(weight(ids[0]), rest, left)
        elif len(ids) == 2:  # closed form: the search made closed-form sweeps 1.75x slower
            cost = [(value(rid), subsidies.get(rid, ZERO)) for rid in ids]
            pick = _best_pair(cost, [weight(rid) for rid in ids], upper, rest, left)
        else:
            cost = _fold(to_integers([value(rid) for rid in ids]),
                         to_integers([subsidies.get(rid, ZERO) for rid in ids]), rest)
            *weights, budget = to_integers([weight(rid) for rid in ids] + [left])
            pick = _branch_and_bound(cost, weights, upper, rest, budget)
        if pick is not None:
            picks.append((pinned, bounds, _spread(groups, bounds, pick)))
        elif not picks:
            order = sorted(range(len(ids)), key=cost.__getitem__)
            pick = _fill(order, [0] * len(ids), upper, rest)
            fallbacks.append((pinned, bounds, _spread(groups, bounds, pick)))
    candidates = [{**pinned, **{rid: n for rid, n in zip(bounds, pick) if n}}
                  for pinned, bounds, pick in picks or fallbacks]
    if len(candidates) == 1:
        return candidates[0]

    def leader_order(units):
        return (sum((value(rid) * n for rid, n in units.items()), ZERO),
                sum((subsidies.get(rid, ZERO) * n for rid, n in units.items()), ZERO),
                tuple(sorted((rid, -n) for rid, n in units.items())))

    return min(candidates, key=leader_order)


def _spread(groups, bounds, pick) -> list:
    """Each group's units over its routes in id order, each up to its bound."""
    return [n for group, units in zip(groups, pick)
            for n in _fill(range(len(group)), [0] * len(group), [bounds[r] for r in group], units)]


def _fold(value, outlay, rest) -> list:
    """One integer cost per route, in route-id order, whose sum over whole
    splits of `rest` units orders them by (leader value, subsidy outlay,
    canonical key): each term outweighs every difference the terms after it
    can make, and the key term -(rest + 1) ** (k - 1 - i) ranks splits by
    their units on the routes in order, the first route weighing most."""
    if not value:
        return []
    key_span = (rest + 1) ** len(value)
    outlay_span = (rest * (max(outlay) - min(outlay)) + 1) * key_span
    return [v * outlay_span + o * key_span - (rest + 1) ** (len(value) - 1 - i)
            for i, (v, o) in enumerate(zip(value, outlay))]


def _fill(order, lo, hi, left) -> list:
    """lo plus `left` more whole units on the routes in `order`, each up to
    its hi."""
    units = list(lo)
    for i in order:
        room = hi[i] - lo[i]
        if room >= left:
            units[i] += left
            break
        units[i] += room
        left -= room
    return units


def _best_whole(weight, rest, funds):
    """One route in closed form: its only split puts all of rest on it,
    which fits when weight * rest <= funds, decided in the integers the
    search scales them to; None when it does not fit."""
    drawn, budget = to_integers([weight, funds])
    return [rest] if drawn * rest <= budget else None


def _best_pair(cost, weight, upper, rest, funds):
    """Two routes in closed form, in exact decimals: the first route's units
    x range over an interval that the funds line cuts, and the leader's
    order is linear in x, so the pick is an end of what is left; None when
    nothing is. cost holds each route's (leader value, outlay) per unit; on
    equal costs the canonical key prefers the first route."""
    lo, hi = rest - upper[1], upper[0]
    slope, slack = weight[0] - weight[1], funds - weight[1] * rest
    fits_lo, fits_hi = slope * lo <= slack, slope * hi <= slack  # x fits: slope * x <= slack
    if not (fits_lo or fits_hi):
        return None
    if not fits_hi:  # slope > 0 and 0 <= slack: the largest x that fits
        hi = int(slack // slope)
    elif not fits_lo:  # slope < 0 and slack < 0: the smallest x that fits
        lo = int(slack // slope) + (slack % slope != 0)
    x = hi if cost[0] <= cost[1] else lo
    return [x, rest - x]


def _branch_and_bound(cost, weight, upper, rest, budget):
    """Exact minimum of cost . x over whole x with sum(x) == rest,
    weight . x <= budget and 0 <= x <= upper; None when nothing fits.

    A node's LP relaxation fills its box in ascending cost + lam * weight
    order at the least funds multiplier lam whose fill fits: that fill and
    the one just below lam are both Lagrangian optimal there, so the mix of
    them that spends exactly the budget is the LP optimum. The fill that
    fits is whole and updates the incumbent. cost orders whole points
    strictly (`_fold`), so a node whose LP bound is not below the incumbent
    holds nothing better and is pruned; any other node branches on the
    first fractional coordinate of its LP optimum.

    Raises ResourceBoundError past MAX_SELECTOR_NODES nodes. Routes whose
    (weight, cost) lie on one line leave the LP bound flat, and the search
    then enumerates a subset-sum.
    """
    k = len(cost)
    lams = sorted({Fraction(cost[j] - cost[i], weight[i] - weight[j])
                   for i in range(k) for j in range(k)
                   if weight[i] > weight[j] and cost[i] < cost[j]})
    # orders[m]: the fill order between the m-th breakpoint and the next;
    # spending falls as m grows
    orders = [sorted(range(k), key=cost.__getitem__)]
    orders += [sorted(range(k), key=lambda i: (cost[i] + lam * weight[i], weight[i]))
               for lam in lams]

    def spend(units):
        return sum(map(int.__mul__, weight, units))

    best_value, best = None, None
    stack = [([0] * k, list(upper), 0)]  # (lo, hi, parent's order index)
    for nodes in itertools.count(1):
        if not stack:
            return best
        if nodes > MAX_SELECTOR_NODES:
            raise ResourceBoundError(f"a tie of {k} routes needs more than "
                                     f"{MAX_SELECTOR_NODES} selector nodes")
        lo, hi, a = stack.pop()
        left = rest - sum(lo)
        if not 0 <= left <= sum(hi) - sum(lo):
            continue

        drawn = spend(lo)

        def fits(m):  # does _fill(orders[m], lo, hi, left) stay within budget?
            total, more = drawn, left
            for i in orders[m]:
                room = hi[i] - lo[i]
                if room >= more:
                    return total + weight[i] * more <= budget
                total += weight[i] * room
                more -= room
            return total <= budget

        # search from the parent's index, which a child's is usually near
        if fits(a):
            a, b = 0, a
        elif fits(len(orders) - 1):
            a, b = a + 1, len(orders) - 1
        else:
            continue  # even the least-spending fill overdraws
        while a < b:
            mid = (a + b) // 2
            a, b = (a, mid) if fits(mid) else (mid + 1, b)
        inside = _fill(orders[a], lo, hi, left)
        value = sum(map(int.__mul__, cost, inside))
        if best_value is None or value < best_value:
            best_value, best = value, inside
        if a == 0:
            continue  # the cost-ordered fill fits: a whole LP optimum
        # the LP optimum is inside + spare / span * (outside - inside)
        outside = _fill(orders[a - 1], lo, hi, left)
        spare, span = budget - spend(inside), spend(outside) - spend(inside)
        gain = sum(map(int.__mul__, cost, outside)) - value
        if (value - best_value) * span + spare * gain >= 0:
            continue
        for i in range(k):
            step = spare * (outside[i] - inside[i])
            if step % span:
                break
        else:  # the LP optimum is whole
            best_value = value + spare * gain // span
            best = [n + spare * (m - n) // span for n, m in zip(inside, outside)]
            continue
        cut = inside[i] + step // span
        stack.append((lo, hi[:i] + [cut] + hi[i + 1:], a))
        stack.append((lo[:i] + [cut + 1] + lo[i + 1:], hi, a))


def solve_lower_greedy(scenario: Scenario, policy: PolicyVector):
    """Pure-linear view of the follower: (TieSet of the routes at the
    minimum net unit cost, canonical Allocation with all demand on the first
    of them). Leader-aware tie resolution is `solve_lower`'s job.
    """
    if not scenario.is_pure_linear():
        raise ValidationError(
            ["solve_lower_greedy requires a pure-linear scenario "
             "(no fixed costs, no capacity limits); use solve_lower"])
    validate_policy(scenario, policy)
    with exactly("exact pricing"):
        priced, [(_, units, marginal)] = _cheapest_fills(scenario, policy)
    tie = TieSet(route_ids=[rid for net, rid, _, _ in priced if net == marginal],
                 net_unit_cost=marginal)
    return tie, Allocation(units)


def optimistic_select(scenario: Scenario, policy: PolicyVector, tie: TieSet,
                      leader_objective, available_funds) -> Allocation:
    """The leader's pick among the whole-unit splits of all demand over a
    pure-linear TieSet's routes: `solve_lower`'s selector on that one face,
    with available_funds net of tax income, after the same checks."""
    objective = Objective(leader_objective)
    funds = to_decimal(available_funds, "available_funds")
    validate_policy(scenario, policy)
    demand = scenario.demand
    if demand == 0:
        return Allocation({})
    face = ({}, {rid: demand for rid in tie.route_ids}, demand)
    with exactly("exact pricing"):
        return Allocation(_select(scenario, policy, objective, funds, [face]))


def solve_lower_milp(scenario: Scenario, policy: PolicyVector) -> LowerResult:
    """The follower's canonical cost-minimal allocation, priced: the first
    cost-minimal subset's fill, which is `solve_lower` for most-profitable.
    """
    return solve_lower(scenario, policy, Objective.MOST_PROFITABLE, ZERO)
