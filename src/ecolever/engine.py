"""Bilevel search over the leader's policies, with the follower solved
exactly inside every evaluation.

The leader fixes (tax rate, subsidy rates), and `rank` orders the evaluated
policies: funds shortfall first (subsidy outlay beyond budget plus tax
income, exact), then the leader's objective, tax rate and total subsidy
rate, so a policy within funds beats every policy beyond them, with no
penalty weight and no tolerance. `exact_leader` is the one leader, and
`best_policy` its one best-first queue. It ranks a few analytic candidates
(`domain_informed_points`). On capped and fixed-cost scenarios the same
queue walks the follower's vertex responses, from the allocation of
`value_bound`, and takes the least policy of each (`least_policy`, an exact
LP), so it is exact over vertex responses. On every scenario a certificate
comes first: that allocation's least policy (in closed form on pure-linear
scenarios), where it reaches the bound within funds, is the answer.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, ROUND_CEILING, ROUND_FLOOR, getcontext
from fractions import Fraction
from heapq import heappop, heappush

from .errors import ResourceBoundError, ValidationError
from .lower import cheaper_fill, leader_floor, solve_lower
from .model import (
    Allocation,
    LowerResult,
    Objective,
    PolicyVector,
    RATE_QUANTUM,
    Scenario,
    ZERO,
    exactly,
    price_allocation,
    quantize_rate,
    to_decimal,
    validate_allocation,
    validate_policy,
    value_bound,
)

COMBINED = "combined"
TAX_ONLY = "tax-only"
SUBSIDY_ONLY = "subsidy-only"
MODES = (COMBINED, TAX_ONLY, SUBSIDY_ONLY)

TAX_QUANTA = 4  # grid taxes `least_policy` tries, from the ceiling of the least tax up
MAX_RESPONSES = 1_000  # vertex responses the leader's search tries


def evaluate_policy(scenario: Scenario, policy: PolicyVector, objective, budget):
    """Evaluate one leader decision: solve the follower, then score the leader.

    Returns (value, LowerResult, feasible). `value` is the leader objective of
    the induced response in natural units. feasible says the subsidy outlay
    stays within budget + tax income exactly, i.e. the response's shortfall
    in `rank` is zero.
    """
    objective = Objective(objective)
    budget = to_decimal(budget, "budget")
    result = solve_lower(scenario, policy, objective, budget)
    feasible = result.subsidy_outlay <= budget + result.tax_payment
    return objective.natural_value(result), result, feasible


def rank(objective, budget, policy: PolicyVector, value, result: LowerResult):
    """The leader's order on evaluated policies; smaller ranks first.

    Returns (shortfall, objective head, tax rate, total subsidy rate), where
    shortfall = max(0, subsidy outlay - budget - tax income) in exact Decimal
    and the head is `Objective.head(value)`. Any policy within funds ranks
    before every policy beyond them, and among the latter the smaller
    shortfall ranks first (Deb's feasibility rules, 2000).
    """
    shortfall = result.subsidy_outlay - budget - result.tax_payment
    return (shortfall if shortfall > 0 else ZERO, Objective(objective).head(value),
            policy.tax_rate, policy.total_rates())


def best_policy(scenario: Scenario, objective, budget, policies: list, mode: str = COMBINED,
                walk=()):
    """The first in `rank` of `policies` and of the least policies of
    `walk`'s follower responses (`_vertex_responses`), as (policy, natural
    value, LowerResult, feasible): what evaluating them all in order
    returns, from fewer evaluations.

    No shortfall is negative, nor below -budget with no tax income, and no
    head is below `lower.leader_floor` nor below `value_bound`'s, the bound.
    So a policy ranks no earlier than its bound key (that least shortfall,
    bound, tax rate, total subsidy rate) nor its floor key, and one that
    induces a walked response no earlier than (0, its head, 0, 0). One
    queue holds each policy, validated, at its bound key (at its rank key
    where it comes evaluated, as such a tuple), and the walk's next
    response at its key, after every policy on ties; the lowest (key,
    index) is taken each time. A policy goes back with its floor key where
    that is above the bound, else is evaluated and goes back with its rank
    key; a response's `_least_response` (in `mode`) is appended to
    `policies` and goes back with its rank key, and the walk's next joins.
    The first rank key taken is the answer, exact over vertex responses.
    With no `value_bound` the bound is minus infinity. A policy left
    unevaluated never reaches the follower, so its ResourceBoundError does
    not surface. The walk takes at most MAX_RESPONSES responses, skips one
    whose LP or follower refuses, and stops where a head would round.
    """
    objective = Objective(objective)
    budget = to_decimal(budget, "budget")
    bound = value_bound(scenario, objective)
    bound = Decimal("-Infinity") if bound is None else objective.head(bound[0])
    untaxed = max(ZERO, -budget)  # the least shortfall with no tax income
    # (key, index, stage): stage is "bound", "floor", an evaluated policy
    # behind its rank key, or the walk's response, at index infinity
    queue = []
    for index, policy in enumerate(policies):
        if isinstance(policy, PolicyVector):
            validate_policy(scenario, policy)
            queue.append(((ZERO if policy.tax_rate else untaxed, bound, policy.tax_rate,
                           policy.total_rates()), index, "bound"))
        else:
            queue.append((rank(objective, budget, *policy[:3]), index, policy))
    queue.sort()
    walk, left = iter(walk), MAX_RESPONSES

    def step():  # the walk's next response joins the queue
        nonlocal left
        while left:
            left -= 1
            try:
                units = next(walk, None)
                if units is None:
                    return
                result = price_allocation(scenario, Allocation(units), PolicyVector.zero())
            except ResourceBoundError:
                continue
            head = objective.head(objective.natural_value(result))
            insort(queue, ((ZERO, head, ZERO, ZERO), math.inf, units))
            return

    step()
    while True:
        key, index, stage = queue.pop(0)
        if stage == "bound":
            floor = leader_floor(scenario, policies[index], objective)
            if floor is not None and floor > bound:
                insort(queue, ((key[0], floor, *key[2:]), index, "floor"))
                continue
        elif isinstance(stage, dict):
            found = _least_response(scenario, objective, budget, mode, stage)
            if found is not None:
                policies.append(found[0])
                insort(queue, (rank(objective, budget, *found[0][:3]), len(policies) - 1,
                               found[0]))
            step()
            continue
        elif stage != "floor":
            return stage
        policy = policies[index]
        value, result, feasible = evaluate_policy(scenario, policy, objective, budget)
        insort(queue, (rank(objective, budget, policy, value, result), index,
                       (policy, value, result, feasible)))


@dataclass(frozen=True)
class PsoParams:
    """Settings of the particle swarm that `optimize` once ran. They are
    still accepted and validated (tax_max must be finite, >= 0 and fit
    `quantize_rate`), but nothing reads these."""

    swarm_size: int = 10
    iterations: int = 200
    tax_max: float = 10.0
    seed: int = 0
    restarts: int = 5

    def __post_init__(self):
        v = []
        if self.swarm_size < 1:
            v.append("swarm_size must be >= 1")
        if self.iterations < 0:
            v.append("iterations must be >= 0")
        if self.restarts < 1:
            v.append("restarts must be >= 1")
        if self.seed < 0:
            # random.Random seeds from abs(seed): -1 would silently replay 1
            v.append("seed must be >= 0")
        try:
            if quantize_rate(self.tax_max) < 0:
                v.append(f"tax_max must be >= 0, got {self.tax_max!r}")
        except ValidationError as exc:
            v.extend(f"tax_max: {message}" for message in exc.violations)
        if v:
            raise ValidationError(v)


@dataclass(frozen=True)
class BilevelOutcome:
    """Result of one bilevel search at a fixed budget. evaluations counts
    the exact leader's candidates, each ranked by the follower or, where it
    could not change the answer, by `value_bound` and `lower.leader_floor`,
    plus the certificate's least policy where it falls short and equals no
    candidate, plus one per least policy the walk over vertex responses
    evaluates: the policies `best_policy` ranks. A certified answer counts
    its LP solves (none on a pure-linear scenario) plus one. A budget
    sweep's rows are these outcomes."""

    policy: PolicyVector
    response: LowerResult
    upper_value: Decimal
    feasible: bool
    evaluations: int
    objective: Objective
    mode: str
    budget: Decimal


def price_window(scenario: Scenario, target_route_id: str):
    """The taxes at which a route is (weakly) cheapest with no subsidy, as
    (lo, hi), hi None when unbounded; None when there are none. A dirtier
    rival bounds the window from below, a cleaner one from above."""
    target = scenario.route(target_route_id)
    lo, hi = ZERO, None
    for r in scenario.routes:
        dc = r.unit_cost - target.unit_cost
        de = r.unit_emissions - target.unit_emissions
        if de > 0:
            lo = max(lo, -dc / de)
        elif de < 0:
            hi = dc / -de if hi is None else min(hi, dc / -de)
        elif dc < 0:
            return None  # undercuts the target at every tax
    return None if hi is not None and lo > hi else (lo, hi)


def _on_grid(rate: Decimal, rounding) -> Decimal:
    """A candidate rate on the 1e-12 grid; ResourceBoundError past the context's digits."""
    try:
        return rate.quantize(RATE_QUANTUM, rounding=rounding)
    except InvalidOperation:
        raise ResourceBoundError(f"rate {rate} needs more than the context's "
                                 f"{getcontext().prec} digits on the 1e-12 grid") from None


def _cap(scenario: Scenario, mode: str) -> Decimal:
    """The level's cap: the least cost of a zero-emission route, or of any
    route in subsidy-only mode; infinity where no route caps it."""
    return min((r.unit_cost for r in scenario.routes
                if mode == SUBSIDY_ONLY or r.unit_emissions == 0), default=Decimal("Infinity"))


def _lift(scenario: Scenario, target, cap):
    """The least grid tax lifting the level, min of (cost + tax * emissions),
    to `target` or to its `cap`, and the level it gives."""
    routes = scenario.routes
    target = min(target, cap)
    tax = _on_grid(max(((target - r.unit_cost) / r.unit_emissions
                        for r in routes if r.unit_cost < target), default=ZERO), ROUND_CEILING)
    return tax, min(r.unit_cost + tax * r.unit_emissions for r in routes)


def _full_demand(scenario: Scenario, target, budget, mode: str, cap):
    """A policy under which the whole (nonzero) demand on route `target` is
    a follower optimum, as (policy, within funds, target's price window).
    With a subsidy (not in tax-only mode): the least grid tax lifting the
    level to target's cost less budget / demand, or to `cap`, plus the
    price gap as target's subsidy. Else the least grid tax in the window
    whose income covers -budget, or in subsidy-only mode the zero policy;
    (None, False, None) for no window. On a pure-linear scenario a policy
    within funds is the `rank`-least one (`least_policy`)."""
    demand, cost, emissions = scenario.demand, target.unit_cost, target.unit_emissions
    if mode != TAX_ONLY and target.subsidizable:
        goal = cost - budget / demand
        tax, lifted = _lift(scenario, goal, cap)
        rates = {target.route_id: cost + tax * emissions - lifted}
        return PolicyVector(tax, rates), lifted >= goal, None
    window = price_window(scenario, target.route_id)
    if window is None:
        return None, False, None
    lo, hi = window
    if mode == SUBSIDY_ONLY:  # cheapest at no tax, with nothing to pay
        return PolicyVector.zero(), lo == 0 and budget >= 0, window
    # income demand * tax * emissions grows, and the shortfall shrinks, with the tax
    need = max(lo, -budget / (demand * emissions)) if emissions else lo
    tax = _on_grid(need, ROUND_CEILING)
    return PolicyVector(tax), (hi is None or tax <= hi) and (emissions > 0 or budget >= 0), window


def domain_informed_points(scenario: Scenario, budget, mode: str = COMBINED):
    """The exact leader's candidates: zero policy first, none repeated.

    When every route the follower uses prices at one level L, outlay less
    tax income is the allocation's pre-policy cost less demand * L, so it
    fits the funds when that cost is at most budget + demand * L. L reaches
    at most level(t) = min over routes of (cost + t * emissions), rising
    with the tax t until a zero-emission route (or subsidy-only mode: t = 0)
    caps it. Per route, `_full_demand`: full adoption at the least grid tax
    lifting the level to its cost less budget / demand (or to the cap, then
    also a grid step below it); unsubsidized, the least tax in its price
    window whose income pays, else the largest strictly inside; and at the
    window's top, or a capped level, every subsidizable route down to the
    level to mix. Nothing is kept between calls.
    """
    budget = to_decimal(budget, "budget")
    if mode not in MODES:
        raise ValidationError([f"unknown mode: {mode!r}"])
    points = [PolicyVector.zero()]
    if scenario.demand == 0:
        return points
    cap = _cap(scenario, mode)

    def add(policy):
        if policy not in points:
            points.append(policy)

    def mix(tax):  # every subsidizable route down to the level, for the selector
        if mode == TAX_ONLY:
            return add(PolicyVector(tax))
        lifted = min(r.unit_cost + tax * r.unit_emissions for r in scenario.routes)
        add(PolicyVector(tax, {r.route_id: r.unit_cost + tax * r.unit_emissions - lifted
                               for r in scenario.routes if r.subsidizable}))

    for target in map(scenario.route, scenario.route_ids()):
        rid = target.route_id
        if mode != TAX_ONLY and target.subsidizable:
            policy, fits, _ = _full_demand(scenario, target, budget, mode, cap)
            add(policy)
            if fits:
                continue
            rate = _on_grid(policy.subsidy_for(rid), ROUND_FLOOR) + RATE_QUANTUM
            add(PolicyVector(policy.tax_rate, {rid: rate}))
        if mode == SUBSIDY_ONLY:  # with no tax, an unsubsidized route adds nothing
            continue
        policy, _, window = _full_demand(scenario, target, budget, TAX_ONLY, cap)
        if window is None:
            continue
        lo, hi = window
        if hi is None or policy.tax_rate <= hi:
            add(policy)
        elif (tax := _on_grid(hi - RATE_QUANTUM, ROUND_CEILING)) >= lo:  # strictly inside
            add(PolicyVector(tax))
        if hi is not None:  # the top of the window, where the next route joins
            mix(_on_grid(hi, ROUND_FLOOR))
    if cap.is_finite():
        mix(_lift(scenario, cap, cap)[0])  # the capped level
    return points


def _simplex(cost, rows, rhs):
    """Minimize cost . v over v >= 0 with rows . v <= rhs, exactly, for
    integer rows, right-hand sides and cost: the optimal v in Fractions, or
    None when nothing is feasible (no cost is negative, so nothing is
    unbounded). The integers are pivoted over one common denominator
    (Edmonds, 1967), with no Fraction inside. Bland's rule, on reduced costs
    kept in an objective row and a cross-multiplied ratio test, cannot cycle
    (Bland, 1977); phase one minimizes one auxiliary column (Chvátal, Linear
    Programming, 1983)."""
    m, n = len(rows), len(cost)
    aux, den, basis = n + m, 1, list(range(n, n + m))
    table = [[*row, *(int(i == k) for k in range(m)), -1, rhs[i]] for i, row in enumerate(rows)]

    def pivot(r, c):
        nonlocal den
        p, top = table[r][c], table[r]
        for i, row in enumerate(table):
            if i != r:
                f = row[c]
                table[i] = [(a * p - f * b) // den for a, b in zip(row, top)]
        if p < 0:  # keep the denominator positive
            table[:] = [[-a for a in row] for row in table]
        den, basis[r] = abs(p), c

    def minimize(weights, columns):  # Bland: the first improving column, the least ratio
        # reduced costs times den, below the rows, pivoted with them
        table.append([w * den for w in weights] + [0])
        for i, c in enumerate(basis):
            if weights[c]:
                table[m] = [a - weights[c] * b for a, b in zip(table[m], table[i])]
        while (c := next((c for c in range(columns) if table[m][c] < 0), None)) is not None:
            r = None  # the least (ratio, basic column), ratios cross-multiplied
            for i in range(m):
                if table[i][c] > 0 and (r is None or (table[i][-1] * table[r][c], basis[i])
                                        < (table[r][-1] * table[i][c], basis[r])):
                    r = i
            pivot(r, c)
        table.pop()

    low = min(range(m), key=lambda i: table[i][-1])
    if table[low][-1] < 0:
        pivot(low, aux)
        minimize([0] * aux + [1], aux + 1)
        if aux in basis:
            r = basis.index(aux)
            if table[r][-1]:
                return None
            pivot(r, next(c for c in range(aux) if table[r][c]))
    minimize(cost + [0] * (m + 1), aux)
    row_of = {c: i for i, c in enumerate(basis)}
    return [Fraction(table[row_of[c]][-1], den) if c in row_of else Fraction(0) for c in range(n)]


def _decimal_up(q: Fraction) -> Decimal:
    """q exactly where the context's digits hold it, else rounded up at 17 places."""
    try:
        with exactly("a least subsidy"):
            return Decimal(q.numerator) / q.denominator
    except ResourceBoundError:
        return Decimal(f"{math.ceil(q * 10 ** 17)}E-17")


def least_policy(scenario: Scenario, units, budget, mode: str = COMBINED):
    """The `rank`-least grid policy under which the allocation `units` (route
    id -> positive units) is a follower optimum within funds, as (policy, LP
    solves); None when there is none within TAX_QUANTA taxes of the least.

    For a fixed response the leader's problem is an LP (Labbé, Marcotte and
    Savard, 1998) in the tax t (0 in subsidy-only mode) and a subsidy per
    subsidizable route the units use (none in tax-only mode; one elsewhere
    only helps rivals). Its rows: outlay less tax income at most the budget,
    and cost(units) <= cost(y) for each fill y that `lower.cheaper_fill`
    finds undercutting the units at the LP's point, added one at a time.
    Each row is built in integers from `Scenario.integer_table` and reduced
    by `_row`; Fractions appear only at the boundary: the LP's point, the
    tax ceiling and `_decimal_up`.
    Stage one minimizes t, put on the 1e-12 grid by its ceiling; stage two
    fixes it, one quantum higher while infeasible, and minimizes the total
    subsidy. A subsidy past the context's digits is rounded up at 17
    places. Where that overdraws the funds or lets a rival undercut the
    units, stage two is solved again with every row kept by 1e-17 per unit,
    and a tax where that fails too counts as infeasible. Callers still
    evaluate the policy: the follower resolves ties. Where `units` is the
    whole demand on one route (or there is none) of a pure-linear scenario,
    the answer is `_full_demand`'s closed form, and no LP is solved.
    """
    budget = to_decimal(budget, "budget")
    if mode not in MODES:
        raise ValidationError([f"unknown mode: {mode!r}"])
    validate_allocation(scenario, Allocation(units))
    if len(units) <= 1 and scenario.is_pure_linear():  # the demand, if any, on one route
        policy, fits, _ = (_full_demand(scenario, scenario.route(*units), budget, mode,
                                        _cap(scenario, mode))
                           if scenario.demand else (None, budget >= 0, None))
        zero = PolicyVector.zero()  # the candidates' own, for an equal policy
        return (policy if policy and policy != zero else zero, 0) if fits else None
    used = [] if mode == TAX_ONLY else [r for r in scenario.subsidizable_ids() if units.get(r)]
    den, routes, fees = scenario.integer_table()

    def charge(fill):  # (industry cost, emissions) with no policy, times den
        return (sum(routes[rid][0] * n for rid, n in fill.items())
                + sum(fees[bit] for bit in {routes[rid][2] for rid in fill} if bit),
                sum(routes[rid][1] * n for rid, n in fill.items()))

    cost, emissions = charge(units)
    funds, over = budget.as_integer_ratio()
    tax_row = [1] + [0] * len(used)
    rows = [_row([-emissions * over, *(units[rid] * den * over for rid in used)], funds * den)]
    if mode == SUBSIDY_ONLY:
        rows.append(_row(tax_row, 0))
    solves = 0

    def solve(cost_row, fixed=(), margin=False):  # each row but the fixed ones kept by 1e-17
        nonlocal solves
        while True:
            solves += 1
            kept = [_row([a * 10 ** 17 for a in row], b * 10 ** 17 - sum(map(abs, row[1:])))
                    for row, b in rows] if margin else rows[:]
            kept += fixed
            point = _simplex(cost_row, [row for row, _ in kept], [b for _, b in kept])
            if point is None:
                return None
            rival = cheaper_fill(scenario, point[0], dict(zip(used, point[1:])), units)
            if rival is None:
                return point
            # the row cost(units) <= cost(rival), in the tax and the subsidies
            theirs, their_emissions = charge(rival)
            rows.append(_row([emissions - their_emissions,
                              *((rival.get(rid, 0) - units[rid]) * den for rid in used)],
                             theirs - cost))

    point = solve(tax_row)
    if point is None:
        return None
    least = math.ceil(point[0] * 10 ** 12)  # in RATE_QUANTUM steps
    for step in range(least, least + TAX_QUANTA):
        tax = Fraction(step, 10 ** 12)
        fixed = [_row([10 ** 12, *tax_row[1:]], step), _row([-10 ** 12, *tax_row[1:]], -step)]
        # rates rounded up may overdraw the funds or let a rival undercut the
        # units; a margin of 1e-17 per unit in each row absorbs the rounding
        for margin in (False, True):
            point = solve([0] + [1] * len(used), fixed, margin)
            if point is None:
                break
            rates = {rid: _decimal_up(rate) for rid, rate in zip(used, point[1:])}
            outlay = sum(Fraction(rates[rid]) * units[rid] for rid in used)
            if (outlay <= Fraction(budget) + tax * Fraction(emissions, den)
                    and cheaper_fill(scenario, tax, rates, units) is None):
                return PolicyVector(Decimal(f"{step}E-12") if step else ZERO, rates), solves
    return None


def _row(coefficients, rhs):
    """The LP row coefficients . v <= rhs, for integer entries, as
    (coefficients, rhs) divided by their greatest common divisor (a row of
    zeros, as a rival may give, as it is)."""
    g = math.gcd(rhs, *coefficients) or 1
    return [a // g for a in coefficients], rhs // g


def _least_response(scenario: Scenario, objective: Objective, budget, mode, units):
    """The `least_policy` of the follower response `units`, evaluated, as
    ((policy, natural value, LowerResult, feasible), LP solves); None where
    there is none, or where the LP or the follower hits a ResourceBoundError."""
    try:
        found = least_policy(scenario, units, budget, mode)
        if found is None:
            return None
        policy, solves = found
        return (policy, *evaluate_policy(scenario, policy, objective, budget)), solves
    except ResourceBoundError:
        return None


def _vertex_responses(scenario: Scenario, objective: Objective, first: dict):
    """The follower's vertex responses, as units, in ascending objective head
    from `first`, a least one (the `value_bound` allocation): every route at
    zero or at its capacity but the marginal one, which takes the rest. A
    Kth-best walk (Bialas and Karwan, 1984): each next vertex is one edge,
    a move of units from one route to another until either hits a bound,
    from a vertex already taken. Ties go to the lower (route id, units)
    sequence. ResourceBoundError where a head would round."""
    caps = {rid: scenario.capacity_of(rid) for rid in scenario.route_ids()}
    heads = {r.route_id: objective.unit_head(r) for r in scenario.routes}

    def push(units):
        key = tuple(sorted((rid, n) for rid, n in units.items() if n))
        if key not in seen and sum(n < caps[rid] for rid, n in key) <= 1:
            seen.add(key)
            with exactly("a response's head"):
                heappush(queue, (sum((heads[rid] * n for rid, n in key), ZERO), key))

    queue, seen = [], set()
    push(first)
    while queue:
        units = dict(heappop(queue)[1])
        yield units
        for a, cap in caps.items():
            for b, n in units.items():
                step = min(cap - units.get(a, 0), n)
                if a != b and step > 0:
                    push({**units, a: units.get(a, 0) + step, b: n - step})


def exact_leader(scenario: Scenario, objective, budget,
                 mode: str = COMBINED) -> BilevelOutcome:
    """The leader's best decision in `rank` order, less the subsidies no
    unit draws.

    Most-profitable gets the zero policy. Where `value_bound`'s allocation
    is the only one of best value (no two routes of the fill's marginal
    `Objective.unit_head` can trade units), its `_least_response` is priced
    first, in closed form on pure-linear scenarios: at a `rank` key of (0,
    bound head, ...), before which no policy ranks, it is the answer. Else
    `best_policy` ranks `domain_informed_points`, with that evaluated policy
    in its equal candidate's place (or last), and on capped and fixed-cost
    scenarios the least policies of a walk over the follower's vertex
    responses from that allocation, so the answer is exact over vertex
    responses: no policy within funds that induces one ranks first.
    """
    objective = Objective(objective)
    budget = to_decimal(budget, "budget")
    if mode not in MODES:
        raise ValidationError([f"unknown mode: {mode!r}"])
    bound = value_bound(scenario, objective)
    found, walk = None, ()
    if bound is not None:  # None for most-profitable, or a sum that would round
        least, units = objective.head(bound[0]), bound[1].units
        # pure-linear: the candidates answer, with no walk (it could move them)
        walk = () if scenario.is_pure_linear() else _vertex_responses(scenario, objective, units)
        heads = {r.route_id: objective.unit_head(r) for r in scenario.routes}
        top = max(map(heads.get, units), default=None)  # the head at the fill's margin
        margin = [rid for rid in heads if heads[rid] == top]
        if not any(units.get(a) and units.get(b, 0) < scenario.capacity_of(b)
                   for a in margin for b in margin if a != b):
            found = _least_response(scenario, objective, budget, mode,
                                    next(walk) if walk else units)
            if found is not None and rank(objective, budget, *found[0][:3])[:2] == (ZERO, least):
                return _outcome(objective, budget, mode, found[0], found[1] + 1)
    policies = ([PolicyVector.zero()] if objective == Objective.MOST_PROFITABLE
                else domain_informed_points(scenario, budget, mode))
    if found is not None:  # evaluated, in its equal candidate's place, so ties break by index
        policy, *evaluated = found[0]
        if policy in policies:
            index = policies.index(policy)
            policies[index] = (policies[index], *evaluated)
        else:
            policies.append(found[0])
    winner = best_policy(scenario, objective, budget, policies, mode, walk)
    return _outcome(objective, budget, mode, winner, len(policies))


def _outcome(objective, budget, mode, winner, evaluations) -> BilevelOutcome:
    policy, value, result, feasible = winner
    # dropping a subsidy no unit draws only makes other allocations dearer:
    # the follower keeps the pick, with the same totals, and rank prefers it
    drawn = {rid: rate for rid, rate in policy.subsidy_rates.items()
             if result.allocation.units_for(rid)}
    return BilevelOutcome(policy=PolicyVector(tax_rate=policy.tax_rate, subsidy_rates=drawn),
                          response=result, upper_value=value, feasible=feasible,
                          evaluations=evaluations, objective=objective,
                          mode=mode, budget=budget)


def optimize(scenario: Scenario, objective, budget, params: PsoParams = None,
             mode: str = COMBINED) -> BilevelOutcome:
    """`exact_leader`. params is accepted for the swarm this once ran;
    nothing reads it."""
    return exact_leader(scenario, objective, budget, mode)
