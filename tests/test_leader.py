"""The exact leader for pure-linear scenarios: regression instances, its
place in `optimize`, a differential test against the grid and the capped path,
and the bound and follower floor that let `best_policy` skip floors and
evaluations."""

from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from ecolever import (
    GridAxis,
    Objective,
    PsoParams,
    ResourceBoundError,
    RouteSpec,
    Scenario,
    ValidationError,
    evaluate_policy,
    grid_bilevel,
    optimize,
)
from ecolever import engine
from ecolever.analysis import STRAP_ROUTE, budget_sweep, closed_form_optimize
from ecolever.engine import COMBINED, MODES, SUBSIDY_ONLY, TAX_ONLY, rank
from ecolever.lower import leader_floor


def _route(rid, cost, emissions, circ="1", subsidizable=True):
    return RouteSpec(route_id=rid, product_id="p", technology_id=f"tech_{rid}",
                     unit_cost=Decimal(cost), unit_emissions=Decimal(emissions),
                     unit_circularity=Decimal(circ), subsidizable=subsidizable)


def _key(outcome):
    return rank(outcome.objective, outcome.budget, outcome.policy, outcome.upper_value,
                outcome.response)


def _shortfall(outcome):
    r = outcome.response
    return r.subsidy_outlay - outcome.budget - r.tax_payment


def test_a_third_route_undercutting_the_target_is_priced_in():
    # the pre-policy cheapest route (r3) is not the one the target r1 must
    # beat under tax: r2 is, and the old corners stopped at 15 kg
    scenario = Scenario(demand=1000, routes=(
        _route("r0", "0.051", "0.058"), _route("r1", "0.098", "0.009"),
        _route("r2", "0.063", "0.015"), _route("r3", "0.034", "0.076"),
    ))
    for out in (closed_form_optimize(scenario, Objective.MIN_GHG, -6),
                optimize(scenario, Objective.MIN_GHG, -6)):
        assert out.feasible
        assert out.upper_value == Decimal("9.000")
        assert out.response.allocation.units == {"r1": 1000}
        assert out.policy.tax_rate == Decimal("2.733333333334")
        assert out.policy.subsidy_rates == {"r1": Decimal("0.018599999999996")}


def test_tax_only_revenue_comes_from_the_strap_route(case):
    # strap's tax income covers the 60 at a tax far below landfill's window
    out = closed_form_optimize(case, Objective.MAX_CIRCULARITY, -60, mode=TAX_ONLY)
    assert out.feasible
    assert out.upper_value == Decimal("1.275")
    assert out.response.allocation.units == {STRAP_ROUTE: 1000}
    assert out.policy.tax_rate == Decimal("0.933997509340")
    assert not out.policy.subsidy_rates


@pytest.mark.parametrize("mode", [COMBINED, TAX_ONLY])
def test_least_shortfall_stays_strictly_inside_the_window(mode):
    # r2 pays too little anywhere; at tax 0.5 it ties with the zero-emission
    # r0, and the follower then hands the leader r0 with no tax income
    scenario = Scenario(demand=2, routes=(
        _route("r0", "0.037", "0", "1.27"), _route("r1", "0.105", "0.046", "1.34"),
        _route("r2", "0.03", "0.014", "1.21"),
    ))
    out = closed_form_optimize(scenario, Objective.MIN_GHG, Decimal("-0.06"), mode=mode)
    assert not out.feasible
    assert out.response.allocation.units == {"r2": 2}
    assert out.policy.tax_rate == Decimal("0.499999999999")
    assert _shortfall(out) == Decimal("0.046000000000028")


def test_least_shortfall_below_a_capped_level():
    # the zero-emission r1 caps the level at 0.056; subsidized to it, the
    # cheapest route r0 ties with r1, which the follower then hands the
    # leader, so r0 is taken one grid step below it
    scenario = Scenario(demand=3, routes=(
        _route("r0", "0.033", "0.061"), _route("r1", "0.056", "0"),
        _route("r2", "0.041", "0.028", subsidizable=False),
    ))
    out = closed_form_optimize(scenario, Objective.MIN_GHG, -4)
    assert out.response.allocation.units == {"r0": 3}
    assert _shortfall(out) == Decimal("3.931000000001155")  # grid found 3.934


def test_capped_level_mix_goes_to_the_selector():
    # subsidy-only at budget 1: all on the more circular r1 needs an outlay
    # of 10 * 0.2 = 2, so the best whole-unit mix within funds takes 5 units
    scenario = Scenario(demand=10, routes=(
        _route("r0", "0.0", "0.1", "1.0"), _route("r1", "0.2", "0.1", "1.5"),
    ))
    out = closed_form_optimize(scenario, Objective.MAX_CIRCULARITY, 1, mode=SUBSIDY_ONLY)
    assert out.feasible
    assert out.response.allocation.units == {"r0": 5, "r1": 5}
    assert out.policy.subsidy_rates == {"r1": Decimal("0.2")}


@pytest.mark.parametrize("objective", list(Objective))
def test_optimize_on_a_pure_linear_scenario_runs_no_swarm(case, no_search, objective):
    # most-profitable evaluates the zero policy; both other objectives are
    # certified at budget 0 by the closed-form least policy, evaluated once
    out = optimize(case, objective, 0)
    closed = closed_form_optimize(case, objective, 0)
    assert (out.policy, out.response, out.upper_value) == (
        closed.policy, closed.response, closed.upper_value)
    assert out.evaluations == closed.evaluations == 1


_ROUTE = st.tuples(st.integers(-30, 120),                   # unit cost, 1e-3 $
                   st.integers(-10, 100).map(lambda e: max(e, 0)),  # emissions, 1e-3 kg; ~10% zero
                   st.integers(0, 200),                     # circularity, 1e-2
                   st.integers(0, 6).map(bool))             # subsidizable, ~86%
_ROUTES = st.lists(_ROUTE, min_size=2, max_size=4)


def _catalog(routes):
    return tuple(
        RouteSpec(route_id=f"r{i}", product_id="p", technology_id=f"t{i}",
                  unit_cost=Decimal(c) / 1000, unit_emissions=Decimal(e) / 1000,
                  unit_circularity=Decimal(ci) / 100, subsidizable=sub)
        for i, (c, e, ci, sub) in enumerate(routes))


@settings(max_examples=max(60, settings.default.max_examples), deadline=None)
@given(routes=_ROUTES, demand=st.one_of(st.integers(1, 12), st.integers(1, 1000)),
       per_unit=st.integers(-80, 60), mode=st.sampled_from(MODES),
       objective=st.sampled_from([Objective.MIN_GHG, Objective.MAX_CIRCULARITY]))
def test_exact_leader_never_ranks_after_the_grid_or_the_swarm(routes, demand, per_unit,
                                                              mode, objective):
    catalog = _catalog(routes)
    scenario = Scenario(demand=demand, routes=catalog)
    budget = Decimal(per_unit) * demand / 1000
    exact = optimize(scenario, objective, budget, mode=mode)
    best = _key(exact)
    # the reported policy, its undrawn subsidies dropped, induces the response
    assert evaluate_policy(scenario, exact.policy, objective, budget)[1] == exact.response

    subsidized = [] if mode == TAX_ONLY else list(scenario.subsidizable_ids())[:2]
    tax_hi = Decimal(0) if mode == SUBSIDY_ONLY else Decimal(5)
    policy, value, result, _ = grid_bilevel(
        scenario, objective, budget, GridAxis(lo=0, hi=tax_hi, steps=21),
        {rid: GridAxis(lo=0, hi=Decimal("0.12"), steps=7) for rid in subsidized})
    assert best <= rank(objective, budget, policy, value, result)

    # capacities of all demand bind nothing but send optimize to the search
    # over vertex responses
    capped = Scenario(demand=demand, routes=catalog,
                      capacity_limits={r.route_id: demand for r in catalog})
    searched = optimize(capped, objective, budget, mode=mode,
                        params=PsoParams(swarm_size=6, iterations=15, restarts=1))
    value, result, _ = evaluate_policy(scenario, searched.policy, objective, budget)
    assert result == searched.response
    assert best <= rank(objective, budget, searched.policy, value, result)


def _evaluate_all(scenario, objective, budget, policies):
    """The exhaustive leader: evaluate every policy, keep the first lowest."""
    best_key = None
    for policy in policies:
        value, result, _ = evaluate_policy(scenario, policy, objective, budget)
        key = rank(objective, budget, policy, value, result)
        if best_key is None or key < best_key:
            best_key, best = key, (policy, value, result)
    return (*best, best_key[0] == 0)


@settings(max_examples=max(80, settings.default.max_examples), deadline=None)
@given(routes=st.lists(_ROUTE, min_size=2, max_size=6),
       demand=st.integers(0, 40), per_unit=st.integers(-80, 60),
       mode=st.sampled_from(MODES), objective=st.sampled_from(list(Objective)),
       kind=st.sampled_from(["pure-linear", "capped", "fixed-cost"]), data=st.data())
def test_best_policy_returns_what_evaluating_every_policy_returns(routes, demand, per_unit,
                                                                 mode, objective, kind, data):
    # on capped and fixed-cost catalogs leader_floor answers None, so the
    # bound key is all that spares an evaluation there
    limits, fees = {}, {}
    if kind != "pure-linear":  # r0 stays uncapped, so the capacities cover demand
        limits = {f"r{i}": data.draw(st.integers(0, demand)) for i in range(1, len(routes))}
    if kind == "fixed-cost":
        fees = {f"t{i}": Decimal(data.draw(st.integers(0, 60))) / 100
                for i in range(len(routes)) if data.draw(st.booleans())}
    scenario = Scenario(demand=demand, routes=_catalog(routes), capacity_limits=limits,
                        technology_fixed_costs=fees)
    budget = Decimal(per_unit) * demand / 1000
    policies = list(engine.domain_informed_points(scenario, budget, mode))
    subsidizable = scenario.subsidizable_ids()
    taxes = st.integers(0, 40).map(lambda t: Decimal(t) / 8)
    for _ in range(data.draw(st.integers(0, 6))):
        kind = data.draw(st.sampled_from(["random", "duplicate", "same key", "tie"]))
        tax = data.draw(taxes)
        if kind == "random":
            rates = {rid: Decimal(data.draw(st.integers(0, 120))) / 1000
                     for rid in data.draw(st.lists(st.sampled_from(subsidizable),
                                                   max_size=3, unique=True))
                     } if subsidizable else {}
            extra = engine.PolicyVector(tax_rate=tax, subsidy_rates=rates)
        elif kind == "duplicate":  # an equal policy, at another index
            seen = data.draw(st.sampled_from(policies))
            extra = engine.PolicyVector(tax_rate=seen.tax_rate,
                                        subsidy_rates=dict(seen.subsidy_rates))
        elif kind == "same key" and len(subsidizable) > 1:
            # one rate on two routes: same tax, same total rate, and the same
            # key whenever neither subsidy moves the follower
            rate = Decimal(data.draw(st.integers(1, 120))) / 1000
            a, b = data.draw(st.lists(st.sampled_from(subsidizable), min_size=2,
                                      max_size=2, unique=True))
            policies.insert(data.draw(st.integers(0, len(policies))),
                            engine.PolicyVector(tax_rate=tax, subsidy_rates={a: rate}))
            extra = engine.PolicyVector(tax_rate=tax, subsidy_rates={b: rate})
        else:  # one route subsidized down to the least net price: a price tie
            rid = data.draw(st.sampled_from(subsidizable)) if subsidizable else None
            nets = {r.route_id: r.unit_cost + tax * r.unit_emissions for r in scenario.routes}
            extra = engine.PolicyVector(tax_rate=tax, subsidy_rates={} if rid is None else {
                rid: nets[rid] - min(nets.values())})
        policies.insert(data.draw(st.integers(0, len(policies))), extra)

    got = engine.best_policy(scenario, objective, budget, policies)
    want = _evaluate_all(scenario, objective, budget, policies)
    assert got == want
    assert got[0] is want[0]  # the first of equal keys, not an equal copy


def test_the_floor_spares_most_evaluations_on_the_case(case, monkeypatch):
    # the certificate answers these points before any candidate is
    # generated, so the queue is called on the candidates directly
    calls = []
    evaluate = engine.evaluate_policy
    monkeypatch.setattr(engine, "evaluate_policy",
                        lambda *args: calls.append(args[1]) or evaluate(*args))
    for objective in (Objective.MIN_GHG, Objective.MAX_CIRCULARITY):
        for budget in (-60, 0, 30):
            calls.clear()
            candidates = engine.domain_informed_points(case, budget)
            got = engine.best_policy(case, objective, budget, candidates)
            assert 1 <= len(calls) < len(candidates)
            assert got == _evaluate_all(case, objective, Decimal(budget), candidates)
            out = closed_form_optimize(case, objective, budget)
            assert (out.upper_value, out.response, out.feasible) == got[1:]


def test_an_untaxed_policy_starts_at_its_least_shortfall(case, monkeypatch):
    # with no tax there is no tax income, so below budget 0 every
    # subsidy-only candidate falls short by at least -budget before its
    # evaluation; that key puts the candidates the funds can carry first
    calls = []
    evaluate = engine.evaluate_policy
    monkeypatch.setattr(engine, "evaluate_policy",
                        lambda *args: calls.append(args[1]) or evaluate(*args))
    budgets = range(-170, 171, 5)
    for objective, evaluated in ((Objective.MIN_GHG, 292), (Objective.MAX_CIRCULARITY, 200)):
        calls.clear()
        candidates = 0
        for budget in budgets:
            out = closed_form_optimize(case, objective, budget, mode=SUBSIDY_ONLY)
            policies = engine.domain_informed_points(case, budget, SUBSIDY_ONLY)
            candidates += len(policies)
            _, value, result, feasible = _evaluate_all(case, objective, Decimal(budget), policies)
            assert (out.upper_value, out.response, out.feasible) == (value, result, feasible)
        assert candidates == 884 and len(calls) == evaluated


def test_the_bound_spares_most_floors_on_the_case(case, monkeypatch):
    floors = []
    floor = engine.leader_floor
    monkeypatch.setattr(engine, "leader_floor",
                        lambda *args: floors.append(args[1]) or floor(*args))
    for objective in (Objective.MIN_GHG, Objective.MAX_CIRCULARITY):
        for budget in (-60, 0, 30):
            floors.clear()
            candidates = engine.domain_informed_points(case, budget)
            got = engine.best_policy(case, objective, budget, candidates)
            assert 1 <= len(floors) < len(candidates)
            assert got == _evaluate_all(case, objective, Decimal(budget), candidates)


def test_the_value_bound_stops_the_capped_search_at_its_winner(pso_capped, monkeypatch):
    # leader_floor is None on capped scenarios: value_bound's head, capacities
    # included, is the bound key, and a winner that reaches it ends the search;
    # with no least policy found, the candidates are all the exact leader ranks
    monkeypatch.setattr(engine, "least_policy", lambda *args: None)
    calls = []
    evaluate = engine.evaluate_policy
    monkeypatch.setattr(engine, "evaluate_policy",
                        lambda *args: calls.append(args[1]) or evaluate(*args))
    for objective in (Objective.MAX_CIRCULARITY, Objective.MIN_GHG):
        for budget in (-60, 0, 30, 100):
            calls.clear()
            out = closed_form_optimize(pso_capped, objective, budget)
            candidates = engine.domain_informed_points(pso_capped, budget)
            if objective is Objective.MAX_CIRCULARITY:  # the winner reaches the bound, 1.336
                assert len(calls) < len(candidates)
            else:  # 55.7 lies above the bound, 52.868: every candidate is evaluated but
                # the untaxed ones below budget 0, which fall short by at least -budget
                untaxed = [p for p in candidates if not p.tax_rate] if budget < 0 else []
                assert out.feasible and len(calls) == len(candidates) - len(untaxed)
            _, value, result, feasible = _evaluate_all(pso_capped, objective, Decimal(budget),
                                                       candidates)
            assert (out.upper_value, out.response, out.feasible) == (value, result, feasible)


def test_leader_floor_on_the_case(case, capped_case):
    zero = engine.PolicyVector()  # the strap route alone is cheapest
    assert leader_floor(case, zero, Objective.MIN_GHG) == Decimal("64.24000")
    assert leader_floor(case, zero, Objective.MAX_CIRCULARITY) == Decimal("-1.275")
    assert leader_floor(case, zero, Objective.MOST_PROFITABLE) is None
    assert leader_floor(capped_case, zero, Objective.MIN_GHG) is None
    idle = Scenario(demand=0, routes=case.routes)
    assert leader_floor(idle, zero, Objective.MAX_CIRCULARITY) == 0


@pytest.mark.parametrize("rates", [{"no_such_route": Decimal("0.01")},
                                   {"r1": Decimal("0.01")}],
                         ids=["unknown-route", "not-subsidizable"])
def test_an_invalid_initial_point_is_refused_where_its_floor_would_skip_it(rates):
    scenario = Scenario(demand=10, routes=(
        _route("r0", "0.05", "0.02"), _route("r1", "0.03", "0.05", subsidizable=False)))
    invalid = engine.PolicyVector(tax_rate=Decimal(9), subsidy_rates=rates)
    # ranked by its floor, the point comes after the exact leader's pick
    floor = leader_floor(scenario, invalid, Objective.MIN_GHG)
    winner = optimize(scenario, Objective.MIN_GHG, 0)
    assert _key(winner) < (0, floor, invalid.tax_rate, invalid.total_rates())
    candidates = engine.domain_informed_points(scenario, 0)
    assert winner.policy in candidates
    with pytest.raises(ValidationError):
        engine.best_policy(scenario, Objective.MIN_GHG, 0, [*candidates, invalid])


def test_a_floor_that_would_round_prunes_nothing():
    # on route a, 2 units emit 1.9999999999999999999999999998 kg: 29 digits
    scenario = Scenario(demand=2, routes=(
        _route("a", "0", "0." + "9" * 28), _route("b", "0.5", "0")))
    zero, taxed = engine.PolicyVector(), engine.PolicyVector(tax_rate=Decimal(1))
    assert leader_floor(scenario, zero, Objective.MIN_GHG) is None
    assert leader_floor(scenario, taxed, Objective.MIN_GHG) == 0
    # pricing the zero policy's response refuses to round; a rounded floor
    # of 2 would have put the zero policy behind `taxed` and skipped it
    for policies in ([taxed, zero], [zero, taxed]):
        with pytest.raises(ResourceBoundError):
            _evaluate_all(scenario, Objective.MIN_GHG, 0, policies)
        with pytest.raises(ResourceBoundError):
            engine.best_policy(scenario, Objective.MIN_GHG, 0, policies)


@pytest.mark.parametrize("objective", [Objective.MIN_GHG, Objective.MAX_CIRCULARITY])
def test_a_candidate_tax_past_the_rate_grid_is_a_resource_bound(objective):
    # r1 takes a tax of 4e16 to become cheapest at budget 0: 29 digits on the
    # 1e-12 grid. At min-GHG the bound is r0 alone, cheapest with no policy,
    # so the certificate answers budget 0 before any candidate is generated;
    # at budget -1, r0 would need a tax of 1e17 to pay for itself
    scenario = Scenario(demand=10, routes=(_route("r0", "0.01", "1e-18"),
                                           _route("r1", "0.05", "0.1", "1.5")))
    refused = [Decimal(-1)] if objective is Objective.MIN_GHG else [Decimal(-1), Decimal(0)]
    for leader in (optimize, closed_form_optimize):
        if objective is Objective.MIN_GHG:
            out = leader(scenario, objective, 0)
            assert out.policy == engine.PolicyVector.zero() and out.evaluations == 1
            assert out.feasible and out.response.allocation.units == {"r0": 10}
        for budget in refused:
            with pytest.raises(ResourceBoundError, match="28 digits on the 1e-12 grid"):
                leader(scenario, objective, budget)
    for engine_name in ("closed-form", "pso"):
        with pytest.warns(UserWarning, match="28 digits on the 1e-12 grid") as caught:
            rows = budget_sweep(scenario, objective, [Decimal(-1), Decimal(0), Decimal(5)],
                                engine=engine_name)
        assert [str(w.message).split(":")[0] for w in caught] == [f"budget {b}" for b in refused]
        assert [row.budget for row in rows] == [b for b in (0, 5) if b not in refused]


def test_an_earlier_equal_key_wins_though_its_floor_is_higher():
    # p ties a and b, but the funds keep every unit off the subsidized a, so
    # p's floor (all on a) is below its key; q puts the same rate on c and
    # reaches p's key exactly, from the earlier index
    scenario = Scenario(demand=10, routes=(
        _route("a", "0.10", "0.01"), _route("b", "0.05", "0.02"), _route("c", "0.20", "0.03")))
    q = engine.PolicyVector(subsidy_rates={"c": Decimal("0.05")})
    p = engine.PolicyVector(subsidy_rates={"a": Decimal("0.05")})
    assert (leader_floor(scenario, p, Objective.MIN_GHG)
            < leader_floor(scenario, q, Objective.MIN_GHG))
    got = engine.best_policy(scenario, Objective.MIN_GHG, 0, [q, p])
    assert got == _evaluate_all(scenario, Objective.MIN_GHG, 0, [q, p])
    assert got[0] is q and got[2].allocation.units == {"b": 10}
