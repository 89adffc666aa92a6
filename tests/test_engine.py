import hashlib
import itertools
import operator
import random
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_catalog
from ecolever import (
    COMBINED,
    Objective,
    PolicyVector,
    PsoParams,
    ResourceBoundError,
    RouteSpec,
    SUBSIDY_ONLY,
    Scenario,
    TAX_ONLY,
    ValidationError,
    evaluate_policy,
    optimize,
)
from ecolever import engine
from ecolever.analysis import closed_form_optimize
from ecolever.engine import (
    best_policy,
    domain_informed_points,
    exact_leader,
    value_bound,
)
from ecolever.model import (Allocation, apply_modifiers, price_allocation, to_integers,
                            validate_allocation)
from ecolever.oracle import GridAxis, _compositions, grid_bilevel


def _route(rid, cost, emissions, circ):
    return RouteSpec(route_id=rid, product_id="p", technology_id=f"tech_{rid}",
                     unit_cost=Decimal(cost), unit_emissions=Decimal(emissions),
                     unit_circularity=Decimal(circ))


@pytest.fixture
def pair():
    return Scenario(demand=100, routes=(
        _route("base", "0.01", "0.10", "1.0"),
        _route("clean", "0.05", "0.02", "1.5"),
    ))


@pytest.fixture
def no_least_policy(monkeypatch):
    """No least policy is found, so neither the certificate nor the search
    over vertex responses adds a policy to the exact leader's candidates."""
    monkeypatch.setattr(engine, "least_policy", lambda *args: None)


def test_evaluate_policy_feasible_and_infeasible(pair):
    # full-switch subsidy with no funding is flagged, its value left natural
    policy = PolicyVector(subsidy_rates={"clean": Decimal("0.05")})
    value, result, feasible = evaluate_policy(pair, policy, Objective.MIN_GHG, 0)
    assert not feasible
    assert result.allocation.units == {"clean": 100}
    assert value == result.total_emissions
    # the same policy with full funding is clean
    value2, result2, feasible2 = evaluate_policy(pair, policy, Objective.MIN_GHG, 5)
    assert feasible2 and value2 == result2.total_emissions == Decimal("2.00")


def test_evaluate_policy_penalty_direction_for_maximization(pair):
    policy = PolicyVector(subsidy_rates={"clean": Decimal("0.05")})
    value, result, feasible = evaluate_policy(pair, policy, Objective.MAX_CIRCULARITY, 0)
    assert not feasible
    assert value == result.circularity_index


def test_evaluate_policy_funds_balance_is_exact(pair):
    # tax 0.4 on clean's 2 kg brings in 0.8; a subsidy 1e-11 over 0.008
    # pays out 0.800000001, so funds fall 1e-9 short
    policy = PolicyVector(tax_rate=Decimal("0.4"),
                          subsidy_rates={"clean": Decimal("0.00800000001")})
    value, result, feasible = evaluate_policy(pair, policy, Objective.MIN_GHG, 0)
    assert result.allocation.units == {"clean": 100}
    assert result.subsidy_outlay - result.tax_payment == Decimal("1e-9")
    assert not feasible
    assert value == Decimal("2.00")


def test_evaluate_policy_rejects_float_budget(pair):
    with pytest.raises(ValidationError):
        evaluate_policy(pair, PolicyVector.zero(), Objective.MIN_GHG, 0.5)


def test_domain_informed_points_cover_expected_corners(pair):
    points = domain_informed_points(pair, Decimal(0), COMBINED)
    assert points[0] == PolicyVector.zero()
    # full adoption of clean: the least tax lifting the level
    # min(0.01 + 0.10 t, 0.05 + 0.02 t) to clean's cost 0.05 is t = 0.4, and
    # s = 0.058 - 0.05 = 0.008 brings clean down to it
    corner = PolicyVector(tax_rate=Decimal("0.4"), subsidy_rates={"clean": Decimal("0.008")})
    assert corner in points
    # the pure-subsidy gap candidate pays for itself from budget
    # N * dc = 100 * 0.04 = 4 on, where the level need not rise at all
    gap = PolicyVector(subsidy_rates={"clean": Decimal("0.04")})
    assert gap not in points
    assert gap in domain_informed_points(pair, Decimal(4), COMBINED)


def test_domain_informed_points_tax_only_mode(pair):
    points = domain_informed_points(pair, Decimal(0), TAX_ONLY)
    assert all(not p.subsidy_rates for p in points)
    # threshold tax dc/de = 0.04/0.08 = 0.5
    assert any(p.tax_rate == Decimal("0.5") for p in points)


def _strings(points):
    return [(str(p.tax_rate), {rid: str(r) for rid, r in p.subsidy_rates.items()})
            for p in points]


@pytest.mark.parametrize("first, second, rate", [
    ("0.05", "0.050", "0.00600000000000"),
    ("0.050", "0.05", "0.006000000000000"),
])
def test_the_first_of_equal_lines_sets_the_rate_exponent(first, second, rate):
    # a and b are the same line; the level at t = 0.6 is the first one's value,
    # and outcome.json prints the rate with that exponent
    scenario = Scenario(demand=10, routes=(
        _route("a", first, first, "1"), _route("b", second, second, "1"),
        _route("c", "0.08", "0.01", "1")))
    assert _strings(domain_informed_points(scenario, 0)) == [
        ("0", {}), ("0.600000000000", {"c": rate})]


def test_a_zero_emission_route_caps_the_level_in_every_mode():
    scenario = Scenario(demand=10, routes=(
        _route("a", "0.01", "0.1", "1"),
        replace(_route("b", "0.06", "0", "1"), subsidizable=False),
        _route("c", "0.04", "0.02", "1")))
    expected = {
        COMBINED: [("0", {}), ("1.000000000000", {}), ("0E-12", {"c": "0.03000000000000"}),
                   ("1.000000000000", {"a": "0.0500000000000"})],
        TAX_ONLY: [("0", {}), ("0.375000000000", {}), ("1.000000000000", {})],
        SUBSIDY_ONLY: [("0", {}), ("0E-12", {"c": "0.03000000000000"})],
    }
    for mode, points in expected.items():
        assert _strings(domain_informed_points(scenario, Decimal("2.5"), mode)) == points
    assert _strings(domain_informed_points(replace(scenario, demand=0), 40)) == [("0", {})]


def test_pso_params_refuse_negative_seeds():
    assert PsoParams(seed=0).seed == 0
    with pytest.raises(ValidationError, match="seed"):
        PsoParams(seed=-1)  # random.Random(-1) would replay seed 1


def test_pso_params_validation():
    with pytest.raises(ValidationError):
        PsoParams(swarm_size=0)
    with pytest.raises(ValidationError, match="iterations must be >= 0"):
        PsoParams(iterations=-1)
    with pytest.raises(ValidationError, match="restarts must be >= 1"):
        PsoParams(restarts=0)
    for bad in (float("nan"), float("inf"), float("-inf"), -1.0, 1e20):
        with pytest.raises(ValidationError, match="tax_max"):
            PsoParams(tax_max=bad)


def test_optimize_finds_the_budget_balanced_corner(pair):
    params = PsoParams(swarm_size=8, iterations=25, restarts=2, seed=0)
    out = optimize(pair, Objective.MIN_GHG, 0, params=params)
    assert out.feasible
    assert out.upper_value == Decimal("2.00")
    assert out.policy.tax_rate == Decimal("0.4")
    assert out.policy.subsidy_for("clean") == Decimal("0.008")
    assert out.response.allocation.units == {"clean": 100}


def _with_candidate(monkeypatch, extra):
    """Make `optimize` and `exact_leader` rank `extra` after their own
    candidates; returns the list of budgets they asked for candidates at."""
    own, asked = domain_informed_points, []

    def candidates(scenario, budget, mode=COMBINED):
        asked.append(budget)
        return [*own(scenario, budget, mode), extra]

    monkeypatch.setattr(engine, "domain_informed_points", candidates)
    return asked


def test_optimize_lexicographic_tie_break_prefers_less_intervention(pair):
    # a feasible but higher-tax policy achieving the same emissions, ranked
    # first: the corner must still win on the lexicographic tail (optimize
    # certifies the corner before any candidate is generated)
    heavier = PolicyVector(tax_rate=Decimal("1"))  # past the switch threshold
    candidates = [heavier, *domain_informed_points(pair, 0)]
    policy, value, _, feasible = best_policy(pair, Objective.MIN_GHG, 0, candidates)
    assert feasible and policy.tax_rate == Decimal("0.4")
    assert optimize(pair, Objective.MIN_GHG, 0).policy == policy
    heavy_value, _, heavy_feasible = evaluate_policy(pair, heavier, Objective.MIN_GHG, 0)
    assert heavy_feasible and heavy_value == value


def test_optimize_ranks_like_best_policy_on_a_capped_pair(monkeypatch, no_least_policy):
    # clean's cap does not bind, but it sends the follower down the integer
    # path, where the (tax 0.4, subsidy 0.008) corner ties and goes to base
    capped = Scenario(demand=100, capacity_limits={"clean": 100}, routes=(
        _route("base", "0.01", "0.10", "1.0"),
        _route("clean", "0.05", "0.02", "1.5"),
    ))
    near_miss = PolicyVector(tax_rate=Decimal("0.4"),
                             subsidy_rates={"clean": Decimal("0.008000015")})
    asked = _with_candidate(monkeypatch, near_miss)
    out = optimize(capped, Objective.MIN_GHG, 0)
    assert asked == [0]
    candidates = domain_informed_points(capped, Decimal(0), COMBINED) + [near_miss]
    policy, value, result, feasible = best_policy(capped, Objective.MIN_GHG, 0, candidates)
    assert feasible and out.feasible
    assert (out.policy, out.upper_value, out.response) == (policy, value, result)
    assert out.policy != near_miss


@pytest.mark.parametrize("objective", [Objective.MIN_GHG, Objective.MAX_CIRCULARITY])
def test_optimize_lands_on_the_closed_form_corner(case, objective):
    # swarm settings are accepted and change nothing
    params = PsoParams(swarm_size=10, iterations=200, restarts=1, seed=0)
    out = optimize(case, objective, 0, params=params)
    closed = closed_form_optimize(case, objective, 0)
    assert out.feasible and closed.feasible
    assert out.policy == closed.policy
    assert out.upper_value == closed.upper_value


def test_optimize_most_profitable_shortcut(pair):
    out = optimize(pair, Objective.MOST_PROFITABLE, 0)
    assert out.policy == PolicyVector.zero()
    assert out.evaluations == 1
    assert out.response.allocation.units == {"base": 100}


def test_optimize_reports_natural_direction_for_maximization(pair):
    params = PsoParams(swarm_size=6, iterations=15, restarts=1, seed=4)
    out = optimize(pair, Objective.MAX_CIRCULARITY, Decimal(5), params=params)
    # the circularity index itself, not its minimization head
    assert out.upper_value == out.response.circularity_index > 0


def test_optimize_infeasible_budget_is_flagged(pair):
    # subsidy-only mode with a hard negative budget can never self-finance
    out = optimize(pair, Objective.MIN_GHG, Decimal(-5), mode=SUBSIDY_ONLY,
                   params=PsoParams(swarm_size=4, iterations=5, restarts=1))
    assert not out.feasible


def test_optimize_same_seed_same_answer(pair):
    params = PsoParams(swarm_size=8, iterations=20, restarts=2, seed=11)
    a = optimize(pair, Objective.MIN_GHG, Decimal(2), params=params)
    b = optimize(pair, Objective.MIN_GHG, Decimal(2), params=params)
    assert a == b


@pytest.fixture
def capped_pair(pair):
    # capacities of all demand bind nothing but send optimize down the capped path
    return Scenario(demand=pair.demand, routes=pair.routes,
                    capacity_limits={r.route_id: pair.demand for r in pair.routes})


@pytest.mark.parametrize("objective", [Objective.MIN_GHG, Objective.MAX_CIRCULARITY])
def test_swarm_lands_on_the_closed_form_corner(case, objective):
    # capacities of all demand bind nothing but send optimize, whatever its
    # swarm settings, down the capped path: the search over vertex responses
    # finds no policy past the pure-linear corner
    capped = Scenario(demand=case.demand, routes=case.routes, modifiers=case.modifiers,
                      capacity_limits={rid: case.demand for rid in case.route_ids()})
    params = PsoParams(swarm_size=10, iterations=200, restarts=1, seed=0)
    out = optimize(capped, objective, 0, params=params)
    closed = closed_form_optimize(case, objective, 0)
    assert out.feasible and closed.feasible
    assert out.policy == closed.policy
    assert out.upper_value == closed.upper_value


def test_swarm_infeasible_budget_is_flagged(capped_pair):
    # subsidy-only mode with a hard negative budget can never self-finance,
    # so the search tries every vertex response and funds none
    params = PsoParams(swarm_size=4, iterations=5, restarts=1)
    out = optimize(capped_pair, Objective.MIN_GHG, Decimal(-5), mode=SUBSIDY_ONLY,
                   params=params)
    assert not out.feasible


@pytest.mark.parametrize("entry", [
    lambda pair: engine.least_policy(pair, {"base": 100}, 0, "tax_only"),
    lambda pair: domain_informed_points(pair, 0, "tax_only"),
    lambda pair: exact_leader(pair, Objective.MIN_GHG, 0, "tax_only"),
], ids=["least_policy", "domain_informed_points", "exact_leader"])
def test_an_unknown_mode_is_refused(pair, entry):
    with pytest.raises(ValidationError, match="unknown mode: 'tax_only'"):
        entry(pair)


def test_value_bound_on_the_capped_case(pso_capped, case):
    value, allocation = value_bound(pso_capped, Objective.MIN_GHG)
    assert value == Decimal("52.868")
    assert allocation.units == {"multilayer_landfill": 400, "glass_wash_reuse": 400,
                                "multilayer_strap_recycling": 200}
    value, allocation = value_bound(pso_capped, Objective.MAX_CIRCULARITY)
    assert value == Decimal("1.336")
    assert allocation.units == {"glass_wash_reuse": 400, "multilayer_strap_recycling": 400,
                                "multilayer_landfill": 200}
    assert value_bound(pso_capped, Objective.MOST_PROFITABLE) is None
    # uncapped, every unit goes to the cleanest route
    assert value_bound(case, Objective.MIN_GHG) == (Decimal("49.97"),
                                                    Allocation({"multilayer_landfill": 1000}))


def test_value_bound_is_kept_with_its_scenario(case):
    for objective in Objective:
        assert value_bound(case, objective) is value_bound(case, objective)
    assert value_bound(case, Objective.MOST_PROFITABLE) is None
    # a scenario made by dataclasses.replace builds its own bound
    moved = apply_modifiers(case, 7, case.modifiers.glass_loss_fraction)
    assert value_bound(moved, Objective.MIN_GHG)[0] == Decimal("49.8248")
    assert value_bound(case, Objective.MIN_GHG)[0] == Decimal("49.97")


def test_value_bound_refuses_a_sum_that_would_round():
    # 3 units at 0.7000000000000000000000000001 kg need 29 digits, one more
    # than the context holds
    scenario = Scenario(demand=3, routes=(_route("a", "0.1", "0.7000000000000000000000000001", "1"),))
    assert value_bound(scenario, Objective.MIN_GHG) is None


@st.composite
def _bound_catalogs(draw):
    # 1-4 routes on two technologies, demand 0-8; half pure-linear, half with
    # capacities and fees
    routes = tuple(
        RouteSpec(route_id=f"r{i}", product_id="p", technology_id=draw(st.sampled_from("xy")),
                  unit_cost=Decimal(draw(st.integers(-5, 12))) / 10,
                  unit_emissions=Decimal(draw(st.integers(0, 40))) / 100,
                  unit_circularity=Decimal(draw(st.integers(0, 200))) / 100,
                  subsidizable=draw(st.integers(0, 5)) > 0)
        for i in range(draw(st.integers(1, 4))))
    demand = draw(st.integers(0, 8))
    fixed, caps = {}, {}
    if draw(st.booleans()):
        fixed = {tech: Decimal(draw(st.integers(0, 4))) / 4
                 for tech in sorted({r.technology_id for r in routes}) if draw(st.booleans())}
        caps = {r.route_id: cap for r in routes
                if (cap := draw(st.none() | st.integers(0, 6))) is not None}
        assume(len(caps) < len(routes) or sum(caps.values()) >= demand)
    return Scenario(demand=demand, routes=routes, technology_fixed_costs=fixed,
                    capacity_limits=caps)


@settings(max_examples=max(40, settings.default.max_examples), deadline=None)
@given(_bound_catalogs(), st.sampled_from([Objective.MIN_GHG, Objective.MAX_CIRCULARITY]),
       st.integers(-20, 20), st.sampled_from([COMBINED, TAX_ONLY, SUBSIDY_ONLY]))
def test_value_bound_is_the_best_composition_and_no_leader_beats_it(scenario, objective,
                                                                    tenths, mode):
    value, allocation = value_bound(scenario, objective)
    validate_allocation(scenario, allocation)
    zero = PolicyVector.zero()
    assert objective.natural_value(price_allocation(scenario, allocation, zero)) == value
    ids = scenario.route_ids()
    heads = [objective.head(objective.natural_value(
                 price_allocation(scenario, Allocation(dict(zip(ids, combo))), zero)))
             for combo in _compositions(scenario.demand, [scenario.capacity_of(r) for r in ids])]
    assert objective.head(value) == min(heads)

    budget = Decimal(tenths) / 10
    reached = [optimize(scenario, objective, budget, mode=mode,
                        params=PsoParams(swarm_size=4, iterations=6, restarts=1)).upper_value,
               closed_form_optimize(scenario, objective, budget, mode).upper_value,
               grid_bilevel(scenario, objective, budget, GridAxis(lo=0, hi=3, steps=7),
                            {rid: GridAxis(lo=0, hi=Decimal("0.6"), steps=4)
                             for rid in scenario.subsidizable_ids()[:2]})[1]]
    assert all(objective.head(v) >= objective.head(value) for v in reached)


# The least policy of value_bound's allocation: a certificate wherever it
# reaches the bound within funds.

def _key(outcome):
    return engine.rank(outcome.objective, outcome.budget, outcome.policy, outcome.upper_value,
                       outcome.response)


@pytest.mark.parametrize("objective, budget, tax", [
    (Objective.MIN_GHG, -60, "1.731008717311"),
    (Objective.MIN_GHG, 0, "0.797011207971"),
    (Objective.MIN_GHG, 30, "0.330012453301"),
    (Objective.MIN_GHG, 100, "0"),
    (Objective.MAX_CIRCULARITY, -60, "1.120729911276"),
    (Objective.MAX_CIRCULARITY, 0, "0.043104996588"),
    (Objective.MAX_CIRCULARITY, 30, "0"),
    (Objective.MAX_CIRCULARITY, 100, "0"),
])
def test_both_leaders_answer_the_capped_case_with_the_least_policy(pso_capped, no_search,
                                                                   objective, budget, tax):
    bound, allocation = value_bound(pso_capped, objective)
    policy, solves = engine.least_policy(pso_capped, allocation.units, budget)
    for out in (optimize(pso_capped, objective, budget), closed_form_optimize(pso_capped, objective, budget)):
        assert out.policy == policy and out.policy.tax_rate == Decimal(tax)
        assert out.feasible and out.upper_value == bound and out.response.allocation == allocation
        assert out.evaluations == solves + 1


def test_the_least_policy_of_a_mix_with_fees():
    # r0 and r1 each pay a fee; a particle swarm once stopped at 0.273 from {r1: 7, r2: 3}
    scenario = Scenario(demand=10, routes=(
        RouteSpec(route_id="r0", product_id="p", technology_id="t0", unit_cost=Decimal("0.051"),
                  unit_emissions=Decimal("0.055"), unit_circularity=Decimal(1)),
        RouteSpec(route_id="r1", product_id="p", technology_id="t1", unit_cost=Decimal("0.083"),
                  unit_emissions=Decimal("0.015"), unit_circularity=Decimal(1)),
        RouteSpec(route_id="r2", product_id="p", technology_id="t2", unit_cost=Decimal("0.077"),
                  unit_emissions=Decimal("0.056"), unit_circularity=Decimal(1),
                  subsidizable=False)),
        technology_fixed_costs={"t0": Decimal("0.45"), "t1": Decimal("0.26")},
        capacity_limits={"r0": 9, "r1": 7})
    for out in (optimize(scenario, Objective.MIN_GHG, 0),
                closed_form_optimize(scenario, Objective.MIN_GHG, 0)):
        assert out.feasible and out.upper_value == Decimal("0.270")
        assert out.response.allocation.units == {"r0": 3, "r1": 7}
        # the ceiling of the least tax needs no nudge: the selector resolves the tie
        assert out.policy.tax_rate == Decimal("2.810714285715")


def test_tied_heads_at_the_margin_keep_the_least_policy_out(no_search):
    # every allocation emits nothing; value_bound puts a unit on r0, which
    # needs a subsidy, while the zero policy induces {r1: 11} at the same value
    scenario = Scenario(demand=11, routes=(_route("r0", "0.082", "0", "1"),
                                           _route("r1", "0.066", "0", "1")),
                        capacity_limits={"r0": 1})
    budget = Decimal("0.363")
    units = value_bound(scenario, Objective.MIN_GHG)[1].units
    assert units == {"r0": 1, "r1": 10}
    policy, _ = engine.least_policy(scenario, units, budget)
    assert policy == PolicyVector(subsidy_rates={"r0": Decimal("0.016")})
    # the zero policy's key, (0, bound head, 0, 0), is the least any policy
    # can have; the walk's first response waits there too, after every
    # policy, so it is not priced and no second one is drawn
    for out in (optimize(scenario, Objective.MIN_GHG, budget),
                closed_form_optimize(scenario, Objective.MIN_GHG, budget)):
        assert out.policy == PolicyVector.zero() != policy
        assert out.response.allocation.units == {"r1": 11} and out.upper_value == 0


# The 9 points of the capped case that no certificate answers. A particle
# swarm once ran there, for 10,053-10,065 evaluations each; the search over
# vertex responses reaches the same rank keys.
@pytest.mark.parametrize("objective, mode, budget, shortfall, value, tax", [
    (Objective.MIN_GHG, SUBSIDY_ONLY, -60, "60", "55.7", "0"),
    (Objective.MIN_GHG, SUBSIDY_ONLY, 0, "0", "55.7", "0"),
    (Objective.MIN_GHG, SUBSIDY_ONLY, 30, "0", "55.7", "0"),
    (Objective.MAX_CIRCULARITY, TAX_ONLY, -60, "0", "1.317", "4.731638418080"),
    (Objective.MAX_CIRCULARITY, TAX_ONLY, 0, "0", "1.317", "4.731638418080"),
    (Objective.MAX_CIRCULARITY, TAX_ONLY, 30, "0", "1.317", "4.731638418080"),
    (Objective.MAX_CIRCULARITY, TAX_ONLY, 100, "0", "1.317", "4.731638418080"),
    (Objective.MAX_CIRCULARITY, SUBSIDY_ONLY, -60, "60", "1.277", "0"),
    (Objective.MAX_CIRCULARITY, SUBSIDY_ONLY, 0, "0", "1.277", "0"),
])
def test_the_search_reaches_the_swarms_keys_on_the_uncertified_capped_points(
        pso_capped, objective, mode, budget, shortfall, value, tax):
    out = optimize(pso_capped, objective, budget, mode=mode)
    assert _key(out) == (Decimal(shortfall), objective.head(Decimal(value)), Decimal(tax),
                         Decimal(0))
    assert out.evaluations <= 15


def _fee_catalog(demand, routes, fees, caps):
    """Routes given as (technology, cost, emissions, circularity, subsidizable)."""
    return Scenario(demand=demand, technology_fixed_costs=fees, capacity_limits=caps, routes=tuple(
        RouteSpec(route_id=f"r{i}", product_id="p", technology_id=tech, unit_cost=Decimal(cost),
                  unit_emissions=Decimal(emissions), unit_circularity=Decimal(circ),
                  subsidizable=subsidizable)
        for i, (tech, cost, emissions, circ, subsidizable) in enumerate(routes)))


# r0 and r2 tie on circularity 2; the least subsidy on r0 has no finite
# decimal, and rounded up it overdrew the funds by 4e-17 at tax 0.2
TIGHT_FUNDS = _fee_catalog(28, [("t2", "0.072", "0.087", "2", True),
                                ("t0", "0.015", "0.05", "0", False),
                                ("t2", "0.03", "0.024", "2", True),
                                ("t0", "0.031", "0.072", "0.4", False)],
                           {"t0": Decimal("0.37"), "t2": Decimal("0.17")},
                           {"r1": 9, "r2": 16, "r3": 12})
# r1 must stay dearer than r2 by t0's fee over 15 units, 0.02 / 15; the
# subsidy on r1 rounded up let {r1: 18} undercut the units
TIGHT_RIVAL = _fee_catalog(18, [("t0", "-0.011", "0.096", "0.4", True),
                                ("t2", "0.058", "0.072", "0", True),
                                ("t0", "0.047", "0.025", "0.2", True),
                                ("t2", "-0.003", "0.096", "1.8", True)],
                           {"t0": Decimal("0.02"), "t2": Decimal("0.17")}, {"r2": 15})


@pytest.mark.parametrize("scenario, objective, budget, units, tax", [
    (TIGHT_FUNDS, Objective.MAX_CIRCULARITY, "0.056", {"r0": 12, "r2": 16}, "0.200000000001"),
    (TIGHT_RIVAL, Objective.MIN_GHG, "0.594", {"r1": 3, "r2": 15}, "0.881365740741"),
], ids=["funds", "rival"])
def test_a_rounded_least_policy_still_induces_its_units_within_funds(scenario, objective, budget,
                                                                   units, tax):
    policy, _ = engine.least_policy(scenario, units, Decimal(budget))
    assert policy.tax_rate == Decimal(tax)
    assert any(rate.as_tuple().exponent == -17 for rate in policy.subsidy_rates.values())
    value, result, feasible = evaluate_policy(scenario, policy, objective, Decimal(budget))
    assert feasible and result.allocation.units == units


def test_the_search_counts_every_least_policy_it_evaluates(pso_capped, monkeypatch):
    # not certified: the least policy of the bound's allocation, {r0: 28},
    # falls short and joins the candidates, evaluated; the walk's next
    # response ties its head and takes a lower tax. The count is the
    # candidates, that policy and each least policy the walk evaluates
    found, tried = engine.least_policy, []
    evaluate, evaluated = engine.evaluate_policy, []
    monkeypatch.setattr(engine, "least_policy",
                        lambda *args: tried.append(found(*args)) or tried[-1])
    monkeypatch.setattr(engine, "evaluate_policy",
                        lambda *args: evaluated.append(args[1]) or evaluate(*args))
    budget = Decimal("0.056")
    out = optimize(TIGHT_FUNDS, Objective.MAX_CIRCULARITY, budget)
    (certificate, _), (walked, _) = tried
    assert out.evaluations == len(domain_informed_points(TIGHT_FUNDS, budget)) + 2
    assert out.policy == walked and out.policy.tax_rate == Decimal("0.200000000001")
    assert evaluated.count(certificate) == 1  # not again among the candidates
    # subsidy-only at budget 0: the zero policy's key, (0, 55.7, 0, 0), ties
    # the walk's next response, which goes after every policy and is not priced
    tried.clear()
    out = optimize(pso_capped, Objective.MIN_GHG, 0, mode=SUBSIDY_ONLY)
    assert tried == [None]
    assert out.evaluations == len(domain_informed_points(pso_capped, 0, SUBSIDY_ONLY))
    assert out.upper_value == Decimal("55.70000") and out.feasible
    assert out == closed_form_optimize(pso_capped, Objective.MIN_GHG, 0, SUBSIDY_ONLY)


def test_past_max_responses_the_search_keeps_its_incumbent(monkeypatch):
    # the candidates give tax 1.666666666667; the search lowers it to 0.2
    budget = Decimal("0.056")
    out = optimize(TIGHT_FUNDS, Objective.MAX_CIRCULARITY, budget)
    assert out.policy.tax_rate == Decimal("0.200000000001") and out.upper_value == 2
    monkeypatch.setattr(engine, "MAX_RESPONSES", 0)
    kept = optimize(TIGHT_FUNDS, Objective.MAX_CIRCULARITY, budget)
    assert kept.policy.tax_rate == Decimal("1.666666666667") and kept.upper_value == 2
    assert kept.evaluations < out.evaluations


def test_the_walk_skips_a_response_whose_pricing_refuses():
    # r0 plus r1 costs 1E+30 + 0.1, more digits than the context holds: the
    # walk passes over that response and draws the next, and the zero
    # policy, whose follower fills r0 then r2, is the answer
    scenario = Scenario(demand=2, routes=(_route("r0", "0.1", "0.001", "1"),
                                          _route("r1", "1E+30", "0", "1"),
                                          _route("r2", "0.2", "0.002", "1")),
                        capacity_limits={"r0": 1})
    drawn = []
    walk = (drawn.append(units) or units for units in ({"r0": 1, "r1": 1}, {"r0": 1, "r2": 1}))
    policy, value, result, feasible = best_policy(scenario, Objective.MIN_GHG, 0,
                                                  [PolicyVector.zero()], walk=walk)
    assert drawn == [{"r0": 1, "r1": 1}, {"r0": 1, "r2": 1}]
    assert policy == PolicyVector.zero() and value == Decimal("0.003") and feasible
    assert result.allocation.units == {"r0": 1, "r2": 1}


def test_short_of_funds_the_search_tries_responses_past_the_incumbents_head():
    # every candidate falls 1.39 short, at circularity up to 1.72; the first
    # response the leader can fund has a worse head, 1.66
    scenario = _fee_catalog(15, [("t1", "0.052", "0.031", "0.9", True),
                                 ("t1", "0.009", "0.018", "1.8", True),
                                 ("t2", "0.034", "0", "1.5", True),
                                 ("t2", "0.058", "0.071", "1.4", False)],
                            {"t1": Decimal("0.15"), "t2": Decimal("0.03")},
                            {"r1": 11, "r2": 7, "r3": 13})
    out = optimize(scenario, Objective.MAX_CIRCULARITY, Decimal("-1.665"))
    assert out.feasible and out.upper_value == Decimal("1.66")
    assert out.response.allocation.units == {"r1": 8, "r2": 7}
    assert out.policy == PolicyVector(tax_rate=Decimal("11.5625"))


@st.composite
def _capped_catalogs(draw):
    # 2-4 routes on up to three technologies, the first uncapped so demand
    # is always covered; fees on some technologies, capacities on some routes
    count = draw(st.integers(2, 4))
    routes = tuple(
        RouteSpec(route_id=f"r{i}", product_id="p", technology_id=f"t{draw(st.integers(0, 2))}",
                  unit_cost=Decimal(draw(st.integers(-20, 100))) / 1000,
                  unit_emissions=Decimal(draw(st.integers(0, 100))) / 1000,
                  unit_circularity=Decimal(draw(st.integers(0, 20))) / 10,
                  subsidizable=draw(st.integers(0, 9)) < 7)
        for i in range(count))
    demand = draw(st.integers(1, 40))
    caps = {r.route_id: draw(st.integers(0, demand)) for r in routes[1:] if draw(st.booleans())}
    fees = {tech: Decimal(draw(st.integers(0, 50))) / 100
            for tech in sorted({r.technology_id for r in routes}) if draw(st.booleans())}
    return Scenario(demand=demand, routes=routes, technology_fixed_costs=fees,
                    capacity_limits=caps or {"r0": demand})


@settings(deadline=None)
@given(_capped_catalogs(), st.sampled_from([Objective.MIN_GHG, Objective.MAX_CIRCULARITY]))
def test_the_walk_takes_every_vertex_response_once_in_ascending_head(scenario, objective):
    # a vertex puts every route at zero or its capacity but at most one
    ids = scenario.route_ids()
    caps = [scenario.capacity_of(rid) for rid in ids]
    vertices = sorted(tuple((rid, n) for rid, n in zip(ids, split) if n)
                      for split in _compositions(scenario.demand, caps)
                      if sum(0 < n < cap for n, cap in zip(split, caps)) <= 1)
    walk = [tuple(sorted(units.items())) for units in engine._vertex_responses(
        scenario, objective, value_bound(scenario, objective)[1].units)]
    assert sorted(walk) == vertices
    heads = [sum(objective.unit_head(scenario.route(rid)) * n for rid, n in units)
             for units in walk]
    assert heads == sorted(heads)


def _grid(scenario, objective, budget, mode):
    """The best grid policy as (rank key, its response's units)."""
    subsidized = [] if mode == TAX_ONLY else list(scenario.subsidizable_ids())[:2]
    grid = grid_bilevel(scenario, objective, budget,
                        GridAxis(lo=0, hi=0 if mode == SUBSIDY_ONLY else 3, steps=4),
                        {rid: GridAxis(lo=0, hi=Decimal("0.1"), steps=3) for rid in subsidized})
    return engine.rank(objective, budget, *grid[:3]), grid[2].allocation.units


@settings(deadline=None)
@given(_capped_catalogs(), st.sampled_from([Objective.MIN_GHG, Objective.MAX_CIRCULARITY]),
       st.integers(-30, 60), st.sampled_from([COMBINED, TAX_ONLY, SUBSIDY_ONLY]))
def test_a_certified_answer_never_ranks_after_the_grid_or_the_swarm(scenario, objective,
                                                                    per_unit, mode):
    # an answer at the bound within funds ranks before the grid, and before
    # what the exact leader finds with no least policy: the candidates alone
    budget = Decimal(per_unit) * scenario.demand / 1000
    out = optimize(scenario, objective, budget, PsoParams(swarm_size=4, iterations=4, restarts=1),
                   mode)
    if not (out.feasible and out.upper_value == value_bound(scenario, objective)[0]):
        return  # not certified
    assert evaluate_policy(scenario, out.policy, objective, budget)[1] == out.response
    assert _key(out) <= _grid(scenario, objective, budget, mode)[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "least_policy", lambda *args: None)
        candidates = optimize(scenario, objective, budget, mode=mode)
    assert _key(out) <= _key(candidates)


@settings(deadline=None)
@given(_capped_catalogs(), st.sampled_from([Objective.MIN_GHG, Objective.MAX_CIRCULARITY]),
       st.integers(-30, 60), st.sampled_from([COMBINED, TAX_ONLY, SUBSIDY_ONLY]),
       st.integers(1, 5), st.integers(0, 5), st.integers(1, 2), st.integers(0, 3))
def test_the_swarm_never_ranks_after_the_exact_leader(scenario, objective, per_unit, mode,
                                                     swarm_size, iterations, restarts, seed):
    # optimize, whatever swarm settings it is given, is the exact leader; the
    # grid's best policy never ranks before it where that policy is within
    # funds and induces a vertex response (every route at zero or at its
    # capacity but at most one)
    budget = Decimal(per_unit) * scenario.demand / 1000
    params = PsoParams(swarm_size=swarm_size, iterations=iterations, restarts=restarts,
                       seed=seed)
    out = optimize(scenario, objective, budget, params, mode)
    assert out == closed_form_optimize(scenario, objective, budget, mode)
    assert evaluate_policy(scenario, out.policy, objective, budget)[1] == out.response
    key, units = _grid(scenario, objective, budget, mode)
    if key[0] == 0 and sum(n < scenario.capacity_of(rid) for rid, n in units.items()) <= 1:
        assert _key(out) <= key


@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(_capped_catalogs(), st.sampled_from([Objective.MIN_GHG, Objective.MAX_CIRCULARITY]),
       st.integers(-30, 60), st.sampled_from([COMBINED, TAX_ONLY, SUBSIDY_ONLY]))
def test_no_vertex_response_has_a_least_policy_that_ranks_first(scenario, objective, per_unit,
                                                                mode):
    # exact over vertex responses, against every one of them: within funds,
    # no response of a better head than the answer's can be funded at all,
    # and none of the same head for less; short of funds, no response's
    # least policy ranks before the answer
    budget = Decimal(per_unit) * scenario.demand / 1000
    bound = value_bound(scenario, objective)
    assume(bound is not None and not scenario.is_pure_linear())
    out = optimize(scenario, objective, budget, mode=mode)
    for units in engine._vertex_responses(scenario, objective, bound[1].units):
        result = price_allocation(scenario, Allocation(units), PolicyVector.zero())
        head = objective.head(objective.natural_value(result))
        if out.feasible and head > objective.head(out.upper_value):
            break  # the walk goes in ascending head
        found = engine._least_response(scenario, objective, budget, mode, units)
        if found is not None:
            assert not out.feasible or head == objective.head(out.upper_value)
            assert engine.rank(objective, budget, *found[0][:3]) >= _key(out)


# The closed-form least policy: on a pure-linear scenario every vertex
# response is one route at full demand, priced with no LP.

@st.composite
def _pure_linear_catalogs(draw):
    # 1-4 routes, some costs negative, about 25% zero-emission, 70% subsidizable
    routes = tuple(
        RouteSpec(route_id=f"r{i}", product_id="p", technology_id=f"t{i}",
                  unit_cost=Decimal(draw(st.integers(-20, 100))) / 1000,
                  unit_emissions=Decimal(max(draw(st.integers(-30, 100)), 0)) / 1000,
                  unit_circularity=Decimal(draw(st.integers(1, 200))) / 100,
                  subsidizable=draw(st.integers(0, 9)) < 7)
        for i in range(draw(st.integers(1, 4))))
    return Scenario(demand=draw(st.integers(1, 40)), routes=routes)


@settings(max_examples=max(60, settings.default.max_examples), deadline=None)
@given(_pure_linear_catalogs(), st.integers(-60, 60))
def test_the_closed_form_least_policy_is_the_lps(scenario, per_unit):
    # capacities of all demand leave the follower as it is but send
    # least_policy to its LP; both give the same policy, or both none
    budget = Decimal(per_unit) * scenario.demand / 1000
    capped = replace(scenario, capacity_limits={rid: scenario.demand
                                                for rid in scenario.route_ids()})
    for rid in scenario.route_ids():
        for mode in (COMBINED, TAX_ONLY, SUBSIDY_ONLY):
            units = {rid: scenario.demand}
            closed = engine.least_policy(scenario, units, budget, mode)
            lp = engine.least_policy(capped, units, budget, mode)
            assert (closed is None) == (lp is None), (rid, mode)
            if closed is None:
                continue
            assert closed[1] == 0  # no LP solved
            keys = []
            for policy in (closed[0], lp[0]):
                value, result, _ = evaluate_policy(scenario, policy, Objective.MIN_GHG, budget)
                keys.append(engine.rank(Objective.MIN_GHG, budget, policy, value, result))
            assert keys[0] == keys[1] and closed[0] == lp[0], (rid, mode)


@pytest.mark.parametrize("mode", [COMBINED, TAX_ONLY, SUBSIDY_ONLY])
@pytest.mark.parametrize("objective", [Objective.MIN_GHG, Objective.MAX_CIRCULARITY])
def test_zero_demand_is_certified_as_the_zero_policy(objective, mode, monkeypatch):
    # value_bound's allocation is empty: the zero policy, within funds from
    # budget 0 up, with no LP and one evaluation, as the candidates give it
    monkeypatch.setattr(engine, "_simplex", None)
    scenario = Scenario(demand=0, routes=(_route("a", "0.1", "0.2", "1.5"),
                                          _route("b", "0.05", "0.3", "1")))
    for budget in (0, 1):
        out = optimize(scenario, objective, budget, mode=mode)
        assert out.policy == PolicyVector.zero() and out.evaluations == 1
        assert out.feasible and out.response.allocation.units == {}
    out = optimize(scenario, objective, -1, mode=mode)  # short of funds: no certificate
    assert not out.feasible and out.policy == PolicyVector.zero()


def test_two_routes_of_one_head_certify_nothing(monkeypatch):
    # a and b both emit 0.1 kg a unit, so value_bound's allocation is not the
    # only one of best value: no least policy is priced, every candidate ranks
    monkeypatch.setattr(engine, "least_policy", None)
    scenario = Scenario(demand=10, routes=(_route("a", "0.05", "0.1", "1"),
                                           _route("b", "0.02", "0.1", "1")))
    for mode in (COMBINED, TAX_ONLY, SUBSIDY_ONLY):
        out = closed_form_optimize(scenario, Objective.MIN_GHG, 0, mode)
        assert out.evaluations == len(domain_informed_points(scenario, 0, mode))
        assert out.policy == PolicyVector.zero() and out.response.allocation.units == {"b": 10}


_ENTRY = st.one_of(st.integers(-4, 4), st.integers(-40, 40).map(lambda k: Decimal(k) / 10))


@st.composite
def _lps(draw):
    """1-4 columns and 1-5 rows of small integers and decimals, nonnegative
    costs, rows repeated and right-hand sides of zero (degenerate
    vertices), and now and then a planted pair of rows no point meets."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    cost = draw(st.lists(st.one_of(st.integers(0, 4), st.integers(0, 40).map(
        lambda k: Decimal(k) / 10)), min_size=n, max_size=n))
    rows = [draw(st.lists(_ENTRY, min_size=n, max_size=n)) for _ in range(m)]
    rhs = [draw(st.one_of(st.just(0), _ENTRY)) for _ in range(m)]
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        rows.append(rows[i])
        rhs.append(rhs[i])
    if draw(st.integers(0, 9)) == 0:  # v0 <= b and v0 >= b + 1
        b = draw(st.integers(0, 3))
        rows += [[1] + [0] * (n - 1), [-1] + [0] * (n - 1)]
        rhs += [b, -b - 1]
    return cost, rows[-5:], rhs[-5:]


def _vertices(rows, rhs):
    """Every basic feasible point of rows . v + slack = rhs, v and slack >= 0,
    in Fractions: each choice of len(rows) basic columns solved exactly."""
    m, n = len(rows), len(rows[0])
    full = [[Fraction(a) for a in row] + [Fraction(int(i == k)) for k in range(m)] + [Fraction(b)]
            for i, (row, b) in enumerate(zip(rows, rhs))]
    for basic in itertools.combinations(range(n + m), m):
        system = [[row[c] for c in basic] + [row[-1]] for row in full]
        for c in range(m):  # Gauss-Jordan; a zero pivot column means a singular basis
            p = next((r for r in range(c, m) if system[r][c]), None)
            if p is None:
                break
            system[c], system[p] = system[p], system[c]
            system[c] = [a / system[c][c] for a in system[c]]
            for r in range(m):
                if r != c and system[r][c]:
                    f = system[r][c]
                    system[r] = [a - f * b for a, b in zip(system[r], system[c])]
        else:
            values = dict(zip(basic, (row[-1] for row in system)))
            if min(values.values()) >= 0:
                yield [values.get(c, Fraction(0)) for c in range(n)]


@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(_lps())
def test_simplex_reaches_the_least_vertex(lp):
    # brute force over every basis: the least objective at a feasible
    # vertex, and None exactly where no vertex is feasible
    cost, rows, rhs = lp
    exact_cost = [Fraction(c) for c in cost]
    values = [sum(map(operator.mul, exact_cost, v)) for v in _vertices(rows, rhs)]
    # _simplex takes integers: each row with its right-hand side, and the
    # cost, scaled by its least common denominator, is the same LP
    whole = [to_integers([*row, b]) for row, b in zip(rows, rhs)]
    point = engine._simplex(to_integers(cost), [row[:-1] for row in whole],
                            [row[-1] for row in whole])
    assert (point is None) == (not values)
    if point is not None:
        assert min(point) >= 0
        assert all(sum(Fraction(a) * x for a, x in zip(row, point)) <= Fraction(b)
                   for row, b in zip(rows, rhs))
        assert sum(map(operator.mul, exact_cost, point)) == min(values)


# The least policies of value_bound's allocations, as policy strings and LP
# solve counts: pso_capped's 24 points, and every mode on seeded random
# capped catalogs (test_metamorphic's ranges). Pinned before the LP moved to
# scaled integers, so any other pivot or row order shows here.
LEAST_POLICY_DIGESTS = {
    "pso_capped": "a33f895cb0b266372e8f5ab68b5e8651f017f5eb62b16962fb71dc1467fc66fe",
    "random capped": "e5223d4d51f66085a246d5b1c46fb0599b1faa49d9bbfc9e2acf0f81d01d5395",
}


def _least_policy_lines(scenario, budgets):
    for objective in (Objective.MIN_GHG, Objective.MAX_CIRCULARITY):
        bound = value_bound(scenario, objective)
        if bound is None:
            continue
        for mode in (COMBINED, TAX_ONLY, SUBSIDY_ONLY):
            for budget in budgets:
                try:
                    found = engine.least_policy(scenario, bound[1].units, budget, mode)
                except ResourceBoundError:
                    found = "refused"
                yield f"{objective.value} {mode} {budget} {found}\n"


def test_least_policy_pivots_are_pinned(pso_capped):
    rng = random.Random(34)
    lines = {"pso_capped": list(_least_policy_lines(pso_capped, map(Decimal, (-60, 0, 30, 100)))),
             "random capped": []}
    for _ in range(300):
        scenario = random_catalog(rng, capped=True)
        budget = Decimal(rng.randint(-60, 60)) * scenario.demand / 1000
        lines["random capped"] += _least_policy_lines(scenario, [budget])
    got = {key: hashlib.sha256("".join(rows).encode()).hexdigest() for key, rows in lines.items()}
    assert got == LEAST_POLICY_DIGESTS
