from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ecolever import (
    COMBINED,
    Objective,
    PolicyVector,
    PsoParams,
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
    default_bounds,
    domain_informed_points,
    exact_leader,
    pso_run,
    value_bound,
    vector_to_policy,
)
from ecolever.model import (Allocation, apply_modifiers, price_allocation, quantize_rate,
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
def swarm_only(monkeypatch):
    """No least policy is found, so `optimize` answers capped scenarios with
    the swarm."""
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


def test_vector_to_policy_round_trip(pair):
    policy = vector_to_policy(pair, [0.25, 0.0, 0.04])
    assert policy.tax_rate == Decimal("0.25")
    assert policy.subsidy_rates == {"clean": Decimal("0.04")}
    # negatives clamp to zero instead of failing validation
    assert vector_to_policy(pair, [-1e-9, -0.5, 0.0]) == PolicyVector.zero()


def test_vector_to_policy_rejects_a_position_of_the_wrong_length(pair):
    for x in ([0.25, 0.0], [0.25, 0.0, 0.04, 0.01], np.zeros(2)):
        with pytest.raises(ValidationError) as err:
            vector_to_policy(pair, x)
        assert "expected 3" in str(err.value)


def test_vector_to_policy_rejects_a_rate_past_the_grid(case):
    # 1e16 needs 29 digits on the 1e-12 grid, one more than the context holds
    with pytest.raises(ValidationError):
        vector_to_policy(case, [1e16] + [0.0] * 7)


def _reference_vector_to_policy(scenario, x):
    """Quantize every coordinate, then drop the zero subsidies."""
    rates = {}
    for rid, v in zip(scenario.subsidizable_ids(), x[1:]):
        rate = quantize_rate(max(float(v), 0.0))
        if rate != 0:
            rates[rid] = rate
    return PolicyVector(tax_rate=quantize_rate(max(float(x[0]), 0.0)), subsidy_rates=rates)


_COORDINATES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.4e-12, 0.5e-12, 0.6e-12, 1.5e-12,
                     -0.6e-12, 0.18186, 10.0, 11.5, 1e6]),
    st.floats(min_value=-20.0, max_value=1e6, allow_nan=False),
)


@given(st.lists(_COORDINATES, min_size=8, max_size=8))
def test_vector_to_policy_matches_quantizing_every_coordinate(case, x):
    expected = _reference_vector_to_policy(case, x)
    for position in (x, np.array(x)):
        policy = vector_to_policy(case, position)
        assert policy == expected
        assert str(policy.tax_rate) == str(expected.tax_rate)
        assert ({rid: str(r) for rid, r in policy.subsidy_rates.items()}
                == {rid: str(r) for rid, r in expected.subsidy_rates.items()})


def test_default_bounds_encode_mode(pair):
    combined = default_bounds(pair, COMBINED)
    assert len(combined) == 1 + len(pair.subsidizable_ids()) == 3
    assert combined[0] == (0.0, 10.0) and combined[1][1] > 0
    tax_only = default_bounds(pair, TAX_ONLY)
    assert tax_only[1] == (0.0, 0.0) and tax_only[2] == (0.0, 0.0)
    subsidy_only = default_bounds(pair, SUBSIDY_ONLY)
    assert subsidy_only[0] == (0.0, 0.0)


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


def test_pso_run_minimizes_a_bowl():
    params = PsoParams(swarm_size=12, iterations=60, seed=1)
    run = pso_run(lambda x: float((x[0] - 1) ** 2 + (x[1] + 2) ** 2), ((-4, 4), (-4, 4)),
                  params, rng=np.random.default_rng(1))
    assert run.value < 1e-3
    assert abs(run.x[0] - 1) < 0.1 and abs(run.x[1] + 2) < 0.1
    values = [v for _, v in run.trace]
    assert all(values[i + 1] <= values[i] for i in range(len(values) - 1))


def test_pso_run_respects_bounds_and_seed_positions():
    params = PsoParams(swarm_size=6, iterations=30, seed=3)
    seen = []

    def probe(x):
        seen.append(float(x[0]))
        return abs(float(x[0]) - 1.5)

    run = pso_run(probe, ((0, 2),), params, rng=np.random.default_rng(3),
                  seed_positions=[np.array([1.5])])
    assert all(-1e-9 <= v <= 2 + 1e-9 for v in seen)
    assert run.value == 0.0  # the seeded point is already optimal


def test_pso_run_hands_the_evaluator_rows_it_may_keep():
    # a tight box makes particles hit the walls, so every branch of the
    # position update writes rows; none may change after it was evaluated
    params = PsoParams(swarm_size=5, iterations=20, seed=2)
    kept = []

    def keeping(x):
        kept.append((x, list(x)))
        return abs(x[0] - 0.05) + abs(x[1] - 0.9)

    run = pso_run(keeping, ((0.0, 0.1), (-1.0, 1.0), (0.0, 0.0)), params)
    assert len(kept) == run.evaluations == 5 * 21
    assert all(row == snapshot for row, snapshot in kept)
    assert all(0.0 <= a <= 0.1 and -1.0 <= b <= 1.0 and c == 0.0 for _, (a, b, c) in kept)


def test_pso_run_same_seed_same_run():
    params = PsoParams(swarm_size=6, iterations=12, seed=5)
    box = ((-2, 2), (0, 3))
    bowl = lambda x: (x[0] - 0.5) ** 2 + (x[1] - 1) ** 2
    first, again = pso_run(bowl, box, params), pso_run(bowl, box, params)
    assert (first.x, first.trace) == (again.x, again.trace)
    other = pso_run(bowl, box, replace(params, seed=6))
    assert other.trace != first.trace


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


def test_pso_run_refuses_a_bad_box():
    with pytest.raises(ValidationError, match="lo <= hi"):
        pso_run(lambda x: 0.0, ((1, 0),), PsoParams())
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValidationError, match="finite"):
            pso_run(lambda x: 0.0, ((0.0, bad),), PsoParams())


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


def test_optimize_lexicographic_tie_break_prefers_less_intervention(pair, monkeypatch):
    # inject a feasible but higher-tax policy achieving the same emissions;
    # the corner must still win on the lexicographic tail
    heavier = PolicyVector(tax_rate=Decimal("1"))  # past the switch threshold
    asked = _with_candidate(monkeypatch, heavier)
    out = optimize(pair, Objective.MIN_GHG, 0)
    assert asked == [0]
    assert out.policy.tax_rate == Decimal("0.4")
    value, _, feasible = evaluate_policy(pair, heavier, Objective.MIN_GHG, 0)
    assert feasible and value == out.upper_value


def test_optimize_ranks_like_best_policy_on_a_capped_pair(monkeypatch, swarm_only):
    # clean's cap does not bind, but it sends the follower down the integer
    # path, where the (tax 0.4, subsidy 0.008) corner ties and goes to base
    capped = Scenario(demand=100, capacity_limits={"clean": 100}, routes=(
        _route("base", "0.01", "0.10", "1.0"),
        _route("clean", "0.05", "0.02", "1.5"),
    ))
    near_miss = PolicyVector(tax_rate=Decimal("0.4"),
                             subsidy_rates={"clean": Decimal("0.008000015")})
    asked = _with_candidate(monkeypatch, near_miss)
    params = PsoParams(swarm_size=4, iterations=0, restarts=1)
    out = optimize(capped, Objective.MIN_GHG, 0, params=params)
    assert asked == [0]
    assert [i for i, _ in out.trace] == [0, 1]  # the swarm's trace, not the exact leader's
    candidates = domain_informed_points(capped, Decimal(0), COMBINED) + [near_miss]
    policy, value, result, feasible = best_policy(capped, Objective.MIN_GHG, 0, candidates)
    assert feasible and out.feasible
    assert (out.policy, out.upper_value, out.response) == (policy, value, result)
    assert out.policy != near_miss


@pytest.mark.parametrize("objective", [Objective.MIN_GHG, Objective.MAX_CIRCULARITY])
def test_optimize_lands_on_the_closed_form_corner(case, objective):
    # one restart of the default swarm is enough to find policies that sit
    # within a hair of the corner's funds balance; none may beat it
    params = PsoParams(swarm_size=10, iterations=200, restarts=1, seed=0)
    swarm = optimize(case, objective, 0, params=params)
    closed = closed_form_optimize(case, objective, 0)
    assert swarm.feasible and closed.feasible
    assert swarm.policy == closed.policy
    assert swarm.upper_value == closed.upper_value


def test_optimize_most_profitable_shortcut(pair):
    out = optimize(pair, Objective.MOST_PROFITABLE, 0)
    assert out.policy == PolicyVector.zero()
    assert out.evaluations == 1
    assert out.response.allocation.units == {"base": 100}


def test_optimize_trace_is_monotone_nonincreasing(pair):
    params = PsoParams(swarm_size=6, iterations=15, restarts=2, seed=4)
    out = optimize(pair, Objective.MIN_GHG, 0, params=params)
    values = [v for _, v in out.trace]
    assert all(values[i + 1] <= values[i] for i in range(len(values) - 1))
    iterations = [i for i, _ in out.trace]
    assert iterations == sorted(iterations)


def test_optimize_trace_reports_natural_direction_for_maximization(pair):
    params = PsoParams(swarm_size=6, iterations=15, restarts=1, seed=4)
    out = optimize(pair, Objective.MAX_CIRCULARITY, Decimal(5), params=params)
    values = [v for _, v in out.trace]
    # best-so-far circularity never decreases once reported naturally
    assert all(values[i + 1] >= values[i] for i in range(len(values) - 1))
    assert out.upper_value == values[-1]


def test_optimize_infeasible_budget_is_flagged(pair):
    # subsidy-only mode with a hard negative budget can never self-finance
    out = optimize(pair, Objective.MIN_GHG, Decimal(-5), mode=SUBSIDY_ONLY,
                   params=PsoParams(swarm_size=4, iterations=5, restarts=1))
    assert not out.feasible


def test_optimize_same_seed_same_answer(pair):
    params = PsoParams(swarm_size=8, iterations=20, restarts=2, seed=11)
    a = optimize(pair, Objective.MIN_GHG, Decimal(2), params=params)
    b = optimize(pair, Objective.MIN_GHG, Decimal(2), params=params)
    assert a.policy == b.policy
    assert a.trace == b.trace
    assert a.evaluations == b.evaluations


@pytest.fixture
def capped_pair(pair):
    # capacities of all demand bind nothing but keep optimize on the swarm
    return Scenario(demand=pair.demand, routes=pair.routes,
                    capacity_limits={r.route_id: pair.demand for r in pair.routes})


@pytest.mark.parametrize("objective", [Objective.MIN_GHG, Objective.MAX_CIRCULARITY])
def test_swarm_lands_on_the_closed_form_corner(case, objective, swarm_only):
    # capacities of all demand bind nothing but keep optimize on the swarm,
    # seeded with the exact leader's candidates; none of its policies may
    # beat the corner
    capped = Scenario(demand=case.demand, routes=case.routes, modifiers=case.modifiers,
                      capacity_limits={rid: case.demand for rid in case.route_ids()})
    params = PsoParams(swarm_size=10, iterations=200, restarts=1, seed=0)
    swarm = optimize(capped, objective, 0, params=params)
    closed = closed_form_optimize(case, objective, 0)
    assert [i for i, _ in swarm.trace] == list(range(params.iterations + 2))
    assert swarm.feasible and closed.feasible
    assert swarm.policy == closed.policy
    assert swarm.upper_value == closed.upper_value


def test_swarm_infeasible_budget_is_flagged(capped_pair):
    # subsidy-only mode with a hard negative budget can never self-finance
    params = PsoParams(swarm_size=4, iterations=5, restarts=1)
    out = optimize(capped_pair, Objective.MIN_GHG, Decimal(-5), mode=SUBSIDY_ONLY,
                   params=params)
    assert [i for i, _ in out.trace] == list(range(params.iterations + 2))
    assert not out.feasible


@pytest.mark.parametrize("objective", [Objective.MIN_GHG, Objective.MAX_CIRCULARITY])
def test_swarm_trace_never_worsens_in_natural_units(capped_pair, objective, swarm_only):
    params = PsoParams(swarm_size=6, iterations=15, restarts=2, seed=4)
    out = optimize(capped_pair, objective, Decimal(5), params=params)
    values = [v for _, v in out.trace]
    if objective == Objective.MAX_CIRCULARITY:
        values = [-v for v in values]
    assert all(values[i + 1] <= values[i] for i in range(len(values) - 1))
    assert [i for i, _ in out.trace] == list(range(2 * (params.iterations + 1) + 1))
    assert out.upper_value == out.trace[-1][1]
    again = optimize(capped_pair, objective, Decimal(5), params=params)
    assert (again.policy, again.trace, again.evaluations) == (
        out.policy, out.trace, out.evaluations)


def test_the_swarm_counts_the_candidates_and_every_position(capped_case, swarm_only):
    params = PsoParams(swarm_size=5, iterations=3, restarts=2, seed=1)
    out = optimize(capped_case, Objective.MIN_GHG, 0, params)
    assert len(out.trace) == 2 * (params.iterations + 1) + 1
    assert out.evaluations == (len(domain_informed_points(capped_case, 0))
                               + params.swarm_size * (params.iterations + 1) * params.restarts)


@pytest.mark.parametrize("entry", [
    lambda pair: default_bounds(pair, "tax_only"),
    lambda pair: domain_informed_points(pair, 0, "tax_only"),
    lambda pair: exact_leader(pair, Objective.MIN_GHG, 0, "tax_only"),
], ids=["default_bounds", "domain_informed_points", "exact_leader"])
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
def test_both_leaders_answer_the_capped_case_with_the_least_policy(pso_capped, no_swarm,
                                                                   objective, budget, tax):
    bound, allocation = value_bound(pso_capped, objective)
    policy, solves = engine.least_policy(pso_capped, allocation.units, budget)
    for out in (optimize(pso_capped, objective, budget), closed_form_optimize(pso_capped, objective, budget)):
        assert out.policy == policy and out.policy.tax_rate == Decimal(tax)
        assert out.feasible and out.upper_value == bound and out.response.allocation == allocation
        assert out.evaluations == solves + 1 and out.trace == ((0, bound),)


def test_the_least_policy_of_a_mix_with_fees():
    # r0 and r1 each pay a fee; the swarm stopped at 0.273 from {r1: 7, r2: 3}
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
        assert len(out.trace) == 1


def test_tied_heads_at_the_margin_keep_the_least_policy_out(no_swarm):
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
    # can have, so the default swarm does not run
    for out in (optimize(scenario, Objective.MIN_GHG, budget),
                closed_form_optimize(scenario, Objective.MIN_GHG, budget)):
        assert out.policy == PolicyVector.zero() != policy
        assert out.response.allocation.units == {"r1": 11}
        assert out.trace == ((0, Decimal(0)),)


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
@given(_capped_catalogs(), st.sampled_from([Objective.MIN_GHG, Objective.MAX_CIRCULARITY]),
       st.integers(-30, 60), st.sampled_from([COMBINED, TAX_ONLY, SUBSIDY_ONLY]))
def test_a_certified_answer_never_ranks_after_the_grid_or_the_swarm(scenario, objective,
                                                                    per_unit, mode):
    budget = Decimal(per_unit) * scenario.demand / 1000
    out = optimize(scenario, objective, budget, PsoParams(swarm_size=4, iterations=4, restarts=1),
                   mode)
    if len(out.trace) > 1:
        return  # the swarm answered: no certificate here
    assert out == closed_form_optimize(scenario, objective, budget, mode)
    assert out.feasible and out.upper_value == value_bound(scenario, objective)[0]
    assert evaluate_policy(scenario, out.policy, objective, budget)[1] == out.response
    subsidized = [] if mode == TAX_ONLY else list(scenario.subsidizable_ids())[:2]
    grid = grid_bilevel(scenario, objective, budget,
                        GridAxis(lo=0, hi=0 if mode == SUBSIDY_ONLY else 3, steps=4),
                        {rid: GridAxis(lo=0, hi=Decimal("0.1"), steps=3) for rid in subsidized})
    assert _key(out) <= engine.rank(objective, budget, grid[0], grid[1], grid[2])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "least_policy", lambda *args: None)
        swarm = optimize(scenario, objective, budget,
                         PsoParams(swarm_size=4, iterations=6, restarts=1), mode)
    least = (Decimal(0), objective.head(out.upper_value), Decimal(0), Decimal(0))
    assert len(swarm.trace) > 1 or _key(swarm) == least
    assert _key(out) <= _key(swarm)


@settings(deadline=None)
@given(_capped_catalogs(), st.sampled_from([Objective.MIN_GHG, Objective.MAX_CIRCULARITY]),
       st.integers(-30, 60), st.sampled_from([COMBINED, TAX_ONLY, SUBSIDY_ONLY]),
       st.integers(1, 5), st.integers(0, 5), st.integers(1, 2), st.integers(0, 3))
def test_the_swarm_never_ranks_after_the_exact_leader(scenario, objective, per_unit, mode,
                                                     swarm_size, iterations, restarts, seed):
    budget = Decimal(per_unit) * scenario.demand / 1000
    params = PsoParams(swarm_size=swarm_size, iterations=iterations, restarts=restarts,
                       seed=seed)
    out = optimize(scenario, objective, budget, params, mode)
    exact = closed_form_optimize(scenario, objective, budget, mode)
    assert _key(out) <= _key(exact)
    if len(out.trace) == 1:  # certified, or the exact leader's least key
        assert _key(out) == _key(exact)
