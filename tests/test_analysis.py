import warnings
from dataclasses import replace
from decimal import Decimal

import pytest

from ecolever import (
    CalibrationError,
    NoThresholdError,
    Objective,
    PsoParams,
    RouteSpec,
    Scenario,
    ValidationError,
    budget_sweep,
    calibrate_case_study,
    closed_form_optimize,
    evaluate_policy,
    fit_slope,
    optimize,
    required_budget_for_fixed_tax,
    sensitivity_distance,
    sensitivity_loss,
    subsidy_threshold,
    tax_budget_line,
    tax_threshold,
)
from ecolever.analysis import (GLASS_ROUTE, LANDFILL_ROUTE, STRAP_ROUTE, check_calibration,
                               cheapest_route, dominant_route)
from ecolever.engine import MODES
from ecolever.lower import net_unit_cost
from ecolever.model import apply_modifiers


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


def test_cheapest_route_breaks_ties_lexicographically():
    scn = Scenario(demand=1, routes=(
        _route("zeta", "0.05", "0.1", "1.0"),
        _route("alpha", "0.05", "0.2", "1.0"),
    ))
    assert cheapest_route(scn).route_id == "alpha"


def test_subsidy_threshold_is_the_cost_gap(pair):
    assert subsidy_threshold(pair, "clean") == Decimal("0.04")
    assert subsidy_threshold(pair, "base") == 0


def test_tax_threshold_simple_pair(pair):
    assert tax_threshold(pair, "clean") == Decimal("0.5")
    assert tax_threshold(pair, "base") == 0


def test_tax_threshold_considers_every_competitor():
    # the cheapest competitor at the naive threshold is not the binding one
    scn = Scenario(demand=10, routes=(
        _route("base", "0.01", "0.10", "1.0"),
        _route("mid", "0.03", "0.05", "1.1"),
        _route("clean", "0.05", "0.02", "1.5"),
    ))
    tau = tax_threshold(scn, "clean")
    # vs base: (0.05-0.01)/(0.10-0.02) = 0.5; vs mid: (0.05-0.03)/(0.05-0.02) = 2/3
    assert tau == Decimal(2) / 3
    for r in scn.routes:
        net_target = scn.route("clean").unit_cost + tau * scn.route("clean").unit_emissions
        net_r = r.unit_cost + tau * r.unit_emissions
        assert net_target <= net_r


def test_tax_threshold_raises_when_a_cleaner_cheaper_rival_exists():
    scn = Scenario(demand=10, routes=(
        _route("rival", "0.02", "0.01", "1.0"),
        _route("target", "0.05", "0.03", "1.5"),
    ))
    with pytest.raises(NoThresholdError):
        tax_threshold(scn, "target")


def test_budget_line_matches_hand_calculation(pair):
    line = tax_budget_line(pair, "clean")
    # N*dc = 4, E_base = 10: intercept 0.4, slope -0.1, kink at 4
    assert line.intercept == Decimal("0.4")
    assert line.slope == Decimal("-0.1")
    assert line.kink == Decimal(4)
    assert line.tax_at(0) == Decimal("0.4")
    assert line.tax_at(4) == 0
    assert line.tax_at(100) == 0
    # below the lower kink the subsidy would go negative; tax rides the
    # switch threshold until revenue needs push it higher
    assert line.threshold == Decimal("0.5")
    assert line.lower_kink == Decimal(4) - Decimal("0.5") * 10
    assert line.tax_at(line.lower_kink) == Decimal("0.5")
    assert line.tax_at(Decimal(-2)) == Decimal("1")  # -(-2)/E_target = 2/2


def test_budget_line_is_continuous_at_the_kinks(pair):
    line = tax_budget_line(pair, "clean")
    eps = Decimal("1e-9")
    assert abs(line.tax_at(line.kink - eps) - line.tax_at(line.kink)) < Decimal("1e-8")
    assert abs(line.tax_at(line.lower_kink + eps)
               - line.tax_at(line.lower_kink - eps)) < Decimal("1e-8")


def test_budget_line_degenerates_when_target_is_cheapest(pair):
    line = tax_budget_line(pair, "base")
    assert line.intercept == 0 and line.slope == 0 and line.kink == 0


def test_required_budget_consistency(pair):
    req = required_budget_for_fixed_tax(pair, Decimal("0.2"), "clean")
    # s = 0.04 - 0.08*0.2 = 0.024; outlay 2.4; income 0.2*2 = 0.4
    assert req.subsidy_outlay == Decimal("2.4")
    assert req.tax_income == Decimal("0.4")
    assert req.budget == Decimal("2.0")
    # the implied corner policy is feasible at exactly that budget
    from ecolever import PolicyVector
    policy = PolicyVector(tax_rate=Decimal("0.2"),
                          subsidy_rates={"clean": Decimal("0.024")})
    value, result, feasible = evaluate_policy(pair, policy, Objective.MIN_GHG, req.budget)
    assert feasible
    assert result.allocation.units == {"clean": 100}


def test_required_budget_beyond_threshold_is_negative(pair):
    req = required_budget_for_fixed_tax(pair, Decimal("1"), "clean")
    assert req.subsidy_outlay == 0
    assert req.budget == -req.tax_income  # pure revenue, nothing to fund


def test_closed_form_matches_pso_on_the_toy(pair):
    closed = closed_form_optimize(pair, Objective.MIN_GHG, 0)
    swarm = optimize(pair, Objective.MIN_GHG, 0,
                     params=PsoParams(swarm_size=8, iterations=20, restarts=1, seed=0))
    assert closed.policy == swarm.policy
    assert closed.upper_value == swarm.upper_value


def test_closed_form_response_is_a_follower_optimum(case):
    # every route the answer uses prices exactly at the minimum net cost
    for objective in Objective:
        for mode in MODES:
            for budget in range(-60, 101, 20):
                out = closed_form_optimize(case, objective, budget, mode=mode)
                costs = {r.route_id: net_unit_cost(r, out.policy) for r in case.routes}
                cheapest = min(costs.values())
                assert all(costs[rid] == cheapest for rid in out.response.allocation.units), \
                    (objective, mode, budget)


def test_budget_sweep_records_are_complete(pair):
    records = budget_sweep(pair, Objective.MIN_GHG, [Decimal(0), Decimal(2), Decimal(10)])
    assert len(records) == 3
    assert [r.budget for r in records] == [0, 2, 10]
    for r in records:
        assert r.feasible
        assert r.response.allocation.total() == pair.demand
        assert r.upper_value == Decimal("2.00")
    # past the kink the tax vanishes and the subsidy saturates
    assert records[2].policy.tax_rate == 0
    assert records[2].response.subsidy_outlay == Decimal("4.00")


def test_dominant_route_and_fit_slope():
    records = budget_sweep(
        Scenario(demand=100, routes=(
            _route("base", "0.01", "0.10", "1.0"),
            _route("clean", "0.05", "0.02", "1.5"),
        )),
        Objective.MIN_GHG, [Decimal(0), Decimal(1), Decimal(2)])
    assert all(dominant_route(r) == "clean" for r in records)
    slope = fit_slope([(r.budget, r.response.tax_payment) for r in records])
    # income = t * E_clean = (4 - B)/10 * 2 => slope -0.2
    assert slope == Decimal("-0.2")
    assert fit_slope([(Decimal(1), Decimal(5))]) is None
    assert fit_slope([(Decimal(1), Decimal(5)), (Decimal(1), Decimal(7))]) is None


def test_sensitivity_distance_moves_only_affected_routes(case):
    sweeps = sensitivity_distance(case, [Decimal(7), Decimal(140)],
                                  [Decimal(0), Decimal(30)], Objective.MAX_CIRCULARITY)
    assert [s.value for s in sweeps] == [7, 140]
    for s in sweeps:
        assert set(s.dominant_routes) == {GLASS_ROUTE}
    # farther wash loop, steeper tax-income response
    assert abs(sweeps[1].tax_income_slope) > abs(sweeps[0].tax_income_slope)


def test_sensitivity_loss_flips_the_ghg_choice(case):
    sweeps = sensitivity_loss(case, [Decimal("0.01"), Decimal("0.1")],
                              [Decimal(0), Decimal(30)], Objective.MIN_GHG)
    assert sweeps[0].dominant_routes[0] == GLASS_ROUTE
    assert set(sweeps[1].dominant_routes) == {LANDFILL_ROUTE}


def test_calibration_round_trip_and_anchor_residuals(case):
    residuals = check_calibration(case)
    for key in ("strap_cost", "strap_emissions", "landfill_emissions",
                "glass_emissions", "glass_circularity"):
        assert residuals[key] == 0


def _with_route(case, route_id, **changes):
    return replace(case, routes=tuple(replace(r, **changes) if r.route_id == route_id else r
                                      for r in case.routes))


# one perturbation per violation check_calibration reports
@pytest.mark.parametrize("perturb, message", [
    (lambda c: _with_route(c, LANDFILL_ROUTE, unit_emissions=Decimal("0.09994")),
     "landfill_emissions off by 49.97000"),
    (lambda c: replace(c, demand=999), "demand is 999, anchors expect 1000"),
    (lambda c: replace(c, routes=tuple(r for r in c.routes if r.route_id != GLASS_ROUTE)),
     "missing route glass_wash_reuse"),
    (lambda c: _with_route(c, STRAP_ROUTE, unit_circularity=Decimal("1.5")),
     "circularity ordering must be landfill < strap < glass"),
    (lambda c: _with_route(c, GLASS_ROUTE, unit_cost=Decimal("0.06")),
     "cost ordering must be strap < landfill < glass"),
    (lambda c: _with_route(c, "multilayer_incineration", unit_cost=Decimal("-0.01")),
     "the strap pathway must be the pre-policy choice"),
    (lambda c: _with_route(c, LANDFILL_ROUTE, unit_cost=Decimal("0.07")),
     "subsidy thresholds must order landfill below glass"),
    # tau = 0.061 / 0.01503 = 4.0585..., 5.6% below 4.3
    (lambda c: _with_route(c, STRAP_ROUTE, unit_emissions=Decimal("0.065")),
     "landfill tax threshold 4.058549567531603459747172322 strays more than 0.02 from 4.3"),
    (lambda c: replace(c, modifiers=replace(c.modifiers, loss_cost_coeff=Decimal("2.64"))),
     "loss_cost_coeff is 2.64, anchors expect 2.63"),
    (lambda c: replace(c, modifiers=replace(c.modifiers, affected_route_ids=())),
     "the glass route must respond to the wash-loop modifiers"),
], ids=["landfill-emissions", "demand", "missing-route", "circularity-order", "cost-order",
        "pre-policy-choice", "subsidy-order", "tax-threshold", "modifier", "glass-unaffected"])
def test_calibration_rejects_a_perturbed_scenario(case, perturb, message):
    with pytest.raises(CalibrationError) as err:
        check_calibration(perturb(case))
    assert message in err.value.violations


def test_calibrate_case_study_structure(case):
    assert case.demand == 1000
    assert len(case.routes) == 7
    assert cheapest_route(case).route_id == STRAP_ROUTE
    assert case.is_pure_linear()
    # the four fillers are dominated: something calibrated is cheaper,
    # cleaner, and more circular
    mains = [case.route(rid) for rid in (STRAP_ROUTE, LANDFILL_ROUTE, GLASS_ROUTE)]
    for r in case.routes:
        if r.route_id in (STRAP_ROUTE, LANDFILL_ROUTE, GLASS_ROUTE):
            continue
        assert any(m.unit_cost < r.unit_cost and m.unit_emissions < r.unit_emissions
                   and m.unit_circularity > r.unit_circularity for m in mains)


@pytest.mark.parametrize("engine", ["closed-form", "pso"])
@pytest.mark.parametrize("scenario_name", ["case", "pso_capped"])
def test_a_sweep_row_is_the_leader_outcome_at_its_budget(request, scenario_name, engine):
    scenario = request.getfixturevalue(scenario_name)
    params = PsoParams(swarm_size=4, iterations=3, restarts=1, seed=2)
    budgets = [Decimal(-20), Decimal(0), Decimal(30)]

    def leader(s, objective, budget):
        if engine == "pso":
            return optimize(s, objective, budget, params=params)
        return closed_form_optimize(s, objective, budget)

    rows = budget_sweep(scenario, Objective.MIN_GHG, budgets, engine=engine, params=params)
    assert rows == [leader(scenario, Objective.MIN_GHG, b) for b in budgets]
    [sweep] = sensitivity_distance(scenario, [Decimal(15)], budgets, Objective.MAX_CIRCULARITY,
                                   engine=engine, params=params)
    moved = apply_modifiers(scenario, 15, scenario.modifiers.glass_loss_fraction)
    assert list(sweep.records) == [leader(moved, Objective.MAX_CIRCULARITY, b) for b in budgets]


@pytest.mark.parametrize("engine", ["closed-form", "pso"])
def test_a_sweep_skips_each_budget_the_follower_refuses(engine):
    # 17 fixed-cost technologies exceed the follower's bound at every budget
    routes = tuple(RouteSpec(route_id=f"r{i:02d}", product_id="p", technology_id=f"t{i:02d}",
                             unit_cost=Decimal("0.01"), unit_emissions=Decimal("0.01"),
                             unit_circularity=Decimal(1)) for i in range(17))
    scenario = Scenario(demand=3, routes=routes,
                        technology_fixed_costs={r.technology_id: Decimal("0.01") for r in routes})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = budget_sweep(scenario, Objective.MIN_GHG, [0, 1], engine=engine)
    assert records == []
    assert [(w.category, str(w.message)) for w in caught] == [
        (UserWarning, f"budget {budget}: 17 fixed-cost technologies exceed 16")
        for budget in (0, 1)]


def test_a_sweep_refuses_an_unknown_engine_or_mode_before_any_budget(case, pair):
    # a misspelt mode used to drop every row with one warning per budget
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="unknown engine: 'swarm'"):
            budget_sweep(pair, Objective.MIN_GHG, [0, 10], engine="swarm")
        with pytest.raises(ValidationError, match="unknown mode: 'tax_only'"):
            budget_sweep(pair, Objective.MIN_GHG, [0, 10], mode="tax_only")
        with pytest.raises(ValidationError, match="unknown mode: 'tax_only'"):
            sensitivity_distance(case, [7, 15], [0, 10], Objective.MIN_GHG, mode="tax_only")
