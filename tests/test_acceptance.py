"""Acceptance suite for the calibrated coffee-packaging case study.

Eleven criteria, each pinned to the published anchor values at the stated
tolerance. Every test emits one "criterion NN PASS" line (echoed into the
terminal by the tee capture mode set in pyproject) so the run log carries an
explicit pass/fail record per criterion; a failed assertion leaves the line
unprinted and the test red.
"""

import subprocess
import sys
import time
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import src_env
from ecolever import (
    Objective,
    PolicyVector,
    PsoParams,
    RouteSpec,
    Scenario,
    budget_sweep,
    enumerate_lower,
    enumerate_optimistic,
    evaluate_allocation,
    evaluate_policy,
    fit_slope,
    optimize,
    required_budget_for_fixed_tax,
    sensitivity_distance,
    sensitivity_loss,
    solve_lower,
    solve_lower_greedy,
    solve_lower_milp,
    tax_budget_line,
    tax_threshold,
)
from ecolever.analysis import GLASS_ROUTE, LANDFILL_ROUTE
from ecolever.engine import SUBSIDY_ONLY, TAX_ONLY


def _pass(n, message):
    print(f"criterion {n:02d} PASS: {message}", flush=True)


def _rel(value, reference):
    return abs(Decimal(value) - Decimal(reference)) / abs(Decimal(reference))


def test_criterion_01_landfill_tax_threshold(case):
    tau = tax_threshold(case, LANDFILL_ROUTE)
    assert tau == Decimal("0.061") / Decimal("0.01427")
    assert _rel(tau, Decimal("4.3")) <= Decimal("0.02")
    best = min(_time_one(lambda: tax_threshold(case, LANDFILL_ROUTE))
               for _ in range(5))
    assert best < 0.001
    _pass(1, f"threshold {tau:.4f} $/kg within 2% of 4.3, {best * 1e6:.0f} us")


def _time_one(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_tax_alone_never_selects_glass(case):
    start = time.perf_counter()
    worst_circ = Decimal(0)
    for k in range(0, 1001):
        policy = PolicyVector(tax_rate=Decimal(k) / 100)
        _, result, feasible = evaluate_policy(case, policy, Objective.MIN_GHG, 0)
        assert feasible
        assert result.allocation.units_for(GLASS_ROUTE) == 0
        worst_circ = max(worst_circ, result.circularity_index)
    elapsed = time.perf_counter() - start
    assert worst_circ <= Decimal("1.275")
    assert elapsed < 1.0
    _pass(2, f"1001 tax points, glass never chosen, circularity <= {worst_circ}, "
             f"{elapsed:.2f}s")


def _interior_line(b, kink, lo, hi):
    return lo + (hi - lo) * b / kink


def _check_ghg_subsidy_sweep(records):
    span = Decimal("64.24") - Decimal("49.97")
    for r in records:
        assert r.feasible
        assert r.policy.tax_rate == 0
        if r.budget == 0:
            assert abs(r.upper_value - Decimal("64.24")) <= Decimal("1e-6")
        elif r.budget >= 61:
            assert abs(r.upper_value - Decimal("49.97")) <= Decimal("1e-6")
        else:
            expected = _interior_line(r.budget, Decimal(61),
                                      Decimal("64.24"), Decimal("49.97"))
            assert abs(r.upper_value - expected) <= Decimal("0.005") * span


def test_criterion_03_subsidy_only_emission_sweep(case):
    budgets = [Decimal(5 * k) for k in range(15)]  # 0..70
    start = time.perf_counter()
    closed = budget_sweep(case, Objective.MIN_GHG, budgets, mode=SUBSIDY_ONLY,
                          engine="closed-form")
    closed_s = time.perf_counter() - start
    assert closed_s < 1.0
    _check_ghg_subsidy_sweep(closed)

    params = PsoParams(swarm_size=10, iterations=40, restarts=2, seed=0)
    start = time.perf_counter()
    swarm = budget_sweep(case, Objective.MIN_GHG, budgets, mode=SUBSIDY_ONLY,
                         engine="pso", params=params)
    swarm_s = time.perf_counter() - start
    assert swarm_s < 30.0
    _check_ghg_subsidy_sweep(swarm)
    _pass(3, f"64.24 -> 49.97 over 15 budgets, linear interior; closed form "
             f"{closed_s:.2f}s, swarm {swarm_s:.1f}s")


def test_criterion_04_subsidy_only_circularity_sweep(case):
    budgets = [Decimal(5 * k) for k in range(17)]  # 0..80
    records = budget_sweep(case, Objective.MAX_CIRCULARITY, budgets,
                           mode=SUBSIDY_ONLY, engine="closed-form")
    span = Decimal("1.475") - Decimal("1.275")
    values = []
    for r in records:
        assert r.feasible and r.policy.tax_rate == 0
        values.append(r.upper_value)
        if r.budget == 0:
            assert abs(r.upper_value - Decimal("1.275")) <= Decimal("1e-6")
        elif r.budget >= 67:
            assert abs(r.upper_value - Decimal("1.475")) <= Decimal("1e-6")
        else:
            expected = _interior_line(r.budget, Decimal(67),
                                      Decimal("1.275"), Decimal("1.475"))
            assert abs(r.upper_value - expected) <= Decimal("0.005") * span
    assert values == sorted(values)
    _pass(4, "circularity 1.275 -> 1.475 over 17 budgets, saturates past 67")


FULL = PsoParams(swarm_size=10, iterations=200, restarts=5, seed=0)


def test_criterion_05_zero_budget_min_ghg_policy(case):
    start = time.perf_counter()
    out = optimize(case, Objective.MIN_GHG, 0, params=FULL)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert out.feasible
    assert out.upper_value == Decimal("49.97")
    assert out.response.allocation.units == {LANDFILL_ROUTE: 1000}
    assert _rel(out.policy.tax_rate, Decimal("0.9")) <= Decimal("0.10")
    assert _rel(out.policy.subsidy_for(LANDFILL_ROUTE), Decimal("0.047")) <= Decimal("0.10")
    gap = abs(out.response.tax_payment - out.response.subsidy_outlay)
    assert gap <= Decimal("0.01")
    _pass(5, f"min-GHG zero budget: landfill at 49.97, tax "
             f"{out.policy.tax_rate:.4f}, funds gap {gap:.2E}, {elapsed:.1f}s")


def test_criterion_05_zero_budget_max_circularity_policy(case):
    start = time.perf_counter()
    out = optimize(case, Objective.MAX_CIRCULARITY, 0, params=FULL)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert out.feasible
    assert abs(out.upper_value - Decimal("1.475")) <= Decimal("1e-6")
    assert out.response.allocation.units == {GLASS_ROUTE: 1000}
    assert _rel(out.policy.tax_rate, Decimal("1.05")) <= Decimal("0.10")
    assert _rel(out.policy.subsidy_for(GLASS_ROUTE), Decimal("0.052")) <= Decimal("0.10")
    _pass(5, f"max-circularity zero budget: glass at 1.475, tax "
             f"{out.policy.tax_rate:.4f}, {elapsed:.1f}s")


def _fit_root(points):
    slope = fit_slope(points)
    n = len(points)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    intercept = mean_y - slope * mean_x
    return -intercept / slope


def test_criterion_06_budget_tax_lines_and_kinks(case):
    budgets = [Decimal(-60 + 10 * k) for k in range(17)]
    params = PsoParams(swarm_size=10, iterations=30, restarts=1, seed=0)
    line = tax_budget_line(case, LANDFILL_ROUTE)
    ghg = budget_sweep(case, Objective.MIN_GHG, budgets, engine="pso", params=params)
    assert len(ghg) == 17
    for r in ghg:
        expected = line.tax_at(r.budget)
        if expected > 0:
            assert _rel(r.policy.tax_rate, expected) <= Decimal("0.01")
        else:
            assert r.policy.tax_rate == 0
    ghg_root = _fit_root([(r.budget, r.policy.tax_rate) for r in ghg if r.policy.tax_rate > 0])
    assert abs(ghg_root - Decimal(61)) <= 1

    circ = budget_sweep(case, Objective.MAX_CIRCULARITY, budgets,
                        engine="pso", params=params)
    circ_root = _fit_root([(r.budget, r.policy.tax_rate) for r in circ if r.policy.tax_rate > 0])
    assert abs(circ_root - Decimal(67)) <= 1
    _pass(6, f"tax lines within 1% at 17 budgets; kinks at {ghg_root:.2f} "
             f"and {circ_root:.2f}")


def test_criterion_07_fixed_tax_operating_points(case):
    tax = Decimal("0.1")
    ghg = required_budget_for_fixed_tax(case, tax, LANDFILL_ROUTE)
    circ = required_budget_for_fixed_tax(case, tax, GLASS_ROUTE)
    assert _rel(ghg.budget, Decimal("54.58")) <= Decimal("0.05")
    assert _rel(circ.budget, Decimal("60.58")) <= Decimal("0.05")
    # the companion income anchor is a coarse graph reading, hence the wide band
    assert _rel(ghg.tax_income, Decimal(4)) <= Decimal("0.25")
    # the implied corner policies really do self-finance at those budgets
    for req, target in ((ghg, LANDFILL_ROUTE), (circ, GLASS_ROUTE)):
        subsidy = req.subsidy_outlay / case.demand
        policy = PolicyVector(tax_rate=tax, subsidy_rates={target: subsidy})
        _, result, feasible = evaluate_policy(case, policy, Objective.MIN_GHG,
                                              req.budget)
        assert feasible
        assert result.allocation.units_for(target) == case.demand
    _pass(7, f"required budgets {ghg.budget:.2f} / {circ.budget:.2f}, "
             f"tax income {ghg.tax_income:.3f}")


def test_criterion_08_wash_distance_sensitivity(case):
    distances = [Decimal(7), Decimal(15), Decimal(65), Decimal(140)]
    budgets = [Decimal(0), Decimal(30), Decimal(60)]
    ghg = sensitivity_distance(case, distances, budgets, Objective.MIN_GHG)
    picks = [set(s.dominant_routes) for s in ghg]
    assert picks[0] == {GLASS_ROUTE} and picks[1] == {GLASS_ROUTE}
    assert picks[2] == {LANDFILL_ROUTE} and picks[3] == {LANDFILL_ROUTE}

    circ = sensitivity_distance(case, distances, budgets, Objective.MAX_CIRCULARITY)
    assert all(set(s.dominant_routes) == {GLASS_ROUTE} for s in circ)
    magnitudes = [abs(s.tax_income_slope) for s in circ]
    assert all(b > a for a, b in zip(magnitudes, magnitudes[1:]))
    # same-pathway pairs on the GHG side: the glass pair steepens too, while
    # the landfill pair is distance-invariant
    ghg_mag = [abs(s.tax_income_slope) for s in ghg]
    assert ghg_mag[1] > ghg_mag[0]
    assert ghg_mag[3] == ghg_mag[2]
    _pass(8, f"pathway glass@7,15 landfill@65,140; income slopes steepen "
             f"{magnitudes[0]:.4f} -> {magnitudes[-1]:.4f}")


def test_criterion_09_wash_loss_sensitivity(case):
    losses = [Decimal("0.01"), Decimal("0.0313"), Decimal("0.1")]
    budgets = [Decimal(0), Decimal(30), Decimal(60)]
    ghg = sensitivity_loss(case, losses, budgets, Objective.MIN_GHG)
    assert set(ghg[0].dominant_routes) == {GLASS_ROUTE}
    assert set(ghg[1].dominant_routes) == {LANDFILL_ROUTE}
    assert set(ghg[2].dominant_routes) == {LANDFILL_ROUTE}

    circ = sensitivity_loss(case, losses, budgets, Objective.MAX_CIRCULARITY)
    assert circ[1].subsidy_slope > 0
    assert circ[2].subsidy_slope < 0          # worn loop: more budget, less outlay
    assert circ[2].industry_cost_slope < 0    # yet industry still gains from budget
    _pass(9, f"pathway glass@1% landfill@3.13%,10%; subsidy slope at 10% loss "
             f"{circ[2].subsidy_slope:.4f} with industry cost slope "
             f"{circ[2].industry_cost_slope:.2f}")


def _random_routes(rng, count):
    routes = []
    for i in range(count):
        routes.append(RouteSpec(
            route_id=f"r{i}", product_id="p", technology_id=f"t{i}",
            unit_cost=Decimal(int(rng.integers(-30, 121))) / 1000,
            unit_emissions=Decimal(int(rng.integers(0, 201))) / 1000,
            unit_circularity=Decimal(int(rng.integers(0, 201))) / 100,
        ))
    return tuple(routes)


def _random_policy(rng, routes):
    rates = {}
    for r in routes:
        if rng.random() < 0.4:
            rate = Decimal(int(rng.integers(1, 101))) / 1000
            rates[r.route_id] = rate
    return PolicyVector(tax_rate=Decimal(int(rng.integers(0, 501))) / 100,
                        subsidy_rates=rates)


def test_criterion_10_solver_equivalence_battery():
    rng = np.random.default_rng(20260819)
    start = time.perf_counter()
    for trial in range(200):
        routes = _random_routes(rng, int(rng.integers(2, 9)))
        scn = Scenario(demand=int(rng.integers(1, 13)), routes=routes)
        policy = _random_policy(rng, routes)
        reference = enumerate_lower(scn, policy).best.industry_cost
        _, canonical = solve_lower_greedy(scn, policy)
        greedy_cost = evaluate_allocation(scn, canonical, policy).industry_cost
        integer_cost = solve_lower_milp(scn, policy).industry_cost
        assert greedy_cost == reference, f"trial {trial}: greedy off"
        assert integer_cost == reference, f"trial {trial}: integer follower off"

    for trial in range(20):
        routes = _random_routes(rng, int(rng.integers(2, 7)))
        demand = int(rng.integers(2, 13))
        # last route stays uncapped so the instance is always feasible
        caps = {r.route_id: int(rng.integers(1, demand + 1))
                for r in routes[:min(2, len(routes) - 1)]}
        fixed = {r.technology_id: Decimal(int(rng.integers(0, 101))) / 100
                 for r in routes[:3]}
        scn = Scenario(demand=demand, routes=routes,
                       technology_fixed_costs=fixed, capacity_limits=caps)
        policy = _random_policy(rng, routes)
        reference = enumerate_lower(scn, policy).best.industry_cost
        integer_cost = solve_lower_milp(scn, policy).industry_cost
        assert integer_cost == reference, f"capped trial {trial}: integer follower off"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _pass(10, f"220 randomized instances agree exactly, {elapsed:.1f}s")


@st.composite
def _tied_follower_instances(draw):
    """Catalogs of 2-5 routes in which a drawn group of up to all of them
    prices at one exact net cost, on shared technologies; half of them carry
    fixed costs (zero allowed) and capacities (zero allowed). Demand is 0-9
    and the funds run from negative to generous, so some instances have no
    optimum within funds."""
    n = draw(st.integers(2, 5))
    tax = Decimal(draw(st.integers(0, 300))) / 100
    subsidies = {f"r{i}": Decimal(draw(st.integers(1, 4))) / 10
                 for i in range(n) if draw(st.booleans())}
    emissions = [Decimal(draw(st.integers(0, 3))) / 10 for _ in range(n)]  # repeats often
    tied = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    level = Decimal(draw(st.integers(-20, 60))) / 100
    routes = tuple(
        RouteSpec(route_id=f"r{i}", product_id="p", technology_id=f"t{draw(st.integers(0, 2))}",
                  unit_cost=(level - tax * emissions[i] + subsidies.get(f"r{i}", Decimal(0))
                             if i in tied else Decimal(draw(st.integers(-20, 60))) / 100),
                  unit_emissions=emissions[i],
                  unit_circularity=Decimal(draw(st.integers(0, 4))) / 2)
        for i in range(n))
    demand = draw(st.integers(0, 9))
    fixed, caps = {}, {}
    if draw(st.booleans()):
        fixed = {t: Decimal(draw(st.integers(0, 100))) / 100
                 for t in sorted({r.technology_id for r in routes}) if draw(st.booleans())}
        caps = {r.route_id: draw(st.integers(0, demand))
                for r in routes[:-1] if draw(st.booleans())}
    scenario = Scenario(demand=demand, routes=routes,
                        technology_fixed_costs=fixed, capacity_limits=caps)
    return (scenario, PolicyVector(tax_rate=tax, subsidy_rates=subsidies),
            draw(st.sampled_from([Objective.MIN_GHG, Objective.MAX_CIRCULARITY])),
            Decimal(draw(st.integers(-300, 300))) / 100)


@settings(max_examples=300)
@given(_tied_follower_instances())
def test_follower_picks_the_enumerated_optimistic_allocation(instance):
    scenario, policy, objective, funds = instance
    result = solve_lower(scenario, policy, objective, funds)
    assert result.allocation == enumerate_optimistic(scenario, policy, objective, funds)


def _run_cli(args, out_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "ecolever.cli", *args, "--out", str(out_dir)],
        capture_output=True, text=True, timeout=300, env=src_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_11_byte_identical_reruns(tmp_path):
    sweep_args = ["sweep", "--budgets=-60:100:20", "--engine", "pso",
                  "--iterations", "25", "--restarts", "1", "--seed", "5"]
    _run_cli(sweep_args, tmp_path / "a")
    _run_cli(sweep_args, tmp_path / "b")
    a = (tmp_path / "a" / "sweep.csv").read_bytes()
    b = (tmp_path / "b" / "sweep.csv").read_bytes()
    assert a == b and a

    sens_args = ["sensitivity", "--parameter", "loss", "--values", "0.01,0.1",
                 "--budgets", "0,30,60", "--objective", "max-circularity"]
    _run_cli(sens_args, tmp_path / "c")
    _run_cli(sens_args, tmp_path / "d")
    c = (tmp_path / "c" / "sensitivity.csv").read_bytes()
    d = (tmp_path / "d" / "sensitivity.csv").read_bytes()
    assert c == d and c

    run_args = ["run", "--budget", "10", "--iterations", "25", "--restarts", "2",
                "--seed", "5"]
    _run_cli(run_args, tmp_path / "e")
    _run_cli(run_args, tmp_path / "f")
    e = (tmp_path / "e" / "outcome.json").read_bytes()
    f = (tmp_path / "f" / "outcome.json").read_bytes()
    assert e == f and e
    _pass(11, "sweep, sensitivity, and run outputs byte-identical across reruns")
