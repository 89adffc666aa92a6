import hashlib
import itertools
import math
import random
import tracemalloc
from decimal import Decimal

import pytest
from hypothesis import assume, given, strategies as st

from ecolever import (
    Allocation,
    GridAxis,
    Objective,
    PolicyVector,
    ResourceBoundError,
    RouteSpec,
    Scenario,
    ValidationError,
    enumerate_lower,
    enumerate_optimistic,
    grid_bilevel,
)
from ecolever import oracle
from ecolever.model import evaluate_allocation
from ecolever.oracle import MAX_ENUMERATION, _compositions, _enumeration_size


def _route(rid, cost, emissions, circ):
    return RouteSpec(route_id=rid, product_id="p", technology_id=f"tech_{rid}",
                     unit_cost=Decimal(cost), unit_emissions=Decimal(emissions),
                     unit_circularity=Decimal(circ))


@pytest.fixture
def tiny():
    return Scenario(demand=4, routes=(
        _route("a", "0.10", "0.3", "1.0"),
        _route("b", "0.20", "0.1", "1.4"),
    ))


def test_compositions_cover_the_whole_simplex():
    combos = list(_compositions(4, [None, None, None]))
    assert len(combos) == math.comb(4 + 2, 2)
    assert all(sum(c) == 4 for c in combos)
    assert len(set(combos)) == len(combos)


def test_compositions_respect_caps():
    combos = list(_compositions(4, [2, None]))
    assert all(c[0] <= 2 for c in combos)
    assert sorted(combos) == [(0, 4), (1, 3), (2, 2)]


def test_enumerate_lower_finds_the_exact_argmin(tiny):
    out = enumerate_lower(tiny, PolicyVector.zero())
    assert out.count == 5
    assert out.best.allocation.units == {"a": 4}
    assert out.best.industry_cost == Decimal("0.40")
    assert out.optima == (out.best.allocation,)


def test_enumerate_lower_reports_every_tied_optimum(tiny):
    # tax rate 0.5 equalizes the two routes' net unit costs
    out = enumerate_lower(tiny, PolicyVector(tax_rate=Decimal("0.5")))
    assert len(out.optima) == 5  # every split of 4 units is optimal
    assert out.best.industry_cost == Decimal("1.00")


def test_enumerate_lower_refuses_oversized_spaces(tiny):
    big = Scenario(demand=10_000_000, routes=tiny.routes)
    with pytest.raises(ResourceBoundError, match="enumeration space exceeds"):
        enumerate_lower(big, PolicyVector.zero())
    wide = Scenario(demand=40, routes=tuple(
        _route(f"r{i}", "0.1", "0.1", "1.0") for i in range(6)))
    assert math.comb(40 + 5, 5) > MAX_ENUMERATION
    with pytest.raises(ResourceBoundError, match="enumeration space exceeds"):
        enumerate_lower(wide, PolicyVector.zero())


def test_enumerate_lower_bounds_the_space_within_the_caps():
    # C(29, 19) compositions ignore the caps; only 11 respect them
    routes = tuple(_route(f"r{i:02d}", "0.1", "0.1", "1.0") for i in range(20))
    scenario = Scenario(demand=10, routes=routes,
                        capacity_limits={f"r{i:02d}": 0 for i in range(18)})
    out = enumerate_lower(scenario, PolicyVector.zero())
    assert out.count == 11
    assert len(out.optima) == 11


@given(st.integers(0, 12), st.lists(st.integers(0, 14), min_size=1, max_size=5))
def test_enumeration_size_counts_the_compositions_within_caps(total, caps):
    visited = sum(1 for _ in _compositions(total, caps))
    assert _enumeration_size(total, caps) == min(visited, MAX_ENUMERATION + 1)


@pytest.mark.parametrize("total, k, cap", [
    (30, 6, 30), (40, 6, 40), (40, 6, 10), (60, 8, 12), (10, 20, 1), (3000, 2, 1500)])
def test_enumeration_size_saturates_past_the_bound(total, k, cap):
    # compositions of total into k parts of at most cap, by inclusion-exclusion
    exact = sum((-1) ** j * math.comb(k, j) * math.comb(total - j * (cap + 1) + k - 1, k - 1)
                for j in range(k + 1) if total >= j * (cap + 1))
    assert _enumeration_size(total, [cap] * k) == min(exact, MAX_ENUMERATION + 1)


def test_grid_axis_points_and_validation():
    axis = GridAxis(lo=Decimal(0), hi=Decimal(1), steps=5)
    assert axis.points() == [Decimal(0), Decimal("0.25"), Decimal("0.5"),
                             Decimal("0.75"), Decimal(1)]
    degenerate = GridAxis(lo=Decimal(2), hi=Decimal(2), steps=99)
    assert degenerate.steps == 1 and degenerate.points() == [Decimal(2)]
    with pytest.raises(ValidationError):
        GridAxis(lo=Decimal(1), hi=Decimal(0), steps=3)
    with pytest.raises(ValidationError):
        GridAxis(lo=Decimal(0), hi=Decimal(1), steps=1)


def test_grid_axis_refuses_steps_that_do_not_terminate(tiny):
    # 0.1 / 15 has no finite decimal expansion: rounding it would scan points
    # off the axis, so the points are refused, naming the axis
    axis = GridAxis(lo=Decimal(0), hi=Decimal("0.1"), steps=16)
    with pytest.raises(ValidationError) as refused:
        axis.points()
    assert "lo=0, hi=0.1, steps=16" in refused.value.violations[0]
    with pytest.raises(ValidationError):
        grid_bilevel(tiny, Objective.MIN_GHG, Decimal(0), tax_axis=axis, subsidy_axes={})
    assert GridAxis(lo=Decimal(0), hi=Decimal("0.1"), steps=17).points()[1] \
        == Decimal("0.00625")


def test_grid_bilevel_scans_and_prefers_feasible(tiny):
    policy, value, result, feasible = grid_bilevel(
        tiny, Objective.MIN_GHG, Decimal(0),
        tax_axis=GridAxis(lo=Decimal(0), hi=Decimal(1), steps=5),
        subsidy_axes={"b": GridAxis(lo=Decimal(0), hi=Decimal("0.2"), steps=5)},
    )
    assert feasible
    assert result.allocation.units == {"b": 4}
    assert value == Decimal("0.4")
    # grid contains the exact tie point t=0.5 (index 2); with zero budget the
    # self-financing corner on the grid is the winner
    assert policy.tax_rate == Decimal("0.5")


def test_grid_bilevel_refuses_oversized_grids(tiny):
    with pytest.raises(ResourceBoundError):
        grid_bilevel(
            tiny, Objective.MIN_GHG, Decimal(0),
            tax_axis=GridAxis(lo=Decimal(0), hi=Decimal(1), steps=100_000),
            subsidy_axes={"b": GridAxis(lo=Decimal(0), hi=Decimal(1), steps=101)},
        )


def test_enumerate_optimistic_ranks_a_given_enumeration(tiny):
    policy = PolicyVector(tax_rate=Decimal("0.5"))  # both routes net 0.25
    enumeration = enumerate_lower(tiny, policy)
    funds = Decimal("-0.5")  # tax income must reach 0.5: three units or more on a
    assert enumerate_optimistic(tiny, policy, Objective.MIN_GHG, funds, enumeration).units \
        == {"a": 3, "b": 1}
    for objective in (Objective.MIN_GHG, Objective.MAX_CIRCULARITY):
        assert enumerate_optimistic(tiny, policy, objective, funds, enumeration) \
            == enumerate_optimistic(tiny, policy, objective, funds)
    with pytest.raises(ValidationError):
        enumerate_optimistic(tiny, policy, Objective.MOST_PROFITABLE, 0)


def test_enumerate_lower_validates_no_composition(capped_case, monkeypatch):
    # every composition is a valid allocation by construction; the answer is
    # the one pricing each through evaluate_allocation gives
    from ecolever import model
    policy = PolicyVector(tax_rate=Decimal("1.3"),
                          subsidy_rates={"glass_wash_reuse": Decimal("0.05")})
    ids = capped_case.route_ids()
    caps = [capped_case.capacity_of(rid) for rid in ids]
    costs = [model.evaluate_allocation(capped_case, Allocation(dict(zip(ids, combo))),
                                       policy).industry_cost
             for combo in _compositions(capped_case.demand, caps)]
    calls = []
    validate = model.validate_allocation
    monkeypatch.setattr(model, "validate_allocation",
                        lambda *args: calls.append(args) or validate(*args))
    out = enumerate_lower(capped_case, policy)
    assert calls == []
    assert out.count == len(costs)
    least = min(costs)
    optima = [Allocation(dict(zip(ids, combo)))
              for combo, cost in zip(_compositions(capped_case.demand, caps), costs)
              if cost == least]
    assert out.optima == tuple(optima)
    assert out.best == model.evaluate_allocation(capped_case, optima[0], policy)
    with pytest.raises(ValidationError):  # the policy is still checked, once
        enumerate_lower(capped_case, PolicyVector(subsidy_rates={"nowhere": Decimal(1)}))


def _priced_compositions(scenario, policy):
    # the reference: every composition priced through evaluate_allocation
    ids = scenario.route_ids()
    caps = [scenario.capacity_of(rid) for rid in ids]
    allocations = [Allocation(dict(zip(ids, combo)))
                   for combo in _compositions(scenario.demand, caps)]
    return [evaluate_allocation(scenario, a, policy) for a in allocations]


@st.composite
def _catalogs(draw, fewest=1, most=6):
    # 1-6 routes (by default) over three technologies, so one fixed cost
    # often covers two or more routes, in the walk's prefix and in its last
    # two routes alike; coarse unit costs and small capacities, so optima
    # often split
    cents = st.integers(-5, 12).map(lambda c: Decimal(c) / 10)
    routes = tuple(
        RouteSpec(route_id=f"r{i}", product_id="p",
                  technology_id=draw(st.sampled_from("xyz")), unit_cost=draw(cents),
                  unit_emissions=Decimal(draw(st.integers(0, 40))) / 100,
                  unit_circularity=Decimal(1))
        for i in range(draw(st.integers(fewest, most))))
    demand = draw(st.integers(0, 9))
    fixed = {tech: Decimal(draw(st.integers(0, 4))) / 4
             for tech in sorted({r.technology_id for r in routes})}
    caps = {r.route_id: cap for r in routes
            if (cap := draw(st.none() | st.integers(0, 4))) is not None}
    assume(len(caps) < len(routes) or sum(caps.values()) >= demand)
    scenario = Scenario(demand=demand, routes=routes,
                        technology_fixed_costs=fixed, capacity_limits=caps)
    policy = PolicyVector(
        tax_rate=Decimal(draw(st.integers(0, 300))) / 100,
        subsidy_rates={r.route_id: Decimal(draw(st.integers(0, 6))) / 10
                       for r in routes if draw(st.booleans())})
    return scenario, policy


@given(_catalogs())
def test_enumerate_lower_matches_pricing_every_composition(catalog):
    scenario, policy = catalog
    results = _priced_compositions(scenario, policy)
    least = min(r.industry_cost for r in results)
    optima = [r for r in results if r.industry_cost == least]
    out = enumerate_lower(scenario, policy)
    assert out.count == len(results)
    assert out.optima == tuple(r.allocation for r in optima)
    assert out.best == optima[0]


@pytest.mark.parametrize("pair", [(0, 1), (1, 2), (0, 2)])
def test_enumerate_lower_charges_a_shared_fixed_cost_once(pair):
    # two capped routes of one technology split demand and pay its fee once:
    # 0.4 + 0.5 beats 1.2 for the third route alone
    routes = tuple(
        RouteSpec(route_id=f"r{i}", product_id="p",
                  technology_id="shared" if i in pair else "own",
                  unit_cost=Decimal("0.1") if i in pair else Decimal("0.3"),
                  unit_emissions=Decimal(0), unit_circularity=Decimal(1))
        for i in range(3))
    scenario = Scenario(demand=4, routes=routes,
                        technology_fixed_costs={"shared": Decimal("0.5")},
                        capacity_limits={f"r{i}": 2 for i in pair})
    out = enumerate_lower(scenario, PolicyVector.zero())
    assert out.optima == (Allocation({f"r{i}": 2 for i in pair}),)
    assert out.best.industry_cost == Decimal("0.9")
    assert out.count == len(_priced_compositions(scenario, PolicyVector.zero()))


@pytest.mark.parametrize("pair", [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
def test_a_shared_fixed_cost_is_paid_once_wherever_its_routes_sit(pair):
    # with four routes the last two routes' splits are scanned once per
    # remainder and shared by the prefixes; a prefix route sharing the last or
    # second-last route's technology leaves a remainder both with that fee
    # paid and with it due, so the two must not share a scan
    routes = tuple(
        RouteSpec(route_id=f"r{i}", product_id="p",
                  technology_id="shared" if i in pair else f"own{i}",
                  unit_cost=Decimal("0.1") if i in pair else Decimal("0.3"),
                  unit_emissions=Decimal(0), unit_circularity=Decimal(1))
        for i in range(4))
    scenario = Scenario(demand=4, routes=routes,
                        technology_fixed_costs={"shared": Decimal("0.5")},
                        capacity_limits={f"r{i}": 2 for i in pair})
    out = enumerate_lower(scenario, PolicyVector.zero())
    assert out.optima == (Allocation({f"r{i}": 2 for i in pair}),)
    assert out.best.industry_cost == Decimal("0.9")
    assert out.count == len(_priced_compositions(scenario, PolicyVector.zero()))


@pytest.mark.parametrize("last_cap", [0, 1])
def test_enumerate_lower_skips_remainders_the_last_two_routes_cannot_hold(last_cap):
    # the last route holds at most last_cap units and the second-last route
    # 2, so a prefix leaving more than 2 + last_cap has no split at all;
    # every route costs the same, so every composition is an optimum
    routes = tuple(_route(f"r{i}", "0.1", "0.1", "1.0") for i in range(4))
    scenario = Scenario(demand=5, routes=routes,
                        capacity_limits={"r2": 2, "r3": last_cap})
    results = _priced_compositions(scenario, PolicyVector.zero())
    out = enumerate_lower(scenario, PolicyVector.zero())
    assert out.count == len(results)
    assert out.optima == tuple(r.allocation for r in results)
    assert all(a.units.get("r3", 0) <= last_cap for a in out.optima)


@pytest.mark.parametrize("routes, demand", [(3, 400), (4, 150)])
def test_enumerate_lower_holds_memory_per_remainder_not_per_composition(routes, demand):
    # 60,501 and 512,126 compositions. The last two routes tie on every
    # split, so keeping each tied split, or each split's cost, would hold
    # 60,501 or 11,476 of them (0.7 MB for the 11,476 as ranges); runs of
    # tied splits and one least cost per remainder peak under 0.1 MB
    catalog = tuple(
        _route(f"r{i}", "0.05" if i == 0 else "0.08" if i < routes - 2 else "0.1",
               "0.1", "1.0")
        for i in range(routes))
    scenario = Scenario(demand=demand, routes=catalog,
                        capacity_limits={"r0": demand // 2})
    tracemalloc.start()
    try:
        out = enumerate_lower(scenario, PolicyVector.zero())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.count == _enumeration_size(demand, [demand // 2] + [demand] * (routes - 1))
    assert peak < 500_000


@given(_catalogs(4, 7))
def test_the_suffix_table_matches_pricing_every_composition_on_four_to_seven_routes(catalog):
    # where remainders repeat most, the table prices each split once for many
    # prefixes: the optimum, the optima in `_compositions` order and the
    # count must still be those of pricing every composition
    scenario, policy = catalog
    results = _priced_compositions(scenario, policy)
    least = min(r.industry_cost for r in results)
    optima = [r for r in results if r.industry_cost == least]
    out = enumerate_lower(scenario, policy)
    assert out.count == len(results)
    assert out.optima == tuple(r.allocation for r in optima)
    assert out.best == optima[0]


def test_the_suffix_table_holds_runs_of_tied_units():
    # 635,376 compositions and one optimum: every unit on the cheaper first
    # route. The last four routes tie on every split of every remainder:
    # keeping each tied split would hold 5,673 of them (0.37 MB as one-unit
    # ranges); one run per remainder and route peaks near 0.06 MB
    catalog = tuple(_route(f"r{i}", "0.05" if i == 0 else "0.1", "0.1", "1.0")
                    for i in range(5))
    scenario = Scenario(demand=60, routes=catalog)
    tracemalloc.start()
    try:
        out = enumerate_lower(scenario, PolicyVector.zero())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.count == math.comb(64, 4)
    assert out.optima == (Allocation({"r0": 60}),)
    assert peak < 200_000


def test_sums_past_the_context_are_answered_through_the_integer_table(monkeypatch):
    # four 28-digit prices: their sum needs 29 digits, but scaled to integers
    # no sum rounds, so the table answers, here with each composition's one price
    costs = ["9.999999999999999999999999999", "9.999999999999999999999999998",
             "9.999999999999999999999999998", "9.999999999999999999999999999"]
    routes = tuple(_route(f"r{i}", cost, "0", "1.0") for i, cost in enumerate(costs))
    scenario = Scenario(demand=1, routes=routes)
    calls = []
    table = oracle._suffix_table_optima
    monkeypatch.setattr(oracle, "_suffix_table_optima",
                        lambda *args: calls.append(args) or table(*args))
    results = _priced_compositions(scenario, PolicyVector.zero())
    least = min(r.industry_cost for r in results)
    optima = [r for r in results if r.industry_cost == least]
    out = enumerate_lower(scenario, PolicyVector.zero())
    assert len(calls) == 1
    assert out.count == len(results) == 4
    assert out.optima == tuple(r.allocation for r in optima)
    assert [a.units for a in out.optima] == [{"r2": 1}, {"r1": 1}]  # `_compositions` order
    assert out.best == optima[0]


def test_enumerate_lower_refuses_sums_it_cannot_hold_exactly(tiny):
    # a 31-digit unit cost does not fit the 28-digit context: ranking its
    # rounded price could order ties unlike price_allocation, so refuse
    fine = _route("c", "0.1000000000000000000000000000001", "0.2", "1.0")
    scenario = Scenario(demand=2, routes=tiny.routes + (fine,))
    with pytest.raises(ResourceBoundError, match="exact enumeration"):
        enumerate_lower(scenario, PolicyVector.zero())
    # one route: 11 units at 28 digits cost 29
    lone = Scenario(demand=11, routes=(_route("a", "0.1000000000000000000000000001", "0", "1"),))
    with pytest.raises(ResourceBoundError, match="exact enumeration"):
        enumerate_lower(lone, PolicyVector.zero())
    # only a losing composition, one unit each on r0 and r2, costs
    # 1E+27 + 1 + 1.1 and needs 29 digits; in integers it is ranked exactly
    # and loses, and the optima cost 2
    routes = tuple(_route(f"r{i}", cost, "0", "1.0")
                   for i, cost in enumerate(["1", "1", "1.1", "1"]))
    scenario = Scenario(demand=2, routes=routes,
                        technology_fixed_costs={"tech_r0": Decimal("1E+27")})
    out = enumerate_lower(scenario, PolicyVector.zero())
    assert [a.units for a in out.optima] == [{"r3": 2}, {"r1": 1, "r3": 1}, {"r1": 2}]
    assert out.count == 10
    assert out.best.industry_cost == 2


def test_enumerate_optimistic_validates_no_allocation(tiny, monkeypatch):
    from ecolever import model
    policy = PolicyVector(tax_rate=Decimal("0.5"))
    enumeration = enumerate_lower(tiny, policy)
    calls = []
    validate = model.validate_allocation
    monkeypatch.setattr(model, "validate_allocation",
                        lambda *args: calls.append(args) or validate(*args))
    for given_enumeration in (enumeration, None):
        picked = enumerate_optimistic(tiny, policy, Objective.MIN_GHG, Decimal("-0.5"),
                                      given_enumeration)
        assert picked.units == {"a": 3, "b": 1}
    assert calls == []
    with pytest.raises(ValidationError):  # the policy is still checked
        enumerate_optimistic(tiny, PolicyVector(subsidy_rates={"nowhere": Decimal(1)}),
                             Objective.MIN_GHG, 0, enumeration)


def _battery_catalogs():
    # seeded catalogs shaped like the benchmark's battery: 2-8 routes by
    # demand 1-12, each shape pure-linear and capped with fixed costs, once
    # with fine coefficients and once with coarse ones on shared
    # technologies, which tie often
    rng = random.Random(16)
    for count in range(2, 9):
        for demand in range(1, 13):
            for capped, coarse in itertools.product((False, True), repeat=2):
                def draw(fine, rough):  # (lo, hi, divisor) of each grade
                    lo, hi, divisor = rough if coarse else fine
                    return Decimal(rng.randint(lo, hi)) / divisor
                routes = tuple(
                    RouteSpec(route_id=f"r{i}", product_id="p",
                              technology_id=f"t{rng.randint(0, 2) if coarse else i}",
                              unit_cost=draw((-30, 120, 1000), (0, 3, 10)),
                              unit_emissions=draw((0, 200, 1000), (0, 2, 10)),
                              unit_circularity=Decimal(rng.randint(0, 200)) / 100)
                    for i in range(count))
                fixed, caps = {}, {}
                if capped:
                    caps = {r.route_id: max(1, demand // 2)
                            for r in routes[:min(2, count - 1)]}
                    fixed = {r.technology_id: draw((0, 100, 100), (0, 2, 10))
                             for r in routes[:3]}
                rates = {r.route_id: draw((1, 100, 1000), (1, 1, 10))
                         for r in routes if rng.random() < 0.4}
                policy = PolicyVector(tax_rate=draw((0, 500, 100), (0, 2, 2)),
                                      subsidy_rates=rates)
                yield Scenario(demand=demand, routes=routes, technology_fixed_costs=fixed,
                               capacity_limits=caps), policy


# SHA-256 over enumerate_lower's (best, optima, count) on `_battery_catalogs`,
# recorded from the per-composition walk and the Decimal suffix table that
# the integer table replaced
BATTERY_FINGERPRINT = "b454d7b76434f1d422a658133ded4fefb5b223c9d74f4909faaaaa94852b7ba3"


def test_enumerate_lower_keeps_its_answers_on_battery_catalogs():
    digest = hashlib.sha256()
    for scenario, policy in _battery_catalogs():
        out = enumerate_lower(scenario, policy)
        optima = [sorted(a.units.items()) for a in out.optima]
        digest.update(f"{out.best!r}|{optima}|{out.count}\n".encode())
    assert digest.hexdigest() == BATTERY_FINGERPRINT
