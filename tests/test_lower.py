import dataclasses
import itertools
import math
import time
import tracemalloc
from decimal import Decimal, Inexact, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ecolever import (
    Allocation,
    Objective,
    PolicyVector,
    ResourceBoundError,
    RouteSpec,
    Scenario,
    enumerate_lower,
    enumerate_optimistic,
    evaluate_allocation,
    evaluate_policy,
    optimistic_select,
    optimize,
    solve_lower,
    solve_lower_greedy,
    solve_lower_milp,
)
from ecolever import lower, model
from ecolever.lower import net_unit_cost
from ecolever.model import apply_modifiers
from ecolever.oracle import _compositions
from ecolever.analysis import LANDFILL_ROUTE, STRAP_ROUTE


def _route(rid, cost, emissions, circ):
    return RouteSpec(route_id=rid, product_id="p", technology_id=f"tech_{rid}",
                     unit_cost=Decimal(cost), unit_emissions=Decimal(emissions),
                     unit_circularity=Decimal(circ))


@pytest.fixture
def trio():
    return Scenario(demand=100, routes=(
        _route("dirty_cheap", "0.01", "0.10", "1.0"),
        _route("clean_mid", "0.05", "0.02", "1.2"),
        _route("circular_dear", "0.08", "0.05", "1.8"),
    ))


def test_net_unit_cost_formula(trio):
    policy = PolicyVector(tax_rate=Decimal("2"),
                          subsidy_rates={"clean_mid": Decimal("0.03")})
    r = trio.route("clean_mid")
    assert net_unit_cost(r, policy) == Decimal("0.05") + 2 * Decimal("0.02") - Decimal("0.03")


def test_greedy_picks_cheapest_and_canonicalizes(trio):
    tie, alloc = solve_lower_greedy(trio, PolicyVector.zero())
    assert tie.route_ids == ("dirty_cheap",)
    assert alloc.units == {"dirty_cheap": 100}


def test_greedy_detects_exact_ties(trio):
    # 0.01 + t*0.10 == 0.05 + t*0.02  =>  t = 0.5
    tie, alloc = solve_lower_greedy(trio, PolicyVector(tax_rate=Decimal("0.5")))
    assert tie.route_ids == ("clean_mid", "dirty_cheap")
    assert alloc.units == {"clean_mid": 100}  # lexicographically first member


def test_greedy_near_tie_is_not_a_tie():
    # a prices 5e-10 above b: not a tie, so all demand goes to b on every path
    scn = Scenario(demand=10, routes=(_route("a", "0.0500000005", "0", "1"),
                                      _route("b", "0.05", "0", "1")))
    policy = PolicyVector.zero()
    tie, canonical = solve_lower_greedy(scn, policy)
    assert tie.route_ids == ("b",)
    assert canonical.units == {"b": 10}
    assert solve_lower_milp(scn, policy).allocation == canonical
    assert enumerate_lower(scn, policy).optima == (canonical,)


def test_near_tie_policy_does_not_buy_the_landfill_switch(case):
    # landfill prices 6.8e-10 per unit above strap under this policy, so the
    # follower stays on strap whatever the leader would prefer
    policy = PolicyVector(tax_rate=Decimal("0.949564108309"),
                          subsidy_rates={LANDFILL_ROUTE: Decimal("0.047449719492")})
    _, result, _ = evaluate_policy(case, policy, Objective.MIN_GHG, 0)
    assert result.allocation.units == {STRAP_ROUTE: case.demand}


def test_optimistic_select_respects_funds(trio):
    # Subsidy ties clean_mid with dirty_cheap; funds allow only a partial move.
    policy = PolicyVector(subsidy_rates={"clean_mid": Decimal("0.04")})
    tie, _ = solve_lower_greedy(trio, policy)
    assert set(tie.route_ids) == {"clean_mid", "dirty_cheap"}
    picked = optimistic_select(trio, policy, tie, Objective.MIN_GHG, Decimal("1"))
    # 25 units at 0.04 spend the whole budget
    assert picked.units_for("clean_mid") == 25
    assert picked.total() == 100
    spent = evaluate_allocation(trio, picked, policy)
    assert spent.subsidy_outlay <= Decimal("1")


def test_optimistic_select_caps_at_funds_exactly(trio):
    # 25 units at 0.04 cost 1.00, 1e-7 more than the funds: only 24 fit
    policy = PolicyVector(subsidy_rates={"clean_mid": Decimal("0.04")})
    tie, _ = solve_lower_greedy(trio, policy)
    picked = optimistic_select(trio, policy, tie, Objective.MIN_GHG, Decimal("0.9999999"))
    assert picked.units_for("clean_mid") == 24
    assert picked.total() == 100


def test_optimistic_select_prefers_leader_direction(trio):
    policy = PolicyVector(subsidy_rates={"clean_mid": Decimal("0.04")})
    tie, _ = solve_lower_greedy(trio, policy)
    generous = Decimal("1000")
    ghg = optimistic_select(trio, policy, tie, Objective.MIN_GHG, generous)
    assert ghg.units == {"clean_mid": 100}
    # maximizing circularity keeps the un-subsidized member cheapest to the
    # leader but clean_mid is still the more circular of the tied pair
    circ = optimistic_select(trio, policy, tie, Objective.MAX_CIRCULARITY, generous)
    assert circ.units == {"clean_mid": 100}
    profit = optimistic_select(trio, policy, tie, Objective.MOST_PROFITABLE, generous)
    assert profit.total() == 100


def test_optimistic_select_with_zero_funds_keeps_the_free_member(trio):
    policy = PolicyVector(subsidy_rates={"clean_mid": Decimal("0.04")})
    tie, _ = solve_lower_greedy(trio, policy)
    picked = optimistic_select(trio, policy, tie, Objective.MIN_GHG, Decimal("0"))
    assert picked.units == {"dirty_cheap": 100}


def test_optimistic_select_handles_negative_net_outlay(trio):
    # at the tax that ties the two routes, both carry negative funds weight
    # (tax income exceeds the zero subsidy), so either member is affordable
    policy = PolicyVector(tax_rate=Decimal("0.5"))
    tie, _ = solve_lower_greedy(trio, policy)
    picked = optimistic_select(trio, policy, tie, Objective.MIN_GHG, Decimal("0"))
    assert picked.units == {"clean_mid": 100}


def test_greedy_rejects_non_linear_scenarios(trio):
    capped = Scenario(demand=100, routes=trio.routes,
                      capacity_limits={"dirty_cheap": 50})
    with pytest.raises(Exception):
        solve_lower_greedy(capped, PolicyVector.zero())


# --- integer follower -------------------------------------------------------

def test_milp_matches_enumeration_with_caps_and_fixed_costs(capped_case):
    policy = PolicyVector(tax_rate=Decimal("2.5"),
                          subsidy_rates={"multilayer_landfill": Decimal("0.03")})
    fast = solve_lower_milp(capped_case, policy)
    reference = enumerate_lower(capped_case, policy)
    assert fast.industry_cost == reference.best.industry_cost


def test_milp_handles_pure_linear_too(small_case):
    policy = PolicyVector(tax_rate=Decimal("1.5"))
    fast = solve_lower_milp(small_case, policy)
    tie, canonical = solve_lower_greedy(small_case, policy)
    direct = evaluate_allocation(small_case, canonical, policy)
    assert fast.industry_cost == direct.industry_cost
    assert fast.allocation == canonical


def test_milp_respects_capacities(capped_case):
    result = solve_lower_milp(capped_case, PolicyVector.zero())
    for rid, units in result.allocation.units.items():
        assert units <= capped_case.capacity_of(rid)
    assert result.allocation.total() == capped_case.demand


def test_milp_charges_fixed_costs(trio):
    # fixed cost large enough to overcome a small per-unit advantage
    scn = Scenario(demand=100, routes=trio.routes,
                   technology_fixed_costs={"tech_dirty_cheap": Decimal("500")})
    result = solve_lower_milp(scn, PolicyVector.zero())
    assert "dirty_cheap" not in result.allocation.units
    reference = enumerate_lower(scn, PolicyVector.zero())
    assert result.industry_cost == reference.best.industry_cost


def test_milp_infeasible_when_caps_cannot_meet_demand(trio):
    # scenario validation refuses all-capped-below-demand up front
    with pytest.raises(Exception):
        Scenario(demand=100, routes=trio.routes,
                 capacity_limits={r.route_id: 10 for r in trio.routes})


@st.composite
def shared_technology_catalogs(draw):
    """Capped catalogs whose routes share a few technologies, with fixed
    costs that may be zero, at enumeration-friendly demand."""
    demand = draw(st.integers(0, 10))
    n = draw(st.integers(2, 6))
    cents = st.integers(-20, 60).map(lambda c: Decimal(c) / 100)
    routes = tuple(
        RouteSpec(route_id=f"r{i}", product_id="p",
                  technology_id=f"t{draw(st.integers(0, 2))}",
                  unit_cost=draw(cents),
                  unit_emissions=Decimal(draw(st.integers(0, 30))) / 100,
                  unit_circularity=Decimal(draw(st.integers(0, 20))) / 10)
        for i in range(n))
    techs = sorted({r.technology_id for r in routes})
    fixed = {t: Decimal(draw(st.integers(0, 300))) / 100
             for t in techs if draw(st.booleans())}
    caps = {r.route_id: draw(st.integers(0, demand))
            for r in routes[:-1] if draw(st.booleans())}
    scenario = Scenario(demand=demand, routes=routes,
                        technology_fixed_costs=fixed, capacity_limits=caps)
    subsidized = draw(st.lists(st.sampled_from([r.route_id for r in routes]),
                               unique=True, max_size=2))
    policy = PolicyVector(tax_rate=Decimal(draw(st.integers(0, 400))) / 100,
                          subsidy_rates={rid: Decimal(draw(st.integers(1, 40))) / 100
                                         for rid in subsidized})
    return scenario, policy


@given(shared_technology_catalogs())
def test_milp_matches_enumeration_when_routes_share_technologies(instance):
    scenario, policy = instance
    result = solve_lower_milp(scenario, policy)
    reference = enumerate_lower(scenario, policy)
    assert result.industry_cost == reference.best.industry_cost
    assert result.allocation in reference.optima
    assert lower.least_cost(scenario, policy) == reference.best.industry_cost


@given(shared_technology_catalogs(), st.integers(1, 9), st.integers(1, 9))
def test_cheaper_fill_finds_the_least_cost_at_a_rational_policy(instance, over, under):
    # the drawn policy's rates over small integers: most net prices have no
    # finite decimal, as at the points of `engine.least_policy`'s LP
    scenario, policy = instance
    tax = Fraction(policy.tax_rate) / over
    subsidies = {rid: Fraction(rate) / under for rid, rate in policy.subsidy_rates.items()}
    fees = scenario.technology_fixed_costs

    def cost(units):
        used = {scenario.route(rid).technology_id for rid, n in units.items() if n}
        return (sum((Fraction(r.unit_cost) + tax * Fraction(r.unit_emissions)
                     - subsidies.get(r.route_id, 0)) * units.get(r.route_id, 0)
                    for r in scenario.routes) + sum(Fraction(fees.get(t, 0)) for t in used))

    ids = scenario.route_ids()
    splits = [{rid: n for rid, n in zip(ids, split) if n}
              for split in _compositions(scenario.demand, [scenario.capacity_of(r) for r in ids])]
    costs = [cost(units) for units in splits]
    least, worst = min(costs), max(costs)
    # the policy as integers over their least common denominator
    over = math.lcm(tax.denominator, *(rate.denominator for rate in subsidies.values()))
    policy = (over, int(tax * over), {rid: int(rate * over) for rid, rate in subsidies.items()})
    assert lower.cheaper_fill(scenario, *policy, splits[costs.index(least)]) is None
    fill = lower.cheaper_fill(scenario, *policy, splits[costs.index(worst)])
    assert fill is None if worst == least else cost(fill) == least


@st.composite
def catalogs_with_planted_ties(draw):
    """Pure-linear catalogs in which a drawn group of routes prices at one
    exact net cost under the drawn policy, some written with extra zeros."""
    n = draw(st.integers(2, 7))
    tax = Decimal(draw(st.integers(0, 400))) / 100
    subsidies = {f"r{i}": Decimal(draw(st.integers(1, 40))) / 100
                 for i in range(n) if draw(st.booleans())}
    emissions = [Decimal(draw(st.integers(0, 30))) / 100 for _ in range(n)]
    tied = draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=n))
    level = Decimal(draw(st.integers(-20, 60))) / 100
    routes = []
    for i in range(n):
        rid = f"r{i}"
        if i in tied:
            cost = level - tax * emissions[i] + subsidies.get(rid, Decimal(0))
            if draw(st.booleans()):
                cost = cost.quantize(Decimal("1e-6"))  # same value, other exponent
        else:
            cost = Decimal(draw(st.integers(-20, 60))) / 100
        routes.append(RouteSpec(route_id=rid, product_id="p", technology_id=f"t{i}",
                                unit_cost=cost, unit_emissions=emissions[i],
                                unit_circularity=Decimal(1)))
    scenario = Scenario(demand=draw(st.integers(0, 50)), routes=tuple(draw(st.permutations(routes))))
    return scenario, PolicyVector(tax_rate=tax, subsidy_rates=subsidies)


@given(catalogs_with_planted_ties())
def test_greedy_tie_set_is_every_route_at_the_minimum_net_cost(instance):
    scenario, policy = instance
    costs = {r.route_id: net_unit_cost(r, policy) for r in scenario.routes}
    best = min(costs.values())
    tie, canonical = solve_lower_greedy(scenario, policy)
    assert tie.net_unit_cost == best
    assert tie.route_ids == tuple(sorted(rid for rid, c in costs.items() if c == best))
    assert canonical.units == ({tie.route_ids[0]: scenario.demand} if scenario.demand else {})


def _fills_by_subset(scenario, policy):
    """Reference for `lower._cheapest_fills`: every subset of F, by size and
    then in `itertools.combinations` order, enumerated as a technology-id
    tuple, its fees summed, its routes filled in price order up to the
    capacities the scenario reports, and the cost-minimal ones kept."""
    fixed = scenario.technology_fixed_costs
    order = sorted((net_unit_cost(r, policy), r.route_id, r.technology_id)
                   for r in scenario.routes)
    best_cost, fills = None, []
    for size in range(len(fixed) + 1):
        for active in itertools.combinations(sorted(fixed), size):
            cost = sum(map(fixed.get, active), model.ZERO)
            units, remaining, marginal = {}, scenario.demand, None
            for net, rid, tech in order:
                if tech in fixed and tech not in active:
                    continue
                take = min(remaining, scenario.capacity_of(rid))
                if take:
                    units[rid] = take
                    cost += net * take
                    remaining -= take
                marginal = net
                if remaining == 0:
                    break
            if remaining:
                continue
            if best_cost is None or cost < best_cost:
                best_cost, fills = cost, [(active, units, marginal)]
            elif cost == best_cost:
                fills.append((active, units, marginal))
    return fills


_wide_fees = st.lists(st.tuples(st.integers(10 ** 28, 10 ** 29 - 1), st.integers(-4, 0)),
                      min_size=3, max_size=3)


@given(shared_technology_catalogs(), _wide_fees)
def test_fills_match_the_per_subset_enumeration(instance, wide_fees):
    # Under the trap, wherever the reference answers, the search answers
    # too, with the reference's first fill and its distinct fills; a face
    # mask is a cost-minimal subset that holds each tied subset with its
    # fill. A fee of 29 digits rounds in any sum, so the reference refuses
    # every catalog with one, and the search only where it pays one.
    scenario, policy = instance
    wide = {tech: Decimal(f"{digits}E{e}")
            for tech, (digits, e) in zip(sorted({r.technology_id for r in scenario.routes}),
                                         wide_fees)}
    for fixed in (scenario.technology_fixed_costs, wide):
        scn = dataclasses.replace(scenario, technology_fixed_costs=fixed)
        techs = sorted(fixed)
        try:
            with model.exactly("the reference"):
                reference = _fills_by_subset(scn, policy)
        except ResourceBoundError:
            continue
        with model.exactly("the search"):
            _, fills = lower._cheapest_fills(scn, policy)

        def fill(units, marginal):
            return tuple(sorted(units.items())), marginal if scn.demand else None

        assert fill(*fills[0][1:]) == fill(*reference[0][1:])
        assert {fill(units, marginal) for _, units, marginal in fills} == {
            fill(units, marginal) for _, units, marginal in reference}
        subsets = [sum(1 << techs.index(t) for t in active) for active, _, _ in reference]
        for mask, _, _ in fills:
            assert mask in subsets
        for subset, (_, units, marginal) in zip(subsets, reference):
            assert any(subset & ~mask == 0 and fill(u, m) == fill(units, marginal)
                       for mask, u, m in fills)
        assert subsets[0] & ~fills[0][0] == 0


@settings(max_examples=200)
@given(shared_technology_catalogs(), st.data())
def test_the_search_answers_as_the_enumeration_on_shared_technologies(instance, data):
    scenario, policy = instance
    enumeration = enumerate_lower(scenario, policy)
    drawn = sorted({r.subsidy_outlay - r.tax_payment for r in
                    (evaluate_allocation(scenario, a, policy) for a in enumeration.optima)})
    funds = data.draw(st.sampled_from(drawn)) + data.draw(
        st.sampled_from([Decimal("-0.01"), Decimal(0), Decimal("0.01")]))
    for objective in (Objective.MIN_GHG, Objective.MAX_CIRCULARITY):
        assert solve_lower(scenario, policy, objective, funds).allocation == \
            enumerate_optimistic(scenario, policy, objective, funds, enumeration)
    assert solve_lower_milp(scenario, policy).allocation.units == \
        _fills_by_subset(scenario, policy)[0][1]


def test_a_zero_fee_technology_the_fill_never_reaches_still_widens_the_face():
    # r1 ties r0 on price but is cleaner; the fill stops on r0 before it
    # meets t1, whose zero fee makes r1 free to use
    scn = Scenario(demand=3, routes=(
        RouteSpec(route_id="r0", product_id="p", technology_id="t0", unit_cost=Decimal("0.1"),
                  unit_emissions=Decimal("0.05"), unit_circularity=Decimal(1)),
        RouteSpec(route_id="r1", product_id="p", technology_id="t1", unit_cost=Decimal("0.1"),
                  unit_emissions=Decimal("0.01"), unit_circularity=Decimal(1))),
        technology_fixed_costs={"t1": Decimal(0)}, capacity_limits={"r0": 5})
    zero = PolicyVector.zero()
    assert solve_lower(scn, zero, Objective.MIN_GHG, 0).allocation.units == {"r1": 3}
    assert solve_lower_milp(scn, zero).allocation.units == {"r0": 3}


def test_paying_a_zero_fee_and_forbidding_it_tie_and_the_smaller_subset_fills_first():
    # the search meets a's zero fee first; forbidding it fills b at the same
    # price, a tie a bound pruning at equality would drop
    scn = Scenario(demand=2, routes=(
        RouteSpec(route_id="a", product_id="p", technology_id="t0", unit_cost=Decimal("0.1"),
                  unit_emissions=Decimal("0.01"), unit_circularity=Decimal(1)),
        RouteSpec(route_id="b", product_id="p", technology_id="t1", unit_cost=Decimal("0.1"),
                  unit_emissions=Decimal("0.05"), unit_circularity=Decimal(1))),
        technology_fixed_costs={"t0": Decimal(0)}, capacity_limits={"a": 2})
    zero = PolicyVector.zero()
    assert solve_lower_milp(scn, zero).allocation.units == {"b": 2}
    assert solve_lower(scn, zero, Objective.MIN_GHG, 0).allocation.units == {"a": 2}


def _zero_emission(rid, technology, cost):
    return RouteSpec(route_id=rid, product_id="p", technology_id=technology,
                     unit_cost=Decimal(cost), unit_emissions=Decimal(0),
                     unit_circularity=Decimal(1))


def test_a_bound_that_would_round_is_searched_not_pruned():
    # the first leaf pays t0 and t1; forbidding t1 leaves one unit after a
    # cost of -19.5 and bounds the branch by r2's 28-digit price, whose sum
    # needs 30 digits; r2 takes nothing, and that branch holds the optimum
    scn = Scenario(demand=2, routes=(
        _zero_emission("r0", "t0", "-20"), _zero_emission("r1", "t1", "0.2"),
        _zero_emission("r2", "t2", "0." + "2" * 27 + "3"), _zero_emission("r3", "t3", "0.3")),
        technology_fixed_costs={"t0": Decimal("0.5"), "t1": Decimal(1)},
        capacity_limits={"r0": 1, "r2": 0})
    with pytest.raises(ResourceBoundError), model.exactly("the bound"):
        Decimal("-19.5") + scn.route("r2").unit_cost
    result = solve_lower_milp(scn, PolicyVector.zero())
    reference = enumerate_lower(scn, PolicyVector.zero())
    assert result.allocation.units == {"r0": 1, "r3": 1}
    assert result.industry_cost == reference.best.industry_cost == Decimal("-19.2")
    assert result.allocation in reference.optima


def test_capacities_that_just_cover_demand_fill_every_route():
    # only the branch that pays every fee covers demand; every forbidding
    # branch runs out of routes
    scn = Scenario(demand=6, routes=(
        _zero_emission("r0", "t0", "0.3"), _zero_emission("r1", "t1", "0.1"),
        _zero_emission("r2", "t2", "0.2")),
        technology_fixed_costs={"t0": Decimal("0.5"), "t1": Decimal(2), "t2": Decimal("0.01")},
        capacity_limits={"r0": 1, "r1": 2, "r2": 3})
    result = solve_lower_milp(scn, PolicyVector.zero())
    assert result.allocation.units == {"r0": 1, "r1": 2, "r2": 3}
    assert result.industry_cost == enumerate_lower(scn, PolicyVector.zero()).best.industry_cost
    assert result.industry_cost == Decimal("3.61")


def test_milp_refuses_too_many_fixed_cost_technologies():
    routes = tuple(_route(f"r{i:02d}", "0.01", "0.01", "1") for i in range(17))
    start = time.perf_counter()
    tracemalloc.start()
    try:
        scn = Scenario(demand=1, routes=routes,
                       technology_fixed_costs={r.technology_id: Decimal("0.1") for r in routes})
        with pytest.raises(ResourceBoundError):
            solve_lower_milp(scn, PolicyVector.zero())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5
    assert peak < 64 * 1024  # refused before any fill table is built


def _sixteen_technologies():
    routes = tuple(_route(f"r{i:02d}", "0.01", "0.01", "1") for i in range(16))
    return Scenario(demand=1, routes=routes,
                    technology_fixed_costs={r.technology_id: Decimal("0.1") for r in routes})


def test_a_fill_table_is_built_on_first_use_and_stays_compact():
    # one row per route and one fee per technology
    tracemalloc.start()
    try:
        scn = _sixteen_technologies()
        _, built = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = solve_lower_milp(scn, PolicyVector.zero())
        _, solved = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built < 64 * 1024
    assert solved < 16 * 1024 * 1024
    assert result.industry_cost == Decimal("0.11")


def test_sixteen_fixed_cost_technologies_at_demand_1_answer_quickly():
    # the fill stops on its first route, so the search meets no other technology
    scn = _sixteen_technologies()
    start = time.perf_counter()
    results = [solve_lower_milp(scn, PolicyVector.zero()) for _ in range(20)]
    assert time.perf_counter() - start < 0.2
    for result in results:
        assert result.allocation.units == {"r00": 1}
        assert result.industry_cost == Decimal("0.11")


@pytest.mark.parametrize("mode", ["combined", "tax-only", "subsidy-only"])
@pytest.mark.parametrize("objective", [Objective.MIN_GHG, Objective.MAX_CIRCULARITY])
def test_sixteen_equal_technologies_need_no_swarm(no_search, objective, mode):
    # every fill is one unit of the same value, so no certificate applies,
    # but the zero policy's key is the least any policy can have
    out = optimize(_sixteen_technologies(), objective, 0, mode=mode)
    assert out.policy == PolicyVector.zero() and out.feasible
    assert out.response.allocation.units == {"r00": 1}


def test_a_fill_table_never_goes_stale(capped_case):
    # each copy's answer moves off the original's, so a table carried over
    # from the original would answer wrongly
    policy = PolicyVector(tax_rate=Decimal("2.5"),
                          subsidy_rates={"multilayer_landfill": Decimal("0.03")})
    original = solve_lower_milp(capped_case, policy)
    fees = {**capped_case.technology_fixed_costs,
            "landfill_site": Decimal(5), "film_recycling_line": Decimal(1)}
    copies = (dataclasses.replace(capped_case, capacity_limits=dict.fromkeys(capped_case.route_ids(), 3)),
              dataclasses.replace(capped_case, technology_fixed_costs=fees),
              apply_modifiers(capped_case, 300, "0.3"))
    for scn in copies:
        result = solve_lower_milp(scn, policy)
        reference = enumerate_lower(scn, policy)
        assert result.industry_cost == reference.best.industry_cost
        assert result.allocation in reference.optima
        assert result.allocation != original.allocation


# --- one follower for both scenario classes ---------------------------------

@pytest.mark.parametrize("capacity_limits", [{}, {"a_dirty": 1000, "b_clean": 1000}],
                         ids=["uncapped", "non-binding-capacities"])
def test_tie_goes_to_the_leader_on_both_classes(capacity_limits):
    # both routes cost 1 at zero policy; min-GHG prefers the cleaner one
    scn = Scenario(demand=1000, capacity_limits=capacity_limits,
                   routes=(_route("a_dirty", "1", "0.02", "1"), _route("b_clean", "1", "0.01", "1")))
    value, result, _ = evaluate_policy(scn, PolicyVector.zero(), Objective.MIN_GHG, 0)
    assert value == Decimal("10.00")
    assert result.allocation.units == {"b_clean": 1000}


def test_three_route_tie_beats_pair_rounding():
    # all three net to 0.19; pair rounding stops at {r1: 2, r2: 5}
    scn = Scenario(demand=7, routes=(_route("r0", "0.4", "0.05", "0.6"),
                                     _route("r1", "0.1", "0.03", "0.5"),
                                     _route("r2", "0.5", "0.02", "1.2")))
    policy = PolicyVector(tax_rate=Decimal(3),
                          subsidy_rates={"r0": Decimal("0.36"), "r2": Decimal("0.37")})
    result = solve_lower(scn, policy, Objective.MAX_CIRCULARITY, Decimal("1.7"))
    assert result.allocation.units == {"r0": 1, "r1": 1, "r2": 5}
    assert result.subsidy_outlay - result.tax_payment == Decimal("1.67")
    assert enumerate_optimistic(scn, policy, Objective.MAX_CIRCULARITY, Decimal("1.7")) \
        == result.allocation


def test_evaluate_policy_validates_the_policy_once(case, monkeypatch):
    calls = []
    real = lower.validate_policy
    monkeypatch.setattr(lower, "validate_policy", lambda *a: calls.append(a) or real(*a))
    monkeypatch.setattr(model, "validate_allocation", None)  # nothing re-validates
    evaluate_policy(case, PolicyVector(tax_rate=Decimal("0.5")), Objective.MIN_GHG, 0)
    assert len(calls) == 1


def _six_route_tie(case, capped, subsidized=True):
    # six case-study routes priced to one net cost through tax and subsidies
    tax, level = Decimal(1), Decimal("0.1")
    routes = [r for r in case.routes if r.route_id != "multilayer_pyrolysis"]
    subsidies = ({r.route_id: Decimal(7 + 5 * i) / 1000 for i, r in enumerate(routes)}
                 if subsidized else {})
    routes = tuple(dataclasses.replace(
        r, unit_cost=level - tax * r.unit_emissions + subsidies.get(r.route_id, 0))
        for r in routes)
    caps = {r.route_id: 400 for r in routes} if capped else {}
    return (Scenario(demand=1000, routes=routes, capacity_limits=caps),
            PolicyVector(tax_rate=tax, subsidy_rates=subsidies))


@pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
@pytest.mark.parametrize("objective", [Objective.MIN_GHG, Objective.MAX_CIRCULARITY])
def test_six_route_tie_at_demand_1000_resolves_quickly(case, capped, objective):
    scn, policy = _six_route_tie(case, capped)
    canonical = solve_lower_milp(scn, policy)
    generous = solve_lower(scn, policy, objective, Decimal(10) ** 6)
    for funds in (Decimal(-60), Decimal(-45)):  # both bind: the favorite overdraws
        start = time.perf_counter()
        result = solve_lower(scn, policy, objective, funds)
        assert time.perf_counter() - start < 5.0
        assert result.industry_cost == canonical.industry_cost
        assert result.subsidy_outlay <= funds + result.tax_payment
        assert generous.subsidy_outlay > funds + generous.tax_payment
    # Unsubsidized, each route draws -tax * emissions from the funds, so under
    # min-ghg every route lies on one line in (funds drawn, leader value) and
    # a binding cap asks for a subset-sum: the selector refuses it in time.
    scn, policy = _six_route_tie(case, capped, subsidized=False)
    canonical = solve_lower_milp(scn, policy)
    for funds in (Decimal(-60), Decimal(-82)):
        start = time.perf_counter()
        if objective is Objective.MIN_GHG:
            with pytest.raises(ResourceBoundError, match="selector nodes"):
                solve_lower(scn, policy, objective, funds)
        else:
            result = solve_lower(scn, policy, objective, funds)
            assert result.industry_cost == canonical.industry_cost
            assert result.subsidy_outlay <= funds + result.tax_payment
        assert time.perf_counter() - start < 5.0


def test_alike_routes_search_as_one():
    # three copies of one unsubsidized route tie with a zero-emission route at
    # tax 113; the copies lie on one line in (funds drawn, leader value), which
    # stalled the search past MAX_SELECTOR_NODES. As one route they take the
    # 161 units the funds need, filled in route-id order.
    copies = tuple(dataclasses.replace(_route(rid, "0", "0.001", "0"), subsidizable=False)
                   for rid in ("r0", "r1", "r2"))
    routes = copies + (_route("r3", "0.113", "0", "1"),)
    policy = PolicyVector(tax_rate=Decimal(113))
    big = Scenario(demand=757, routes=routes)
    result = solve_lower(big, policy, Objective.MIN_GHG, Decimal("-18.168"))
    assert result.allocation.units == {"r0": 161, "r3": 596}
    small = Scenario(demand=9, routes=routes, capacity_limits={"r0": 2})
    for funds in ("0", "-0.2", "-0.5", "-1.1"):
        for objective in (Objective.MIN_GHG, Objective.MAX_CIRCULARITY):
            assert (solve_lower(small, policy, objective, Decimal(funds)).allocation
                    == enumerate_optimistic(small, policy, objective, Decimal(funds)))


_tenths = st.integers(-20, 20).map(lambda n: Decimal(n) / 10)


@given(data=st.data(), rest=st.integers(1, 12))
def test_pair_closed_form_matches_the_search(data, rest):
    # the two-route closed form and the branch-and-bound it stands in for
    upper = [data.draw(st.integers(1, rest)) for _ in range(2)]
    if sum(upper) <= rest:  # a face always has room to spare
        upper[1] = rest
    values = data.draw(st.lists(_tenths, min_size=2, max_size=2))
    outlays = data.draw(st.lists(_tenths, min_size=2, max_size=2))
    weights = data.draw(st.lists(_tenths, min_size=2, max_size=2))
    funds = data.draw(_tenths)
    pair = lower._best_pair(list(zip(values, outlays)), weights, upper, rest, funds)
    *scaled, budget = model.to_integers(weights + [funds])
    cost = lower._fold(model.to_integers(values), model.to_integers(outlays), rest)
    assert pair == lower._branch_and_bound(cost, scaled, upper, rest, budget)


@given(digits=st.integers(10 ** 27, 10 ** 28 - 1), sign=st.sampled_from([-1, 1]),
       rest=st.integers(1, 12), ulps=st.integers(-1, 1), tenths=_tenths)
def test_one_route_closed_form_matches_the_search(digits, sign, rest, ulps, tenths):
    # a 28-digit weight times rest may need 30 digits, and the Decimal
    # product rounds: funds on it or one unit in its last place either side
    # show whether the fit is decided exactly
    weight = Decimal(sign * digits).scaleb(-27)
    product = weight * rest
    near = product.next_plus() if ulps > 0 else product.next_minus() if ulps < 0 else product
    for funds in (near, tenths):
        scaled, budget = model.to_integers([weight, funds])
        assert lower._best_whole(weight, rest, funds) \
            == lower._branch_and_bound([0], [scaled], [rest], rest, budget)


def test_a_one_route_tie_skips_the_search(trio, monkeypatch):
    # the only split of a one-route tie puts all of demand on it
    monkeypatch.setattr(lower, "_branch_and_bound", None)  # fails if called
    tie, canonical = solve_lower_greedy(trio, PolicyVector.zero())
    assert len(tie.route_ids) == 1
    for funds in (Decimal(0), Decimal(-1)):
        assert optimistic_select(trio, PolicyVector.zero(), tie, Objective.MIN_GHG,
                                 funds) == canonical


def test_optimistic_select_validates_its_policy():
    from ecolever import ValidationError
    # a and b tie at the zero policy; b may not be subsidized and zz is no route
    pair = Scenario(demand=10, routes=(
        _route("a", "0.05", "0.1", "1.0"),
        dataclasses.replace(_route("b", "0.05", "0.2", "1.5"), subsidizable=False)))
    tie, _ = solve_lower_greedy(pair, PolicyVector.zero())
    policy = PolicyVector(subsidy_rates={"b": Decimal("0.01"), "zz": Decimal(1)})
    with pytest.raises(ValidationError) as selected:
        optimistic_select(pair, policy, tie, Objective.MIN_GHG, 0)
    with pytest.raises(ValidationError) as solved:
        solve_lower(pair, policy, Objective.MIN_GHG, 0)
    assert selected.value.violations == solved.value.violations
    assert len(selected.value.violations) == 2


def test_optimistic_select_at_zero_demand_allocates_nothing(trio):
    idle = dataclasses.replace(trio, demand=0)
    policy = PolicyVector(tax_rate=Decimal("0.5"))
    tie, _ = solve_lower_greedy(idle, policy)
    assert optimistic_select(idle, policy, tie, Objective.MIN_GHG, 0) == Allocation({})
    assert solve_lower(idle, policy, Objective.MIN_GHG, 0).allocation == Allocation({})


NEAR_TIE = Scenario(demand=5, routes=(_route("a", "0.1", "0.01", "1"),
                                      _route("b", "0.1", "0.05", "1")))
# b nets 0.1 - 1E-30, which 28 digits round to a's 0.1: a rounded follower
# ties them and answers {a: 5} at 0.50, though {b: 5} costs 5E-30 less
TINY_SUBSIDY = PolicyVector(subsidy_rates={"b": Decimal("1E-30")})


@pytest.mark.parametrize("entry, message", [
    (lambda: solve_lower(NEAR_TIE, TINY_SUBSIDY, Objective.MIN_GHG, 0), "exact pricing"),
    (lambda: solve_lower_milp(NEAR_TIE, TINY_SUBSIDY), "exact pricing"),
    (lambda: solve_lower_greedy(NEAR_TIE, TINY_SUBSIDY), "exact pricing"),
    (lambda: optimistic_select(NEAR_TIE, TINY_SUBSIDY, lower.TieSet(("a", "b"), Decimal("0.1")),
                               Objective.MIN_GHG, 0), "exact pricing"),
    (lambda: enumerate_lower(NEAR_TIE, TINY_SUBSIDY), "exact enumeration"),
    (lambda: evaluate_allocation(NEAR_TIE, Allocation({"b": 5}), TINY_SUBSIDY), "exact pricing"),
    (lambda: lower.least_cost(NEAR_TIE, TINY_SUBSIDY), "exact pricing"),
], ids=["solve_lower", "solve_lower_milp", "solve_lower_greedy", "optimistic_select",
        "enumerate_lower", "evaluate_allocation", "least_cost"])
def test_a_net_price_that_would_round_is_refused_on_every_path(entry, message):
    with pytest.raises(ResourceBoundError,
                       match=f"{message} needs more than the context's 28 digits"):
        entry()
    assert not getcontext().traps[Inexact]  # the trap is restored
