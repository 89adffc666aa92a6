"""Metamorphic relations of the leader: pairs of solves whose answers must
agree, checked on random catalogs through both engines, so no reference
solver is needed (Chen, Kuo, Liu, Poon, Towey, Tse and Zhou, "Metamorphic
testing", ACM Computing Surveys, 2018)."""

from dataclasses import replace
from decimal import Decimal

from hypothesis import given, settings, strategies as st

from ecolever import Objective, PsoParams, RouteSpec, Scenario, optimize
from ecolever.analysis import closed_form_optimize
from ecolever.engine import MODES, rank

LEADERS = {
    "optimize": lambda scenario, objective, budget, mode: optimize(
        scenario, objective, budget, PsoParams(swarm_size=4, iterations=4, restarts=1), mode),
    "closed-form": closed_form_optimize,
}

_ROUTE = st.tuples(st.integers(1, 100),                    # unit cost, 1e-3 $
                   st.integers(-30, 100).map(lambda e: max(e, 0)),  # emissions, 1e-3 kg; ~25% zero
                   st.integers(1, 200),                    # circularity, 1e-2
                   st.integers(0, 9).map(lambda d: d < 7))  # subsidizable, 70%


@st.composite
def _catalogs(draw, capped=st.booleans()):
    """2-4 routes and demand 3-40; a capped catalog puts capacities on some
    routes after the first and fees on some technologies."""
    specs = draw(st.lists(_ROUTE, min_size=2, max_size=4))
    routes = tuple(
        RouteSpec(route_id=f"r{i}", product_id="p", technology_id=f"t{i % 3}",
                  unit_cost=Decimal(c) / 1000, unit_emissions=Decimal(e) / 1000,
                  unit_circularity=Decimal(ci) / 100, subsidizable=sub)
        for i, (c, e, ci, sub) in enumerate(specs))
    demand = draw(st.integers(3, 40))
    caps, fees = {}, {}
    if draw(capped):
        caps = {r.route_id: draw(st.integers(0, demand)) for r in routes[1:] if draw(st.booleans())}
        fees = {f"t{k}": Decimal(draw(st.integers(0, 50))) / 100
                for k in range(min(3, len(routes))) if draw(st.booleans())}
        caps = caps if caps or fees else {"r0": demand}
    return Scenario(demand=demand, routes=routes, capacity_limits=caps,
                    technology_fixed_costs=fees)


_OBJECTIVES = st.sampled_from([Objective.MIN_GHG, Objective.MAX_CIRCULARITY])


def _budget(scenario, per_unit):
    return Decimal(per_unit) * scenario.demand / 1000


@settings(deadline=None)
@given(_catalogs(), _OBJECTIVES, st.integers(-60, 60), st.sampled_from(MODES),
       st.sampled_from(sorted(LEADERS)), st.integers(-50, 50))
def test_a_uniform_cost_shift_changes_no_answer(scenario, objective, per_unit, mode, leader,
                                                shift):
    # every allocation's cost moves by shift * demand, and outlay less tax
    # income does not move at all
    shift = Decimal(shift) / 1000
    shifted = replace(scenario, routes=tuple(replace(r, unit_cost=r.unit_cost + shift)
                                             for r in scenario.routes))
    budget = _budget(scenario, per_unit)
    a = LEADERS[leader](scenario, objective, budget, mode)
    b = LEADERS[leader](shifted, objective, budget, mode)
    assert (a.policy, a.upper_value, a.feasible, a.response.allocation) == (
        b.policy, b.upper_value, b.feasible, b.response.allocation)
    assert (a.response.subsidy_outlay, a.response.tax_payment) == (
        b.response.subsidy_outlay, b.response.tax_payment)
    assert b.response.industry_cost == a.response.industry_cost + shift * scenario.demand


@settings(deadline=None)
@given(_catalogs(), _OBJECTIVES, st.integers(-60, 60), st.sampled_from(MODES),
       st.sampled_from(sorted(LEADERS)))
def test_a_dominated_route_changes_no_answer(scenario, objective, per_unit, mode, leader):
    # dearer than any route plus every fee, dirtier than any route, with no
    # circularity and no subsidy: no follower optimum uses it, no bound
    # either, and no candidate is derived from it
    routes = scenario.routes
    dominated = RouteSpec(
        route_id="z", product_id="p", technology_id="tz",
        unit_cost=max(r.unit_cost for r in routes)
        + sum(scenario.technology_fixed_costs.values(), Decimal(0)) + Decimal("0.001"),
        unit_emissions=max(r.unit_emissions for r in routes) + Decimal("0.001"),
        unit_circularity=Decimal(0), subsidizable=False)
    budget = _budget(scenario, per_unit)
    a = LEADERS[leader](scenario, objective, budget, mode)
    b = LEADERS[leader](replace(scenario, routes=(*routes, dominated)), objective, budget, mode)
    assert a == b


def _key(outcome):
    return rank(outcome.objective, outcome.budget, outcome.policy, outcome.upper_value,
                outcome.response)


@settings(deadline=None)
@given(_catalogs(capped=st.just(False)), _OBJECTIVES, st.integers(-60, 60),
       st.integers(-60, 60), st.sampled_from(MODES), st.sampled_from(sorted(LEADERS)))
def test_more_money_never_hurts_a_pure_linear_leader(scenario, objective, low, high, mode,
                                                     leader):
    # a policy within funds at one budget is within them at any larger one,
    # so the answer's (shortfall, objective head) never worsens as it grows
    low, high = sorted((low, high))
    poorer = LEADERS[leader](scenario, objective, _budget(scenario, low), mode)
    richer = LEADERS[leader](scenario, objective, _budget(scenario, high), mode)
    assert _key(richer)[:2] <= _key(poorer)[:2]


@settings(deadline=None)
@given(_catalogs(capped=st.just(True)), _OBJECTIVES, st.integers(-60, 60),
       st.integers(-60, 60), st.sampled_from(MODES), st.sampled_from(sorted(LEADERS)))
def test_more_money_never_hurts_a_capped_leader(scenario, objective, low, high, mode, leader):
    # the same relation where capacities and fees apply: the search over
    # vertex responses keeps it, as the analytic candidates alone did not
    low, high = sorted((low, high))
    poorer = LEADERS[leader](scenario, objective, _budget(scenario, low), mode)
    richer = LEADERS[leader](scenario, objective, _budget(scenario, high), mode)
    assert _key(richer)[:2] <= _key(poorer)[:2]
