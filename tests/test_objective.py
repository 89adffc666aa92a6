"""One `Objective` for every layer: the three mappings it carries, and an
unknown objective refused with ValidationError by every public entry,
whatever the policy. Routes a and b cost alike, so the zero policy leaves
them tied and a tax of 1 leaves a cheapest alone."""

import warnings
from decimal import Decimal

import pytest

from ecolever import (
    GridAxis,
    LowerResult,
    Objective,
    PolicyVector,
    PsoParams,
    RouteSpec,
    Scenario,
    ValidationError,
    budget_sweep,
    closed_form_optimize,
    enumerate_optimistic,
    evaluate_policy,
    grid_bilevel,
    optimistic_select,
    optimize,
    solve_lower,
    solve_lower_greedy,
)
from ecolever.engine import best_policy, exact_leader, rank
from ecolever.lower import leader_floor

BAD = "min_ghg"


def _route(rid, cost, emissions, circ):
    return RouteSpec(route_id=rid, product_id="p", technology_id=f"t_{rid}",
                     unit_cost=Decimal(cost), unit_emissions=Decimal(emissions),
                     unit_circularity=Decimal(circ))


PAIR = Scenario(demand=10, routes=(_route("a", "0.05", "0.1", "1.0"),
                                   _route("b", "0.05", "0.2", "1.5")))
POLICIES = {"tie": PolicyVector.zero(), "tie-free": PolicyVector(tax_rate=Decimal(1))}


def _rank(policy):
    value, result, _ = evaluate_policy(PAIR, policy, Objective.MIN_GHG, 0)
    return rank(BAD, Decimal(0), policy, value, result)


ENTRIES = {
    "solve_lower": lambda p: solve_lower(PAIR, p, BAD, 0),
    "leader_floor": lambda p: leader_floor(PAIR, p, BAD),
    "optimistic_select": lambda p: optimistic_select(
        PAIR, p, solve_lower_greedy(PAIR, p)[0], BAD, 0),
    "evaluate_policy": lambda p: evaluate_policy(PAIR, p, BAD, 0),
    "rank": _rank,
    "best_policy": lambda p: best_policy(PAIR, BAD, 0, [p]),
    "exact_leader": lambda p: exact_leader(PAIR, BAD, 0),
    "optimize": lambda p: optimize(PAIR, BAD, 0),
    "closed_form_optimize": lambda p: closed_form_optimize(PAIR, BAD, 0),
    "budget_sweep": lambda p: budget_sweep(PAIR, BAD, [0, 1]),
    "grid_bilevel": lambda p: grid_bilevel(
        PAIR, BAD, 0, tax_axis=GridAxis(lo=p.tax_rate, hi=p.tax_rate, steps=1),
        subsidy_axes={}),
    "enumerate_optimistic": lambda p: enumerate_optimistic(PAIR, p, BAD, 0),
}


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_entry_refuses_an_unknown_objective(entry, policy):
    # budget_sweep used to turn the refusal into one warning per budget and
    # return no rows; a warning now fails the test instead of passing it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="unknown objective: 'min_ghg'"):
            ENTRIES[entry](POLICIES[policy])


def test_capped_entries_refuse_an_unknown_objective():
    capped = Scenario(demand=10, routes=PAIR.routes, capacity_limits={"a": 6, "b": 6})
    for call in (lambda: solve_lower(capped, PolicyVector.zero(), BAD, 0),
                 lambda: leader_floor(capped, PolicyVector.zero(), BAD),
                 lambda: optimize(capped, BAD, 0, params=PsoParams(iterations=1))):
        with pytest.raises(ValidationError):
            call()


def test_values_convert_and_members_pass_through():
    assert Objective("max-circularity") is Objective.MAX_CIRCULARITY
    assert Objective(Objective.MIN_GHG) is Objective.MIN_GHG
    with pytest.raises(ValidationError):
        Objective(None)


def test_the_three_mappings():
    result = LowerResult(allocation=None, industry_cost=Decimal("7"),
                         total_emissions=Decimal("1.5"),
                         circularity_index=Decimal("1.275"),
                         subsidy_outlay=Decimal(0), tax_payment=Decimal(0))
    a = PAIR.route("a")
    expected = {
        Objective.MIN_GHG: (Decimal("1.5"), Decimal("1.5"), Decimal("0.1")),
        Objective.MAX_CIRCULARITY: (Decimal("1.275"), Decimal("-1.275"), Decimal("-1.0")),
        Objective.MOST_PROFITABLE: (Decimal("7"), Decimal("7"), Decimal(0)),
    }
    for objective, (value, head, unit) in expected.items():
        assert objective.natural_value(result) == value
        assert objective.head(value) == head
        assert objective.unit_head(a) == unit

