import math
import re
from decimal import ROUND_HALF_EVEN, Decimal, Inexact, getcontext

import pytest
from hypothesis import given, settings, strategies as st

from ecolever import (
    Allocation,
    PolicyVector,
    ResourceBoundError,
    RouteSpec,
    Scenario,
    SensitivityModifiers,
    ValidationError,
    evaluate_allocation,
)
from ecolever import model
from ecolever.errors import InvalidAllocationError
from ecolever.model import (apply_modifiers, quantize_rate, to_decimal, validate_allocation,
                            validate_policy)


def _route(rid, cost, emissions, circ, **kw):
    return RouteSpec(route_id=rid, product_id="p", technology_id=f"tech_{rid}",
                     unit_cost=Decimal(cost), unit_emissions=Decimal(emissions),
                     unit_circularity=Decimal(circ), **kw)


@pytest.fixture
def duo():
    return Scenario(demand=10, routes=(
        _route("a", "0.05", "0.10", "1.0"),
        _route("b", "0.08", "0.04", "1.5"),
    ))


def test_to_decimal_accepts_int_str_decimal():
    assert to_decimal(3, "x") == Decimal(3)
    assert to_decimal("0.1", "x") == Decimal("0.1")
    assert to_decimal(Decimal("-2.5"), "x") == Decimal("-2.5")


def test_to_decimal_rejects_floats_and_junk():
    with pytest.raises(ValidationError):
        to_decimal(0.1, "rate")
    with pytest.raises(ValidationError):
        to_decimal("not a number", "rate")
    with pytest.raises(ValidationError, match="rate: booleans are not numeric"):
        to_decimal(True, "rate")
    with pytest.raises(ValidationError, match="rate: cannot interpret list as a decimal"):
        to_decimal([1], "rate")
    violations = []
    placeholder = to_decimal(0.25, "rate", violations)
    assert placeholder == 0  # aggregation mode returns a placeholder, not a raise
    assert violations and "rate" in violations[0]


@pytest.mark.parametrize("value", [
    "NaN", "-nan", "sNaN", "Infinity", "-inf",
    Decimal("NaN"), Decimal("sNaN"), Decimal("Infinity"), Decimal("-Infinity"),
], ids=lambda v: f"{type(v).__name__}-{v}")
def test_to_decimal_rejects_non_finite_values(value):
    with pytest.raises(ValidationError) as err:
        to_decimal(value, "rate")
    assert "rate" in str(err.value)
    violations = []
    assert to_decimal(value, "rate", violations) == 0 and len(violations) == 1
    with pytest.raises(ValidationError):
        _route("a", value, "0.1", "1")
    with pytest.raises(ValidationError):
        PolicyVector(tax_rate=value)
    with pytest.raises(ValidationError):
        PolicyVector(subsidy_rates={"a": value})


def test_quantize_rate_is_idempotent_on_grid():
    q = quantize_rate(Decimal("0.94956413325031133"))
    assert q == Decimal("0.949564133250")
    assert quantize_rate(q) == q


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 1e16, -1e16])
def test_quantize_rate_refuses_values_off_the_grid(value):
    with pytest.raises(ValidationError):
        quantize_rate(value)


def _quantized(value):
    return Decimal(value).quantize(model.RATE_QUANTUM, rounding=ROUND_HALF_EVEN)


_EDGE = 2 ** 44 / 1e12  # where quantize_rate's float shortcut ends


def _steps_from(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else -math.inf)
    return x


@settings(max_examples=300)
@given(st.one_of(
    st.floats(0, 20),
    st.floats(_EDGE, 1e4),  # past the shortcut, a float product can miss by a whole quantum
    st.floats(-1e15, 1e15),
    # within 1e-3 quanta of a half quantum, where a careless rounding flips
    st.builds(lambda k, d: (k + 0.5 + d) * 1e-12,
              st.integers(0, 2 ** 44), st.floats(-1e-3, 1e-3)),
    st.builds(_steps_from, st.just(_EDGE), st.integers(-64, 64)),
    st.builds(lambda k: k / 2 ** 41, st.integers(0, 20 * 2 ** 41)),
))
def test_quantize_rate_matches_the_decimal_quantize_on_every_float(value):
    assert quantize_rate(value).as_tuple() == _quantized(value).as_tuple()


@pytest.mark.parametrize("value", [0.0, -0.0, -0.5, -1e-13, 5e-13, 1.5e-12, 2.5e-12, 5e-324,
                                   _steps_from(_EDGE, -1), _EDGE, _steps_from(_EDGE, 1)])
def test_quantize_rate_keeps_the_sign_and_the_ties_of_the_decimal_quantize(value):
    assert quantize_rate(value).as_tuple() == _quantized(value).as_tuple()


def test_route_spec_validation_collects_violations():
    with pytest.raises(ValidationError) as err:
        _route("bad", "0.1", "-0.2", "3.0")
    text = str(err.value)
    assert "unit_emissions" in text and "unit_circularity" in text


def test_scenario_rejects_duplicate_ids_and_bad_demand():
    r = _route("a", "0.05", "0.1", "1.0")
    with pytest.raises(ValidationError):
        Scenario(demand=5, routes=(r, r))
    with pytest.raises(ValidationError):
        Scenario(demand=-1, routes=(r,))
    with pytest.raises(ValidationError):
        Scenario(demand="5", routes=(r,))


def test_scenario_rejects_insufficient_total_capacity():
    routes = (_route("a", "0.05", "0.1", "1.0"), _route("b", "0.08", "0.04", "1.5"))
    with pytest.raises(ValidationError):
        Scenario(demand=10, routes=routes, capacity_limits={"a": 3, "b": 4})
    # one uncapped route can absorb anything
    Scenario(demand=10, routes=routes, capacity_limits={"a": 3})


@pytest.mark.parametrize("extras, message", [
    ({"technology_fixed_costs": {"tech_a": "-1"}}, "technology_fixed_costs[tech_a] must be >= 0"),
    ({"technology_fixed_costs": {"tech_zz": "1"}},
     "technology_fixed_costs[tech_zz]: unknown technology"),
    ({"capacity_limits": {"zz": 3}}, "capacity_limits[zz]: unknown route"),
    ({"capacity_limits": {"a": 2.5}}, "capacity_limits[a] must be a nonnegative integer"),
], ids=["negative-fee", "fee-on-unknown-technology", "cap-on-unknown-route",
        "non-integer-cap"])
def test_scenario_rejects_bad_fees_and_caps(duo, extras, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        Scenario(demand=10, routes=duo.routes, **extras)


@pytest.mark.parametrize("units, message", [
    ({"a": 1.5}, "units[a] must be an integer"),
    ({"a": -1}, "units[a] must be >= 0"),
], ids=["non-integer", "negative"])
def test_allocation_rejects_bad_units(units, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        Allocation(units=units)


def test_policy_vector_drops_zero_rates_and_rejects_negative():
    p = PolicyVector(tax_rate=Decimal("0.5"),
                     subsidy_rates={"a": Decimal("0"), "b": Decimal("0.01")})
    assert "a" not in p.subsidy_rates and p.subsidy_for("b") == Decimal("0.01")
    with pytest.raises(ValidationError):
        PolicyVector(tax_rate=Decimal("-0.1"))
    with pytest.raises(ValidationError):
        PolicyVector(subsidy_rates={"a": Decimal("-1")})


def test_validate_allocation_mass_balance(duo):
    validate_allocation(duo, Allocation(units={"a": 4, "b": 6}))
    with pytest.raises(InvalidAllocationError):
        validate_allocation(duo, Allocation(units={"a": 4, "b": 5}))
    with pytest.raises(InvalidAllocationError):
        validate_allocation(duo, Allocation(units={"a": 9, "zzz": 1}))
    capped = Scenario(demand=10, routes=duo.routes, capacity_limits={"a": 3})
    with pytest.raises(InvalidAllocationError, match="a: 4 units exceed capacity 3"):
        validate_allocation(capped, Allocation(units={"a": 4, "b": 6}))


def test_validate_policy_unknown_and_unsubsidizable(duo):
    with pytest.raises(ValidationError):
        validate_policy(duo, PolicyVector(subsidy_rates={"zzz": Decimal("0.1")}))
    frozen = Scenario(demand=10, routes=(
        _route("a", "0.05", "0.10", "1.0"),
        _route("b", "0.08", "0.04", "1.5", subsidizable=False),
    ))
    with pytest.raises(ValidationError):
        validate_policy(frozen, PolicyVector(subsidy_rates={"b": Decimal("0.1")}))


def test_evaluate_allocation_accounting_identity(duo):
    policy = PolicyVector(tax_rate=Decimal("2"), subsidy_rates={"b": Decimal("0.02")})
    result = evaluate_allocation(duo, Allocation(units={"a": 3, "b": 7}), policy)
    emissions = 3 * Decimal("0.10") + 7 * Decimal("0.04")
    outlay = 7 * Decimal("0.02")
    base = 3 * Decimal("0.05") + 7 * Decimal("0.08")
    assert result.total_emissions == emissions
    assert result.tax_payment == 2 * emissions
    assert result.subsidy_outlay == outlay
    assert result.industry_cost == base + 2 * emissions - outlay
    assert result.circularity_index == (3 * Decimal("1.0") + 7 * Decimal("1.5")) / 10


def test_fixed_costs_charged_only_for_active_technologies():
    routes = (_route("a", "0.05", "0.1", "1.0"), _route("b", "0.08", "0.04", "1.5"))
    scn = Scenario(demand=10, routes=routes,
                   technology_fixed_costs={"tech_a": Decimal("3"), "tech_b": Decimal("5")})
    only_a = evaluate_allocation(scn, Allocation(units={"a": 10}), PolicyVector.zero())
    both = evaluate_allocation(scn, Allocation(units={"a": 4, "b": 6}), PolicyVector.zero())
    assert only_a.industry_cost == 10 * Decimal("0.05") + 3
    assert both.industry_cost == 4 * Decimal("0.05") + 6 * Decimal("0.08") + 3 + 5


def test_evaluate_allocation_refuses_sums_it_cannot_hold_exactly():
    # -1E+20 + 1E-10 needs 31 digits; rounded at 28 it priced {a: 1, b: 1}
    # at 0, tied with {a: 2}, instead of 1E-10
    scn = Scenario(demand=2, routes=(_route("a", "-1E+20", "1", "1.0"),
                                     _route("b", "1E-10", "0", "1.0")))
    policy = PolicyVector(tax_rate=Decimal("1E+20"))
    assert evaluate_allocation(scn, Allocation(units={"a": 2}), policy).industry_cost == 0
    with pytest.raises(ResourceBoundError, match="exact pricing"):
        evaluate_allocation(scn, Allocation(units={"a": 1, "b": 1}), policy)
    assert not getcontext().traps[Inexact]  # the caller's context is restored


def test_circularity_undefined_at_zero_demand():
    scn = Scenario(demand=0, routes=(_route("a", "0.05", "0.1", "1.0"),))
    # the evaluator reports zero instead of failing
    result = evaluate_allocation(scn, Allocation(units={}), PolicyVector.zero())
    assert result.circularity_index == 0
    assert result.industry_cost == 0


def test_evaluate_allocation_validates_each_input_once(duo, monkeypatch):
    calls = []

    def counting(name):
        original = getattr(model, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    for name in ("validate_allocation", "validate_policy"):
        monkeypatch.setattr(model, name, counting(name))
    evaluate_allocation(duo, Allocation(units={"a": 3, "b": 7}),
                        PolicyVector(tax_rate=Decimal(2), subsidy_rates={"b": Decimal("0.01")}))
    assert sorted(calls) == ["validate_allocation", "validate_policy"]


@given(
    distance=st.integers(min_value=0, max_value=500),
    loss=st.integers(min_value=0, max_value=900),
)
def test_apply_modifiers_round_trip_is_exact(distance, loss):
    scn = Scenario(
        demand=100,
        routes=(
            _route("fixed", "0.05", "0.10", "1.0"),
            _route("loop", "0.07", "0.05", "1.4"),
        ),
        modifiers=SensitivityModifiers(
            glass_wash_distance=Decimal(65),
            glass_loss_fraction=Decimal("0.0313"),
            distance_cost_coeff=Decimal("0.00002"),
            distance_emission_coeff=Decimal("0.0000044"),
            loss_cost_coeff=Decimal("2.63"),
            loss_emission_coeff=Decimal("0.25"),
            affected_route_ids=("loop",),
        ),
    )
    d = Decimal(distance)
    lo = Decimal(loss) / 1000
    moved = apply_modifiers(scn, d, lo)
    assert moved.route("fixed") == scn.route("fixed")
    again = apply_modifiers(moved, d, lo)
    assert again.route("loop") == moved.route("loop")
    back = apply_modifiers(moved, Decimal(65), Decimal("0.0313"))
    assert back.route("loop").unit_cost == scn.route("loop").unit_cost
    assert back.route("loop").unit_emissions == scn.route("loop").unit_emissions


def test_apply_modifiers_at_current_point_is_identity(case):
    m = case.modifiers
    same = apply_modifiers(case, m.glass_wash_distance, m.glass_loss_fraction)
    assert same.routes == case.routes
