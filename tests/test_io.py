import json
from decimal import Decimal

import pytest

from ecolever import (
    Objective,
    PsoParams,
    ValidationError,
    budget_sweep,
    calibrate_case_study,
    load_bundled_scenario,
    optimize,
)
from ecolever.analysis import sensitivity_loss
from ecolever.cli import main
from ecolever.scenario_io import (
    bundled_scenario_path,
    format_decimal,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_outcome_json,
    write_sensitivity_csv,
    write_svg_line_chart,
    write_sweep_csv,
)


def test_bundled_scenario_exists_and_matches_calibration(tmp_path):
    # the file is canonical: saving what it loads to reproduces its bytes
    path = bundled_scenario_path()
    target = tmp_path / "coffee_case.scenario"
    save_scenario(load_bundled_scenario(), target)
    assert target.read_bytes() == path.read_bytes()
    assert calibrate_case_study() == load_bundled_scenario()


def test_scenario_round_trip_preserves_exact_values(case, tmp_path):
    target = tmp_path / "case.scenario"
    save_scenario(case, target)
    back = load_scenario(target)
    assert back.routes == case.routes
    assert back.demand == case.demand
    assert back.modifiers == case.modifiers
    # decimals survive as strings, not floats
    raw = json.loads(target.read_text())
    assert raw["routes"][0]["unit_cost"] == "-0.00093"


def test_save_is_atomic_no_temp_left_behind(case, tmp_path):
    target = tmp_path / "case.scenario"
    save_scenario(case, target)
    save_scenario(case, target)  # overwrite path
    leftovers = [p for p in tmp_path.iterdir() if p.name != "case.scenario"]
    assert leftovers == []


def test_load_reports_json_position(tmp_path):
    bad = tmp_path / "broken.scenario"
    bad.write_text('{"format": "ecolever-scenario",\n  "version": 1,\n  oops\n}')
    with pytest.raises(ValidationError) as err:
        load_scenario(bad)
    assert "line 3" in str(err.value)


def test_load_rejects_unknown_keys_and_floats(case, tmp_path):
    data = scenario_to_dict(case)
    data["surprise"] = 1
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(data)
    assert "surprise" in str(err.value)

    data = scenario_to_dict(case)
    data["routes"][0]["unit_cost"] = 0.05  # a JSON float
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(data)
    assert "unit_cost" in str(err.value)


def _set_field(data, path, value):
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value


@pytest.mark.parametrize("named, path, value", [
    pytest.param(named, path, value, id=named) for named, path, value in [
        ("routes", ("routes",), 5),
        ("modifiers", ("modifiers",), [1]),
        ("technology_fixed_costs", ("technology_fixed_costs",), ["landfill_site"]),
        ("capacity_limits", ("capacity_limits",), 12),
        ("routes[0].tags", ("routes", 0, "tags"), 7),
        ("routes[0].recovered_outputs", ("routes", 0, "recovered_outputs"), {"pet": 1}),
        ("routes[0].stages", ("routes", 0, "stages"), None),
        ("modifiers.affected_route_ids", ("modifiers", "affected_route_ids"), 3),
        ("routes[0].route_id", ("routes", 0, "route_id"), [1]),
        ("routes[0].product_id", ("routes", 0, "product_id"), 4),
        ("routes[0].technology_id", ("routes", 0, "technology_id"), {"t": 1}),
        ("routes[0].subsidizable", ("routes", 0, "subsidizable"), "no"),
    ]
])
def test_load_rejects_fields_of_the_wrong_json_type(case, tmp_path, capsys, named, path, value):
    data = scenario_to_dict(case)
    _set_field(data, path, value)
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(data)
    assert named in str(err.value)

    bad = tmp_path / "bad.scenario"
    bad.write_text(json.dumps(data))
    code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 1 and len(lines) == 1
    assert named in json.loads(lines[0])["detail"]


def _drop_unit_cost(data):
    del data["routes"][0]["unit_cost"]


@pytest.mark.parametrize("edit, message", [
    (lambda data: data["routes"].__setitem__(0, 5), "routes[0] must be an object"),
    (lambda data: data["routes"][0].update(colour="teal"), "routes[0]: unknown key 'colour'"),
    (_drop_unit_cost, "routes[0]: missing unit_cost"),
    (lambda data: data["modifiers"].update(speed="1"), "modifiers: unknown key 'speed'"),
    (lambda data: data["routes"][0].update(route_id=""), "route_id must be nonempty"),
    (lambda data: data["routes"].clear(), "at least one route is required"),
    (lambda data: data["modifiers"].update(glass_wash_distance="-1"),
     "glass_wash_distance must be >= 0"),
    (lambda data: data["modifiers"].update(glass_loss_fraction="1"),
     "glass_loss_fraction must lie in [0, 1)"),
    (lambda data: data["modifiers"].update(loss_cost_coeff="steep"),
     "loss_cost_coeff: not a decimal literal: 'steep'"),
], ids=["non-object-route", "unknown-route-key", "missing-route-field",
        "unknown-modifiers-key", "empty-route-id", "no-routes", "negative-distance",
        "loss-of-one", "non-decimal-modifier"])
def test_load_rejects_malformed_routes_and_modifiers(case, edit, message):
    data = scenario_to_dict(case)
    edit(data)
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(data)
    assert message in err.value.violations


def test_load_missing_file_is_a_validation_error(tmp_path):
    with pytest.raises(ValidationError):
        load_scenario(tmp_path / "absent.scenario")


def test_load_refuses_a_file_that_is_not_a_json_object(tmp_path):
    listed = tmp_path / "listed.scenario"
    listed.write_text("[]")
    with pytest.raises(ValidationError, match="scenario file must hold a JSON object"):
        load_scenario(listed)


def test_format_decimal_fixed_width_and_negative_zero():
    assert format_decimal(Decimal("1.5")) == "1.500000"
    assert format_decimal(Decimal("-0.0000001")) == "0.000000"
    assert format_decimal(Decimal("0.0000005")) == "0.000000"  # half-even
    assert format_decimal(Decimal("-2")) == "-2.000000"
    # six places of 1e22 take 29 digits, one more than the default context holds
    assert format_decimal(Decimal("1e22")) == "10000000000000000000000.000000"
    assert format_decimal(Decimal("-9999999999999999999999.9999995")) == \
        "-10000000000000000000000.000000"


def test_sweep_csv_layout_and_bytes(case, tmp_path):
    records = budget_sweep(case, Objective.MIN_GHG, [Decimal(0), Decimal(70)])
    target = tmp_path / "sweep.csv"
    write_sweep_csv(records, target, route_ids=case.route_ids())
    lines = target.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["budget", "tax_rate", "tax_income", "subsidy_outlay",
                          "upper_value"]
    assert header[-1] == "industry_cost"
    assert [h for h in header if h.startswith("units_")] == \
        [f"units_{rid}" for rid in case.route_ids()]
    assert len(lines) == 3
    # rerun produces identical bytes
    first = target.read_bytes()
    write_sweep_csv(records, target, route_ids=case.route_ids())
    assert target.read_bytes() == first


def test_sensitivity_csv_layout(case, tmp_path):
    sweeps = sensitivity_loss(case, [Decimal("0.01"), Decimal("0.1")],
                              [Decimal(0), Decimal(30)], Objective.MIN_GHG)
    target = tmp_path / "sens.csv"
    write_sensitivity_csv(sweeps, target)
    lines = target.read_text().splitlines()
    assert lines[0] == ("parameter,value,budget,tax_rate,tax_income,"
                        "subsidy_outlay,upper_value,industry_cost,dominant_route")
    assert len(lines) == 5
    assert lines[1].startswith("glass_loss_fraction,0.010000,0.000000,")
    assert lines[1].endswith("glass_wash_reuse")


def test_outcome_json_round_trips_cleanly(case, tmp_path):
    out = optimize(case, Objective.MIN_GHG, 0,
                   params=PsoParams(swarm_size=6, iterations=10, restarts=1, seed=0))
    target = tmp_path / "outcome.json"
    write_outcome_json(out, target)
    data = json.loads(target.read_text())
    assert data["feasible"] is True
    assert data["policy"]["tax_rate"].startswith("0.949564")
    assert data["response"]["allocation"] == {"multilayer_landfill": 1000}
    assert Decimal(data["upper_value"]) == Decimal("49.97")
    assert list(data) == ["objective", "mode", "budget", "feasible", "policy", "upper_value",
                          "response", "evaluations"]


def test_svg_chart_is_valid_and_deterministic(tmp_path):
    series = [("a", [(0, 1), (1, 3), (2, 2)]), ("b", [(0, 2), (2, 0)])]
    target = tmp_path / "chart.svg"
    write_svg_line_chart(target, series, title="demo", x_label="x", y_label="y")
    text = target.read_text()
    assert text.startswith("<svg ")
    assert text.count("<polyline") == 2
    first = target.read_bytes()
    write_svg_line_chart(target, series, title="demo", x_label="x", y_label="y")
    assert target.read_bytes() == first


def test_svg_chart_handles_degenerate_ranges(tmp_path):
    target = tmp_path / "flat.svg"
    write_svg_line_chart(target, [("flat", [(0, 5), (1, 5)])])
    assert target.read_text().count("<polyline") == 1
    write_svg_line_chart(target, [])
    assert "<svg" in target.read_text()
