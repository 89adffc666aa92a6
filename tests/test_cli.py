import json
import subprocess
import sys
from decimal import Decimal
from types import SimpleNamespace

import pytest

from conftest import src_env
from ecolever import (Allocation, CalibrationError, PolicyVector, RouteSpec, Scenario,
                      ValidationError, cli, evaluate_policy)
from ecolever.lower import net_unit_cost
from ecolever.model import price_allocation
from ecolever.cli import main, parse_value_list
from ecolever.scenario_io import save_scenario, scenario_to_dict


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_value_list_range_and_commas():
    assert parse_value_list("0:10:5", "x") == [Decimal(0), Decimal(5), Decimal(10)]
    assert parse_value_list("-60:100:10", "x")[0] == Decimal(-60)
    assert len(parse_value_list("-60:100:10", "x")) == 17
    assert parse_value_list("1,2.5, 3", "x") == [Decimal(1), Decimal("2.5"), Decimal(3)]
    with pytest.raises(ValidationError):
        parse_value_list("5:0:1", "x")
    with pytest.raises(ValidationError):
        parse_value_list("0:10:0", "x")
    with pytest.raises(ValidationError):
        parse_value_list("0:10", "x")
    with pytest.raises(ValidationError):
        parse_value_list("abc", "x")
    with pytest.raises(ValidationError, match="x: no values given"):
        parse_value_list(",", "x")
    with pytest.raises(ValidationError, match="x: stepping '1:2:1e-30' needs more than"):
        parse_value_list("1:2:1e-30", "x")
    assert len(parse_value_list(f"1:{cli.MAX_RANGE_VALUES}:1", "x")) == cli.MAX_RANGE_VALUES
    with pytest.raises(ValidationError, match=f"x: over {cli.MAX_RANGE_VALUES} values"):
        parse_value_list(f"0:{cli.MAX_RANGE_VALUES}:1", "x")


def test_run_command_writes_outcome(tmp_path, capsys):
    out = tmp_path / "o"
    code, stdout, _ = run_cli(["run", "--budget", "0", "--iterations", "15",
                               "--restarts", "1", "--out", str(out)], capsys)
    assert code == 0
    assert "tax_rate=0.949564" in stdout
    assert "feasible=true" in stdout
    data = json.loads((out / "outcome.json").read_text())
    assert data["response"]["allocation"] == {"multilayer_landfill": 1000}


def test_run_closed_form_engine(tmp_path, capsys):
    code, stdout, _ = run_cli(["run", "--budget", "30", "--engine", "closed-form",
                               "--objective", "max-circularity",
                               "--out", str(tmp_path / "o")], capsys)
    assert code == 0
    assert "upper_value=1.475000" in stdout


def test_sweep_command_csv(tmp_path, capsys):
    out = tmp_path / "o"
    code, stdout, _ = run_cli(["sweep", "--budgets", "0:60:30",
                               "--engine", "closed-form", "--out", str(out)], capsys)
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("budget,tax_rate,")


@pytest.mark.parametrize("args, svg, lines, one_x", [
    (["sweep", "--budgets", "0:60:30", "--engine", "closed-form"], "sweep.svg", 3, False),
    (["sweep", "--budgets", "30", "--engine", "closed-form"], "sweep.svg", 3, True),
], ids=["sweep", "sweep-one-budget"])
def test_emit_svg_writes_the_same_chart_on_a_rerun(tmp_path, capsys, args, svg, lines, one_x):
    charts = []
    for out in (tmp_path / "first", tmp_path / "again"):
        code, stdout, _ = run_cli([*args, "--emit-svg", "--out", str(out)], capsys)
        assert code == 0
        assert f"wrote {out / svg}" in stdout
        charts.append((out / svg).read_bytes())
    assert charts[0] == charts[1]
    polylines = [line.split('"')[1].split() for line in charts[0].decode().splitlines()
                 if line.startswith("<polyline")]
    assert len(polylines) == lines and all(polylines)
    # a one-budget sweep puts every point on the left axis, and a dot on
    # each series
    assert one_x == all(p.startswith("56.00,") for points in polylines for p in points)
    dots = [line for line in charts[0].decode().splitlines() if line.startswith("<circle")]
    assert len(dots) == (lines if one_x else 0)
    assert all(dot.startswith('<circle cx="56.00" ') for dot in dots)


def test_sensitivity_command(tmp_path, capsys):
    out = tmp_path / "o"
    code, stdout, _ = run_cli(["sensitivity", "--parameter", "loss",
                               "--values", "0.01,0.1", "--budgets", "0,30",
                               "--objective", "max-circularity",
                               "--out", str(out), "--emit-svg"], capsys)
    assert code == 0
    assert (out / "sensitivity.csv").is_file()
    assert (out / "sensitivity.svg").is_file()
    assert "glass_loss_fraction=0.100000" in stdout


def test_verify_command_passes(capsys):
    code, stdout, _ = run_cli(["verify", "--trials", "3", "--demand", "8"], capsys)
    assert code == 0
    assert "verify ok" in stdout


def test_calibrate_command(tmp_path, capsys):
    out = tmp_path / "o"
    code, stdout, _ = run_cli(["calibrate", "--out", str(out)], capsys)
    assert code == 0
    assert (out / "coffee_case.scenario").is_file()
    residuals = json.loads((out / "calibration_residuals.json").read_text())
    assert residuals["strap_cost"] == "0.00000"


def test_bad_budget_spec_exits_1(tmp_path, capsys):
    code, _, stderr = run_cli(["sweep", "--budgets", "pears",
                               "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    payload = json.loads(stderr.strip())
    assert payload["error"] == "ValidationError"


@pytest.mark.parametrize("args", [
    ["run", "--budget", "nan"],
    ["run", "--budget", "inf"],
    ["sweep", "--budgets=1,snan"],
    ["run", "--scenario", "nan_cost.scenario"],
    # 1e20 + 1e-10 rounds back to 1e20 in the 28-digit context
    ["sweep", "--budgets=1e20:2e20:1e-10"],
    # exact steps, but 1e30 of them
    ["sensitivity", "--parameter", "loss", "--values=0:1:1e-30"],
], ids=["run-budget-nan", "run-budget-inf", "sweep-budgets-snan", "scenario-unit-cost-nan",
        "sweep-step-rounds-away", "sensitivity-range-too-long"])
def test_non_finite_input_exits_1_with_one_json_line(case, tmp_path, capsys, args):
    data = scenario_to_dict(case)
    data["routes"][0]["unit_cost"] = "NaN"
    (tmp_path / "nan_cost.scenario").write_text(json.dumps(data))
    args = [str(tmp_path / a) if a.endswith(".scenario") else a for a in args]
    code, _, stderr = run_cli(args + ["--iterations", "2", "--restarts", "1",
                                      "--out", str(tmp_path / "o")], capsys)
    lines = stderr.strip().splitlines()
    assert code == 1 and len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValidationError"


@pytest.mark.parametrize("args", [
    ["run", "--tax-max", "nan"],
    ["run", "--tax-max", "inf"],
    ["run", "--tax-max", "1e20", "--iterations", "1", "--restarts", "2"],
    # nothing reads the flag with either engine, and both still refuse it
    ["run", "--engine", "closed-form", "--tax-max", "nan"],
    ["sweep", "--budgets", "0", "--engine", "closed-form", "--tax-max", "inf"],
    ["sensitivity", "--parameter", "loss", "--values", "0.03", "--budgets", "0",
     "--engine", "closed-form", "--tax-max", "1e20"],
    ["run", "--tax-max", "-1"],
    ["run", "--engine", "closed-form", "--tax-max", "-1"],
], ids=["nan", "inf", "past-the-rate-grid", "run-closed-form", "sweep-closed-form",
        "sensitivity-closed-form", "negative", "negative-closed-form"])
def test_bad_tax_max_exits_1_naming_the_flag(tmp_path, capsys, args):
    code, stdout, stderr = run_cli([*args, "--out", str(tmp_path / "o")], capsys)
    lines = stderr.strip().splitlines()
    assert code == 1 and len(lines) == 1 and stdout == ""
    payload = json.loads(lines[0])
    assert payload["error"] == "ValidationError" and "--tax-max" in payload["detail"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [
    ["run", "--iterations", "1", "--restarts", "1"],
    ["sweep", "--budgets", "0"],
    ["verify", "--trials", "1", "--demand", "2"],
], ids=["run", "sweep", "verify"])
def test_negative_seed_exits_1_naming_the_flag(tmp_path, capsys, monkeypatch, command):
    # random.Random seeds from abs(seed), so -1 would silently replay seed 1
    monkeypatch.setenv("ECOLEVER_OUT_DIR", str(tmp_path / "o"))
    code, _, stderr = run_cli([*command, "--seed", "-1"], capsys)
    lines = stderr.strip().splitlines()
    assert code == 1 and len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ValidationError" and "--seed" in payload["detail"]


@pytest.mark.parametrize("args, flag", [
    (["verify", "--trials", "-5"], "--trials"),
    (["verify", "--trials", "1", "--demand", "-3"], "--demand"),
    (["run", "--swarm", "0"], "--swarm"),
    (["run", "--iterations", "-1"], "--iterations"),
    (["sweep", "--budgets", "0", "--restarts", "0"], "--restarts"),
], ids=["trials", "demand", "swarm", "iterations", "restarts"])
def test_out_of_range_count_exits_1_naming_the_flag(tmp_path, capsys, monkeypatch, args,
                                                   flag):
    # a negative --trials used to run no trial and report "verify ok"
    monkeypatch.setenv("ECOLEVER_OUT_DIR", str(tmp_path / "o"))
    code, stdout, stderr = run_cli(args, capsys)
    lines = stderr.strip().splitlines()
    assert code == 1 and len(lines) == 1 and stdout == ""
    payload = json.loads(lines[0])
    assert payload["error"] == "ValidationError" and payload["detail"].startswith(flag)


def test_unknown_subcommand_exits_1(capsys):
    code, _, stderr = run_cli(["frobnicate"], capsys)
    assert code == 1
    assert "UsageError" in stderr


def test_verify_exits_3_when_the_follower_misses_the_enumerated_optimum(capsys, monkeypatch):
    def dearest(scenario, policy, objective, funds):  # all of demand on the dearest route
        route = max(scenario.routes, key=lambda r: net_unit_cost(r, policy))
        return price_allocation(scenario, Allocation({route.route_id: scenario.demand}), policy)

    monkeypatch.setattr(cli, "solve_lower", dearest)
    code, stdout, stderr = run_cli(["verify", "--trials", "2", "--demand", "4"], capsys)
    lines = stderr.strip().splitlines()
    assert code == 3 and len(lines) == 1 and stdout == ""
    payload = json.loads(lines[0])
    assert payload["error"] == "VerificationError"
    assert payload["detail"].startswith("trial 0: uncapped min-ghg follower picked")


def test_verify_exits_3_when_the_grid_beats_the_exact_leader(capsys, monkeypatch):
    def idle_leader(scenario, objective, budget, mode):  # the zero policy, whatever the aim
        value, response, _ = evaluate_policy(scenario, PolicyVector.zero(), objective, budget)
        return SimpleNamespace(policy=PolicyVector.zero(), upper_value=value, response=response)

    monkeypatch.setattr(cli, "closed_form_optimize", idle_leader)
    code, stdout, stderr = run_cli(["verify", "--trials", "0"], capsys)
    lines = stderr.strip().splitlines()
    assert code == 3 and len(lines) == 1 and stdout == ""
    payload = json.loads(lines[0])
    assert payload["error"] == "VerificationError"
    assert "grid search beat the exact leader" in payload["detail"]


def test_verify_exits_3_when_a_leader_passes_the_value_bound(capsys, monkeypatch):
    # a bound above every value: the min-ghg leaders (49.97 and more) fall below it
    monkeypatch.setattr(cli, "value_bound", lambda scenario, objective: (Decimal(10**6), None))
    code, stdout, stderr = run_cli(["verify", "--trials", "0"], capsys)
    lines = stderr.strip().splitlines()
    assert code == 3 and len(lines) == 1 and stdout == ""
    payload = json.loads(lines[0])
    assert payload["error"] == "VerificationError"
    assert payload["detail"] == ("min-ghg combined budget 0: the exact leader reached "
                                 "49.97000, beyond the value bound 1000000")


def test_verify_holds_each_leader_to_the_value_bound(capsys, monkeypatch):
    seen = []
    bound = cli.value_bound
    monkeypatch.setattr(cli, "value_bound",
                        lambda *args: seen.append(args[1]) or bound(*args))
    code, stdout, _ = run_cli(["verify", "--trials", "0"], capsys)
    # the bound is checked at every leader point, on the case and on its
    # capped copy, yet counts as no extra check
    assert code == 0 and stdout == "verify ok (6 checks, 0 trials, demand 12)\n"
    assert [o.value for o in seen] == ["min-ghg", "min-ghg", "max-circularity"] * 2


def test_oversized_verify_exits_2(capsys):
    code, _, stderr = run_cli(["verify", "--demand", "4000"], capsys)
    assert code == 2
    payload = json.loads(stderr.strip())
    assert payload["error"] == "ResourceBoundError"


def _write_pair(path, demand, *routes):
    """A scenario file of two routes, each given as (cost, emissions, circularity)."""
    save_scenario(Scenario(demand=demand, routes=[
        RouteSpec(route_id=f"r{i}", product_id="p", technology_id=f"t{i}", unit_cost=Decimal(c),
                  unit_emissions=Decimal(e), unit_circularity=Decimal(ci))
        for i, (c, e, ci) in enumerate(routes)]), path)
    return str(path)


def test_a_tax_past_the_rate_grid_exits_2_and_a_sweep_skips_its_budget(tmp_path, capsys):
    # the more circular r1 takes a tax of 4e16 at budget 0: 29 digits on the
    # 1e-12 grid (at min-GHG the untaxed r0 is certified first)
    scenario = _write_pair(tmp_path / "grid.scenario", 10,
                           ("0.01", "1e-18", "1"), ("0.05", "0.1", "1.5"))
    given = ["--scenario", scenario, "--objective", "max-circularity",
             "--out", str(tmp_path / "o")]
    code, stdout, stderr = run_cli(["run", *given], capsys)
    lines = stderr.strip().splitlines()
    assert code == 2 and stdout == "" and len(lines) == 1
    assert json.loads(lines[0])["error"] == "ResourceBoundError"
    with pytest.warns(UserWarning, match="budget 0: "):
        code, stdout, _ = run_cli(["sweep", "--budgets", "0,5", *given], capsys)
    assert code == 0 and "(1 rows)" in stdout


def test_costs_of_1e22_and_more_are_reported_in_full(tmp_path, capsys):
    scenario = _write_pair(tmp_path / "dear.scenario", 1000,
                           ("1e22", "0.1", "1"), ("2e22", "0.05", "1.5"))
    out = tmp_path / "o"
    given = ["--scenario", scenario, "--objective", "most-profitable", "--out", str(out)]
    cost = "10000000000000000000000000.000000"
    code, stdout, _ = run_cli(["run", "--engine", "closed-form", *given], capsys)
    assert code == 0 and f"industry_cost={cost}" in stdout
    code, _, _ = run_cli(["sweep", "--budgets", "0", *given], capsys)
    assert code == 0
    assert (out / "sweep.csv").read_text().splitlines()[1].endswith(f",1000,0,{cost}")


def test_invalid_scenario_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_text("{}")
    code, _, stderr = run_cli(["run", "--scenario", str(bad),
                               "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    payload = json.loads(stderr.strip())
    assert "violations" in payload


def test_calibration_failure_exits_1(tmp_path, capsys, monkeypatch):
    def fail(scenario):
        raise CalibrationError(["strap_cost off by 1"])
    monkeypatch.setattr(cli, "check_calibration", fail)
    code, _, stderr = run_cli(["calibrate", "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    payload = json.loads(stderr.strip())
    assert payload["error"] == "CalibrationError"
    assert payload["violations"] == ["strap_cost off by 1"]


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["sweep", "--help"]) == 0


def test_env_var_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ECOLEVER_OUT_DIR", str(tmp_path / "envout"))
    code, _, _ = run_cli(["sweep", "--budgets", "0,30",
                          "--engine", "closed-form"], capsys)
    assert code == 0
    assert (tmp_path / "envout" / "sweep.csv").is_file()


def test_cli_subprocess_round_trip(tmp_path):
    """The installed entry point behaves like the in-process main."""
    out = tmp_path / "sp"
    proc = subprocess.run(
        [sys.executable, "-m", "ecolever.cli", "sweep", "--budgets", "0:30:30",
         "--engine", "closed-form", "--out", str(out)],
        capture_output=True, text=True, timeout=120, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert (out / "sweep.csv").is_file()


COMMON = {"--scenario", "--out", "--seed"}
SEARCH = COMMON | {"--objective", "--mode", "--engine", "--swarm", "--iterations",
                   "--restarts", "--tax-max"}
FLAGS = {
    "run": SEARCH | {"--budget"},
    "sweep": SEARCH | {"--emit-svg", "--budgets"},
    "sensitivity": SEARCH | {"--emit-svg", "--parameter", "--values", "--budgets"},
    "verify": {"--scenario", "--seed", "--trials", "--demand"},
    "calibrate": {"--out"},
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    parser = cli.build_parser()
    [commands] = [action.choices for action in parser._actions if action.dest == "command"]
    got = {name: {flag for action in sub._actions for flag in action.option_strings}
           - {"-h", "--help"} for name, sub in commands.items()}
    assert got == FLAGS
    assert sum(map(len, got.values())) == 42


@pytest.mark.parametrize("args", [
    ["calibrate", "--seed", "1"],
    ["verify", "--swarm", "3"],
    ["verify", "--out", "o"],  # verify writes no file
    ["run", "--emit-svg"],  # one leader makes no chart
], ids=["calibrate-seed", "verify-swarm", "verify-out", "run-emit-svg"])
def test_a_flag_the_command_does_not_read_exits_1(tmp_path, capsys, monkeypatch, args):
    monkeypatch.setenv("ECOLEVER_OUT_DIR", str(tmp_path / "o"))
    code, stdout, stderr = run_cli(args, capsys)
    payloads = [json.loads(line) for line in stderr.splitlines() if line.startswith("{")]
    assert code == 1 and stdout == ""
    assert [p["error"] for p in payloads] == ["UsageError"]
    assert not (tmp_path / "o").exists()


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    """main reuses its parser: each artifact equals a fresh interpreter's, and
    no parsed value or default carries over from one call to the next."""
    commands = [
        ("sweep.csv", ["sweep", "--budgets=-20:20:10", "--objective", "max-circularity"]),
        ("outcome.json", ["run", "--engine", "closed-form", "--budget", "20"]),
        ("sweep.csv", ["sweep", "--budgets=-20:20:10"]),
    ]
    for k, (name, args) in enumerate(commands):
        here, fresh = tmp_path / f"here{k}", tmp_path / f"fresh{k}"
        assert run_cli([*args, "--out", str(here)], capsys)[0] == 0
        proc = subprocess.run([sys.executable, "-m", "ecolever.cli", *args, "--out", str(fresh)],
                              capture_output=True, text=True, timeout=120, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert (here / name).read_bytes() == (fresh / name).read_bytes()
    code, stdout, stderr = run_cli(["sweep", "--budgets", "0", "--bogus",
                                    "--out", str(tmp_path / "bad")], capsys)
    payloads = [json.loads(line) for line in stderr.splitlines() if line.startswith("{")]
    assert code == 1 and stdout == "" and [p["error"] for p in payloads] == ["UsageError"]
    assert not (tmp_path / "bad").exists()


def test_a_certified_answer_keeps_the_candidates_decimals(tmp_path, capsys):
    # the closed-form least policy is the candidate's own arithmetic: its tax
    # stays on the grid's exponent and its subsidy keeps its trailing zeros
    out = tmp_path / "o"
    code, _, _ = run_cli(["run", "--engine", "closed-form", "--mode", "subsidy-only",
                          "--objective", "max-circularity", "--budget", "100",
                          "--out", str(out)], capsys)
    outcome = json.loads((out / "outcome.json").read_text())
    assert code == 0 and outcome["evaluations"] == 1
    assert outcome["policy"] == {"tax_rate": "0E-12",
                                 "subsidy_rates": {"glass_wash_reuse": "0.06700000000000000"}}
