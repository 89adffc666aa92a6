"""Command-line front end.

Subcommands: run (one bilevel solve), sweep (budget series), sensitivity
(wash-loop distance or breakage series), verify (cross-check the fast solvers
against brute-force enumeration and the value bound), calibrate (check the bundled case).

Exit codes: 0 success, 1 bad input (validation or calibration), 2 solver
failure (NoThresholdError, ResourceBoundError, InvalidAllocationError), 3
verification mismatch. Errors go to
stderr as one-line JSON. Outputs carry no timestamps, so a rerun with the same
arguments is byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import sys
from decimal import Decimal
from pathlib import Path

from .analysis import (
    budget_sweep,
    check_calibration,
    closed_form_optimize,
    sensitivity_distance,
    sensitivity_loss,
)
from .engine import (
    COMBINED,
    MODES,
    TAX_ONLY,
    optimize,
    rank,
    value_bound,
)
from .errors import EcoleverError, ResourceBoundError, ValidationError
from .lower import solve_lower
from .model import Objective, PolicyVector, Scenario, exactly, quantize_rate, to_decimal
from .oracle import GridAxis, enumerate_lower, enumerate_optimistic, grid_bilevel
from .scenario_io import (
    atomic_write_text,
    format_decimal,
    load_bundled_scenario,
    load_scenario,
    save_scenario,
    write_outcome_json,
    write_sensitivity_csv,
    write_svg_line_chart,
    write_sweep_csv,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3
MAX_RANGE_VALUES = 100_000  # values one lo:hi:step range may make


def _emit_error(kind: str, detail: str, violations=None) -> None:
    payload = {"error": kind, "detail": detail}
    if violations:
        payload["violations"] = list(violations)
    print(json.dumps(payload), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """argparse's usage errors exit 2, which this tool reserves for solver
    failures; remap them onto the bad-input code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        _emit_error("UsageError", message)
        raise SystemExit(EXIT_INPUT)


def _parse_decimal(text: str, name: str) -> Decimal:
    try:
        return to_decimal(text.strip(), name)
    except ValidationError:
        raise ValidationError([f"{name}: {text!r} is not a decimal number"])


def parse_value_list(text: str, name: str):
    """Either "lo:hi:step" (inclusive, exact decimal stepping, at most
    MAX_RANGE_VALUES values) or a comma-separated list of decimals."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError([f"{name}: ranges look like lo:hi:step, got {text!r}"])
        lo = _parse_decimal(parts[0], name)
        hi = _parse_decimal(parts[1], name)
        step = _parse_decimal(parts[2], name)
        if step <= 0:
            raise ValidationError([f"{name}: step must be > 0"])
        if hi < lo:
            raise ValidationError([f"{name}: range needs lo <= hi"])
        values = []
        current = lo
        try:  # a step that rounds away would leave current where it is
            with exactly(f"stepping {text!r}"):
                while current <= hi:
                    if len(values) == MAX_RANGE_VALUES:
                        raise ValidationError([f"{name}: over {MAX_RANGE_VALUES} values"])
                    values.append(current)
                    current += step
        except ResourceBoundError as exc:
            raise ValidationError([f"{name}: {exc}"]) from None
        return values
    values = [_parse_decimal(piece, name) for piece in text.split(",") if piece.strip()]
    if not values:
        raise ValidationError([f"{name}: no values given"])
    return values


def _load_case(args) -> Scenario:
    if args.scenario:
        return load_scenario(args.scenario)
    return load_bundled_scenario()


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("ECOLEVER_OUT_DIR") or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _add_common(parser, solves=True, writes=True, engine=None, charts=False):
    """--scenario and --seed to solve, --out to write, the search flags to search a
    leader, --emit-svg to chart a series of leaders."""
    if solves:
        parser.add_argument("--scenario", help="scenario file (default: bundled case study)")
    if writes:
        parser.add_argument("--out", help="output directory (default: $ECOLEVER_OUT_DIR or ./out)")
    if solves:
        parser.add_argument("--seed", type=int, default=0)
    if engine:
        parser.add_argument("--objective", choices=[o.value for o in Objective],
                            default=Objective.MIN_GHG.value)
        parser.add_argument("--mode", choices=MODES, default=COMBINED)
        parser.add_argument("--engine", choices=["pso", "closed-form"], default=engine)
        parser.add_argument("--swarm", type=int, default=10)
        parser.add_argument("--iterations", type=int, default=200)
        parser.add_argument("--restarts", type=int, default=5)
        parser.add_argument("--tax-max", type=float, default=10.0)
    if charts:
        parser.add_argument("--emit-svg", action="store_true")


def build_parser() -> _Parser:
    parser = _Parser(prog="ecolever",
                     description="bilevel tax/subsidy design for circular packaging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one bilevel solve at a fixed budget")
    _add_common(p_run, engine="pso")
    p_run.add_argument("--budget", default="0")
    p_run.set_defaults(handler=cmd_run)

    p_sweep = sub.add_parser("sweep", help="optimize across a budget series")
    _add_common(p_sweep, engine="closed-form", charts=True)
    p_sweep.add_argument("--budgets", required=True,
                         help='"lo:hi:step" or comma list, e.g. "-60:100:10"')
    p_sweep.set_defaults(handler=cmd_sweep)

    p_sens = sub.add_parser("sensitivity", help="budget sweeps across an operating parameter")
    _add_common(p_sens, engine="closed-form", charts=True)
    p_sens.add_argument("--parameter", choices=["distance", "loss"], required=True)
    p_sens.add_argument("--values", required=True, help='e.g. "7,15,65,140" or "0.01,0.0313,0.1"')
    p_sens.add_argument("--budgets", default="0:60:30")
    p_sens.set_defaults(handler=cmd_sensitivity)

    p_verify = sub.add_parser("verify", help="cross-check fast solvers against enumeration")
    _add_common(p_verify, writes=False)
    p_verify.add_argument("--trials", type=int, default=20)
    p_verify.add_argument("--demand", type=int, default=12,
                          help="shrunken demand for the enumeration battery")
    p_verify.set_defaults(handler=cmd_verify)

    p_cal = sub.add_parser("calibrate", help="check the bundled case study against the "
                                             "paper's anchors and write it")
    _add_common(p_cal, solves=False)
    p_cal.set_defaults(handler=cmd_calibrate)

    return parser


# parse_args reads the parser and writes only a fresh namespace, so one serves every
# call; this saves the build only where one process calls main more than once
_shared_parser = functools.cache(build_parser)


def _print_outcome(outcome) -> None:
    print(f"objective={outcome.objective.value} mode={outcome.mode} "
          f"budget={format_decimal(outcome.budget)}")
    print(f"feasible={'true' if outcome.feasible else 'false'}")
    print(f"tax_rate={format_decimal(outcome.policy.tax_rate)}")
    for rid in sorted(outcome.policy.subsidy_rates):
        print(f"subsidy[{rid}]={format_decimal(outcome.policy.subsidy_rates[rid])}")
    print(f"upper_value={format_decimal(outcome.upper_value)}")
    r = outcome.response
    print(f"industry_cost={format_decimal(r.industry_cost)}")
    print(f"tax_income={format_decimal(r.tax_payment)}")
    print(f"subsidy_outlay={format_decimal(r.subsidy_outlay)}")
    alloc = " ".join(f"{rid}={n}" for rid, n in sorted(r.allocation.units.items()))
    print(f"allocation: {alloc if alloc else '(idle)'}")
    print(f"evaluations={outcome.evaluations}")


def cmd_run(args) -> int:
    scenario = _load_case(args)
    budget = _parse_decimal(args.budget, "budget")
    outcome = optimize(scenario, args.objective, budget, mode=args.mode)
    out = _out_dir(args)
    target = out / "outcome.json"
    write_outcome_json(outcome, target)
    _print_outcome(outcome)
    print(f"wrote {target}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = _load_case(args)
    budgets = parse_value_list(args.budgets, "budgets")
    outcomes = budget_sweep(scenario, args.objective, budgets, mode=args.mode,
                            engine=args.engine)
    out = _out_dir(args)
    target = out / "sweep.csv"
    write_sweep_csv(outcomes, target, route_ids=scenario.route_ids())
    print(f"wrote {target} ({len(outcomes)} rows)")
    if args.emit_svg:
        svg = out / "sweep.svg"
        write_svg_line_chart(
            svg,
            [("tax rate", [(o.budget, o.policy.tax_rate) for o in outcomes]),
             ("tax income", [(o.budget, o.response.tax_payment) for o in outcomes]),
             ("subsidy outlay", [(o.budget, o.response.subsidy_outlay) for o in outcomes])],
            title=f"budget sweep ({args.objective}, {args.mode})",
            x_label="budget", y_label="rate / $")
        print(f"wrote {svg}")
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    scenario = _load_case(args)
    values = parse_value_list(args.values, args.parameter)
    budgets = parse_value_list(args.budgets, "budgets")
    runner = sensitivity_distance if args.parameter == "distance" else sensitivity_loss
    sweeps = runner(scenario, values, budgets, args.objective, mode=args.mode,
                    engine=args.engine)
    out = _out_dir(args)
    target = out / "sensitivity.csv"
    write_sensitivity_csv(sweeps, target)
    print(f"wrote {target} ({sum(len(s.records) for s in sweeps)} rows)")
    for sweep in sweeps:
        slope = (format_decimal(sweep.tax_income_slope)
                 if sweep.tax_income_slope is not None else "n/a")
        routes = ",".join(sorted({d for d in sweep.dominant_routes if d}))
        print(f"{sweep.parameter}={format_decimal(sweep.value)} "
              f"tax_income_slope={slope} routes={routes}")
    if args.emit_svg:
        svg = out / "sensitivity.svg"
        series = [(f"{s.parameter}={s.value}",
                   [(o.budget, o.response.tax_payment) for o in s.records]) for s in sweeps]
        write_svg_line_chart(svg, series, title=f"tax income vs budget ({args.parameter})",
                             x_label="budget", y_label="tax income")
        print(f"wrote {svg}")
    return EXIT_OK


def _random_policy(rng, scenario: Scenario) -> PolicyVector:
    tax = Decimal(rng.randrange(501)) / 100
    rates = {}
    for rid in scenario.route_ids():
        if scenario.route(rid).subsidizable and rng.random() < 0.5:
            rate = Decimal(rng.randrange(101)) / 1000
            if rate:
                rates[rid] = rate
    return PolicyVector(tax_rate=tax, subsidy_rates=rates)


def cmd_verify(args) -> int:
    scenario = _load_case(args)
    small = Scenario(demand=args.demand, routes=scenario.routes,
                     modifiers=scenario.modifiers)
    ids = small.route_ids()
    cap = max(2, args.demand // 2)
    capped = Scenario(
        demand=args.demand, routes=scenario.routes, modifiers=scenario.modifiers,
        technology_fixed_costs={r.technology_id: Decimal("0.25") for r in scenario.routes[:3]},
        capacity_limits={rid: cap for rid in ids},
    )
    rng = random.Random(args.seed)
    checks = 0
    for trial in range(args.trials):
        policy = _random_policy(rng, small)
        # at zero funds the funds cap binds whenever subsidies outrun tax
        for copy, name in ((small, "uncapped"), (capped, "capped")):
            enumeration = enumerate_lower(copy, policy)
            for objective in (Objective.MIN_GHG, Objective.MAX_CIRCULARITY):
                picked = solve_lower(copy, policy, objective, 0).allocation
                expected = enumerate_optimistic(copy, policy, objective, 0, enumeration)
                if picked != expected:
                    _emit_error("VerificationError",
                                f"trial {trial}: {name} {objective.value} follower picked "
                                f"{picked.units}, enumeration {expected.units}")
                    return EXIT_VERIFY
                checks += 1

    sub_ids = [r.route_id for r in scenario.routes if r.subsidizable][:2]
    for (copy, name), (objective, mode, budget, axes) in itertools.product(
            ((scenario, ""), (capped, "capped ")),
            ((Objective.MIN_GHG, COMBINED, Decimal(0), sub_ids),
             (Objective.MIN_GHG, COMBINED, Decimal(30), sub_ids),
             (Objective.MAX_CIRCULARITY, TAX_ONLY, Decimal(-60), []))):
        where = f"{name}{objective.value} {mode} budget {budget}"
        closed = closed_form_optimize(copy, objective, budget, mode=mode)
        grid_policy, grid_value, grid_result, _ = grid_bilevel(
            copy, objective, budget,
            tax_axis=GridAxis(lo=Decimal(0), hi=Decimal(5), steps=11),
            subsidy_axes={rid: GridAxis(lo=Decimal(0), hi=Decimal("0.08"), steps=9)
                          for rid in axes})
        if (rank(objective, budget, grid_policy, grid_value, grid_result)
                < rank(objective, budget, closed.policy, closed.upper_value, closed.response)):
            _emit_error("VerificationError",
                        f"{where}: grid search beat the exact leader "
                        f"({grid_value} against {closed.upper_value})")
            return EXIT_VERIFY
        bound = value_bound(copy, objective)  # no leader passes it: a free invariant
        for leader, value in (("exact leader", closed.upper_value), ("grid search", grid_value)):
            if bound is not None and objective.head(value) < objective.head(bound[0]):
                _emit_error("VerificationError", f"{where}: the {leader} reached {value}, "
                            f"beyond the value bound {bound[0]}")
                return EXIT_VERIFY
        checks += 1
    print(f"verify ok ({checks} checks, {args.trials} trials, demand {args.demand})")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    scenario = load_bundled_scenario()
    residuals = check_calibration(scenario)
    out = _out_dir(args)
    target = out / "coffee_case.scenario"
    save_scenario(scenario, target)
    resid_path = out / "calibration_residuals.json"
    atomic_write_text(resid_path, json.dumps(
        {k: str(v) for k, v in sorted(residuals.items())}, indent=2) + "\n")
    print(f"calibration ok ({len(residuals)} anchors)")
    print(f"wrote {target}")
    print(f"wrote {resid_path}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_INPUT
    try:
        # random.Random seeds from abs(seed): --seed -1 would replay 1
        for flag, least in (("seed", 0), ("swarm", 1), ("iterations", 0), ("restarts", 1),
                            ("trials", 0), ("demand", 0), ("tax-max", 0)):
            value = getattr(args, flag.replace("-", "_"), least)
            if value < least:
                raise ValidationError([f"--{flag}: must be >= {least}, got {value}"])
        try:  # the rate grid also refuses NaN, inf and 1e16 or more
            quantize_rate(getattr(args, "tax_max", 0.0))
        except ValidationError as exc:
            raise ValidationError([f"--tax-max: {v}" for v in exc.violations]) from None
        return args.handler(args)
    except ValidationError as exc:
        violations = getattr(exc, "violations", None)
        _emit_error(type(exc).__name__, str(exc), violations)
        return EXIT_INPUT
    except EcoleverError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
