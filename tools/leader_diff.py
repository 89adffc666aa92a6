"""One line per leader point, for a differential run between two checkouts.

    python3 tools/leader_diff.py SRC [--catalogs N] > points.txt

SRC is the `src/` directory whose `ecolever` is imported. Each line names a
point (scenario, objective, mode, budget) and gives every field of
`exact_leader`'s outcome, with the units and subsidies sorted, or the class
and message of the `EcoleverError` it raised. The points:

- the bundled case at budgets -170 to 170 in steps of 5, both objectives
  and the three modes (414 points);
- the capped case (capacity 400 on every route, fees strap 0.5, landfill
  0.2, wash 0.3) at the same 414 points;
- 24 points drawn as the `pso_capped` benchmark workload draws its units:
  combined mode, a random objective and a budget of -60 to 100, on the
  capped case;
- a block of points near the context's digits, at both objectives and the
  three modes: `long_decimal_pair` as it is and capped, at budgets -1, 0
  and 1 (36 points, some of which refuse), and `TIGHT_FUNDS` and
  `TIGHT_RIVAL` at budgets 0.056 and 0.594, where least subsidies round
  (12 points), all from `tests/conftest.py`;
- N catalogs per class (default 1,000) from `tests/conftest.random_catalog`,
  at 2 points each, drawn as `LEADER_DIGESTS` draws them: a random
  objective, mode and budget of -60 to 60 per mille of demand.

Run it on a copy of the parent commit and on the change, both with this
file and this checkout's `tests/conftest.py`, and diff the two outputs:

    python3 tools/leader_diff.py ../parent/src > parent.txt
    python3 tools/leader_diff.py src > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import random
import sys
from decimal import Decimal
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"


def describe(el, scenario, objective, budget, mode) -> str:
    """`exact_leader`'s outcome at one point, every field, or its refusal."""
    try:
        out = el.engine.exact_leader(scenario, objective, budget, mode)
    except el.EcoleverError as exc:
        return f"{type(exc).__name__}: {exc}"
    r = out.response
    return " ".join(map(str, (
        out.policy.tax_rate, sorted(out.policy.subsidy_rates.items()), out.upper_value,
        sorted(r.allocation.units.items()), r.industry_cost, r.total_emissions,
        r.circularity_index, r.subsidy_outlay, r.tax_payment, out.feasible, out.evaluations,
        out.objective.value, out.mode, out.budget)))


def points(el, conftest, catalogs):
    """(label, scenario, objective, budget, mode) for every point, in order."""
    case = el.calibrate_case_study()
    capped = el.Scenario(
        demand=case.demand, routes=case.routes, modifiers=case.modifiers,
        technology_fixed_costs={"strap_recycling_line": Decimal("0.5"),
                                "landfill_site": Decimal("0.2"),
                                "wash_reuse_loop": Decimal("0.3")},
        capacity_limits={rid: 400 for rid in case.route_ids()})
    objectives = (el.Objective.MIN_GHG, el.Objective.MAX_CIRCULARITY)
    for label, scenario in (("case", case), ("capped", capped)):
        for objective in objectives:
            for mode in el.MODES:
                for budget in range(-170, 171, 5):
                    yield label, scenario, objective, Decimal(budget), mode
    rng = random.Random(24)
    for _ in range(24):
        yield ("pso_capped", capped, rng.choice(objectives),
               Decimal(rng.randint(-60, 100)), el.COMBINED)
    for label, scenario, budgets in (
            ("refusal", conftest.long_decimal_pair(), (-1, 0, 1)),
            ("refusal-capped", conftest.long_decimal_pair(capped=True), (-1, 0, 1)),
            ("tight-funds", conftest.TIGHT_FUNDS, ("0.056",)),
            ("tight-rival", conftest.TIGHT_RIVAL, ("0.594",))):
        for objective in objectives:
            for mode in el.MODES:
                for budget in budgets:
                    yield label, scenario, objective, Decimal(budget), mode
    for seed, klass in enumerate(("pure-linear", "capped")):
        rng = random.Random(36 + seed)
        for index in range(catalogs):
            scenario = conftest.random_catalog(rng, klass == "capped")
            for _ in range(2):
                objective = rng.choice(objectives)
                mode = rng.choice(el.MODES)
                budget = Decimal(rng.randint(-60, 60)) * scenario.demand / 1000
                yield f"{klass}#{index}", scenario, objective, budget, mode


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="the src/ directory to import ecolever from")
    parser.add_argument("--catalogs", type=int, default=1000,
                        help="random catalogs per class (default 1000)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(TESTS)]
    import conftest
    import ecolever as el

    if Path(el.__file__).resolve().parent.parent != args.src.resolve():
        parser.error(f"imported ecolever from {el.__file__}, not from {args.src}")
    for label, scenario, objective, budget, mode in points(el, conftest, args.catalogs):
        print(f"{label} {objective.value} {mode} {budget}: "
              f"{describe(el, scenario, objective, budget, mode)}")


if __name__ == "__main__":
    main()
