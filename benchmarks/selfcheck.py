"""Self-checks of the benchmark itself.

    python3 benchmarks/selfcheck.py

1. The exact reference that gates pso_capped agrees with enumerate_lower on
   small-demand capped, fixed-cost catalogs.
2. Each workload's check accepts the program's answer and counts a
   deliberately wrong one, and a raised EcoleverError, as failed units.
3. Two traced runs with the same seed report identical counts.
4. The metric and workload names the runner prints are those BENCHMARK.json
   declares.
5. In a directory holding only BENCHMARK.json and the benchmark's files, the
   runner exits non-zero without printing a result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from decimal import Decimal

import run
from reference import reference_cost
from workloads import WORKLOADS, VerifyBattery, random_policy

COUNT_SEED = 7
COUNT_SECONDS = "1"
REFERENCE_TRIALS = 300


def fail(message):
    sys.exit(f"selfcheck FAILED: {message}")


def check_reference(el):
    rng = random.Random("selfcheck/reference")
    battery = VerifyBattery(el, None)
    case = el.calibrate_case_study()
    fixed = {"strap_recycling_line": Decimal("0.5"), "landfill_site": Decimal("0.2"),
             "wash_reuse_loop": Decimal("0.3")}
    for trial in range(REFERENCE_TRIALS):
        if trial % 3 == 0:
            # The capped case-study shape at enumeration-friendly demand.
            demand = rng.randint(1, 12)
            scenario = el.Scenario(demand=demand, routes=case.routes, modifiers=case.modifiers,
                                   technology_fixed_costs=fixed,
                                   capacity_limits={rid: max(1, demand // 2)
                                                    for rid in case.route_ids()})
            policy = random_policy(el, rng, case.routes)
        else:
            # An odd routes + demand makes the trial capped with fixed costs.
            count = rng.randint(2, 6)
            demand = 2 * rng.randint(0, 4) + 1 + count % 2
            scenario, policy, _, _ = battery._trial(rng, count, demand)
        expected = el.enumerate_lower(scenario, policy).best.industry_cost
        if reference_cost(scenario, policy) != expected:
            fail(f"reference trial {trial}: {reference_cost(scenario, policy)} != {expected}")
    print(f"ok: reference matches enumerate_lower on {REFERENCE_TRIALS} capped catalogs")


def check_negative(el):
    workdir = run.OUT / "selfcheck-work"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, cls in sorted(WORKLOADS.items()):
            workload = cls(el, workdir)
            for index, unit in zip(range(3), workload.units(random.Random("selfcheck/units"))):
                tally = run.Tally(el.EcoleverError)
                answer, _ = tally.attempt(workload, unit, lambda: workload.run(unit))
                tally.attempt(workload, unit, lambda: workload.corrupt(answer))

                def raising():
                    raise el.InfeasibleError("injected")
                tally.attempt(workload, unit, raising)
                if (tally.attempted, tally.failed) != (3, 2):
                    fail(f"{name} unit {index}: {tally.failed} of 3 counted failed, "
                         f"expected the corrupted and the raising one ({tally.failures})")
            print(f"ok: {name} counts a wrong answer and an EcoleverError as failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(workload, trace, cwd=run.CHECKOUT, check=True):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(COUNT_SEED),
         "--seconds", COUNT_SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=check)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def is_count(name):
    return (name.endswith(".calls") or name in (
        "engine.evaluations", "oracle.enumerate_lower.allocations",
        "analysis.budget_sweep.rows_ratio"))


def check_counts_and_names():
    spec = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        fail("BENCHMARK.json workloads differ from the runner's")
    end_to_end = sorted(m["name"] for m in spec["end_to_end"])
    layers = sorted(m["name"] for m in spec["per_layer"])
    for name in sorted(WORKLOADS):
        first, second = (last_json(bench(name, 1)) for _ in range(2))
        if sorted(first["metrics"]) != layers:
            fail(f"{name}: traced metrics differ from BENCHMARK.json per_layer")
        counts = {k: v["value"] for k, v in first["metrics"].items() if is_count(k)}
        again = {k: v["value"] for k, v in second["metrics"].items() if is_count(k)}
        if counts != again:
            diff = {k: (counts[k], again[k]) for k in counts if counts[k] != again[k]}
            fail(f"{name}: counts differ between two runs with seed {COUNT_SEED}: {diff}")
        untraced = last_json(bench(name, 0))
        if sorted(untraced["metrics"]) != end_to_end:
            fail(f"{name}: untraced metrics differ from BENCHMARK.json end_to_end")
        for metric, spec_unit in ((m["name"], m["unit"]) for m in spec["end_to_end"]):
            if untraced["metrics"][metric]["unit"] != spec_unit:
                fail(f"{name}: {metric} unit differs from BENCHMARK.json")
        print(f"ok: {name} counts repeat for seed {COUNT_SEED}; metric names match")


def check_bare_directory():
    bare = run.OUT / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.CHECKOUT / "BENCHMARK.json", bare)
        shutil.copytree(run.CHECKOUT / "benchmarks", bare / "benchmarks",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench("pso_case", 0, cwd=bare, check=False)
        if proc.returncode == 0 or proc.stdout.strip():
            fail("the runner printed a result without the package sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: without package sources the runner exits non-zero and prints nothing")


def main():
    el = run.import_package()
    check_reference(el)
    check_negative(el)
    check_counts_and_names()
    check_bare_directory()
    print("selfcheck passed")


if __name__ == "__main__":
    main()
