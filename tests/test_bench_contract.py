"""The benchmark's workloads still run against the package and pass their
own checks.

benchmarks/run.py calls public functions by name (the follower views among
them) and checks every answer; this runs a few units of each workload
through the same `run` and `check`, so a renamed or reshaped function fails
here, not only in the benchmark's slow self-check.
"""

import itertools
import random
import sys
from pathlib import Path

import pytest

import ecolever
import ecolever.cli  # noqa: F401  (the sweep workload drives ecolever.cli.main)

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCHMARKS))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads  # and its `reference`, read only
        yield workloads
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCHMARKS))


def _run_and_check(workloads, workload, units):
    for unit in units:
        try:
            answer = workload.run(unit)
            workload.check(unit, answer)
        except (workloads.CheckFailure, ecolever.EcoleverError) as exc:
            pytest.fail(f"{workload.name}: {type(exc).__name__}: {exc}")


@pytest.mark.parametrize("name, count", [
    ("pso_case", 1), ("sweep_sens", 1), ("verify_battery", 12),
])
def test_workload_units_run_and_pass_their_checks(workloads, tmp_path, name, count):
    workload = workloads.WORKLOADS[name](ecolever, tmp_path)
    units = workload.units(random.Random(f"{name}/contract"))
    _run_and_check(workloads, workload, itertools.islice(units, count))


def test_pso_capped_runs_one_unit_per_objective(workloads, tmp_path):
    # the swarm on the capped scenario drives the follower's subset table
    # under each leader objective, and the check prices each response exactly
    workload = workloads.WORKLOADS["pso_capped"](ecolever, tmp_path)
    first = {}
    for unit in workload.units(random.Random("pso_capped/contract")):
        first.setdefault(unit[0], unit)
        if len(first) == len(workloads.OBJECTIVES):
            break
    _run_and_check(workloads, workload, first.values())


def test_verify_battery_runs_its_costliest_shapes(workloads, tmp_path):
    # the last 12 positions of a cycle, 8 routes by demand 1-12, hold the
    # shapes that set the workload's tail
    workload = workloads.WORKLOADS["verify_battery"](ecolever, tmp_path)
    units = workload.units(random.Random("verify_battery/contract"))
    tail = list(itertools.islice(units, workload.cycle - 12, workload.cycle))
    assert [(len(s.routes), s.demand) for s, *_ in tail] == [(8, d) for d in range(1, 13)]
    _run_and_check(workloads, workload, tail)
