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


@pytest.mark.parametrize("name, count", [
    ("pso_case", 1), ("pso_capped", 1), ("sweep_sens", 1), ("verify_battery", 12),
])
def test_workload_units_run_and_pass_their_checks(workloads, tmp_path, name, count):
    workload = workloads.WORKLOADS[name](ecolever, tmp_path)
    for unit in itertools.islice(workload.units(random.Random(f"{name}/contract")), count):
        try:
            answer = workload.run(unit)
            workload.check(unit, answer)
        except (workloads.CheckFailure, ecolever.EcoleverError) as exc:
            pytest.fail(f"{name}: {type(exc).__name__}: {exc}")
