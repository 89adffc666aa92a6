"""Benchmark of the ecolever bilevel solver.

    python3 benchmarks/run.py --workload pso_case --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
The load is a closed loop: one caller in one process runs units back to back.
Every input comes from --seed. Each unit is timed and its answer checked; a
failed check or a raised EcoleverError counts the unit as failed.

Unit times are reported in multiples of a fixed calibration kernel, timed
right before and right after each unit: the machine's speed drifts by up to
about 1.7x within seconds, and the ratio cancels that drift. Wall-clock
figures go into the metadata line.

--trace 0 prints the end-to-end metrics: set-up time in fresh interpreters,
median and tail unit time, units per thousand kernel times and peak memory.
--trace 1 runs untraced for half the time, then installs span wrappers around
each layer's public functions and runs traced for the other half, and prints
the per-layer split. Counts come from a fixed-size block of traced units, so
they repeat exactly for a fixed seed. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it carries the run's metadata. Results and spans are also written under benchmarks/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from decimal import Context, Decimal
from pathlib import Path

import numpy

from tracer import LAYERS, Tracer
from workloads import WORKLOADS, CheckFailure

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
OUT = CHECKOUT / "benchmarks" / "out"

SETUP_REPEATS = 11
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import ecolever\n"
    "ecolever.load_bundled_scenario()\n"
    "ecolever.calibrate_case_study()\n"
    "print(repr(time.perf_counter() - start))\n"
)
WARMUP_SECONDS = 1.0
LOAD_REPEATS = 5
MAX_SPANS = 200_000

CAL_ROUNDS = 1000
CAL_TABLE = {i: (i, str(i)) for i in range(40_000)}
CAL_KEYS = random.Random("calibration").sample(range(0, 40_000, 16), 2_500)
gc.collect()  # the collector untracks the table, so it adds nothing to later passes

END_TO_END = {
    "setup_s": "s",
    "solve_cal.p50": "cal",
    "solve_cal.tail": "cal",
    "solves_per_kcal": "1/kcal",
    "peak_rss_mb": "MB",
}

CALL_COUNTS = (
    "engine.evaluate_policy", "engine.vector_to_policy",
    "lower.solve_lower_greedy", "lower.optimistic_select",
    "lower.solve_lower_milp", "lower.simplex_solve",
    "model.evaluate_allocation", "model.validate_allocation", "model.validate_policy",
    "analysis.closed_form_optimize",
)
SELF_TIMES = (
    "engine.optimize", "engine.pso_run", "engine.pso_evaluator",
    "engine.evaluate_policy", "engine.vector_to_policy", "engine.domain_informed_points",
    "lower.solve_lower_greedy", "lower.optimistic_select",
    "lower.solve_lower_milp", "lower.simplex_solve",
    "model.evaluate_allocation", "model.validate_allocation", "model.validate_policy",
    "model.apply_modifiers",
    "analysis.closed_form_optimize", "analysis.budget_sweep",
    "oracle.enumerate_lower",
    "scenario_io.write_sensitivity_csv", "scenario_io.write_sweep_csv",
    "cli.main",
)
PER_CALL_US = ("engine.evaluate_policy", "lower.solve_lower_milp")


def import_package():
    """Import ecolever from this checkout's sources, or exit without a result."""
    if not (SRC / "ecolever" / "__init__.py").is_file():
        sys.exit(f"benchmark: no package sources at {SRC / 'ecolever'}")
    sys.path.insert(0, str(SRC))
    import ecolever
    if Path(ecolever.__file__).resolve().parent != SRC / "ecolever":
        sys.exit(f"benchmark: imported ecolever from {ecolever.__file__}, not {SRC}")
    import ecolever.cli  # the package's __init__ does not import the CLI
    return ecolever


class Tally:
    """Attempted and failed units; a failure is a bad answer or an EcoleverError."""

    def __init__(self, errors):
        self.errors = errors
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def attempt(self, workload, unit, call):
        """Run call() as one unit; return (answer, seconds), or (None, None)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            answer = call()
        except self.errors as exc:
            self._fail(f"{type(exc).__name__}: {exc}")
            return None, None
        elapsed = time.perf_counter() - start
        self.judge(workload, unit, answer)
        return answer, elapsed

    def judge(self, workload, unit, answer):
        try:
            workload.check(unit, answer)
        except CheckFailure as exc:
            self._fail(str(exc))

    def _fail(self, message):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)


def measure_setup():
    """Median seconds, in fresh interpreters, to import and load the case."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for attempt in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=CHECKOUT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        if attempt:  # the first one may compile bytecode
            samples.append(float(proc.stdout))
    return statistics.median(samples), samples


def calibration_s():
    """Seconds for a fixed mix of bytecode, Decimal and small numpy work,
    then lookups at scattered keys of a table of a few MB.

    It calls nothing in the package, so its time follows only the machine's
    speed at that moment. Normalising by either part alone left a drift with
    the host's speed, of opposite sign for the two; together they track the
    program. The collector is off, so the program's heap does not enter it,
    and it keeps its own Decimal context.
    """
    context = Context(prec=28)
    matrix = numpy.arange(64.0).reshape(8, 8)
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    total, table = Decimal(0), {}
    for i in range(CAL_ROUNDS):
        total = context.add(total, context.multiply(Decimal(i % 97) / 1000, Decimal("1.0313")))
        table[i % 50] = table.get(i % 50, 0) + (i * 7) % 13
        if i % 20 == 0:
            product = matrix @ matrix
            matrix = product / (numpy.abs(product).max() + 1.0)
    found = 0
    for i, key in enumerate(CAL_KEYS):
        found += CAL_TABLE[key][0]
        if i % 4 == 0:
            total = context.add(total, Decimal(key % 97) / 1000)
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def tail(durations, percentile):
    """(value, units beyond it) at `percentile`, by nearest rank.

    Each workload fixes its percentile so that about ten or more units lie
    beyond it in a run of the declared length, also on a slowed machine. A
    percentile that followed the unit count would read a higher percentile,
    and so a larger time, for a faster program.
    """
    ordered = sorted(durations)
    rank = max(1, -(-percentile * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


def flatten(by_position):
    return [t for times in by_position for t in times]


def cycle_tail(workload, by_position):
    """(value, units beyond it) at the workload's tail percentile.

    When every cycle deals the same inputs, the percentile is taken over the
    positions' medians, and the units of the positions beyond it are counted.
    Over all units, its rank would fall on the edge between two positions'
    samples, read the slowest sample of one and move with the cycle count.
    """
    if not workload.tail_by_position:
        return tail(flatten(by_position), workload.tail_percentile)
    timed = [times for times in by_position if times]
    value, positions = tail([statistics.median(times) for times in timed],
                            workload.tail_percentile)
    return value, positions * min(len(times) for times in timed)


class Phase:
    """Unit times of one timed phase, grouped by position in the cycle.

    `cal` holds each unit's wall time over the mean of the calibration
    kernel's times just before and just after it; `wall` holds seconds.
    """

    def __init__(self, cycle):
        self.cal = [[] for _ in range(cycle)]
        self.wall = [[] for _ in range(cycle)]
        self.kernel = []


def timed_phase(workload, tally, rng, seconds, tracer=None, block=0):
    """Run units until `seconds` have passed and at least `block` units ran;
    untraced, run whole cycles. The calibration kernel runs before the first
    unit and after each one.

    Returns the Phase and, when tracing, the counts after the first `block`
    units.
    """
    phase = Phase(workload.cycle)
    counts = None
    stream = workload.units(rng)
    before = calibration_s()
    phase.kernel.append(before)
    start = time.perf_counter()
    index = 0
    while (index < block or (tracer is None and index % workload.cycle)
           or time.perf_counter() - start < seconds):
        unit = next(stream)
        if tracer is None:
            call = lambda: workload.run(unit)  # noqa: E731
        else:
            call = lambda: tracer.run_unit(index, workload.run, unit)  # noqa: E731
        _, elapsed = tally.attempt(workload, unit, call)
        after = calibration_s()
        phase.kernel.append(after)
        if elapsed is not None:
            phase.cal[index % workload.cycle].append(2 * elapsed / (before + after))
            phase.wall[index % workload.cycle].append(elapsed)
        before = after
        index += 1
        if tracer is not None and index == block:
            counts = tracer.snapshot()
    return phase, counts


def cycle_rate(by_position):
    """Units per unit of time in a cycle whose every position takes its median
    time; a slow spell then shifts the figure only if it covers most cycles."""
    medians = [statistics.median(times) for times in by_position if times]
    return len(medians) / sum(medians)


def negative_selftest(workload, el, answer, unit):
    """A deliberately wrong answer must be counted as a failed unit."""
    probe = Tally(el.EcoleverError)
    probe.attempt(workload, unit, lambda: workload.corrupt(answer))
    if probe.failed != 1:
        sys.exit(f"benchmark: the {workload.name} check accepted a corrupted answer")


def per_layer(tracer, counts, block, untraced, traced, load_ms):
    units = len(tracer.unit_s)
    traced_s = sum(tracer.unit_s)
    index = {name: i for i, name in enumerate(tracer.names)}

    def self_ms(name):
        return tracer.self_s[index[name]] * 1000 / units if name in index else 0.0

    def inclusive_s(name):
        return tracer.inclusive_s[index[name]] if name in index else 0.0

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    put("engine.evaluations", counts.get("engine.evaluations", 0) / block, "count")
    for name in CALL_COUNTS:
        put(f"{name}.calls", counts.get(name, 0) / block, "count")
    put("oracle.enumerate_lower.allocations",
        counts.get("oracle.enumerate_lower.allocations", 0) / block, "count")
    for name in SELF_TIMES:
        put(f"{name}.self_ms", self_ms(name), "ms")
    for name in PER_CALL_US:
        put(f"{name}.us_p50", tracer.median_s(name) * 1e6, "us")
    for layer in LAYERS + ("bench",):
        total = sum(tracer.self_s[i] for i, name in enumerate(tracer.names)
                    if name.split(".")[0] == layer)
        put(f"{layer}.layer_self_ms", total * 1000 / units, "ms")
    budgets = counts.get("analysis.budget_sweep.budgets", 0)
    put("analysis.budget_sweep.rows_ratio",
        counts.get("analysis.budget_sweep.rows", 0) / budgets if budgets else 0.0, "ratio")
    enumerate_s = inclusive_s("oracle.enumerate_lower")
    put("oracle.allocations_per_s",
        tracer.counters.get("oracle.enumerate_lower.allocations", 0) / enumerate_s
        if enumerate_s else 0.0, "1/s")
    put("engine.evals_per_s", tracer.counters.get("engine.evaluations", 0) / traced_s, "1/s")
    put("scenario_io.load_bundled_scenario.ms", load_ms, "ms")
    put("trace.unit_ms", traced_s * 1000 / units, "ms")
    put("trace.self_sum_ratio", sum(tracer.self_s) / traced_s, "ratio")
    put("trace.overhead_ratio", statistics.median(flatten(traced.cal))
        / statistics.median(flatten(untraced.cal)), "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    el = import_package()
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        return bench(el, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(el, args, workdir):
    workload = WORKLOADS[args.workload](el, workdir)
    tally = Tally(el.EcoleverError)

    # Warm up outside the measurement; the first unit also feeds the
    # negative self-test of the check.
    stream = workload.units(random.Random(f"{args.seed}/warmup"))
    deadline = time.perf_counter() + WARMUP_SECONDS
    first = True
    while first or time.perf_counter() < deadline:
        unit = next(stream)
        answer, _ = tally.attempt(workload, unit, lambda: workload.run(unit))
        if first and answer is not None:
            negative_selftest(workload, el, answer, unit)
        first = False

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__, "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "ecolever").rglob("*.py"))),
    }
    if args.trace == 0:
        setup_s, setup_samples = measure_setup()
        phase, _ = timed_phase(workload, tally, random.Random(f"{args.seed}/timed"),
                               args.seconds)
        durations, wall = flatten(phase.cal), flatten(phase.wall)
        tail_cal, beyond = cycle_tail(workload, phase.cal)
        metrics = {
            "setup_s": setup_s,
            "solve_cal.p50": statistics.median(durations),
            "solve_cal.tail": tail_cal,
            "solves_per_kcal": cycle_rate(phase.cal) * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        meta.update(units=len(durations), cycles=len(durations) // workload.cycle,
                    tail_percentile=workload.tail_percentile, tail_samples=len(durations),
                    tail_beyond=beyond, setup_samples_s=setup_samples,
                    kernel_ms_p50=statistics.median(phase.kernel) * 1000,
                    wall_ms_p50=statistics.median(wall) * 1000,
                    wall_ms_tail=cycle_tail(workload, phase.wall)[0] * 1000,
                    wall_solves_per_s=cycle_rate(phase.wall))
    else:
        untraced, _ = timed_phase(workload, tally, random.Random(f"{args.seed}/timed"),
                                  args.seconds / 2)
        load_samples = []
        for _ in range(LOAD_REPEATS):
            start = time.perf_counter()
            el.load_bundled_scenario()
            load_samples.append(time.perf_counter() - start)
        tracer = Tracer(MAX_SPANS)
        tracer.install(el)
        try:
            traced, counts = timed_phase(workload, tally, random.Random(f"{args.seed}/traced"),
                                         args.seconds / 2, tracer, workload.trace_units)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, counts, workload.trace_units, untraced, traced,
                            statistics.median(load_samples) * 1000)
        meta.update(units=len(flatten(untraced.cal)), traced_units=len(flatten(traced.cal)),
                    count_block=workload.trace_units, spans_kept=len(tracer.spans))
        tracer.write_spans(OUT / f"spans-{args.workload}.json", meta)

    meta.update(attempted=tally.attempted, failed=tally.failed,
                fail_ratio=tally.failed / tally.attempted, failures=tally.failures)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, **result}, indent=1) + "\n")
    for name, metric in metrics.items():
        print(f"{name:45s} {metric['value']:14.6f} {metric['unit']}")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
