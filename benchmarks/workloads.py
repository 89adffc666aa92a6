"""The benchmark's workloads: seeded unit streams, the timed call, and checks.

Each workload builds its scenarios once, then yields units from a seeded
`random.Random`; a run ends only after a whole `cycle` of units. A unit is
the operation that is timed and checked: `run` calls the package from outside
and returns the answer, `check` raises CheckFailure when the answer is wrong,
and `corrupt` turns a right answer into a wrong one so the checks can be
shown not to be vacuous.

Every package call goes through a module attribute (`el.optimize`, not a name
bound at import), so the tracer's patches are seen.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
from decimal import Decimal

from reference import reference_cost

CASE_GHG = Decimal("49.97")
CASE_TAX_CSV = "0.949564"        # zero-budget min-ghg tax at the CSV's 6 places
CASE_DISTANCE = Decimal("65")
CASE_LOSS = Decimal("0.0313")
OBJECTIVES = ("min-ghg", "max-circularity")


class CheckFailure(Exception):
    """The program's answer for a unit is wrong."""


def csv6(value) -> str:
    """A decimal as the package's CSV writers print it: 6 places, no -0."""
    out = Decimal(value).quantize(Decimal("0.000001"))
    return f"{out.copy_abs() if out == 0 else out:f}"


def _key(outcome):
    """(infeasible, leader value to minimize, tax, total subsidy rates)."""
    value = outcome.upper_value
    head = -value if outcome.objective.value == "max-circularity" else value
    return (not outcome.feasible, head, outcome.policy.tax_rate,
            sum(outcome.policy.subsidy_rates.values(), Decimal(0)))


def random_policy(el, rng, routes):
    """Tax in [0, 5] and, on about 40% of routes, a subsidy in (0, 0.1]."""
    rates = {r.route_id: Decimal(rng.randint(1, 100)) / 1000
             for r in routes if rng.random() < 0.4}
    return el.PolicyVector(tax_rate=Decimal(rng.randint(0, 500)) / 100, subsidy_rates=rates)


class PsoCase:
    """optimize() with a reduced swarm on the bundled pure-linear case."""

    name = "pso_case"
    trace_units = 16
    cycle = 16             # each cycle opens with min-ghg at budget 0
    tail_percentile = 95
    tail_by_position = False
    iterations = 40

    def __init__(self, el, workdir):
        self.el = el
        self.scenario = el.calibrate_case_study()
        self._closed = {}

    def units(self, rng):
        for index in itertools.count():
            if index % self.cycle == 0:
                objective, budget = "min-ghg", 0
            else:
                objective, budget = rng.choice(OBJECTIVES), rng.randint(-60, 100)
            yield objective, Decimal(budget), rng.randrange(2 ** 32)

    def run(self, unit):
        objective, budget, seed = unit
        params = self.el.PsoParams(iterations=self.iterations, restarts=1, seed=seed)
        return self.el.optimize(self.scenario, objective, budget, params=params)

    def check(self, unit, outcome):
        objective, budget, _ = unit
        if outcome.response.allocation.total() != self.scenario.demand:
            raise CheckFailure("allocation does not cover demand")
        if (objective, budget) not in self._closed:
            self._closed[objective, budget] = self.el.closed_form_optimize(
                self.scenario, objective, budget)
        closed = self._closed[objective, budget]
        if _key(outcome) > _key(closed):
            raise CheckFailure(f"{objective} at {budget}: swarm {outcome.upper_value} "
                               f"worse than closed form {closed.upper_value}")
        if objective == "min-ghg" and budget == 0 and outcome.upper_value != CASE_GHG:
            raise CheckFailure(f"zero-budget min-ghg gave {outcome.upper_value}")

    def corrupt(self, outcome):
        worse = 1 if outcome.objective.value == "min-ghg" else -1
        return dataclasses.replace(outcome, upper_value=outcome.upper_value + worse)


class PsoCapped(PsoCase):
    """The same swarm call on the capped, fixed-cost variant of the case."""

    name = "pso_capped"
    trace_units = 8
    cycle = 4
    tail_percentile = 90
    iterations = 8

    def __init__(self, el, workdir):
        self.el = el
        case = el.calibrate_case_study()
        self.scenario = el.Scenario(
            demand=1000, routes=case.routes, modifiers=case.modifiers,
            technology_fixed_costs={"strap_recycling_line": Decimal("0.5"),
                                    "landfill_site": Decimal("0.2"),
                                    "wash_reuse_loop": Decimal("0.3")},
            capacity_limits={rid: 400 for rid in case.route_ids()})

    def units(self, rng):
        while True:
            yield (rng.choice(OBJECTIVES), Decimal(rng.randint(-60, 100)),
                   rng.randrange(2 ** 32))

    def check(self, unit, outcome):
        expected = reference_cost(self.scenario, outcome.policy)
        if outcome.response.industry_cost != expected:
            raise CheckFailure(f"follower cost {outcome.response.industry_cost} "
                               f"!= exact {expected}")

    def corrupt(self, outcome):
        response = dataclasses.replace(
            outcome.response, industry_cost=outcome.response.industry_cost + Decimal("0.01"))
        return dataclasses.replace(outcome, response=response)


class SweepSens:
    """In-process CLI sensitivity and sweep commands with the closed-form engine."""

    name = "sweep_sens"
    trace_units = 18
    kinds = ("distance", "loss", "sweep")
    cycle = 3 * len(kinds)
    tail_percentile = 90
    tail_by_position = False
    values_per_unit = 4
    budgets_per_sweep = 17

    def __init__(self, el, workdir):
        self.el = el
        self.workdir = workdir

    def units(self, rng):
        for index in itertools.count():
            kind = self.kinds[index % len(self.kinds)]
            count = self.budgets_per_sweep * (self.values_per_unit if kind == "sweep" else 1)
            step = Decimal(rng.choice(("2.5", "5", "10")))
            below = rng.randint(0, count - 1)
            budgets = [step * (k - below) for k in range(count)]
            grid = f"{budgets[0]}:{budgets[-1]}:{step}"
            if kind == "sweep":
                argv = ["sweep", f"--budgets={grid}"]
                values = []
            else:
                if kind == "distance":
                    values = [Decimal(rng.randint(0, 2000)) / 10
                              for _ in range(self.values_per_unit - 1)] + [CASE_DISTANCE]
                else:
                    values = [Decimal(rng.randint(0, 3000)) / 10000
                              for _ in range(self.values_per_unit - 1)] + [CASE_LOSS]
                rng.shuffle(values)
                argv = ["sensitivity", "--parameter", kind,
                        "--values", ",".join(str(v) for v in values),
                        f"--budgets={grid}"]
            argv += ["--objective", "min-ghg", "--engine", "closed-form",
                     "--out", str(self.workdir)]
            yield kind, values, budgets, argv

    def run(self, unit):
        kind, _, _, argv = unit
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.el.cli.main(argv)
        name = "sweep.csv" if kind == "sweep" else "sensitivity.csv"
        text = (self.workdir / name).read_text() if code == 0 else ""
        return code, stdout.getvalue() + stderr.getvalue(), text

    def check(self, unit, answer):
        kind, values, budgets, _ = unit
        code, printed, text = answer
        if code != 0:
            raise CheckFailure(f"exit code {code}: {printed.strip()}")
        header, *rows = [line.split(",") for line in text.splitlines()]
        if kind == "sweep":
            expected = [(None, csv6(b)) for b in budgets]
            got = [(None, row[header.index("budget")]) for row in rows]
            point = None
        else:
            expected = [(csv6(v), csv6(b)) for v in values for b in budgets]
            got = [(row[header.index("value")], row[header.index("budget")]) for row in rows]
            point = csv6(CASE_DISTANCE if kind == "distance" else CASE_LOSS)
        if got != expected:
            raise CheckFailure(f"{len(got)} rows for {len(expected)} requested points")
        if f"({len(expected)} rows)" not in printed:
            raise CheckFailure("printed row count disagrees with the request")
        for row in rows:
            at_point = point is None or row[header.index("value")] == point
            if at_point and row[header.index("budget")] == csv6(0):
                ghg = row[header.index("upper_value")]
                tax = row[header.index("tax_rate")]
                if (ghg, tax) != (csv6(CASE_GHG), CASE_TAX_CSV):
                    raise CheckFailure(f"case point at budget 0 gave {ghg} at tax {tax}")

    def corrupt(self, answer):
        code, printed, text = answer
        return code, printed, "\n".join(text.splitlines()[:-1]) + "\n"


class VerifyBattery:
    """Differential follower trials on seeded random catalogs."""

    name = "verify_battery"
    # A unit is one trial. Enumeration work grows steeply with routes and
    # demand, so single trials differ by three orders of magnitude. A cycle
    # therefore deals every (routes, demand) shape, 2..8 routes by demand
    # 1..12, once, and a run measures whole cycles, so each run sees the same
    # mix and the tail is one shape's median time. The class (pure-linear or
    # capped with fixed costs) and the capacities follow from the shape; the
    # coefficients and policies come from the seed.
    shapes = tuple((routes, demand) for routes in range(2, 9) for demand in range(1, 13))
    cycle = len(shapes)
    trace_units = cycle
    tail_percentile = 95
    tail_by_position = True

    def __init__(self, el, workdir):
        self.el = el

    def units(self, rng):
        while True:
            for routes, demand in self.shapes:
                yield self._trial(rng, routes, demand)

    def _trial(self, rng, count, demand):
        el = self.el
        routes = tuple(
            el.RouteSpec(route_id=f"r{i}", product_id="p", technology_id=f"t{i}",
                         unit_cost=Decimal(rng.randint(-30, 120)) / 1000,
                         unit_emissions=Decimal(rng.randint(0, 200)) / 1000,
                         unit_circularity=Decimal(rng.randint(0, 200)) / 100)
            for i in range(count))
        fixed, caps = {}, {}
        if (count + demand) % 2:
            # The last route stays uncapped, so every instance is feasible.
            caps = {r.route_id: max(1, demand // 2) for r in routes[:min(2, count - 1)]}
            fixed = {r.technology_id: Decimal(rng.randint(0, 100)) / 100
                     for r in routes[:3]}
        scenario = el.Scenario(demand=demand, routes=routes,
                               technology_fixed_costs=fixed, capacity_limits=caps)
        return (scenario, random_policy(el, rng, routes), rng.choice(OBJECTIVES),
                Decimal(rng.randint(-60, 100)))

    def run(self, trial):
        el = self.el
        scenario, policy, objective, funds = trial
        optimum = el.enumerate_lower(scenario, policy).best.industry_cost
        costs = []
        if scenario.is_pure_linear():
            tie, canonical = el.solve_lower_greedy(scenario, policy)
            costs.append(el.evaluate_allocation(scenario, canonical, policy).industry_cost)
            picked = el.optimistic_select(scenario, policy, tie, objective, funds)
            costs.append(el.evaluate_allocation(scenario, picked, policy).industry_cost)
        costs.append(el.solve_lower_milp(scenario, policy).industry_cost)
        return optimum, costs

    def check(self, trial, answer):
        scenario, policy, _, _ = trial
        optimum, costs = answer
        shape = f"{len(scenario.routes)} routes, demand {scenario.demand}"
        if any(cost != optimum for cost in costs):
            raise CheckFailure(f"{shape}: fast-path costs {costs} != enumerated {optimum}")
        if reference_cost(scenario, policy) != optimum:
            raise CheckFailure(f"{shape}: enumerated {optimum} != exact reference")

    def corrupt(self, answer):
        optimum, costs = answer
        return optimum, [costs[0] + Decimal("0.000001")] + costs[1:]


WORKLOADS = {w.name: w for w in (PsoCase, PsoCapped, SweepSens, VerifyBattery)}
