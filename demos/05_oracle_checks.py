"""Cross-checking the fast solvers against brute force on a small instance.

The follower is the load-bearing piece: this script confronts its one entry
point, `solve_lower`, with exhaustive enumeration on a shrunken copy of the
case study (12 units instead of 1000) where counting every allocation is
cheap, with and without capacities and fixed costs, then does the same for
the bilevel layer against a dense policy grid.

Run: python3 demos/05_oracle_checks.py
"""

import time
from decimal import Decimal

from ecolever import (
    GridAxis,
    Objective,
    PolicyVector,
    Scenario,
    calibrate_case_study,
    enumerate_lower,
    enumerate_optimistic,
    grid_bilevel,
    solve_lower,
)
from ecolever.analysis import closed_form_optimize


def main():
    case = calibrate_case_study()
    small = Scenario(demand=12, routes=case.routes, modifiers=case.modifiers)
    capped = Scenario(demand=12, routes=case.routes, modifiers=case.modifiers,
                      technology_fixed_costs={"landfill_site": Decimal("0.2")},
                      capacity_limits={rid: 6 for rid in case.route_ids()})

    print("-- lower level: solve_lower vs enumeration, funds 0 --")
    policies = [
        PolicyVector.zero(),
        PolicyVector(tax_rate=Decimal("4.3")),
        PolicyVector(tax_rate=Decimal("0.9"),
                     subsidy_rates={"multilayer_landfill": Decimal("0.047")}),
        PolicyVector(subsidy_rates={"glass_wash_reuse": Decimal("0.067")}),
    ]
    for scenario, label in ((small, "uncapped"), (capped, "capped")):
        for policy in policies:
            ref = enumerate_lower(scenario, policy)
            ok = all(solve_lower(scenario, policy, objective, 0).allocation
                     == enumerate_optimistic(scenario, policy, objective, 0, ref)
                     for objective in (Objective.MIN_GHG, Objective.MAX_CIRCULARITY))
            tag = f"{label}, tax {policy.tax_rate}, {len(policy.subsidy_rates)} subsidized"
            print(f"  {tag:<38} cost {ref.best.industry_cost:>9.4f} "
                  f"({ref.count} allocations, {len(ref.optima)} optima) agree={ok}")
            assert ok
    print()

    print("-- upper level: exact leader vs dense policy grid --")
    tax_axis = GridAxis(Decimal(0), Decimal(5), 201)
    sub_axes = {
        "multilayer_landfill": GridAxis(Decimal(0), Decimal("0.08"), 41),
        "glass_wash_reuse": GridAxis(Decimal(0), Decimal("0.08"), 41),
    }
    for objective in (Objective.MIN_GHG, Objective.MAX_CIRCULARITY):
        t0 = time.perf_counter()
        gpol, gval, _, gfeas = grid_bilevel(small, objective, 0, tax_axis, sub_axes)
        grid_s = time.perf_counter() - t0
        closed = closed_form_optimize(small, objective, 0)
        print(f"  {objective.value}: grid best {gval} at tax {gpol.tax_rate} "
              f"({grid_s:.1f}s over {201 * 41 * 41} policies)")
        print(f"  {'':<12} exact leader {closed.upper_value} "
              f"at tax {closed.policy.tax_rate:.6f}")
        # the grid can only do as well as its mesh; the exact leader must win or tie
        better = (closed.upper_value - gval if objective == Objective.MIN_GHG
                  else gval - closed.upper_value)
        assert gfeas and better <= 0
    print("\nthe exact leader dominates every grid point, as it should")


if __name__ == "__main__":
    main()
