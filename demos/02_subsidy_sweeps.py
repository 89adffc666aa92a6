"""Subsidy-only budget sweeps: emissions and circularity vs. available funds.

Reproduces the two headline response curves of the case study. With no tax,
the regulator buys pathway adoption one unit at a time, so the response is
linear in the budget until the full-adoption outlay saturates it: emissions
fall from 64.24 to 49.97 tCO2e by $61, circularity climbs from 1.275 to
1.475 by $67.

Run: python3 demos/02_subsidy_sweeps.py
"""

from decimal import Decimal

from ecolever import Objective, budget_sweep, calibrate_case_study
from ecolever.analysis import dominant_route
from ecolever.engine import SUBSIDY_ONLY


def show(outcomes, label, unit):
    print(f"-- {label} --")
    print(f"{'budget':>8} {'outlay':>8} {unit:>10}  adopted pathway")
    for out in outcomes:
        lead = dominant_route(out) or "(none)"
        print(f"{out.budget:>8} {out.response.subsidy_outlay:>8.2f} "
              f"{out.upper_value:>10.4f}  {lead}")
    print()


def main():
    case = calibrate_case_study()
    budgets = [Decimal(10 * k) for k in range(9)]  # 0..80

    ghg = budget_sweep(case, Objective.MIN_GHG, budgets, mode=SUBSIDY_ONLY)
    show(ghg, "minimize GHG, subsidy only", "tCO2e")

    circ = budget_sweep(case, Objective.MAX_CIRCULARITY, budgets, mode=SUBSIDY_ONLY)
    show(circ, "maximize circularity, subsidy only", "index")

    # the interior points really are partial adoption, not a modeling artifact:
    # at B=30 the funds cover floor(30/0.061) = 491 landfill conversions
    mid = ghg[3].response
    converted = mid.allocation.units_for("multilayer_landfill")
    print(f"at B=30 the min-GHG sweep converts {converted} of {case.demand} units;"
          f" outlay {mid.subsidy_outlay} $ leaves "
          f"{Decimal(30) - mid.subsidy_outlay} $ unspent (less than one more unit)")


if __name__ == "__main__":
    main()
