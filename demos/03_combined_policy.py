"""Combined tax+subsidy design at zero net budget, exact leader vs. least-policy LP.

The interesting regime: the regulator spends nothing on net, funding the
subsidy entirely out of carbon-tax receipts. On the case study `optimize`
ranks the exact leader's few analytic candidates. A copy with capacities of
all demand on every route binds nothing, but sends `optimize` down the
capped path: the exact least-policy LP for the allocation of the value
bound, which certifies its answer by reaching that bound within funds, and
where it does not, a search over the follower's vertex responses. Both
must land on the same policy, and the books must balance to the cent.

Run: python3 demos/03_combined_policy.py
"""

import time
from decimal import Decimal

from ecolever import Objective, Scenario, calibrate_case_study, optimize


def describe(tag, out, elapsed):
    pol = out.policy
    res = out.response
    subsidies = ", ".join(f"{rid}={rate}" for rid, rate in
                          sorted(pol.subsidy_rates.items())) or "(none)"
    print(f"[{tag}] value {out.upper_value} "
          f"({out.evaluations} evaluations, {elapsed * 1000:.0f} ms)")
    print(f"  tax {pol.tax_rate} $/kg, subsidies {subsidies}")
    print(f"  tax income {res.tax_payment:.4f} $, outlay {res.subsidy_outlay:.4f} $,"
          f" balance {res.tax_payment - res.subsidy_outlay:.2E} $")
    print(f"  industry pays {res.industry_cost:.2f} $ "
          f"for {sum(res.allocation.units.values())} units")


def main():
    case = calibrate_case_study()
    capped = Scenario(demand=case.demand, routes=case.routes, modifiers=case.modifiers,
                      capacity_limits={rid: case.demand for rid in case.route_ids()})

    for objective in (Objective.MIN_GHG, Objective.MAX_CIRCULARITY):
        print(f"== {objective.value}, net budget $0 ==")
        t0 = time.perf_counter()
        closed = optimize(case, objective, 0)
        closed_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        capped_out = optimize(capped, objective, 0)
        capped_s = time.perf_counter() - t0
        describe("exact", closed, closed_s)
        describe("capped path", capped_out, capped_s)
        # the funds balance is exact, so no policy below the corner pays for
        # itself: the capped path finds nothing past the exact leader's corner
        assert capped_out.policy == closed.policy
        assert capped_out.upper_value == closed.upper_value
        assert capped_out.response.allocation.units == closed.response.allocation.units
        print()

    # a negative budget forces the tax above the self-financing rate: the
    # regulator skims the difference as net revenue
    print("== min-ghg, net budget -$60 (revenue-raising) ==")
    t0 = time.perf_counter()
    out = optimize(case, Objective.MIN_GHG, Decimal(-60))
    describe("exact", out, time.perf_counter() - t0)


if __name__ == "__main__":
    main()
