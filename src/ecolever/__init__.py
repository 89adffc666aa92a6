"""Bilevel tax/subsidy design for circular packaging supply chains.

A government leader sets one carbon tax rate plus per-route subsidies; a
cost-minimizing industry follower allocates packaging demand across
end-of-life routes. The leader ranks exact analytic candidates, and where
capacities or fixed costs apply also the least policy of each of the
follower's vertex responses, subject to a self-financing budget; the
follower is solved exactly.
"""

from .errors import (
    CalibrationError,
    EcoleverError,
    InfeasibleError,
    InvalidAllocationError,
    NoThresholdError,
    ResourceBoundError,
    ValidationError,
)
from .model import (
    Allocation,
    LowerResult,
    Objective,
    PolicyVector,
    RouteSpec,
    Scenario,
    SensitivityModifiers,
    evaluate_allocation,
)
from .lower import (
    TieSet,
    optimistic_select,
    solve_lower,
    solve_lower_greedy,
    solve_lower_milp,
)
from .engine import (
    BilevelOutcome,
    COMBINED,
    MODES,
    PsoParams,
    SUBSIDY_ONLY,
    TAX_ONLY,
    evaluate_policy,
    optimize,
)
from .oracle import (
    GridAxis,
    enumerate_lower,
    enumerate_optimistic,
    grid_bilevel,
)
from .analysis import (
    budget_sweep,
    calibrate_case_study,
    closed_form_optimize,
    fit_slope,
    required_budget_for_fixed_tax,
    sensitivity_distance,
    sensitivity_loss,
    subsidy_threshold,
    tax_budget_line,
    tax_threshold,
)
from .scenario_io import load_bundled_scenario

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "BilevelOutcome",
    "COMBINED",
    "CalibrationError",
    "EcoleverError",
    "GridAxis",
    "InfeasibleError",
    "InvalidAllocationError",
    "LowerResult",
    "MODES",
    "NoThresholdError",
    "Objective",
    "PolicyVector",
    "PsoParams",
    "ResourceBoundError",
    "RouteSpec",
    "SUBSIDY_ONLY",
    "Scenario",
    "SensitivityModifiers",
    "TAX_ONLY",
    "TieSet",
    "ValidationError",
    "budget_sweep",
    "calibrate_case_study",
    "closed_form_optimize",
    "enumerate_lower",
    "enumerate_optimistic",
    "evaluate_allocation",
    "evaluate_policy",
    "fit_slope",
    "grid_bilevel",
    "load_bundled_scenario",
    "optimistic_select",
    "optimize",
    "required_budget_for_fixed_tax",
    "sensitivity_distance",
    "sensitivity_loss",
    "solve_lower",
    "solve_lower_greedy",
    "solve_lower_milp",
    "subsidy_threshold",
    "tax_budget_line",
    "tax_threshold",
]
