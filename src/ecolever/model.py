"""Domain types and evaluation equations for policy-driven packaging recovery.

A Scenario is a catalog of end-of-life routes (product, technology, per-unit
cost / emissions / circularity) plus total demand. A PolicyVector is the
government's lever setting: one carbon tax rate and per-route subsidy rates.
The functions here evaluate allocations under a policy; `value_bound` adds
the leader's best value over every allocation, which no policy can pass.

Every money, emission, and circularity quantity is an exact `decimal.Decimal`
so cost ties and policy thresholds reproduce bit for bit across platforms.
Floats are rejected at construction time; convert a float explicitly with
`ecolever.model.quantize_rate` first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from decimal import Decimal, Inexact, InvalidOperation, ROUND_HALF_EVEN, getcontext
from enum import Enum, EnumMeta

from .errors import InvalidAllocationError, ResourceBoundError, ValidationError

RATE_QUANTUM = Decimal("1e-12")
CIRCULARITY_MAX = Decimal(2)

ZERO = Decimal(0)


def to_decimal(value, name="value", violations=None):
    """Coerce int/str/Decimal to a finite Decimal; floats, NaN and infinities
    are refused.

    When a `violations` list is supplied, problems are appended there and ZERO
    is returned, letting callers gather every error before raising.
    """
    err = None
    if isinstance(value, Decimal):
        if value.is_finite():
            return value
        err = f"{name}: not a finite number: {value}"
    elif isinstance(value, bool):
        err = f"{name}: booleans are not numeric"
    elif isinstance(value, int):
        return Decimal(value)
    elif isinstance(value, float):
        err = (f"{name}: floats are not accepted for exact quantities; "
               f"pass a string or use quantize_rate()")
    elif isinstance(value, str):
        try:
            return to_decimal(Decimal(value), name, violations)
        except InvalidOperation:
            err = f"{name}: not a decimal literal: {value!r}"
    else:
        err = f"{name}: cannot interpret {type(value).__name__} as a decimal"
    if violations is not None:
        violations.append(err)
        return ZERO
    raise ValidationError([err])


def quantize_rate(value) -> Decimal:
    """Snap a float (e.g. `PsoParams.tax_max`) half-even onto the 1e-12 rate grid.

    Raises ValidationError for NaN, infinities, and magnitudes of 1e16 or
    more, whose 1e-12 multiples need more digits than the decimal context
    holds.
    """
    try:
        rate = Decimal(value).quantize(RATE_QUANTUM, rounding=ROUND_HALF_EVEN)
    except InvalidOperation:
        rate = None
    if rate is None or not rate.is_finite():
        raise ValidationError([f"rate {value!r} does not fit the 1e-12 rate grid"])
    return rate


@dataclass(frozen=True)
class RouteSpec:
    """One end-of-life route: a product routed through a recovery technology.

    unit_cost is the industry's net cost per packaging unit before any policy
    (production + transport + waste management - recovered-material revenue),
    so profitable routes carry negative values. unit_emissions is cradle-to-
    grave kg-CO2e per unit, unit_circularity the per-unit material circularity
    contribution (0..2). recovered_outputs and tags are descriptive metadata.
    """

    route_id: str
    product_id: str
    technology_id: str
    unit_cost: Decimal
    unit_emissions: Decimal
    unit_circularity: Decimal
    recovered_outputs: tuple = ()
    subsidizable: bool = True
    tags: tuple = ()
    stages: tuple = ()  # optional per-stage breakdown, never used in optimization

    def __post_init__(self):
        v = []
        for fld in ("unit_cost", "unit_emissions", "unit_circularity"):
            object.__setattr__(self, fld, to_decimal(getattr(self, fld), f"{self.route_id}.{fld}", v))
        object.__setattr__(self, "recovered_outputs", tuple(self.recovered_outputs))
        object.__setattr__(self, "tags", tuple(self.tags))
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.route_id:
            v.append("route_id must be nonempty")
        if self.unit_emissions < 0:
            v.append(f"{self.route_id}: unit_emissions must be >= 0")
        if not (0 <= self.unit_circularity <= CIRCULARITY_MAX):
            v.append(f"{self.route_id}: unit_circularity must lie in [0, 2]")
        if v:
            raise ValidationError(v)


@dataclass(frozen=True)
class SensitivityModifiers:
    """Linear sensitivity state for wash-loop routes.

    Affected routes carry *effective* coefficients for the current distance and
    loss; `apply_modifiers` moves them to another operating point by adding
    coeff * (new - current). Unaffected routes never change.
    """

    glass_wash_distance: Decimal = ZERO     # one-way miles
    glass_loss_fraction: Decimal = ZERO     # breakage share per cycle, 0..1
    distance_cost_coeff: Decimal = ZERO     # $/unit/mile
    distance_emission_coeff: Decimal = ZERO  # kg/unit/mile
    loss_cost_coeff: Decimal = ZERO         # $/unit per loss fraction
    loss_emission_coeff: Decimal = ZERO     # kg/unit per loss fraction
    affected_route_ids: tuple = ()

    def __post_init__(self):
        v = []
        for fld in ("glass_wash_distance", "glass_loss_fraction",
                    "distance_cost_coeff", "distance_emission_coeff",
                    "loss_cost_coeff", "loss_emission_coeff"):
            object.__setattr__(self, fld, to_decimal(getattr(self, fld), fld, v))
        object.__setattr__(self, "affected_route_ids", tuple(self.affected_route_ids))
        if self.glass_wash_distance < 0:
            v.append("glass_wash_distance must be >= 0")
        if not (0 <= self.glass_loss_fraction < 1):
            v.append("glass_loss_fraction must lie in [0, 1)")
        if v:
            raise ValidationError(v)


@dataclass(frozen=True)
class Scenario:
    """Route catalog + demand + optional integer-programming extras. Its dict
    fields must not be mutated after construction: the route index,
    `fill_table`, `integer_table` and `value_bound` are built from them once."""

    demand: int
    routes: tuple
    modifiers: SensitivityModifiers = field(default_factory=SensitivityModifiers)
    technology_fixed_costs: dict = field(default_factory=dict)  # technology_id -> $ activation cost
    capacity_limits: dict = field(default_factory=dict)         # route_id -> max units

    def __post_init__(self):
        v = []
        object.__setattr__(self, "routes", tuple(self.routes))
        if not isinstance(self.demand, int) or isinstance(self.demand, bool):
            v.append("demand must be an integer")
        elif self.demand < 0:
            v.append("demand must be >= 0")
        if not self.routes:
            v.append("at least one route is required")
        ids = [r.route_id for r in self.routes]
        if len(set(ids)) != len(ids):
            v.append("route_ids must be unique")
        fixed = {}
        for tech, cost in dict(self.technology_fixed_costs).items():
            fixed[tech] = to_decimal(cost, f"technology_fixed_costs[{tech}]", v)
            if fixed[tech] < 0:
                v.append(f"technology_fixed_costs[{tech}] must be >= 0")
        object.__setattr__(self, "technology_fixed_costs", fixed)
        caps = {}
        for rid, cap in dict(self.capacity_limits).items():
            if rid not in ids:
                v.append(f"capacity_limits[{rid}]: unknown route")
            if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
                v.append(f"capacity_limits[{rid}] must be a nonnegative integer")
            else:
                caps[rid] = cap
        object.__setattr__(self, "capacity_limits", caps)
        known_techs = {r.technology_id for r in self.routes}
        for tech in fixed:
            if tech not in known_techs:
                v.append(f"technology_fixed_costs[{tech}]: unknown technology")
        if not v and caps and all(r.route_id in caps for r in self.routes):
            if sum(caps.values()) < self.demand:
                v.append("capacity limits cannot absorb total demand")
        if v:
            raise ValidationError(v)
        by_id = {r.route_id: r for r in self.routes}
        ids = tuple(sorted(by_id))
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_route_ids", ids)
        object.__setattr__(self, "_subsidizable_ids",
                           tuple(rid for rid in ids if by_id[rid].subsidizable))
        # set here and replaced in place by fill_table() and integer_table():
        # an attribute added through __dict__ later (as functools.cached_property
        # does) moves CPython's inline attribute values into a dict and slows
        # every read
        object.__setattr__(self, "_fill_table", None)
        object.__setattr__(self, "_integer_table", None)
        object.__setattr__(self, "_value_bounds", {})  # objective -> value_bound

    def route(self, route_id: str) -> RouteSpec:
        try:
            return self._by_id[route_id]
        except KeyError:
            raise InvalidAllocationError(f"unknown route_id: {route_id!r}") from None

    def route_ids(self) -> tuple:
        """Route ids in canonical (lexicographic) order."""
        return self._route_ids

    def subsidizable_ids(self) -> tuple:
        """Ids of the routes that may carry a subsidy, in canonical order."""
        return self._subsidizable_ids

    def is_pure_linear(self) -> bool:
        """True when per-unit terms fully determine cost (no fixed costs, no capacities)."""
        return not self.technology_fixed_costs and not self.capacity_limits

    def capacity_of(self, route_id: str) -> int:
        return self.capacity_limits.get(route_id, self.demand)

    def fill_table(self) -> tuple:
        """The follower's policy-free data, built on the first call: (routes,
        fees). routes holds (unit cost, unit emissions, route id, technology
        bit, capacity); the i-th fixed-cost technology by id has bit 1 << i,
        any other 0. fees maps each such bit to its technology's fee. The
        follower prices it in Decimals; `integer_table` scales it for the LP."""
        if self._fill_table is None:
            fixed, caps, demand = self.technology_fixed_costs, self.capacity_limits, self.demand
            bits = {tech: 1 << i for i, tech in enumerate(sorted(fixed))}
            routes = tuple([(r.unit_cost, r.unit_emissions, r.route_id, bits.get(r.technology_id, 0),
                             caps.get(r.route_id, demand)) for r in self.routes])
            fees = {bit: fixed[tech] for tech, bit in bits.items()}
            object.__setattr__(self, "_fill_table", (routes, fees))
        return self._fill_table

    def integer_table(self) -> tuple:
        """`fill_table` over one common denominator, built on the first call:
        (den, routes, fees). routes maps each route id to (unit cost * den,
        unit emissions * den, technology bit, capacity), and fees each bit to
        its fee * den, all integers, so exact LP work prices by integer
        multiplies."""
        if self._integer_table is None:
            routes, fees = self.fill_table()
            ratios = [v.as_integer_ratio() for v in fees.values()]
            ratios += [v.as_integer_ratio() for cost, emissions, *_ in routes
                       for v in (cost, emissions)]
            den = math.lcm(*(d for _, d in ratios))
            scaled = iter([n * (den // d) for n, d in ratios])
            fees = {bit: next(scaled) for bit in fees}
            routes = {rid: (next(scaled), next(scaled), bit, cap)
                      for _, _, rid, bit, cap in routes}
            object.__setattr__(self, "_integer_table", (den, routes, fees))
        return self._integer_table


@dataclass(frozen=True)
class PolicyVector:
    """Leader decision: one economy-wide carbon tax rate plus per-route subsidies.

    tax_rate is $/kg-CO2e, subsidy_rates $/unit on specific routes. Zero rates
    are dropped so two representations of the same policy compare equal.
    """

    tax_rate: Decimal = ZERO
    subsidy_rates: dict = field(default_factory=dict)

    def __post_init__(self):
        # a finite Decimal is taken as it is; only other values are converted,
        # and only they pay for formatting a field name
        v = []
        tax = self.tax_rate
        if not (isinstance(tax, Decimal) and tax.is_finite()):
            object.__setattr__(self, "tax_rate", to_decimal(tax, "tax_rate", v))
        rates = {}
        for rid, rate in dict(self.subsidy_rates).items():
            if not (isinstance(rate, Decimal) and rate.is_finite()):
                rate = to_decimal(rate, f"subsidy_rates[{rid}]", v)
            if rate < 0:
                v.append(f"subsidy_rates[{rid}] must be >= 0")
            elif rate != 0:
                rates[rid] = rate
        object.__setattr__(self, "subsidy_rates", rates)
        if self.tax_rate < 0:
            v.append("tax_rate must be >= 0")
        if v:
            raise ValidationError(v)

    @classmethod
    def zero(cls) -> "PolicyVector":
        return cls()

    def subsidy_for(self, route_id: str) -> Decimal:
        return self.subsidy_rates.get(route_id, ZERO)

    def total_rates(self) -> Decimal:
        return sum(self.subsidy_rates.values(), ZERO)


@dataclass(frozen=True)
class Allocation:
    """Units of demand assigned to each route. Zero entries are dropped."""

    units: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        v = []
        for rid, n in dict(self.units).items():
            if not isinstance(n, int) or isinstance(n, bool):
                v.append(f"units[{rid}] must be an integer")
            elif n < 0:
                v.append(f"units[{rid}] must be >= 0")
            elif n > 0:
                clean[rid] = n
        if v:
            raise ValidationError(v)
        object.__setattr__(self, "units", clean)

    def total(self) -> int:
        return sum(self.units.values())

    def units_for(self, route_id: str) -> int:
        return self.units.get(route_id, 0)


@dataclass(frozen=True)
class LowerResult:
    """Follower-side totals for one allocation under one policy."""

    allocation: Allocation
    industry_cost: Decimal
    total_emissions: Decimal
    circularity_index: Decimal
    subsidy_outlay: Decimal
    tax_payment: Decimal


class _PassMembers(EnumMeta):
    def __call__(cls, value, *args, **kwargs):  # a member skips ~0.6 us (Python 3.11) of lookup
        return value if type(value) is cls else super().__call__(value, *args, **kwargs)


class Objective(str, Enum, metaclass=_PassMembers):
    """The leader's aim, scored through the mappings below; others raise ValidationError."""

    MIN_GHG = "min-ghg"
    MAX_CIRCULARITY = "max-circularity"
    MOST_PROFITABLE = "most-profitable"  # the cost-minimizing industry's baseline

    @classmethod
    def _missing_(cls, value):
        raise ValidationError([f"unknown objective: {value!r}"])

    def natural_value(self, result: LowerResult) -> Decimal:
        """Total emissions, circularity index, or industry cost."""
        return (result.total_emissions if self == "min-ghg" else
                result.circularity_index if self == "max-circularity" else
                result.industry_cost)

    def head(self, value: Decimal) -> Decimal:
        """A natural value in minimization form."""
        return -value if self == "max-circularity" else value

    def unit_head(self, route: RouteSpec) -> Decimal:
        """A route's per-unit term of the head; zero for most-profitable."""
        return (route.unit_emissions if self == "min-ghg" else
                -route.unit_circularity if self == "max-circularity" else ZERO)


class exactly:
    """A `with` block in which a decimal result that would round raises
    ResourceBoundError; the trap is set in place (localcontext() costs ~1 us more)."""
    __slots__ = ("what", "trapped")

    def __init__(self, what: str):
        self.what = what

    def __enter__(self):
        traps = getcontext().traps
        self.trapped, traps[Inexact] = traps[Inexact], True

    def __exit__(self, kind, error, traceback):
        getcontext().traps[Inexact] = self.trapped
        if kind is not None and issubclass(kind, Inexact):
            raise ResourceBoundError(f"{self.what} needs more than the context's "
                                     f"{getcontext().prec} digits") from None


def to_integers(values) -> list:
    """Exact numbers (ints, Decimals, Fractions) scaled by their least
    common denominator to integers."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = math.lcm(*(d for _, d in ratios))
    return [n * (scale // d) for n, d in ratios]


def validate_allocation(scenario: Scenario, allocation: Allocation) -> None:
    """Raise InvalidAllocationError unless the allocation is well formed."""
    for rid, n in allocation.units.items():
        scenario.route(rid)  # raises on unknown id
        if n > scenario.capacity_of(rid):
            raise InvalidAllocationError(
                f"{rid}: {n} units exceed capacity {scenario.capacity_of(rid)}")
    if allocation.total() != scenario.demand:
        raise InvalidAllocationError(
            f"allocation covers {allocation.total()} units, demand is {scenario.demand}")


def validate_policy(scenario: Scenario, policy: PolicyVector) -> None:
    v = []
    for rid in policy.subsidy_rates:
        route = scenario._by_id.get(rid)
        if route is None:
            v.append(f"subsidy_rates[{rid}]: unknown route")
        elif not route.subsidizable:
            v.append(f"subsidy_rates[{rid}]: route is not subsidizable")
    if v:
        raise ValidationError(v)


def evaluate_allocation(scenario: Scenario, allocation: Allocation,
                        policy: PolicyVector) -> LowerResult:
    """Every follower-side total for one allocation under one policy.

    Validates both inputs once, then prices them with `price_allocation`.
    """
    validate_allocation(scenario, allocation)
    validate_policy(scenario, policy)
    return price_allocation(scenario, allocation, policy)


def price_allocation(scenario: Scenario, allocation: Allocation,
                     policy: PolicyVector) -> LowerResult:
    """`evaluate_allocation` for inputs already known to be valid, in one
    pass.

    Fixed costs are charged for each technology the allocation uses;
    circularity is the demand-weighted mean, reported as 0 at zero demand.
    Every sum is exact: totals that need more digits than the decimal
    context holds raise ResourceBoundError instead of rounding; only the
    circularity mean is a rounded division.
    """
    by_id, subsidies = scenario._by_id, policy.subsidy_rates
    emissions = outlay = unit_part = circularity = ZERO
    active = set()
    with exactly("exact pricing"):
        for rid, n in allocation.units.items():
            route = by_id[rid]
            emissions += route.unit_emissions * n
            outlay += subsidies.get(rid, ZERO) * n
            unit_part += route.unit_cost * n
            circularity += route.unit_circularity * n
            active.add(route.technology_id)
        fixed = sum((cost for tech, cost in scenario.technology_fixed_costs.items()
                     if tech in active), ZERO)
        tax_payment = policy.tax_rate * emissions
        industry_cost = unit_part + fixed + tax_payment - outlay
    return LowerResult(allocation, industry_cost, emissions,
                       circularity / scenario.demand if scenario.demand else ZERO,
                       outlay, tax_payment)


def value_bound(scenario: Scenario, objective):
    """The best leader value any policy can induce, and an Allocation that
    reaches it; None for most-profitable or where a sum would round. Built
    on the first call per objective and kept with the scenario. Every
    response is an allocation within the capacities, and both objectives
    are linear in the units (the circularity mean rounds as in
    `price_allocation`), so filling demand in ascending (`Objective.unit_head`,
    route id), each route up to its capacity, reaches the best: the
    high-point relaxation's value (Bard, Practical Bilevel Optimization, 1998).
    """
    objective = Objective(objective)
    bounds = scenario._value_bounds
    if objective in bounds:
        return bounds[objective]
    bound = None
    if objective is not Objective.MOST_PROFITABLE:
        units, left = {}, scenario.demand
        for route in sorted(scenario.routes, key=lambda r: (objective.unit_head(r), r.route_id)):
            units[route.route_id] = take = min(scenario.capacity_of(route.route_id), left)
            left -= take
        allocation = Allocation(units)
        try:
            result = price_allocation(scenario, allocation, PolicyVector.zero())
            bound = objective.natural_value(result), allocation
        except ResourceBoundError:
            pass
    bounds[objective] = bound
    return bound


def apply_modifiers(scenario: Scenario, distance, loss) -> Scenario:
    """Re-situate affected routes at another (distance, loss) operating point.

    Coefficients move linearly: cost += cost_coeff * delta, emissions likewise,
    circularity never changes. Calling with the scenario's current values is an
    exact identity, and the operation is idempotent for fixed arguments.
    """
    m = scenario.modifiers
    distance = to_decimal(distance, "distance")
    loss = to_decimal(loss, "loss")
    d_delta = distance - m.glass_wash_distance
    l_delta = loss - m.glass_loss_fraction
    routes = tuple(
        replace(r,
                unit_cost=r.unit_cost + m.distance_cost_coeff * d_delta + m.loss_cost_coeff * l_delta,
                unit_emissions=r.unit_emissions + m.distance_emission_coeff * d_delta + m.loss_emission_coeff * l_delta)
        if r.route_id in m.affected_route_ids and (d_delta or l_delta) else r
        for r in scenario.routes)
    return replace(scenario, routes=routes,
                   modifiers=replace(m, glass_wash_distance=distance, glass_loss_fraction=loss))
