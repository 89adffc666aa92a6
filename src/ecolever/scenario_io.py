"""Scenario files and result artifacts.

Scenario files are JSON with every monetary/physical quantity carried as a
string so nothing is ever squeezed through binary floating point. Writers are
atomic (write to a sibling temp file, then rename) and fully deterministic:
fixed key order, fixed decimal formatting, no timestamps, so re-running a
command byte-reproduces its outputs.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import fields
from decimal import MAX_EMAX, MAX_PREC, ROUND_HALF_EVEN, Context, Decimal
from pathlib import Path

from .errors import ValidationError
from .model import (
    RouteSpec,
    Scenario,
    SensitivityModifiers,
    to_decimal,
)

FORMAT_NAME = "ecolever-scenario"
FORMAT_VERSION = 1

_ROUTE_FIELDS = tuple(f.name for f in fields(RouteSpec))
_MODIFIER_FIELDS = tuple(f.name for f in fields(SensitivityModifiers))
_ROUTE_ID_FIELDS = ("route_id", "product_id", "technology_id")
_TOP_FIELDS = ("format", "version", "demand", "routes", "modifiers",
               "technology_fixed_costs", "capacity_limits")
_SIX_PLACES = Decimal("1e-6")  # format_decimal's quantum, in a context that fits any value
_SIX_PLACES_CONTEXT = Context(prec=MAX_PREC, Emax=MAX_EMAX, rounding=ROUND_HALF_EVEN)


def bundled_scenario_path() -> Path:
    return Path(__file__).parent / "data" / "coffee_case.scenario"


def _field_out(value):
    """A dataclass field as JSON: Decimals as strings, tuples as lists."""
    if isinstance(value, Decimal):
        return str(value)
    return list(value) if isinstance(value, tuple) else value


def scenario_to_dict(scenario: Scenario) -> dict:
    m = scenario.modifiers
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "demand": scenario.demand,
        "routes": [{f: _field_out(getattr(r, f)) for f in _ROUTE_FIELDS}
                   for r in scenario.routes],
        "modifiers": {f: _field_out(getattr(m, f)) for f in _MODIFIER_FIELDS},
        "technology_fixed_costs": {t: str(c) for t, c
                                   in sorted(scenario.technology_fixed_costs.items())},
        "capacity_limits": {r: c for r, c in sorted(scenario.capacity_limits.items())},
    }


def _typed(data: dict, key, kind, name, violations):
    """data[key], or an empty `kind` when absent; a value of another JSON
    type is recorded in violations and read as empty."""
    value = data.get(key, kind())
    if isinstance(value, kind):
        return value
    violations.append(f"{name} must be {'an object' if kind is dict else 'a list'}")
    return kind()


def scenario_from_dict(data: dict) -> Scenario:
    v = []
    if not isinstance(data, dict):
        raise ValidationError(["scenario file must hold a JSON object"])
    if data.get("format") != FORMAT_NAME:
        v.append(f'"format" must be "{FORMAT_NAME}"')
    if data.get("version") != FORMAT_VERSION:
        v.append(f'"version" must be {FORMAT_VERSION}')
    for key in data:
        if key not in _TOP_FIELDS:
            v.append(f"unknown top-level key {key!r}")
    for key in ("demand", "routes"):
        if key not in data:
            v.append(f"missing required key {key!r}")
    if v:
        raise ValidationError(v)

    mods_raw = _typed(data, "modifiers", dict, "modifiers", v)
    fixed_raw = _typed(data, "technology_fixed_costs", dict, "technology_fixed_costs", v)
    caps_raw = _typed(data, "capacity_limits", dict, "capacity_limits", v)
    routes = []
    for i, raw in enumerate(_typed(data, "routes", list, "routes", v)):
        if not isinstance(raw, dict):
            v.append(f"routes[{i}] must be an object")
            continue
        for key in raw:
            if key not in _ROUTE_FIELDS:
                v.append(f"routes[{i}]: unknown key {key!r}")
        missing = [k for k in _ROUTE_ID_FIELDS + ("unit_cost", "unit_emissions",
                                                  "unit_circularity") if k not in raw]
        if missing:
            v.append(f"routes[{i}]: missing {', '.join(missing)}")
            continue
        wrong = [f"routes[{i}].{k} must be a string"
                 for k in _ROUTE_ID_FIELDS if not isinstance(raw[k], str)]
        subsidizable = raw.get("subsidizable", True)
        if not isinstance(subsidizable, bool):
            wrong.append(f"routes[{i}].subsidizable must be true or false")
        if wrong:
            v.extend(wrong)
            continue
        try:
            routes.append(RouteSpec(
                route_id=raw["route_id"],
                product_id=raw["product_id"],
                technology_id=raw["technology_id"],
                unit_cost=to_decimal(raw["unit_cost"], f"routes[{i}].unit_cost"),
                unit_emissions=to_decimal(raw["unit_emissions"], f"routes[{i}].unit_emissions"),
                unit_circularity=to_decimal(raw["unit_circularity"], f"routes[{i}].unit_circularity"),
                recovered_outputs=tuple(_typed(raw, "recovered_outputs", list,
                                               f"routes[{i}].recovered_outputs", v)),
                subsidizable=subsidizable,
                tags=tuple(_typed(raw, "tags", list, f"routes[{i}].tags", v)),
                stages=tuple(_typed(raw, "stages", list, f"routes[{i}].stages", v)),
            ))
        except ValidationError as exc:
            v.extend(exc.violations)
    modifiers = SensitivityModifiers()
    if mods_raw:
        for key in mods_raw:
            if key not in _MODIFIER_FIELDS:
                v.append(f"modifiers: unknown key {key!r}")
        try:
            decimals = {f: to_decimal(mods_raw.get(f, 0), f)
                        for f in _MODIFIER_FIELDS if f != "affected_route_ids"}
            modifiers = SensitivityModifiers(
                **decimals,
                affected_route_ids=tuple(_typed(mods_raw, "affected_route_ids", list,
                                                "modifiers.affected_route_ids", v)),
            )
        except ValidationError as exc:
            v.extend(exc.violations)
    if v:
        raise ValidationError(v)
    return Scenario(
        demand=data["demand"],
        routes=tuple(routes),
        modifiers=modifiers,
        technology_fixed_costs={t: to_decimal(c, f"technology_fixed_costs[{t}]")
                                for t, c in fixed_raw.items()},
        capacity_limits=dict(caps_raw),
    )


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename over the
    target, so readers never observe a half-written file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_scenario(scenario: Scenario, path) -> None:
    text = json.dumps(scenario_to_dict(scenario), indent=2) + "\n"
    atomic_write_text(path, text)


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError([f"cannot read scenario file {path}: {exc.strerror or exc}"])
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            [f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"])
    return scenario_from_dict(data)


def load_bundled_scenario() -> Scenario:
    return load_scenario(bundled_scenario_path())


def format_decimal(value) -> str:
    """Fixed-point rendering with exactly 6 fractional digits, as every CSV
    and printed figure carries.

    Quantizes half-even and normalizes negative zero, so equal quantities
    always produce identical bytes. Every digit is kept: the default 28-digit
    context would refuse values of 1e22 and more.
    """
    out = to_decimal(value, "value").quantize(_SIX_PLACES, None, _SIX_PLACES_CONTEXT)
    if out == 0:
        out = out.copy_abs()
    return f"{out:f}"


def write_sweep_csv(outcomes, path, route_ids) -> None:
    """One row per budget: policy, funds flows, objective, units per route in `route_ids`."""
    header = (["budget", "tax_rate", "tax_income", "subsidy_outlay", "upper_value"]
              + [f"units_{rid}" for rid in route_ids] + ["industry_cost"])
    lines = [",".join(header)]
    for outcome in outcomes:
        r = outcome.response
        row = [format_decimal(outcome.budget),
               format_decimal(outcome.policy.tax_rate),
               format_decimal(r.tax_payment),
               format_decimal(r.subsidy_outlay),
               format_decimal(outcome.upper_value)]
        row += [str(r.allocation.units_for(rid)) for rid in route_ids]
        row.append(format_decimal(r.industry_cost))
        lines.append(",".join(row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_sensitivity_csv(sweeps, path) -> None:
    """Flat table across parameter settings and budgets, with the route that
    carries the allocation at each point."""
    header = ["parameter", "value", "budget", "tax_rate", "tax_income",
              "subsidy_outlay", "upper_value", "industry_cost", "dominant_route"]
    lines = [",".join(header)]
    for sweep in sweeps:
        for outcome, dom in zip(sweep.records, sweep.dominant_routes):
            r = outcome.response
            lines.append(",".join([
                sweep.parameter,
                format_decimal(sweep.value),
                format_decimal(outcome.budget),
                format_decimal(outcome.policy.tax_rate),
                format_decimal(r.tax_payment),
                format_decimal(r.subsidy_outlay),
                format_decimal(outcome.upper_value),
                format_decimal(r.industry_cost),
                dom if dom is not None else "",
            ]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def outcome_to_dict(outcome) -> dict:
    r = outcome.response
    return {
        "objective": outcome.objective.value,
        "mode": outcome.mode,
        "budget": str(outcome.budget),
        "feasible": outcome.feasible,
        "policy": {
            "tax_rate": str(outcome.policy.tax_rate),
            "subsidy_rates": {rid: str(s) for rid, s
                              in sorted(outcome.policy.subsidy_rates.items())},
        },
        "upper_value": str(outcome.upper_value),
        "response": {
            "allocation": {rid: n for rid, n in sorted(r.allocation.units.items())},
            "industry_cost": str(r.industry_cost),
            "total_emissions": str(r.total_emissions),
            "circularity_index": str(r.circularity_index),
            "subsidy_outlay": str(r.subsidy_outlay),
            "tax_payment": str(r.tax_payment),
        },
        "evaluations": outcome.evaluations,
    }


def write_outcome_json(outcome, path) -> None:
    atomic_write_text(path, json.dumps(outcome_to_dict(outcome), indent=2) + "\n")


def write_svg_line_chart(path, series, title="", x_label="", y_label="") -> None:
    """Minimal multi-series line chart, 720 x 440 pixels, no dependencies.

    series: list of (name, points) with points as (x, y) pairs in data space;
    a series of one point, which a polyline does not show, also gets a dot.
    Geometry is computed in floats; this is presentation only.
    """
    width, height, pad = 720, 440, 56
    pts_all = [(float(x), float(y)) for _, pts in series for x, y in pts]
    if not pts_all:
        xs = ys = [0.0, 1.0]
    else:
        xs = [p[0] for p in pts_all]
        ys = [p[1] for p in pts_all]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    colors = ["#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#b7950b", "#34495e"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        f'stroke="#444" stroke-width="1"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="#444" stroke-width="1"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {height / 2:.1f})">{y_label}</text>',
    ]
    for k in range(5):
        xv = x_lo + (x_hi - x_lo) * k / 4
        yv = y_lo + (y_hi - y_lo) * k / 4
        parts.append(f'<text x="{sx(xv):.1f}" y="{height - pad + 16}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{xv:.4g}</text>')
        parts.append(f'<text x="{pad - 6}" y="{sy(yv) + 3:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{yv:.4g}</text>')
    for idx, (name, pts) in enumerate(series):
        color = colors[idx % len(colors)]
        coords = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="1.8"/>')
        if len(pts) == 1:
            (x, y), = pts
            parts.append(f'<circle cx="{sx(float(x)):.2f}" cy="{sy(float(y)):.2f}" r="3" '
                         f'fill="{color}"/>')
        parts.append(f'<text x="{width - pad}" y="{pad + 14 * idx}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11" fill="{color}">{name}</text>')
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")
