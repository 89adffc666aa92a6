"""Each private helper has one owner: no module of the package imports an
underscore-prefixed name from a sibling module. The package runs on the
standard library alone, and its root exports only what callers take from it."""

import ast
import dataclasses
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import ecolever

PACKAGE = Path(ecolever.__file__).parent
ROOT = PACKAGE.parents[1]


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            sibling = node.level > 0 or (node.module or "").startswith("ecolever")
            offenders += [f"{path.name}: {node.module}.{alias.name}"
                          for alias in node.names
                          if sibling and alias.name.startswith("_")]
    assert offenders == []


def test_only_model_reads_private_attributes_of_other_objects():
    # Scenario keeps its precomputed route data in underscore attributes and
    # hands it out through public methods; other modules use those methods.
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and not (node.attr.startswith("__") and node.attr.endswith("__"))
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("self", "cls"))):
                offenders.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert offenders == []


def test_no_module_imports_numpy():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}: {name}" for name in names
                          if name.split(".")[0] == "numpy"]
    assert offenders == []


BLOCKED_NUMPY_RUN = """
import sys
from decimal import Decimal
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import ecolever, ecolever.cli
from ecolever import RouteSpec, Scenario, calibrate_case_study, engine, optimize
calibrate_case_study()
# conftest's TIGHT_FUNDS: the least policy of the bound's allocation falls
# short, so the search over vertex responses runs and finds a lower tax
routes = [("t2", "0.072", "0.087", "2", True), ("t0", "0.015", "0.05", "0", False),
          ("t2", "0.03", "0.024", "2", True), ("t0", "0.031", "0.072", "0.4", False)]
scenario = Scenario(demand=28, routes=tuple(
    RouteSpec(route_id=f"r{i}", product_id="p", technology_id=tech, unit_cost=Decimal(cost),
              unit_emissions=Decimal(emissions), unit_circularity=Decimal(circ),
              subsidizable=subsidizable)
    for i, (tech, cost, emissions, circ, subsidizable) in enumerate(routes)),
    technology_fixed_costs={"t0": Decimal("0.37"), "t2": Decimal("0.17")},
    capacity_limits={"r1": 9, "r2": 16, "r3": 12})
budget = Decimal("0.056")
out = optimize(scenario, "max-circularity", budget)
assert out.evaluations == len(engine.domain_informed_points(scenario, budget)) + 2
assert out.policy.tax_rate == Decimal("0.200000000001")
print(out.upper_value)
"""


def test_package_runs_with_numpy_blocked():
    proc = subprocess.run([sys.executable, "-c", BLOCKED_NUMPY_RUN],
                          capture_output=True, text=True, timeout=120,
                          cwd=PACKAGE.parent)
    assert proc.returncode == 0, proc.stderr
    assert Decimal(proc.stdout.strip()) > 0


def test_only_model_spells_out_an_objective():
    # every other layer names objectives through ecolever.Objective
    values = {objective.value for objective in ecolever.Objective}
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "model.py":
            continue
        offenders += [f"{path.name}:{node.lineno}: {node.value!r}"
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, ast.Constant) and node.value in values]
    assert offenders == []


def _root_names(source):
    """Names a source takes from the package root: `from ecolever import x`,
    or `ecolever.x` and `el.x` reads (the benchmark binds the package as `el`)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "ecolever":
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and (
                isinstance(node.value, ast.Name) and node.value.id in ("ecolever", "el")
                or isinstance(node.value, ast.Attribute) and node.value.attr == "el"):
            names.add(node.attr)
    return names


def _is_type_or_mode(name):
    obj = getattr(ecolever, name)
    if isinstance(obj, type):
        return (issubclass(obj, Exception) or dataclasses.is_dataclass(obj)
                or issubclass(obj, tuple))
    return name == "MODES" or obj in ecolever.MODES


def test_every_root_export_is_taken_from_the_root_or_is_a_type_or_mode():
    # Callers outside the unit tests: README's snippets, the demos, the
    # acceptance criteria and the benchmark. Anything else is imported from
    # its module.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources = re.findall(r"```python\n(.*?)```", readme, re.S)
    sources += [path.read_text(encoding="utf-8")
                for folder in ("demos", "benchmarks")
                for path in sorted((ROOT / folder).glob("*.py"))]
    sources.append((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    used = set().union(*map(_root_names, sources))
    assert [name for name in ecolever.__all__
            if name not in used and not _is_type_or_mode(name)] == []
