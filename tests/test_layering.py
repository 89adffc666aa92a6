"""Each private helper has one owner: no module of the package imports an
underscore-prefixed name from a sibling module. The package runs on the
standard library alone."""

import ast
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import ecolever

PACKAGE = Path(ecolever.__file__).parent


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
from ecolever import PsoParams, Scenario, calibrate_case_study, optimize
case = calibrate_case_study()
capped = Scenario(demand=case.demand, routes=case.routes, modifiers=case.modifiers,
                  capacity_limits={rid: 400 for rid in case.route_ids()},
                  technology_fixed_costs={"strap_recycling_line": Decimal(5),
                                          "wash_reuse_loop": Decimal(3)})
params = PsoParams(swarm_size=4, iterations=3, restarts=2, seed=1)
out = optimize(capped, "min-ghg", 0, params=params)
assert out.evaluations > 2 * 4 * 3 and len(out.trace) == 2 * (3 + 1) + 1
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
