"""Each private helper has one owner: no module of the package imports an
underscore-prefixed name from a sibling module."""

import ast
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
