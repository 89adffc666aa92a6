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
