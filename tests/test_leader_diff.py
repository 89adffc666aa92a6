"""tools/leader_diff.py, the differential run every change to the leader is
checked with, on a few catalogs."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import conftest
import ecolever

TOOL = Path(__file__).resolve().parent.parent / "tools" / "leader_diff.py"


def test_leader_diff_prints_every_point_once_and_the_same_twice(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts src and tests first
    spec = importlib.util.spec_from_file_location("leader_diff", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    outputs = []
    for _ in range(2):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            tool.main([str(conftest.SRC), "--catalogs", "3"])
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    labels = [f"{label} {objective.value} {mode} {budget}:"
              for label, _, objective, budget, mode in tool.points(ecolever, conftest, 3)]
    assert len(lines) == len(labels) == 414 * 2 + 24 + 48 + 3 * 2 * 2
    assert all(line.startswith(label + " ") for line, label in zip(lines, labels))
    # the block near the context's digits holds points that refuse and
    # points that answer, so a diff sees a refusal come or go
    block = [line for line in lines if line.startswith("refusal")]
    assert len(block) == 36
    assert any("ResourceBoundError" in line for line in block)
    assert not all("ResourceBoundError" in line for line in block)
