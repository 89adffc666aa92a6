"""The demos run end to end: each exits 0, so the assertions inside them
hold (demo 03 checks that the capped path lands exactly on the closed-form corner).
README's Quick start block runs too, so every name it imports stays at the
package root.

Demo 05 (the oracle checks) takes about 14 s on a 2-core machine, so it
runs as its own CI step (Python 3.11 only) rather than here:
PYTHONPATH=src python3 demos/05_oracle_checks.py
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_threshold_analysis.py", "02_subsidy_sweeps.py",
         "03_combined_policy.py", "04_sensitivity.py"]


def _run(args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, env=src_env(), timeout=120)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    done = _run([str(ROOT / "demos" / demo)], tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"## Quick start\n\n```python\n(.*?)```", readme, re.S)
    done = _run(["-c", block], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "49.97000"
