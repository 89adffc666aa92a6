"""The demos run end to end: each exits 0, so the assertions inside them
hold (demo 03 checks that the swarm lands exactly on the closed-form corner).

Demo 05 (the oracle checks) takes about 20 s and is left to be run by hand:
python3 demos/05_oracle_checks.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_threshold_analysis.py", "02_subsidy_sweeps.py",
         "03_combined_policy.py", "04_sensitivity.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert done.returncode == 0, done.stderr
