"""The demos run end to end: each exits 0 and writes nothing to stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    [
        "01_closed_form_heights.py",
        "02_hurwitz_toolbox.py",
        "03_periods_convergence.py",
        "04_shimura_invariants.py",
        "05_fermat_bounds.py",
    ],
)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "" and proc.stdout
