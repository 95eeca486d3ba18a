"""Start-up cost: the package and most subcommands load neither numpy nor scipy.

Each case runs in a fresh interpreter, since this test process has long
imported both.  Only the period route, the ``verify`` checks that draw
seeded samples or run the period route, and the quadrature twin need them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# prints whether numpy / scipy are loaded once the statements above it ran
REPORT = "import json, sys; print(json.dumps(['numpy' in sys.modules, 'scipy' in sys.modules]))"


def loaded_after(code: str) -> list[bool]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{REPORT}"], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run_cli(*argv: str) -> str:
    # what `python -m orbiheight.cli ...` runs, with the exit code checked
    return f"from orbiheight.cli import main\nassert main({list(argv)!r}) == 0"


@pytest.mark.parametrize(
    "code",
    [
        "import orbiheight",
        "import orbiheight.cli",
        run_cli("height", "--weights", "0.8,0.8,0.8"),
        run_cli("table1"),
        run_cli("specfun", "loggamma_primitive", "0.3"),
        run_cli("faltings", "--weights", "0.6,0.7,0.7"),
        run_cli("verify", "--suite", "fermat"),
    ],
)
def test_no_numpy_or_scipy(code):
    assert loaded_after(code) == [False, False]


def test_period_names_load_on_first_use():
    code = "import orbiheight\nassert 'df_log_z' in dir(orbiheight)\nassert callable(orbiheight.df_log_z)"
    # the same probe sees numpy once the period route is used
    assert loaded_after(code) == [True, True]


@pytest.mark.parametrize("start, stop, num", [(0.05, 5.0, 15), (0.05, 5.0, 23), (0.05, 5.0, 25), (0.0, 1.0, 20), (0.7, 0.95, 26)])
def test_verify_grids_match_numpy_bitwise(start, stop, num):
    # the registry builds its grids without numpy (_RECURRENCE_XS, the
    # semistable grid, the diagonal of the fermat suite); the checks keep
    # numpy's inputs to the last bit
    import numpy as np

    from orbiheight.verify import _linspace

    assert [x.hex() for x in _linspace(start, stop, num)] == [x.hex() for x in np.linspace(start, stop, num).tolist()]
