"""Start-up cost and dependencies: the package needs numpy, and scipy never.

Each case runs in a fresh interpreter, since this test process has long
imported both.  The package and most subcommands load neither; only the
period route and the ``verify`` checks that draw seeded samples or run the
period route load numpy.  scipy serves the tests and the benchmark alone.
"""

import ast
import importlib
import json
import os
import pkgutil
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
    # the same probe sees numpy once the period route is used, and no scipy
    assert loaded_after(code) == [True, False]


@pytest.mark.parametrize(
    "code",
    [
        "from orbiheight import PeriodConfig, df_log_z\ndf_log_z(PeriodConfig(N=1000, w=(0.75, 0.75, 0.75)))",
        run_cli("periods", "--weights", "0.5,0.5,0.5", "--N-list", "10,100", "--oracle"),
        run_cli("verify", "--suite", "all"),
    ],
    ids=["df_log_z", "periods --oracle", "verify --suite all"],
)
def test_runs_with_scipy_blocked(code):
    # a None entry in sys.modules makes every import of scipy raise
    # ImportError; loaded_after fails if the code raises or exits nonzero
    numpy_loaded, _ = loaded_after(f"import sys\nsys.modules['scipy'] = None\n{code}")
    assert numpy_loaded


def test_df_log_z_runs_with_mpmath_blocked():
    # mpmath serves the tests alone: the period product's ln |l| literals are
    # shipped as floats, never computed at import
    code = "from orbiheight import PeriodConfig, df_log_z\ndf_log_z(PeriodConfig(N=1000, w=(0.6, 0.8, 0.9)))"
    numpy_loaded, _ = loaded_after(f"import sys\nsys.modules['mpmath'] = None\n{code}")
    assert numpy_loaded


@pytest.mark.parametrize("start, stop, num", [(0.05, 5.0, 15), (0.05, 5.0, 23), (0.05, 5.0, 25), (0.0, 1.0, 20), (0.7, 0.95, 26)])
def test_verify_grids_match_numpy_bitwise(start, stop, num):
    # the registry builds its grids without numpy (_RECURRENCE_XS, the
    # semistable grid, the diagonal of the fermat suite); the checks keep
    # numpy's inputs to the last bit
    import numpy as np

    from orbiheight.verify import _linspace

    assert [x.hex() for x in _linspace(start, stop, num)] == [x.hex() for x in np.linspace(start, stop, num).tolist()]


def test_exported_names_resolve():
    # a name deleted from a module but still in its __all__, or still imported
    # by the package, is a stale export
    import orbiheight

    missing = []
    for info in pkgutil.iter_modules(orbiheight.__path__):
        mod = importlib.import_module(f"orbiheight.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    for node in ast.walk(ast.parse(Path(orbiheight.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            mod = importlib.import_module(f"orbiheight.{node.module}")
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(mod, a.name)]
    missing += [n for n in orbiheight._PERIODS_NAMES if not hasattr(orbiheight, n)]
    assert missing == []
