"""Start-up cost and dependencies: the package needs numpy, and scipy never.

Each case runs in a fresh interpreter, since this test process has long
imported both.  The package and most subcommands load neither; only the
period route and the ``verify`` checks that draw seeded samples or run the
period route load numpy, and only the N = 2 oracle (``mc_oracle_z``, never
the ``periods`` subcommand) loads the quadrature module.  scipy serves the
tests and the benchmark alone.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def loaded_after(code: str, modules: tuple[str, ...] = ("numpy", "scipy")) -> list[bool]:
    # whether each module is loaded once code ran
    report = f"import json, sys; print(json.dumps([m in sys.modules for m in {list(modules)!r}]))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], env=env, capture_output=True, text=True, check=True)
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
    "code, loaded",
    [
        ("import orbiheight.periods", False),
        (run_cli("periods", "--weights", "0.75,0.75,0.75"), False),
        ("from orbiheight import mc_oracle_z\nmc_oracle_z(2, (0.75, 0.75, 0.75))", True),
    ],
    ids=["import orbiheight.periods", "periods", "mc_oracle_z(2, ...)"],
)
def test_pair_quadrature_loads_only_with_its_oracle(code, loaded):
    # the quadrature builds its node cache on first use, so start-up and the
    # period product never pay for it
    assert loaded_after(code, ("orbiheight._pairquad",)) == [loaded]


@pytest.mark.parametrize(
    "code",
    [
        "from orbiheight import PeriodConfig, df_log_z\ndf_log_z(PeriodConfig(N=1000, w=(0.75, 0.75, 0.75)))",
        "from orbiheight import mc_oracle_z\nmc_oracle_z(2, (0.5, 0.5, 0.5))",
        run_cli("verify", "--suite", "all"),
    ],
    ids=["df_log_z", "mc_oracle_z(2, ...)", "verify --suite all"],
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


def test_mp_refs_import_nothing_of_the_package():
    # the shared mpmath references run with orbiheight, numpy and scipy
    # blocked, so a harness outside the tests can import them
    tests = str(Path(__file__).resolve().parent)
    code = f"import sys\nsys.path.insert(0, {tests!r})\n" + """from fractions import Fraction
for m in ("orbiheight", "numpy", "scipy"):
    sys.modules[m] = None
import mp_refs
mp_refs.primitive(0.3), mp_refs.zeta_ds(1), mp_refs.zeta_log_deriv(), mp_refs.gamma_integral(0.1, 0.7), mp_refs.q_by_primitive(0.3)
mp_refs.q_by_quadrature(0.3), mp_refs.ln_l(-0.3), mp_refs.wall((0.6, 0.7, 0.7)), mp_refs.height((0.8, 0.8, 0.8))
mp_refs.height_series((0.4, 0.5, 0.6)), mp_refs.epsilon(4), mp_refs.arakelov_gap(4), mp_refs.log_z(3, (0.5, 0.5, 0.5))
mp_refs.dedekind_log_deriv([(1, {1: Fraction(0)}), (3, {1: Fraction(0), 2: Fraction(1, 2)})])
"""
    assert loaded_after(code, ("mpmath",)) == [True]


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


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _caller_trees():
    # the package modules (its __init__ aside), the demos and the benchmark
    import orbiheight

    root = Path(orbiheight.__file__).parent
    sources = [p for p in root.glob("*.py") if p.name != "__init__.py"]
    sources += [*(root.parents[1] / "demos").glob("*.py"), *PERFBENCH.glob("*.py")]
    return [ast.parse(path.read_text()) for path in sources]


def test_exported_names_have_callers():
    # a name in a module's __all__ is read somewhere in the package (its
    # __init__ aside), a demo or the benchmark; one that only the tests call
    # belongs with those tests
    import orbiheight

    read = set()
    for tree in _caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for info in pkgutil.iter_modules(orbiheight.__path__):
        mod = importlib.import_module(f"orbiheight.{info.name}")
        unread += [f"{info.name}.{n}" for n in getattr(mod, "__all__", ()) if n not in read]
    assert unread == []


def test_exported_class_members_have_callers():
    # each public method, property and dataclass field of an exported class
    # is read as an attribute in the same sources.  Members match by name
    # alone, so one of two classes that share a member name hides the other
    # (Character.modulus kept an unread FieldSpec.modulus from view).
    import orbiheight

    read = {
        node.attr
        for tree in _caller_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    # the acceptance gate of tests/test_acceptance.py is the one reader of a
    # check's criterion tag
    allowed = {"verify.Check.criterion"}
    unread = []
    for info in pkgutil.iter_modules(orbiheight.__path__):
        mod = importlib.import_module(f"orbiheight.{info.name}")
        for cls in (getattr(mod, n) for n in getattr(mod, "__all__", ())):
            if not inspect.isclass(cls):
                continue
            members = {m for m in vars(cls) if not m.startswith("_")}
            if dataclasses.is_dataclass(cls):
                members |= {f.name for f in dataclasses.fields(cls)}
            unread += [f"{info.name}.{cls.__name__}.{m}" for m in sorted(members) if m not in read]
    assert [u for u in unread if u not in allowed] == []


def test_benchmark_worker_surface_resolves():
    # perfbench/worker.py drives the package through these attributes, some
    # of them only in --trace runs; a name renamed or removed here breaks the
    # benchmark, which the tests do not run
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "orbiheight":
            modules.update({a.asname or a.name: importlib.import_module(f"orbiheight.{a.name}") for a in node.names})
        elif isinstance(node, ast.Import):
            found = [a for a in node.names if a.name.startswith("orbiheight.")]
            modules.update({a.asname or a.name: importlib.import_module(a.name) for a in found})
    # attributes and local names that hold a module: self.specfun = specfun, sf = self.prog.specfun
    held = {
        t.attr: modules[node.value.id]
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name) and node.value.id in modules
        for t in node.targets
        if isinstance(t, ast.Attribute)
    }
    local = {
        t.id: held[node.value.attr]
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute) and node.value.attr in held
        for t in node.targets
        if isinstance(t, ast.Name)
    }

    def owner(node):
        # the package object an expression names, or None
        if isinstance(node, ast.Name):
            return modules.get(node.id, local.get(node.id))
        if isinstance(node, ast.Attribute):
            base = owner(node.value)
            return held.get(node.attr) if base is None else getattr(base, node.attr, None)
        return None

    read, missing = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (base := owner(node.value)) is not None:
            name = f"{base.__name__.removeprefix('orbiheight.')}.{node.attr}"
            read.add(name)
            if not hasattr(base, node.attr):
                missing.append(name)
    assert missing == []
    assert {"specfun.hurwitz_zeta", "specfun.hurwitz_zeta_ds", "specfun.loggamma_primitive", "cli.build_parser"} <= read


@pytest.mark.parametrize("seed", [1, 5, 101])
def test_benchmark_cli_arguments_succeed(seed, capsys):
    # every subcommand as the benchmark's CLI workload runs it, through the
    # same entry point; perfbench/inputs.py runs from source, so nothing is
    # written under perfbench/
    from orbiheight.cli import main

    cli_args = runpy.run_path(str(PERFBENCH / "inputs.py"))["cli_args"]
    for argv in cli_args(seed).values():
        assert main([*argv, "--format", "json"]) == 0, argv
    capsys.readouterr()


# Every functools cache in the package, with its maxsize (None: unbounded).
# A cache whose function takes arguments is bounded, or _FINITE_KEYS says
# why its keys are finite, so no per-argument cache grows memory unseen.
_CACHES = {
    "_pairquad._theta_nodes": None,
    "_pairquad.tanh_sinh_01": None,
    "fermat._diagonal": 1 << 10,
    "fermat._second_constant_value": None,
    "fields._builtin": None,
    "fields.dedekind_log_deriv": 128,
    "heights._signed_height": 1 << 12,
    "shimura._builtin": None,
}
_FINITE_KEYS = {
    "_pairquad._theta_nodes": "the three patches at the angle counts of pair_integral's two fixed levels",
    "_pairquad.tanh_sinh_01": "the radial and angular node counts of pair_integral's two fixed levels",
}


def test_every_cache_is_bounded_or_has_finite_keys():
    import orbiheight

    found = {}
    for path in Path(orbiheight.__file__).parent.glob("*.py"):
        mod = importlib.import_module(f"orbiheight.{path.stem}") if path.stem != "__init__" else orbiheight
        for node in ast.walk(ast.parse(path.read_text())):
            for d in getattr(node, "decorator_list", []):
                f = d.func if isinstance(d, ast.Call) else d
                if getattr(f, "attr", getattr(f, "id", None)) in ("cache", "lru_cache"):
                    found[f"{path.stem}.{node.name}"] = getattr(mod, node.name)
        # a cache made by a call rather than a decorator
        found |= {f"{path.stem}.{n}": f for n, f in vars(mod).items() if hasattr(f, "cache_parameters") and f.__module__ == mod.__name__}
    assert {name: f.cache_parameters()["maxsize"] for name, f in sorted(found.items())} == _CACHES
    takes_args = {name for name, f in found.items() if inspect.signature(f.__wrapped__).parameters}
    assert sorted(name for name in takes_args if _CACHES[name] is None) == sorted(_FINITE_KEYS)
