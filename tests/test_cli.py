"""Command-line surface: dispatch, formats, determinism, exit codes."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import random
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiheight import shimura as sh
from orbiheight import verify as vf
from orbiheight.cli import _KERNELS, build_parser, main
from orbiheight.heights import WeightVector, h_pi_normalized


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_height_pet_matches_table_row(capsys):
    code, out, _ = run(capsys, "height", "--weights", "0.5,0.66666666666666667,1", "--kind", "pet", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    # h_pet(2,3,inf) = -zeta'/zeta(-1) - 1/2 - ln(12)/4
    assert doc["value"] == pytest.approx(-1.985053724 - 0.5 - math.log(12.0) / 4.0, abs=1e-6)


def test_height_pi_normalized_in_every_format(capsys):
    r = h_pi_normalized(WeightVector((0.8, 0.7, 0.75)))
    argv = ("height", "--weights", "0.8,0.7,0.75", "--kind", "pi", "--format")
    code, out, _ = run(capsys, *argv, "text")
    assert code == 0 and f"h[pi] = {r.value:.15g}  (err <= {r.err:.3g})" in out
    code, out, _ = run(capsys, *argv, "json")
    doc = json.loads(out)
    assert code == 0 and (doc["kind"], doc["value"], doc["err"]) == ("pi", r.value, r.err)
    code, out, _ = run(capsys, *argv, "csv")
    row = list(csv.reader(io.StringIO(out)))[1]
    assert code == 0 and (row[0], float(row[5])) == ("pi", r.value)


def test_height_by_ram_indices(capsys):
    code, out, _ = run(capsys, "height", "--ram", "2,3,inf", "--kind", "pet", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(-1.985053724 - 0.5 - math.log(12.0) / 4.0, abs=1e-9)


def test_invalid_weights_exit_code(capsys):
    code, _, err = run(capsys, "height", "--weights", "0.9,0,0")
    assert code == 1
    assert "K-semistability" in err
    code, _, err = run(capsys, "height", "--weights", "0.5,0.5")
    assert code == 1
    code, _, err = run(capsys, "height", "--weights", "0.5000000000005,0.25,0.25")  # just past the wall
    assert code == 1
    assert "K-semistability" in err and "index [0]" in err


def test_shimura_json(capsys):
    code, out, _ = run(capsys, "shimura", "--case", "disc6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["h"] == {"2": "11/18", "3": "7/12"}
    # the exact difference in the LogCombo form
    case = sh.get_case("disc6")
    assert doc["difference"] == json.loads((sh.yuan_height(case) - case.optimal).to_json())
    assert doc["difference"]["logs"]["2"] == [11, 12]
    code, _, err = run(capsys, "shimura", "--case", "nope")
    assert code == 1 and "unknown case" in err


def test_tables(capsys):
    code, out, _ = run(capsys, "table1", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 10
    assert rows[0]["indices"] == ["2", "3", "inf"]
    code, out, _ = run(capsys, "table2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "indices,value"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_fermat_default_twist_can_be_given(capsys, fmt):
    # the default twist is -1,1,1; given on the command line it reads as a value
    given = run(capsys, "fermat", "--m", "4", "--a", "-1,1,1", "--format", fmt)
    assert given == run(capsys, "fermat", "--m", "4", "--format", fmt)
    assert given[0] == 0 and given[2] == ""


def test_fermat_table(capsys):
    code, out, _ = run(capsys, "fermat", "--m", "4", "--m-to", "6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,h_can,gap,bound1,bound2,epsilon"
    assert len(lines) == 4


# sha256 of `fermat --m 4 --m-to 60` in each format, recorded before the
# diagonal heights were cached per degree: the cache changes no byte
_FERMAT_TABLE_SHA256 = {
    "text": "c6d52b999a00b810e53169a1604541a2d5be1e7e21933f77985777846d1c381a",
    "json": "7d37faa3b2e99095730e006c22ebf8af8c3969ea05dbfe98058ab1bfec140bb9",
    "csv": "9924ab0e263abf6afbac6f27dae9bbcdbcd1767caeec0650d861f4fa5e46280c",
}


@pytest.mark.parametrize("fmt", sorted(_FERMAT_TABLE_SHA256))
def test_fermat_table_prints_pinned_bytes(capsys, fmt):
    code, out, err = run(capsys, "fermat", "--m", "4", "--m-to", "60", "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _FERMAT_TABLE_SHA256[fmt]


def test_fermat_degrees_below_four_name_one_bound(capsys):
    # FermatSpec owns m >= 4, so m = 2 and m = 3 are refused with one message
    for m in ("2", "3"):
        assert run(capsys, "fermat", "--m", m) == (1, "", f"error: degree must be an integer at least 4 and below 2^511, got {m}\n")


def test_periods_deterministic_output(capsys):
    # both polarities in every format, byte-stable from run to run; the JSON
    # names the polarity that the sign of V picks
    for weights, polarity in (("0.8,0.8,0.8", "canonical"), ("0.5,0.5,0.5", "anticanonical")):
        for fmt in ("text", "json", "csv"):
            args = ("periods", "--weights", weights, "--N-list", "50,500", "--format", fmt)
            first = run(capsys, *args)
            assert first == run(capsys, *args)
            assert first[0] == 0 and first[2] == ""
        doc = json.loads(run(capsys, *args[:-1], "json")[1])
        assert doc["polarity"] == polarity and [r["N"] for r in doc["rows"]] == [50, 500]


def test_periods_csv(capsys):
    code, out, _ = run(capsys, "periods", "--weights", "0.75,0.75,0.75", "--N-list", "100,1000", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "N,estimate,gap"


def test_periods_declares_no_oracle_option():
    # the small-N oracles run in the library, demo 03 and verify --suite periods
    options = {o for a in _SUBPARSERS["periods"]._actions for o in a.option_strings}
    assert options == {"-h", "--help", "--format", "--weights", "--N-list"}


def test_faltings(capsys):
    code, out, _ = run(capsys, "faltings", "--weights", "0.6666666667,0.6666666667,0.6666666666", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(-1.59577, abs=1e-4)
    code, _, err = run(capsys, "faltings", "--weights", "0.5,0.5,0.5")
    assert code == 1


def test_specfun_kernels(capsys):
    code, out, _ = run(capsys, "specfun", "hurwitz_zeta", "-1", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(-1.0 / 12.0, abs=1e-12)
    code, out, _ = run(capsys, "specfun", "dedekind_log_deriv", "--field", "Qsqrt2", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.158480, abs=1e-5)
    code, _, err = run(capsys, "specfun", "hurwitz_zeta_ds")
    assert code == 1 and "argument" in err


@pytest.mark.parametrize("with_exponent, plain", [("-1e-05", "-0.00001"), ("-2.5e-3", "-0.0025")])
def test_specfun_reads_negative_arguments_with_an_exponent(capsys, with_exponent, plain):
    # -1e-05 is the repr of -0.00001: both spellings are one kernel argument
    first = run(capsys, "specfun", "hurwitz_zeta", with_exponent, "0.5")
    second = run(capsys, "specfun", "hurwitz_zeta", plain, "0.5")
    assert first == second
    assert first[0] == 0 and first[1] and first[2] == ""


# Case ids are positional (argv0, argv1, ...): replace a retired case in
# place or append a new one at the end, so the ids of the others stay put.
@pytest.mark.parametrize(
    "argv",
    [
        ("specfun", "hurwitz_zeta", "-1", "1e308"),
        ("specfun", "hurwitz_zeta", "-2", "1e200"),
        ("specfun", "hurwitz_zeta", "2", "1e-320"),
        ("specfun", "bernoulli2", "1e200"),
        ("periods", "--weights", "0.8,0.8", "--N-list", "50"),  # two weights
        ("periods", "--weights", "0.8,0.8,0.8", "--N-list", "0"),
        ("fermat", "--m", "4", "--a", "1,2"),
        ("shimura", "--case", "nosuch"),
        ("periods", "--weights", "0.9995,0.8,0.8", "--N-list", "50"),  # within 1e-3 of the wall at 1
        ("periods", "--weights", "0.8,0.8,0.8", "--N-list", "2.5"),
        ("specfun", "dedekind_log_deriv", "--field", "Qsqrt99"),
        ("height", "--ram", "2,3"),
        ("periods", "--weights", "0.1,0.1,0.1", "--N-list", "2"),  # N |V| >= 2(N - 1): Z_2 diverges
        ("periods", "--weights", "0.0005,0.9,0.9", "--N-list", "50"),  # within 1e-3 of the wall at 0
        ("periods", "--weights", "0.7,0.35,0.35", "--N-list", "50"),  # w1 - V/2 = 1: the far end at the wall
        ("specfun", "dedekind_log_deriv", "0.5", "0.7"),
        ("specfun", "loggamma_primitive", "0.5", "--field", "nonsense"),
        ("fermat", "--m", "10", "--m-to", "4"),
        ("periods", "--weights", "0.5,0.75,0.75", "--N-list", "50"),  # V = 0
        ("periods", "--weights", "0.667,0.667,0.667", "--N-list", "50"),  # 0 < V < 2e-3
        ("periods", "--weights", "0.6665,0.6665,0.6665", "--N-list", "50"),  # -2e-3 < V < 0
        ("periods", "--weights", "0.99,0.1,0.1", "--N-list", "50"),  # not K-semistable
        ("height", "--ram", "2,3,1" + "0" * 330),
        ("fermat", "--m", "1" + "0" * 330),
        ("specfun", "hurwitz_zeta_ds", "1.5"),
        ("height", "--weights", "-1e-3,0.5,0.5"),
        ("height", "--ram", "-2,3,4"),
        ("specfun", "hurwitz_zeta", "-inf", "0.5"),
        ("faltings", "--weights", "-1,0,0"),
        ("height", "--ram", ""),
        ("fermat", "--m", "4", "--a", ""),
        ("verify", "--suite", "nope"),
        ("fermat", "--m", "4.5"),
        ("fermat", "--m", "4", "--m-to", "x"),
        ("periods", "--weights", "1.5,0.5,0.5", "--N-list", "50"),
        ("periods", "--weights", "nan,0.5,0.5", "--N-list", "50"),
        ("periods", "--weights", "x,0.5,0.5", "--N-list", "50"),
        ("periods", "--weights", "0.8,0.8,0.8", "--N-list", "50,"),
        ("specfun", "hurwitz_zeta", "abc", "0.5"),
        ("periods", "--weights", "0.8,0.8,0.8", "--N-list", "100,1"),  # refused after a valid N, nothing printed
        ("periods", "--weights", "0.8,0.8,0.8", "--N-list", "1" + "0" * 400),  # beyond 2^53, where j is no longer exact
    ],
)
def test_invalid_input_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err[len("error: ")] not in "\"'"  # the message bare, not a quoted KeyError


def test_verify_suite_exit_codes(capsys, monkeypatch):
    # the plumbing only, on a stand-in registry of one passing and one
    # failing check; the real checks run in test_acceptance.py
    checks = [vf.Check("shimura", "passes", lambda: 0.0, 0.0), vf.Check("fermat", "fails", lambda: (False, "by design"))]
    monkeypatch.setattr(vf, "CHECKS", checks)
    code, out, _ = run(capsys, "verify", "--suite", "shimura")
    assert code == 0
    assert out.splitlines() == ["PASS  passes  [max residual 0.000e+00 (tol 0.0e+00)]", "1/1 checks passed"]
    code, out, _ = run(capsys, "verify", "--suite", "fermat", "--format", "json")
    assert code == 2
    fails = {"name": "fails", "passed": False, "detail": "by design"}
    assert json.loads(out) == {"suite": "fermat", "passed": 0, "failed": 1, "checks": [fails]}
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 2
    doc = json.loads(out)
    assert (doc["suite"], doc["passed"], doc["failed"]) == ("all", 1, 1)
    assert [c["name"] for c in doc["checks"]] == ["passes", "fails"]


@pytest.mark.parametrize(
    "argv",
    [
        ("specfun", "loggamma_primitive", "0.3"),
        ("height", "--weights", "0.8,0.8,0.8"),
        ("table1",),
        ("table2",),
        ("shimura", "--case", "disc6"),
        ("fermat", "--m", "4", "--m-to", "6"),
        ("periods", "--weights", "0.75,0.75,0.75", "--N-list", "100,1000"),
        ("faltings", "--weights", "0.6,0.7,0.7"),
        ("verify", "--suite", "fermat"),
    ],
    ids=lambda argv: argv[0],
)
def test_csv_format_prints_comma_separated_rows(capsys, argv):
    # a header row, then data rows with as many fields, parsed as CSV
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert len(header) >= 2 and all(name.isidentifier() for name in header)
    assert rows and all(len(row) == len(header) for row in rows)


# A command line each subcommand parses, less the value under test; the
# guard below fails on a subcommand with a value option that is missing here.
_ACCEPTED = {
    "specfun": ["specfun", "hurwitz_zeta"],
    "height": ["height"],
    "shimura": ["shimura", "--case", "disc6"],
    "fermat": ["fermat", "--m", "4"],
    "periods": ["periods", "--weights", "0.75,0.75,0.75", "--N-list", "100"],
    "faltings": ["faltings", "--weights", "0.6,0.7,0.7"],
    "verify": ["verify"],
}
_SUBPARSERS = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
_VALUE_ACTIONS = [(name, a) for name, p in _SUBPARSERS.items() for a in p._actions if a.nargs != 0 and a.choices is None]


@pytest.mark.parametrize("token", ["-1", "-1e-3", "-1,1,1"])
@pytest.mark.parametrize("name, action", _VALUE_ACTIONS, ids=lambda x: x if isinstance(x, str) else x.dest)
def test_a_leading_minus_starts_a_value_on_every_subcommand(capsys, name, action, token):
    # every option or positional that takes a free value (no choices) reads
    # the token as its value and converts it in the command: the command
    # answers 0 or 1, never "expected one argument" or an argparse type error
    assert action.type is None, (name, action.dest)
    argv = list(_ACCEPTED[name])
    if action.option_strings and action.option_strings[-1] in argv:
        argv[argv.index(action.option_strings[-1]) + 1] = token
    else:
        argv += [*action.option_strings[-1:], token]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1), (argv, err)


# A valid command line for each subcommand, quick to run.
_VALID = {
    "specfun": ["specfun", "hurwitz_zeta", "2", "0.5"],
    "height": ["height", "--weights", "0.8,0.8,0.8"],
    "table1": ["table1"],
    "table2": ["table2"],
    "shimura": ["shimura", "--case", "disc6"],
    "fermat": ["fermat", "--m", "4"],
    "periods": ["periods", "--weights", "0.75,0.75,0.75", "--N-list", "100"],
    "faltings": ["faltings", "--weights", "0.6,0.7,0.7"],
    "verify": ["verify", "--suite", "fermat"],
}


@pytest.mark.parametrize("name", sorted(_SUBPARSERS))
def test_every_declared_option_is_read(capsys, name):
    # an option the parser accepts but the command never reads is ignored
    # without a word; the fuzz test draws no option names, so it cannot see one
    read = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, attr):
            read.add(attr)
            return super().__getattribute__(attr)

    args = build_parser().parse_args(_VALID[name], namespace=Recorder())
    read.clear()  # argparse reads the namespace while it fills it
    assert args.fn(args) == 0
    capsys.readouterr()
    declared = {a.dest for a in _SUBPARSERS[name]._actions if a.dest != "help"}
    assert declared - read == set()


def test_usage_error_prints_flags():
    with pytest.raises(SystemExit):
        main(["height"])  # missing required group
    with pytest.raises(SystemExit) as exc:
        main(["height", "--weights", "0.8,0.8,0.8", "--prec", "0.01"])  # no subcommand takes --prec
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["periods", "--weights", "0.8,0.8,0.8", "--N-list", "50", "--prec", "0.01"])
    assert exc.value.code == 2


def test_bernoulli2_err_bounds_the_rounding(capsys):
    # a*a - a + 1/6 rounds three times and stores 1/6 rounded; no float result
    # of 2,000 random a is exact, so err 0 was a false claim
    kernel = _KERNELS["bernoulli2"][1]
    rng = random.Random(17)
    xs = [rng.uniform(-3.0, 3.0) for _ in range(2000)]
    xs += [0.0, 0.5, 1.0, -1.0, 5e-324, 1e-300, 0.5 * (1.0 - 3.0**-0.5), 1e150, -1e150]
    for a in xs:
        r = kernel(a)
        exact = Fraction(a) ** 2 - Fraction(a) + Fraction(1, 6)
        assert abs(Fraction(r.value) - exact) <= Fraction(r.err), a
        assert 0.0 < r.err <= 8.0 * math.ulp(max(1.0, a * a)), a
    code, out, _ = run(capsys, "specfun", "bernoulli2", "0.3", "--format", "json")
    assert code == 0 and json.loads(out)["err"] > 0.0


# Numeric text for one field: huge integers, nan, inf, empty strings and
# subnormals; plausible weights and arguments, so that valid inputs get
# through too, and weights on V = 0 for faltings.
_NUMBER = st.one_of(
    st.integers(-(10**400), 10**400).map(str),
    st.floats().map(repr),
    st.floats(-3.0, 3.0).map(repr),
    st.sampled_from(["", "nan", "inf", "-inf", "infinity", "5e-324", "1e-320", "-0", "1e308", "1" + "0" * 330]),
)
_WEIGHT = st.floats(0.3, 0.95)
_TRIPLE = st.lists(_NUMBER, min_size=3, max_size=3).map(",".join) | st.lists(_WEIGHT.map(repr), min_size=3, max_size=3).map(",".join)
_V_ZERO = st.builds(lambda a, b: f"{a!r},{b!r},{2.0 - a - b!r}", _WEIGHT, _WEIGHT)
_N_LIST = st.lists(st.integers(-3, 10**4).map(str) | st.sampled_from(["", "nan", "1e3"]), min_size=1, max_size=3).map(
    ",".join
) | st.lists(st.integers(2, 10**4).map(str), min_size=1, max_size=3).map(",".join)
_FERMAT_M = st.integers(-5, 60) | st.integers(-(10**400), 10**400) | st.integers(2**511 - 60, 2**512)
_ARGV = st.one_of(
    st.tuples(st.just("height"), st.sampled_from(["--weights", "--ram"]), _TRIPLE),
    st.tuples(st.just("faltings"), st.just("--weights"), _TRIPLE | _V_ZERO),
    st.builds(lambda k, xs: ("specfun", k, *xs), st.sampled_from(sorted(_KERNELS)), st.lists(_NUMBER, max_size=2)),
    st.builds(
        lambda m, span, a: ("fermat", "--m", str(m), "--m-to", str(m + span)) + (() if a is None else ("--a", a)),
        _FERMAT_M,
        st.integers(-3, 50),
        st.none() | _TRIPLE,
    ),
    st.tuples(st.just("periods"), st.just("--weights"), _TRIPLE, st.just("--N-list"), _N_LIST),
)


@settings(max_examples=400, deadline=None)
@given(_ARGV)
def test_cli_fuzz_exits_cleanly(argv):
    # 0 or 1 from main, never an argparse exit; an error is one stderr line,
    # never a traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 1), argv
    if code == 1:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv


_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_command_lines() -> list[list[str]]:
    """The arguments of every ``orbiheight ...`` line in README's Command line block, comments stripped."""
    text = _README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("orbiheight ")]


def test_readme_command_lines_run(capsys):
    lines = _readme_command_lines()
    assert lines
    failed = []
    for argv in lines:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        if code != 0:
            failed.append((argv, code, capsys.readouterr().err))
    assert not failed, failed


def test_readme_names_only_declared_options():
    # every --option in README's prose and orbiheight command lines is one a
    # parser declares; the command lines of pip and python in its fenced
    # blocks are other programs'
    parts = _README.read_text().split("```")
    commands = [line for block in parts[1::2] for line in block.splitlines() if line.startswith("orbiheight ")]
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", "\n".join(parts[0::2] + commands)))
    declared = {o for p in (build_parser(), *_SUBPARSERS.values()) for a in p._actions for o in a.option_strings}
    assert "--weights" in named
    assert sorted(named - declared) == []
