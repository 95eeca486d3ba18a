"""Command-line front end.

Exit codes: 0 success, 1 domain error (bad weights or numbers, poles, unknown ids),
2 verification failure from `verify` or a command line that does not parse.
Output is byte-stable for fixed inputs and seed; exact rationals are printed
as "n/d" strings, never as floats.

Subcommands
-----------
specfun   evaluate one special-function kernel
height    closed-form height for weights or ramification indices
table1    the log-canonical closed-form table
table2    the Fano closed-form table
shimura   local invariants h(p) for a shipped Shimura-curve case
fermat    Fermat-curve heights and Arakelov bounds for a range of degrees
periods   Vandermonde-limit convergence table (CSV-friendly)
faltings  log-Calabi-Yau normalization integral at V = 0
verify    run the named invariant suite
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import fermat as fm
from . import heights as hg
from . import shimura as sh
from . import specfun as sf
from .fields import dedekind_log_deriv, get_field
from .lcombo import LogCombo


_KERNELS = {
    "bernoulli2": (1, sf.bernoulli2),
    "hurwitz_zeta": (2, sf.hurwitz_zeta),
    "hurwitz_zeta_ds": (1, sf.hurwitz_zeta_ds),
    "loggamma_primitive": (1, sf.loggamma_primitive),
    "loggamma_ratio_integral": (2, sf.loggamma_ratio_integral),
    "dedekind_log_deriv": (0, None),
}


def _value(text: str | None, convert, option: str):
    """text through convert, None as None; a refusal names the option."""
    try:
        return None if text is None else convert(text)
    except ValueError as exc:
        raise ValueError(f"{option}: {exc}") from None


def _items(text: str, convert, option: str) -> tuple:
    """Each item of a comma list through _value; the type that takes them checks how many."""
    return tuple(_value(p.strip(), convert, option) for p in text.split(","))


def _ram_index(text: str) -> float:
    return math.inf if text in ("inf", "oo", "infinity") else int(text)


def _emit(args, payload: dict, text_lines: list[str], csv_lines: list[str] | None = None):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        print("\n".join(csv_lines if csv_lines is not None else text_lines))
    else:
        print("\n".join(text_lines))


def _quoted(text: str) -> str:
    """text as one CSV field: in double quotes, with each inner quote doubled."""
    return '"' + text.replace('"', '""') + '"'


def _frac_str(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def _combo_doc(combo: LogCombo) -> dict:
    return json.loads(combo.to_json())


def _cmd_specfun(args) -> int:
    name = args.kernel
    arity, fn = _KERNELS[name]
    if len(args.x) != arity:
        raise ValueError(f"{name} takes {arity} argument(s), got {len(args.x)}")
    if name == "dedekind_log_deriv":
        r = dedekind_log_deriv(get_field(args.field or "Q"))
    elif args.field is not None:
        raise ValueError("--field applies only to dedekind_log_deriv")
    else:
        r = fn(*(_value(x, float, f"{name} argument") for x in args.x))
    _emit(
        args,
        {"kernel": name, "value": r.value, "err": r.err},
        [f"{name} = {r.value:.15g}  (err <= {r.err:.3g})"],
        [f"kernel,value,err", f"{name},{r.value:.17g},{r.err:.3g}"],
    )
    return 0


def _cmd_height(args) -> int:
    wv = hg.WeightVector(_items(args.weights, float, "--weights") if args.ram is None else hg.RamIndices(_items(args.ram, _ram_index, "--ram")))
    v = wv.volume
    if args.kind == "pet":
        r = hg.h_pet(wv)
    elif args.kind == "pi":
        r = hg.h_pi_normalized(wv)
    else:
        r = hg.h_can(wv)
    _emit(
        args,
        {"weights": list(wv.w), "V": v, "kind": args.kind, "value": r.value, "err": r.err},
        [f"weights {wv.w}  V = {v:.12g}", f"h[{args.kind}] = {r.value:.15g}  (err <= {r.err:.3g})"],
        ["kind,w1,w2,w3,V,value,err", f"{args.kind},{wv.w[0]:.17g},{wv.w[1]:.17g},{wv.w[2]:.17g},{v:.17g},{r.value:.17g},{r.err:.3g}"],
    )
    return 0


def _table_rows(table):
    from .tables import TABLE1, TABLE2

    rows = []
    for row in TABLE1 if table == 1 else TABLE2:
        m = ["inf" if x == math.inf else str(int(x)) for x in row.indices.m]
        ev = row.constant.evaluate()
        entry = {
            "indices": m,
            "constant": _combo_doc(row.constant),
            "value": ev.value,
        }
        if table == 1:
            entry["field"] = row.field_id
        rows.append(entry)
    return rows


def _cmd_table(args, which: int) -> int:
    rows = _table_rows(which)
    lines = []
    csv_lines = ["indices,field,value"] if which == 1 else ["indices,value"]
    for r in rows:
        idx = "(" + ",".join(r["indices"]) + ")"
        if which == 1:
            lines.append(f"{idx:12s} field {r['field']:<7s} constant = {r['value']:.12f}")
            csv_lines.append(f"\"{idx}\",{r['field']},{r['value']:.17g}")
        else:
            lines.append(f"{idx:12s} constant = {r['value']:.12f}")
            csv_lines.append(f"\"{idx}\",{r['value']:.17g}")
    _emit(args, {"rows": rows}, lines, csv_lines)
    return 0


def _cmd_shimura(args) -> int:
    case = sh.get_case(args.case)
    hp = sh.h_p_map(case)
    diff = sh.yuan_height(case) - sh.optimal_pet_height(case)
    scale = case.scale()
    payload = {
        "case": case.id,
        "field": case.field_id,
        "k_degree": _frac_str(case.k_degree),
        "h": {str(p): _frac_str(v) for p, v in hp.items()},
        "h_hat": {str(p): _frac_str(v / scale) for p, v in hp.items()},
        "difference": _combo_doc(diff),
    }
    lines = [f"case {case.id}  field {case.field_id}  orbifold degree {_frac_str(case.k_degree)}"]
    for p, v in hp.items():
        lines.append(f"  p = {p}:  h(p) = {_frac_str(v):>8s}   h_hat(p) = {_frac_str(v / scale)}")
    lines.append(f"  exact height difference: {diff.to_json()}")
    csv_lines = ["case,p,h,h_hat"] + [f"{case.id},{p},{_frac_str(v)},{_frac_str(v / scale)}" for p, v in hp.items()]
    _emit(args, payload, lines, csv_lines)
    return 0


def _cmd_fermat(args) -> int:
    args.m, args.m_to = _value(args.m, int, "--m"), _value(args.m_to, int, "--m-to")
    if args.m_to is not None and args.m_to < args.m:
        raise ValueError(f"--m-to {args.m_to} is below --m {args.m}")
    ms = range(args.m, args.m_to + 1) if args.m_to is not None else [args.m]
    spec = fm.FermatSpec(args.m) if args.a is None else fm.FermatSpec(args.m, _items(args.a, int, "--a"))
    rows = []
    for m in ms:
        h = fm.fermat_h_can(fm.FermatSpec(m, spec.a))
        b = fm.arakelov_upper_bound(m)
        rows.append(
            {
                "m": m,
                "h_can": h.value,
                "gap": fm.arakelov_gap(m),
                "bound1": b.first.value,
                "bound2": b.second,
                "epsilon": b.epsilon,
            }
        )
    lines = [
        f"m={r['m']:3d}  h_can={r['h_can']:+.9f}  gap={r['gap']:.9f}  bound1={r['bound1']:+.9f}  bound2={r['bound2']:+.9f}"
        for r in rows
    ]
    csv_lines = ["m,h_can,gap,bound1,bound2,epsilon"] + [
        f"{r['m']},{r['h_can']:.17g},{r['gap']:.17g},{r['bound1']:.17g},{r['bound2']:.17g},{r['epsilon']:.17g}"
        for r in rows
    ]
    _emit(args, {"twist": list(spec.a), "rows": rows}, lines, csv_lines)
    return 0


def _oracle_options(args) -> tuple[int, str]:
    """The oracle's N and its scheme, by default quadrature at N = 2 and monte-carlo
    otherwise.  --seed, --oracle-n and --scheme belong to --oracle; --seed and
    --budget drive the Monte-Carlo oracle alone.  --oracle has no CSV form."""
    if args.oracle and args.format == "csv":
        raise ValueError("--oracle has no CSV form; use --format json")
    if not args.oracle:
        for flag, v in (("--seed", args.seed), ("--oracle-n", args.oracle_n), ("--scheme", args.scheme)):
            if v is not None:
                raise ValueError(f"{flag} applies only to --oracle")
    n = _value(args.oracle_n or "2", int, "--oracle-n")
    scheme = args.scheme or ("quadrature" if n == 2 else "monte-carlo")
    for flag, v in (("--seed", args.seed), ("--budget", args.budget)):
        if v is not None and scheme != "monte-carlo":
            raise ValueError(f"{flag} applies only to --oracle --scheme monte-carlo")
    return n, scheme


def _cmd_periods(args) -> int:
    from . import periods as pd  # numpy loads here, not at start-up

    n, scheme = _oracle_options(args)
    wv = hg.WeightVector(_items(args.weights, float, "--weights"))
    n_list = _items(args.n_list, int, "--N-list")
    polarity = "canonical" if wv.volume > 0.0 else "anticanonical"
    rows = pd.convergence_report(wv, polarity, n_list)
    payload = {
        "weights": list(wv.w),
        "polarity": polarity,
        "rows": [{"N": r.N, "estimate": r.estimate, "gap": r.gap} for r in rows],
    }
    if args.oracle:
        est = pd.mc_oracle_z(
            n,
            wv,
            scheme=scheme,
            budget=_value(args.budget, int, "--budget"),
            seed=_value(args.seed or "0", int, "--seed"),
            polarity=polarity,
        )
        cfg = pd.PeriodConfig(N=n, w=wv, polarity=polarity)
        z_closed = math.exp(pd.df_log_z(cfg).value)
        payload["oracle"] = {"N": n, "estimate": est.value, "err": est.err, "closed_form": z_closed}
    csv_text = pd.report_to_csv(rows).rstrip("\n")
    lines = csv_text.split("\n")
    if args.oracle:
        o = payload["oracle"]
        lines.append(f"# oracle N={o['N']}: Z = {o['estimate']:.8g} +- {o['err']:.2g} (closed form {o['closed_form']:.8g})")
    _emit(args, payload, lines, lines)
    return 0


def _cmd_faltings(args) -> int:
    wv = hg.WeightVector(_items(args.weights, float, "--weights"))
    r = hg.faltings_log_cy(wv)
    _emit(
        args,
        {"weights": list(wv.w), "value": r.value, "err": r.err},
        [f"faltings height at {wv.w} = {r.value:.12f}  (err <= {r.err:.3g})"],
        ["w1,w2,w3,value,err", f"{wv.w[0]:.17g},{wv.w[1]:.17g},{wv.w[2]:.17g},{r.value:.17g},{r.err:.3g}"],
    )
    return 0


def _cmd_verify(args) -> int:
    from . import verify as vf  # numpy loads here, in the checks that need it

    results = vf.run_suite(args.suite)
    failed = [r for r in results if not r.passed]
    checks = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.name}" + (f"  [{r.detail}]" if r.detail else "") for r in results]
    lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed")
    csv_lines = ["name,passed,detail"]
    csv_lines += [f"{_quoted(r.name)},{str(r.passed).lower()},{_quoted(r.detail)}" for r in results]
    payload = {"suite": args.suite, "passed": len(results) - len(failed), "failed": len(failed), "checks": checks}
    _emit(args, payload, lines, csv_lines)
    return 2 if failed else 0


# argparse takes -1e-05 (the repr of -0.00001), -inf and the twist -1,1,1 for
# unknown options, as it reads only plain decimals such as -1 and -.5 as
# values; on every subcommand "-" then a digit, ".digit", inf or nan is a value
_NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="orbiheight", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text", help="output format")

    def subparser(**kw) -> argparse.ArgumentParser:
        p = argparse.ArgumentParser(parents=[common], **kw)
        p._negative_number_matcher = _NEGATIVE_VALUE
        return p

    sub = ap.add_subparsers(dest="command", required=True, parser_class=subparser)

    p = sub.add_parser("specfun", help="evaluate one special-function kernel")
    p.add_argument("kernel", choices=sorted(_KERNELS))
    p.add_argument("x", nargs="*", help="kernel arguments")
    p.add_argument("--field", default=None, help="field id for dedekind_log_deriv (default Q)")
    p.set_defaults(fn=_cmd_specfun)

    p = sub.add_parser("height", help="closed-form canonical height on the line")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--weights", help="w1,w2,w3 in [0,1]")
    g.add_argument("--ram", help="m1,m2,m3 ramification indices (use 'inf' for cusps)")
    p.add_argument("--kind", choices=("can", "pet", "pi"), default="can")
    p.set_defaults(fn=_cmd_height)

    p = sub.add_parser("table1", help="log-canonical closed-form table")
    p.set_defaults(fn=lambda a: _cmd_table(a, 1))
    p = sub.add_parser("table2", help="Fano closed-form table")
    p.set_defaults(fn=lambda a: _cmd_table(a, 2))

    p = sub.add_parser("shimura", help="local invariants h(p) for a shipped case")
    p.add_argument("--case", required=True, help="modular | disc6 | sqrt3 | sqrt6")
    p.set_defaults(fn=_cmd_shimura)

    p = sub.add_parser("fermat", help="Fermat heights and Arakelov bounds")
    p.add_argument("--m", required=True, help="degree (>= 4), or range start")
    p.add_argument("--m-to", default=None, help="optional range end (inclusive)")
    p.add_argument("--a", default=None, help=f"twist coefficients a0,a1,a2 (default {','.join(map(str, fm.FermatSpec.a))})")
    p.set_defaults(fn=_cmd_fermat)

    p = sub.add_parser(
        "periods",
        help="Vandermonde-limit convergence table",
        epilog="The polarity is read from the weights: canonical when V > 0, anticanonical when V < 0. "
        "CSV columns: N (number of points), estimate (+-(1/2N) log Z_N), "
        "gap (estimate minus the closed form).  --oracle does not combine with --format csv: "
        "use --format json.",
    )
    p.add_argument("--weights", required=True)
    p.add_argument("--N-list", dest="n_list", default="100,1000,10000")
    p.add_argument("--seed", default=None, help="seed for the Monte-Carlo oracle (default 0)")
    p.add_argument("--oracle", action="store_true", help="also run the small-N direct-integration oracle")
    p.add_argument("--oracle-n", default=None, help="oracle N, 2 or 3 (default 2)")
    p.add_argument("--scheme", choices=("quadrature", "monte-carlo"), default=None, help="oracle scheme (default quadrature at N = 2, monte-carlo at N = 3)")
    p.add_argument("--budget", default=None, help="Monte-Carlo oracle sample budget")
    p.set_defaults(fn=_cmd_periods)

    p = sub.add_parser("faltings", help="log-Calabi-Yau height (V = 0)")
    p.add_argument("--weights", required=True)
    p.set_defaults(fn=_cmd_faltings)

    p = sub.add_parser("verify", help="run an invariant suite (exit 2 on failure)")
    p.add_argument("--suite", default="all", help="one invariant suite, or all of them (default: all)")
    p.set_defaults(fn=_cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError) as exc:  # str() of a KeyError quotes its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
