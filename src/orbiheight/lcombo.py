"""Exact arithmetic on log-combinations.

The closed-form constants in this package (height table rows, Yuan's formula,
local invariants of integral models) all live in the Q-module spanned by

    1,  ln pi,  ln p (p prime),  (1/[F:Q]) zeta_F'(-1)/zeta_F(-1).

:class:`LogCombo` stores the rational coefficients of these four kinds of
term exactly; addition and scaling are componentwise on `fractions.Fraction`,
and only `evaluate` touches floating point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from . import fields as _fields
from .specfun import EvalResult

__all__ = ["LogCombo"]


def _frac(v) -> Fraction:
    """v as a Fraction, converting only what is not one already."""
    return v if type(v) is Fraction else Fraction(v)


def _clean(m: Mapping) -> dict:
    """A new dict of the nonzero coefficients, normalized to Fraction."""
    return {k: c for k, v in m.items() if (c := _frac(v))}


def _merge(a: Mapping, b: Mapping) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return out


@dataclass(frozen=True)
class LogCombo:
    """q0 + c_logpi*ln(pi) + sum_p logs[p]*ln(p) + field terms.

    A field term with coefficient c for field F contributes
    c * (1/[F:Q]) * zeta_F'(-1)/zeta_F(-1) when evaluated.
    """

    q0: Fraction = Fraction(0)
    c_logpi: Fraction = Fraction(0)
    logs: dict[int, Fraction] = field(default_factory=dict)
    zeta_terms: dict[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "q0", _frac(self.q0))
        object.__setattr__(self, "c_logpi", _frac(self.c_logpi))
        object.__setattr__(self, "logs", _clean(self.logs))
        object.__setattr__(self, "zeta_terms", _clean(self.zeta_terms))

    def __add__(self, other: "LogCombo") -> "LogCombo":
        return LogCombo(
            self.q0 + other.q0,
            self.c_logpi + other.c_logpi,
            _merge(self.logs, other.logs),
            _merge(self.zeta_terms, other.zeta_terms),
        )

    def __sub__(self, other: "LogCombo") -> "LogCombo":
        return self + other.scale(Fraction(-1))

    def scale(self, r) -> "LogCombo":
        r = _frac(r)
        return LogCombo(
            self.q0 * r,
            self.c_logpi * r,
            {p: c * r for p, c in self.logs.items()},
            {f: c * r for f, c in self.zeta_terms.items()},
        )

    def evaluate(self) -> EvalResult:
        """Numeric value with propagated absolute error."""
        value = float(self.q0) + float(self.c_logpi) * math.log(math.pi)
        err = 4e-16 * (abs(float(self.q0)) + abs(float(self.c_logpi)) + 1.0)
        for p, c in sorted(self.logs.items()):
            value += float(c) * math.log(p)
            err += 4e-16 * abs(float(c)) * math.log(p)
        for fid, c in sorted(self.zeta_terms.items()):
            fs = _fields.get_field(fid)
            dd = _fields.dedekind_log_deriv(fs)
            value += float(c) * dd.value / fs.degree
            err += abs(float(c)) * dd.err / fs.degree
        return EvalResult(value, err)

    # -- JSON form (written for output, never read back) --------------------

    def to_json(self) -> str:
        def frac(x: Fraction):
            return [x.numerator, x.denominator]

        return json.dumps(
            {
                "q0": frac(self.q0),
                "logpi": frac(self.c_logpi),
                "logs": {str(p): frac(c) for p, c in sorted(self.logs.items())},
                "zeta": {f: frac(c) for f, c in sorted(self.zeta_terms.items())},
            }
        )
