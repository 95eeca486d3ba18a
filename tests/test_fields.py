"""Dirichlet characters, L-values and Dedekind log derivatives."""

import json
import math
import sys
from fractions import Fraction

import mp_refs
import mpmath
import pytest

from orbiheight import fermat, heights, shimura
from orbiheight.fields import (
    Character,
    FieldSpec,
    builtin_fields,
    dedekind_log_deriv,
    dirichlet_L,
    dirichlet_L_ds,
    get_field,
    load_fields,
)
from orbiheight.specfun import hurwitz_zeta
from orbiheight.tables import TABLE1, TABLE2

with mpmath.workdps(30):
    ZETA_PRIME_M1 = float(mp_refs.zeta_ds(1))  # zeta'(-1)
    ZETA_LOG_DERIV_Q = float(mp_refs.zeta_log_deriv())  # zeta'(-1)/zeta(-1)


def test_builtin_fields_shape():
    fields = builtin_fields()
    assert sorted(fields) == ["Q", "Qcos7", "Qcos9", "Qsqrt2", "Qsqrt3", "Qsqrt5", "Qsqrt6"]
    degrees = {fid: fs.degree for fid, fs in fields.items()}
    assert degrees == {"Q": 1, "Qsqrt2": 2, "Qsqrt3": 2, "Qsqrt5": 2, "Qsqrt6": 2, "Qcos7": 3, "Qcos9": 3}


def test_character_validation():
    with pytest.raises(ValueError):  # not multiplicative
        Character(5, {1: Fraction(0), 2: Fraction(1, 2), 3: Fraction(0), 4: Fraction(0)})
    with pytest.raises(ValueError):  # wrong support
        Character(5, {1: Fraction(0), 2: Fraction(0)})
    with pytest.raises(ValueError, match="positive integer"):
        Character(0, {})
    chi = get_field("Qcos7").characters[1]
    conj = chi.conjugate()
    assert conj.angles == get_field("Qcos7").characters[2].angles


def test_trivial_character_is_riemann_zeta():
    chi = get_field("Q").characters[0]
    assert dirichlet_L(chi).value.real == pytest.approx(-1.0 / 12.0, abs=1e-13)
    assert dirichlet_L_ds(chi).value.real == pytest.approx(ZETA_PRIME_M1, abs=1e-12)


def test_chi8_bernoulli_oracle():
    # L(-1, chi8) = 8 * [zeta(-1,1/8) - zeta(-1,3/8) - zeta(-1,5/8) + zeta(-1,7/8)]
    # with zeta(-1, a) = -B2(a)/2; the exact rational arithmetic gives -1.
    oracle = Fraction(0)
    for a, s in ((1, 1), (3, -1), (5, -1), (7, 1)):
        b2 = Fraction(a, 8) ** 2 - Fraction(a, 8) + Fraction(1, 6)
        oracle += s * (-b2 / 2)
    oracle *= 8
    assert oracle == -1
    chi8 = get_field("Qsqrt2").characters[1]
    val = dirichlet_L(chi8).value
    assert val.imag == 0.0
    assert val.real == pytest.approx(float(oracle), abs=1e-12)


def test_chi8_derivative_finite_difference_oracle():
    chi8 = get_field("Qsqrt2").characters[1]

    def l_num(s: float) -> float:
        total = sum(chi8(a).real * hurwitz_zeta(s, a / 8.0).value for a in (1, 3, 5, 7))
        return 8.0**-s * total

    h = 1e-3
    d = lambda hh: (l_num(-1.0 + hh) - l_num(-1.0 - hh)) / (2.0 * hh)
    oracle = (4.0 * d(h / 2.0) - d(h)) / 3.0
    assert dirichlet_L_ds(chi8).value.real == pytest.approx(oracle, abs=1e-9)


def test_cubic_pair_product_real_positive():
    f7 = get_field("Qcos7")
    chi, chibar = f7.characters[1], f7.characters[2]
    prod = dirichlet_L(chi).value * dirichlet_L(chibar).value
    assert abs(prod.imag) < 1e-14
    assert prod.real > 0.0
    # conjugate characters have conjugate derivatives
    d1 = dirichlet_L_ds(chi).value
    d2 = dirichlet_L_ds(chibar).value
    assert d1.real == pytest.approx(d2.real, abs=1e-12)
    assert d1.imag == pytest.approx(-d2.imag, abs=1e-12)


def test_dedekind_log_deriv_rational_field():
    r = dedekind_log_deriv(get_field("Q"))
    assert r.value == pytest.approx(ZETA_LOG_DERIV_Q, abs=1e-10)
    assert r.value == pytest.approx(1.985051, abs=5e-6)


def test_dedekind_qsqrt2_explicit_combination():
    # zeta_F = zeta(s) 8^{-s} (zeta(s,1/8) - zeta(s,3/8) - zeta(s,5/8) + zeta(s,7/8))
    chi8 = get_field("Qsqrt2").characters[1]
    lv = dirichlet_L(chi8).value.real
    ld = dirichlet_L_ds(chi8).value.real
    expected = ZETA_LOG_DERIV_Q + ld / lv
    assert dedekind_log_deriv(get_field("Qsqrt2")).value == pytest.approx(expected, abs=1e-12)


def test_dedekind_cubic_fields_real():
    for fid in ("Qcos7", "Qcos9"):
        r = dedekind_log_deriv(get_field(fid))
        assert math.isfinite(r.value)  # construction enforces Im < 1e-10


# the public zeta kernels, which only the specfun CLI, the verify specfun
# suite and the tests may call: the exact layer sums _q itself
_REFERENCE_KERNELS = ("hurwitz_zeta", "hurwitz_zeta_ds", "loggamma_primitive")


def test_exact_layer_runs_on_the_q_kernel_alone(monkeypatch):
    def forbidden(name):
        def kernel(*args):
            raise AssertionError(f"{name}{args} called")

        return kernel

    for mod in [m for name, m in sys.modules.items() if name == "orbiheight" or name.startswith("orbiheight.")]:
        for name in _REFERENCE_KERNELS:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, forbidden(name))
    # a warm entry would skip the kernels: the Fermat rows read the diagonal
    # cache, every other height the height cache
    dedekind_log_deriv.cache_clear()
    heights._signed_height.cache_clear()
    fermat._diagonal.cache_clear()
    for fs in builtin_fields().values():
        assert math.isfinite(dedekind_log_deriv(fs).value)
    for row in TABLE1:
        assert math.isfinite(row.pet_height().evaluate().value)
    for row in TABLE1 + TABLE2:
        assert math.isfinite(row.constant.evaluate().value)
    for case in shimura.builtin_cases().values():
        assert shimura.h_p_map(case)
    for m in range(4, 61):
        b = fermat.arakelov_upper_bound(m)
        assert fermat.fermat_h_can(fermat.FermatSpec(m)).value <= b.first.value <= b.second
    assert math.isfinite(heights.bound_semiample((0.8, 0.8, 0.8)))


def _dirichlet_L_ds_em(chi):
    """L'(-1, chi) = f (-ln f sum chi(a) zeta(-1, a/f) + sum chi(a) zeta'(-1, a/f)),
    each zeta(-1, a/f) from the Euler-Maclaurin kernel and each zeta'(-1, a/f)
    from mpmath at 30 digits; (value, err)."""
    f = chi.modulus
    s_sum = d_sum = 0j
    err = 0.0
    for a, ang in chi.angles.items():
        aa = a if f > 1 else 1
        z = hurwitz_zeta(-1.0, aa / f)
        with mpmath.workdps(30):
            zd = complex(mp_refs.zeta_ds(mpmath.mpf(aa) / f))
        w = chi(aa)
        s_sum += w * z.value
        d_sum += w * zd
        err += z.err * math.log(f)
    return f * (-math.log(f) * s_sum + d_sum), f * err + 1e-15


def test_dirichlet_L_ds_against_euler_maclaurin():
    for fs in builtin_fields().values():
        for chi in fs.characters:
            q = dirichlet_L_ds(chi)
            em, em_err = _dirichlet_L_ds_em(chi)
            assert abs(q.value - em) <= q.err + em_err, (fs.id, chi.modulus)


def test_table1_against_mpmath():
    def q(x):
        return mpmath.mpf(x.numerator) / x.denominator

    with mpmath.workdps(30):
        dd = {
            fid: mp_refs.dedekind_log_deriv((chi.modulus, chi.angles) for chi in fs.characters) / fs.degree
            for fid, fs in builtin_fields().items()
        }
        for row in TABLE1:  # each row's Petersson height carries its field's zeta term
            c = row.pet_height()
            ref = q(c.q0) + q(c.c_logpi) * mpmath.log(mpmath.pi)
            ref += sum(q(k) * mpmath.log(p) for p, k in c.logs.items())
            ref += sum(q(k) * dd[fid] for fid, k in c.zeta_terms.items())
            r = c.evaluate()
            assert abs(mpmath.mpf(r.value) - ref) <= r.err, row.indices


def test_dedekind_log_deriv_against_mpmath():
    with mpmath.workdps(40):
        for fs in builtin_fields().values():
            r = dedekind_log_deriv(fs)
            ref = mp_refs.dedekind_log_deriv((chi.modulus, chi.angles) for chi in fs.characters)
            assert abs(mpmath.mpf(r.value) - ref) <= r.err <= 1e-12, fs.id


def test_field_json_round_trip():
    doc = [
        {
            "id": "Qdemo",
            "modulus": 5,
            "characters": [
                {"modulus": 1, "values": {"1": [0, 1]}},
                {"modulus": 5, "values": {"1": [0, 1], "2": [1, 2], "3": [1, 2], "4": [0, 1]}},
            ],
        }
    ]
    fields = load_fields(json.dumps(doc))
    assert fields["Qdemo"].degree == 2
    # same character data as the shipped Qsqrt5, so the L-values must agree
    a = dedekind_log_deriv(fields["Qdemo"]).value
    b = dedekind_log_deriv(get_field("Qsqrt5")).value
    assert a == pytest.approx(b, abs=0.0)


def test_load_fields_rejects_malformed_characters():
    trivial = {"modulus": 1, "values": {"1": [0, 1]}}
    chi5 = {"modulus": 5, "values": {"1": [0, 1], "2": [1, 2], "3": [1, 2], "4": [0, 1]}}
    # chi(1) = e^{pi i} = -1 is no character, at modulus 1 as at any other
    with pytest.raises(ValueError, match="multiplicative"):
        load_fields(json.dumps({"id": "Qbad", "modulus": 5, "characters": [{"modulus": 1, "values": {"1": [1, 2]}}, chi5]}))
    # zeta_F has the Riemann zeta function as a factor
    with pytest.raises(ValueError, match="trivial character"):
        load_fields(json.dumps({"id": "Qbad", "modulus": 5, "characters": [chi5]}))
    with pytest.raises(ValueError, match="trivial character"):
        load_fields(json.dumps({"id": "Qbad", "modulus": 5, "characters": [trivial, trivial, chi5]}))
    # a repeated character loaded as a field of degree 3 with the value 1.0224 (Qsqrt5: 1.5037)
    with pytest.raises(ValueError, match="'Qdup': a character occurs more than once"):
        load_fields(json.dumps({"id": "Qdup", "characters": [trivial, chi5, chi5]}))
    # each character states its own modulus; the field's key is no default for it
    with pytest.raises(ValueError, match="'Qbad': a character has no modulus"):
        load_fields(json.dumps({"id": "Qbad", "modulus": 5, "characters": [trivial, {"values": chi5["values"]}]}))
    # a cubic character mod 7 is even, but zeta_F needs its conjugate too
    cubic7 = {"modulus": 7, "values": {"1": [0, 1], "6": [0, 1], "3": [1, 3], "4": [1, 3], "2": [2, 3], "5": [2, 3]}}
    with pytest.raises(ValueError, match="without conjugate partner"):
        load_fields(json.dumps({"id": "Qbad", "characters": [trivial, cubic7]}))
    # each of these once loaded through int() as a field of degree 1, or
    # raised KeyError, ZeroDivisionError or TypeError
    for bad, why in (
        ({"id": "Qbad", "characters": [{"modulus": 1.5, "values": {"1": [0, 1]}}]}, "'Qbad': a character's modulus must be an integer, got 1.5"),
        ({"id": "Qbad", "characters": [{"modulus": True, "values": {"1": [0, 1]}}]}, "'Qbad': a character's modulus must be an integer, got True"),
        ({"characters": [trivial]}, 'a field is an object with a string "id"'),
        ({"id": "Qbad"}, "'Qbad': \"characters\" must be a list"),
        ({"id": "Qbad", "characters": [{"modulus": 1}]}, "'Qbad': a character needs a \"values\" object"),
        ({"id": "Qbad", "characters": [{"modulus": 1, "values": {"1": [0, 0]}}]}, "'Qbad': the angle of chi\\(1\\) must be"),
        ({"id": "Qbad", "characters": [{"modulus": 1, "values": {"1": [0.5, 1]}}]}, "'Qbad': the angle of chi\\(1\\) must be"),
        ({"id": "Qbad", "characters": [trivial, 5]}, "'Qbad': a character is an object, got 5"),
        ({"id": "Qbad", "characters": [{"modulus": 1, "values": {"x": [0, 1]}}]}, "'Qbad': residue 'x' is not an integer"),
        ({"id": "Qbad", "characters": [{"modulus": 0, "values": {}}]}, "'Qbad': modulus must be a positive integer"),
        ([trivial], 'a field is an object with a string "id"'),
    ):
        with pytest.raises(ValueError, match=why):
            load_fields(json.dumps(bad))


def test_characters_must_be_primitive_and_even():
    # the trivial character mod 5 has conductor 1; the quadratic character
    # mod 10 is the one mod 5, lifted
    with pytest.raises(ValueError, match="imprimitive"):
        Character(5, {a: Fraction(0) for a in (1, 2, 3, 4)})
    with pytest.raises(ValueError, match="imprimitive"):
        Character(10, {1: Fraction(0), 3: Fraction(1, 2), 7: Fraction(1, 2), 9: Fraction(0)})
    trivial = Character(1, {1: Fraction(0)})
    chi4 = Character(4, {1: Fraction(0), 3: Fraction(1, 2)})  # primitive and odd
    assert not chi4.is_even
    with pytest.raises(ValueError, match="even character"):
        dirichlet_L_ds(chi4)
    with pytest.raises(ValueError, match="odd character"):
        FieldSpec("Qi", (trivial, chi4))
    # the imprimitive field that loaded with a wrong value (-0.5081 against 1.5037)
    chi5 = {"modulus": 5, "values": {"1": [0, 1], "2": [1, 2], "3": [1, 2], "4": [0, 1]}}
    trivial5 = {"modulus": 5, "values": {"1": [0, 1], "2": [0, 1], "3": [0, 1], "4": [0, 1]}}
    with pytest.raises(ValueError, match="imprimitive"):
        load_fields(json.dumps({"id": "Qbad", "modulus": 5, "characters": [trivial5, chi5]}))


def test_load_fields_rejects_duplicate_ids():
    trivial = {"modulus": 1, "values": {"1": [0, 1]}}
    chi5 = {"modulus": 5, "values": {"1": [0, 1], "2": [1, 2], "3": [1, 2], "4": [0, 1]}}
    docs = [
        {"id": "A", "modulus": 5, "characters": [trivial, chi5]},
        {"id": "A", "modulus": 1, "characters": [trivial]},
    ]
    with pytest.raises(ValueError, match="duplicate field id 'A'"):
        load_fields(json.dumps(docs))


def test_unknown_field():
    with pytest.raises(KeyError):
        get_field("Qsqrt11")
