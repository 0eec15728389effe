"""Residual bookkeeping: normalization, verdicts, serialization."""

import hashlib
import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpmath import libmp

from gue_gap_lab.report import (
    ResidualReport,
    make_check,
    passes,
    relative_residual,
    sci_str,
)


def test_relative_residual_of_exact_cancellation_is_zero():
    assert relative_residual([mp.mpf(1), mp.mpf(-1)], 256) == 0


def test_relative_residual_all_zero_terms():
    assert relative_residual([mp.mpf(0), mp.mpf(0)], 256) == 0


def test_relative_residual_normalizes_by_largest_term():
    # residual of [1e10, -1e10 + 1] is 1 / 1e10 regardless of overall scale
    with mp.workprec(256):
        big = mp.mpf(10) ** 10
        r = relative_residual([big, -big + 1], 256)
        assert abs(r - mp.mpf(10) ** -10) < mp.mpf(10) ** -60


@given(st.integers(min_value=-200, max_value=200))
@settings(max_examples=30, deadline=None)
def test_relative_residual_invariant_under_binary_scaling(k):
    # scaling every term by 2^k is exact in binary and cancels in the ratio
    bits = 256
    with mp.workprec(bits):
        terms = [mp.mpf("3.7"), mp.mpf("-1.2"), mp.mpf("-2.5000001")]
        scaled = [t * mp.mpf(2) ** k for t in terms]
    assert relative_residual(terms, bits) == relative_residual(scaled, bits)


def _workprec_relative_residual(terms, bits):
    """The residual as mpmath computes it under workprec, for comparison."""
    with mp.workprec(bits):
        vals = [mp.mpf(t) for t in terms]
        scale = max(abs(v) for v in vals)
        if scale == 0:
            return mp.mpf(0)
        return abs(mp.fsum(vals)) / scale


@pytest.mark.parametrize("bits", [53, 64, 256, 701])
def test_relative_residual_is_bit_identical_to_the_workprec_formula(bits):
    # mpf terms wider than ``bits`` round first, and an int above 2^53
    # rounds at ``bits``, not at 53
    with mp.workprec(1000):
        third, root2, big = mp.mpf(1) / 3, mp.sqrt(2), mp.pi * mp.mpf(2) ** 190
    cases = [
        [third, -root2, 1],
        [third, -third, 3],
        [big, -(2 ** 200 + 1), 2 ** 53 + 1],
        [big, 2 ** 64 + 1, -(2 ** 64)],
        [7, -7],
        [0, mp.mpf(0)],
    ]
    rng = random.Random(bits)
    with mp.workprec(1000):
        for _ in range(40):
            terms = []
            for kind in rng.choices(["mpf", "int"], k=rng.randint(1, 5)):
                x = mp.mpf(rng.random()) ** rng.randint(1, 9) * mp.mpf(2) ** rng.randint(-80, 80)
                x = x * (-1) ** rng.randint(0, 1)
                if kind == "int":
                    terms.append(rng.randint(-2 ** rng.randint(1, 300), 2 ** 300))
                else:
                    terms.append(x)
            cases.append(terms)
    for terms in cases:
        assert relative_residual(terms, bits)._mpf_ == _workprec_relative_residual(terms, bits)._mpf_


def test_make_check_verdict():
    good = make_check("x", 1, [mp.mpf(1), mp.mpf(-1)], 1e-30, 256)
    assert good.passed and good.residual == 0
    bad = make_check("x", 1, [mp.mpf(1), mp.mpf("-1.01")], 1e-30, 256)
    assert not bad.passed


def _check_grid():
    """300 seeded term lists of 2 to 7 terms: mpf values, ints, zeros (int
    and mpf) and near-cancelling pairs, each with a tolerance."""
    rng = random.Random(30)
    cases = []
    with mp.workprec(400):
        for _ in range(300):
            terms = []
            for kind in rng.choices(["mpf", "int", "zero", "near"], k=rng.randint(2, 7)):
                if kind == "mpf":
                    x = mp.mpf(rng.random()) * mp.mpf(2) ** rng.randint(-60, 60)
                    terms.append(x if rng.getrandbits(1) else -x)
                elif kind == "int":
                    terms.append(rng.randint(-2 ** rng.randint(1, 120), 2 ** rng.randint(1, 120)))
                elif kind == "zero":
                    terms.append(rng.choice([0, mp.mpf(0)]))
                else:
                    x = mp.mpf(rng.random()) + 1
                    terms += [x, -(x + x * mp.mpf(2) ** -rng.randint(20, 390))]
            cases.append((terms, rng.choice([1e-30, 1e-60, 1e-100, 1e-6])))
    return cases


def test_make_check_residuals_and_verdicts_are_pinned():
    # sha256 of every (residual _mpf_, passed) at 64, 224 and 300 bits,
    # taken when the verdict was the mpf-float compare r < tolerance
    rows = []
    for bits in (64, 224, 300):
        for terms, tol in _check_grid():
            c = make_check("x", 0, terms, tol, bits)
            rows.append((c.residual._mpf_, c.passed))
    assert sum(p for _, p in rows) == 80
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "f61abbed3a76483318696b01e7e42f010b45596708beceb7004e557b16fd1822")


@pytest.mark.parametrize("tol", [1e-30, 1e-300, 5e-324])
def test_verdict_at_the_tolerance_boundary(tol):
    # a residual equal to the tolerance's double fails, one ulp below passes;
    # terms (1, -1, q) give the relative residual q exactly at 1200 bits
    bits = 1200
    q = libmp.from_float(tol)
    below = libmp.mpf_sub(q, libmp.mpf_shift(q, -2 * bits), bits, libmp.round_down)
    assert libmp.mpf_cmp(below, q) < 0
    for t, verdict in ((q, False), (below, True)):
        check = make_check("x", 1, [mp.mpf(1), mp.mpf(-1), mp.make_mpf(t)], tol, bits)
        assert check.residual._mpf_ == t
        assert check.passed is verdict is passes(mp.make_mpf(t), tol)
        assert check.passed is bool(mp.make_mpf(t) < tol)


def test_rows_serialize_tiny_residuals_without_underflow():
    rep = ResidualReport(n=2, bits=4096)
    with mp.workprec(4096):
        tiny = mp.mpf(10) ** -800
        rep.check("t", [1 + tiny, mp.mpf(-1)], 1e-30)
    row = rep.checks[0].row("1")
    assert isinstance(row["residual"], str)
    assert float(mp.mpf(row["residual"])) != 0 or "e-" in row["residual"]
    assert "e-800" in row["residual"]


def test_sci_str_prints_an_mpf_as_given():
    # outside any workprec block the ambient precision is 53 bits; a
    # 1024-bit value must not be re-rounded to it
    with mp.workprec(1024):
        v = mp.sqrt(mp.pi)
    assert mp.mp.prec == 53
    assert sci_str(v, 30) == "1.77245385090551602729816748334"


def test_sci_str_prints_a_wide_tiny_mantissa():
    # a 60000-bit mantissa near 1e-7000: nstr alone turns it into an
    # integer of about 18000 digits, past Python's int-str limit
    man = 3 ** 37855 | 1
    v = mp.make_mpf((0, man, -23255 - man.bit_length(), man.bit_length()))
    with mp.workprec(200):
        ref = mp.nstr(+v, 30, min_fixed=1, max_fixed=0, strip_zeros=False)
    assert sci_str(v, 30) == ref
    assert ref.endswith("e-7001")


@pytest.mark.parametrize("exp_shift", [-4000, -400, 0, 400, 4000])
def test_sci_str_truncation_keeps_every_digit_nstr_prints(exp_shift):
    # nstr reads the leading bits of the mantissa truncated, so cutting a
    # wide one down first changes no printed digit
    rng = random.Random(exp_shift)
    for _ in range(200):
        bc = rng.randrange(200, 3000)
        man = rng.getrandbits(bc) | 1 << (bc - 1) | 1
        v = mp.make_mpf((rng.getrandbits(1), man, exp_shift - bc, bc))
        for digits in (8, 12, 30, 40):
            assert sci_str(v, digits) == mp.nstr(
                v, digits, min_fixed=1, max_fixed=0, strip_zeros=False)


@pytest.mark.parametrize("digits", [8, 12, 30, 40])
def test_sci_str_keeps_the_digit_at_a_rounding_boundary(digits):
    # just below and just above a halfway decimal 1 + 5 10^-digits, where
    # rounding the mantissa to nearest, or cutting it shorter than nstr
    # reads, would move the last printed digit
    with mp.workprec(600):
        half = 1 + 5 * mp.mpf(10) ** -digits
        nstr_bits = int((digits + 3) * math.log2(10)) + 10
        for v in (half - mp.mpf(2) ** -500, half + mp.mpf(2) ** (4 - nstr_bits)):
            assert sci_str(v, digits) == mp.nstr(
                v, digits, min_fixed=1, max_fixed=0, strip_zeros=False)


def test_sci_str_deterministic_and_fixed_digits():
    with mp.workprec(300):
        v = mp.mpf(1) / 3
    assert sci_str(v, 10) == sci_str(v, 10)
    assert sci_str(v, 10).startswith("3.333333333")
    assert sci_str(mp.mpf(0), 8) == "0.0"
