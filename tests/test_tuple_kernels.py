"""The raw-tuple kernels against the mpf-operator formulas they replaced.

Each reference below is the operator form, under ``mp.workprec``, of a loop
that now runs on ``_mpf_`` tuples through ``mpmath.libmp``: the r_n orbit
and the pass built on it, the certified-digit compare, the edge-zero
decision, the Hankel product, the closed-form Hermite norms and the
truncation in ``sci_str``.  The two must agree bit for bit.  (The strings of
the 16384-bit table at a = 30 are checked in ``test_cli``, which builds it.)
"""

import math
import random

import mpmath as mp
import pytest
from mpmath import libmp

from gue_gap_lab.difference_eqs import _orbit_pass, iterate_r_orbit
from gue_gap_lab.exceptions import EdgeZeroError
from gue_gap_lab.ladder import edge_quantities, ladder_states
from gue_gap_lab.orthopoly import (
    RecurrenceTable,
    _certified_digits,
    _chebyshev_pass,
    _NonPositiveNorm,
    _numbers,
    hermite_norms_exact,
)
from gue_gap_lab.precision import CHECK_BITS, GUARD_BITS, as_mpf
from gue_gap_lab.probability import hankel_probabilities
from gue_gap_lab.report import sci_str

A_VALUES = ("1e-40", "0.25", "1", "3", "30")
BITS = (64, 512, 576, 4096)
N_TOP = 60


def _seed_ref(a, bits):
    """(h_0, R_0): sqrt(pi) erfc(a) rounded from bits + GUARD_BITS, and
    2 e^{-a^2} / h_0, from mpmath directly."""
    av = as_mpf(a, bits)
    with mp.workprec(bits + GUARD_BITS):
        h0 = as_mpf(mp.sqrt(mp.pi) * mp.erfc(av), bits)
    with mp.workprec(bits):
        return h0, 2 * mp.exp(-av * av) / h0


def _orbit_ref(a, n_top, bits):
    av = as_mpf(a, bits)
    R = _seed_ref(a, bits)[1]
    with mp.workprec(bits):
        r = [mp.mpf(0), av * R]
        for n in range(1, n_top + 1):
            den = (n + r[n]) * R
            if not den > 0:
                raise _NonPositiveNorm(n)
            R = 2 * r[n] * r[n] / den
            r.append(av * R - r[n])
    return r[:-1]


def _orbit_pass_ref(a, n_max, bits):
    """(beta, h) of the pass, and the orbit it came from."""
    r = _orbit_ref(a, max(n_max, 1), bits)
    h0 = _seed_ref(a, bits)[0]
    with mp.workprec(bits):
        beta = [mp.mpf(0)]
        h = [h0]
        for n in range(1, n_max + 1):
            beta.append((n + r[n]) / 2)
            h.append(beta[n] * h[n - 1])
    return beta, h, r


def _certified_digits_ref(lo, hi, lo_bits):
    cap = int(lo_bits * 0.30102999566398120)
    pairs = list(zip(_numbers(lo), _numbers(hi)))
    worst = 0
    with mp.workprec(64):
        for x, y in pairs:
            if x != y:
                worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
        if worst == 0:
            return cap
        if worst >= 1:
            return 0
        return min(cap, int(mp.floor(-mp.log10(worst))))


def _edge_zero_ref(table, P):
    """The degree at which the operator form of the check raises, or None,
    given the table's P_n(a)."""
    t = table.certified_digits // 2
    bits = table.working_bits
    a, beta = table.a, table.beta
    with mp.workprec(bits):
        thresh = mp.mpf(10) ** (-t)
        for n in range(1, table.n_max + 1):
            scale = abs(a * P[n - 1])
            if n >= 2:
                scale = max(scale, abs(beta[n - 1] * P[n - 2]))
            if abs(P[n]) < thresh * scale:
                return n
    return None


def _edge_zero(table):
    try:
        ladder_states(table)
    except EdgeZeroError as exc:
        return exc.n
    return None


def _hermite_norms_ref(count, bits):
    with mp.workprec(bits):
        s = mp.sqrt(mp.pi)
        return [mp.mpf(math.factorial(k)) / mp.mpf(2) ** k * s for k in range(count)]


def _hankel_ref(h, n, bits):
    with mp.workprec(bits):
        probs = [mp.mpf(1)]
        for j, h0 in enumerate(_hermite_norms_ref(n, bits)):
            probs.append(probs[j] * (h[j] / h0))
    return probs


def _sci_str_ref(x, digits):
    """sci_str as it was: mpf_pos(..., round_down) to cut, then nstr."""
    bits = int((digits + 3) * math.log2(10)) + GUARD_BITS
    v = mp.make_mpf(libmp.mpf_pos(x._mpf_, bits, libmp.round_down))
    return mp.nstr(v, digits, min_fixed=1, max_fixed=0, strip_zeros=False)


def _tuples(values):
    return [v._mpf_ for v in values]


def _ref_or_index(fn, *args):
    try:
        return fn(*args)
    except _NonPositiveNorm as exc:
        return exc.index


@pytest.mark.parametrize("a_text", A_VALUES)
def test_orbit_pass_compare_edge_check_and_hankel_match_the_operators(a_text):
    a = as_mpf(a_text, 8192)
    passes, orbits = {}, {}
    for bits in BITS:
        ref = _ref_or_index(_orbit_pass_ref, a, N_TOP, bits)
        got = _ref_or_index(_orbit_pass, a, N_TOP, bits)
        if isinstance(ref, int):  # the orbit lost positivity at degree ref
            assert got == ref
            continue
        assert _tuples(got[0]) == _tuples(ref[0]) and _tuples(got[1]) == _tuples(ref[1])
        passes[bits] = got
        orbits[bits] = ref[2]
    assert set(passes) >= {512, 576, 4096}
    lo, hi = passes[512], passes[512 + CHECK_BITS]  # a certification level
    assert _certified_digits(lo, hi, 512) == _certified_digits_ref(lo, hi, 512)
    for bits, lo in passes.items():
        assert _tuples(iterate_r_orbit(a, N_TOP, bits).r) == _tuples(orbits[bits])
        table = RecurrenceTable(a=as_mpf(a, bits), n_max=N_TOP, beta=tuple(lo[0]),
                                h=tuple(lo[1]), certified_digits=0, working_bits=bits)
        assert _tuples(hankel_probabilities(table, N_TOP)) == _tuples(
            _hankel_ref(table.h, N_TOP, bits))
        # thresholds 10^0, 10^-3 and 10^-40 against the ratios |P_n| / scale
        P = edge_quantities(table.a, table.beta, table.h, bits)["P"]
        for certified in (0, 6, 80):
            t = table._replace(certified_digits=certified)
            assert _edge_zero(t) == _edge_zero_ref(t, P)


def test_edge_check_at_a_true_edge_zero():
    # a = sqrt(beta_1) makes P_2(a) = a^2 - beta_1 vanish up to rounding
    beta, h = _orbit_pass(as_mpf("1", 576), 8, 576)
    with mp.workprec(576):
        a = mp.sqrt(beta[1])
    for certified in (0, 20, 40, 160):
        table = RecurrenceTable(a=a, n_max=8, beta=tuple(beta), h=tuple(h),
                                certified_digits=certified, working_bits=576)
        P = edge_quantities(a, table.beta, table.h, 576)["P"]
        assert _edge_zero(table) == _edge_zero_ref(table, P)
    assert _edge_zero(table) == 2


def test_certified_digits_compare_matches_near_decade_boundaries():
    # relative disagreements a hair either side of 10^-k, where rounding
    # each magnitude to 64 bits decides the count; and jets, identical
    # passes, and passes that disagree completely
    rng = random.Random(7)
    zero = mp.mpf(0)  # beta_0 of a pass, which the compare reads like any number
    with mp.workprec(400):
        for k in range(1, 41):
            for nudge in (-2 ** -50, -2 ** -62, -2 ** -66, 0, 2 ** -66, 2 ** -62, 2 ** -50):
                x = [mp.mpf(rng.random()) * 10 ** rng.randint(-30, 30) for _ in range(4)]
                y = [v * (1 + mp.mpf(10) ** -k * (1 + nudge)) for v in x]
                lo, hi = ([zero] + x[:2], x[2:]), ([zero] + y[:2], y[2:])
                assert _certified_digits(lo, hi, 512) == _certified_digits_ref(lo, hi, 512)
        same = ([zero, mp.mpf(1)], [mp.mpf(2)])
        assert _certified_digits(same, same, 512) == _certified_digits_ref(same, same, 512) == 154
        far = ([zero, mp.mpf(1)], [mp.mpf(2)]), ([zero, mp.mpf(-1)], [mp.mpf(2)])
        assert _certified_digits(*far, 512) == _certified_digits_ref(*far, 512) == 0
    a = as_mpf("0.7", 1024)
    lo, hi = _chebyshev_pass(a, 6, 512, jets=True), _chebyshev_pass(a, 6, 576, jets=True)
    assert _certified_digits(lo, hi, 512) == _certified_digits_ref(lo, hi, 512)


@pytest.mark.parametrize("bits", BITS)
def test_hermite_norms_match_the_operators(bits):
    assert _tuples(hermite_norms_exact(N_TOP + 1, bits)) == _tuples(
        _hermite_norms_ref(N_TOP + 1, bits))


def test_sci_str_matches_nstr_and_the_rounded_cut():
    rng = random.Random(3)
    for bc in (53, 54, 100, 156, 157, 158, 200, 577, 4096, 16384):
        for _ in range(12):
            man = rng.getrandbits(bc) | 1 << (bc - 1)
            man >>= (man & -man).bit_length() - 1  # a normalized, odd mantissa
            top = rng.randint(-3000, 3000)  # binary exponent of the value
            v = mp.make_mpf((rng.getrandbits(1), man, top - man.bit_length(),
                             man.bit_length()))
            for digits in (8, 30, 40):
                got = sci_str(v, digits)
                assert got == mp.nstr(v, digits, min_fixed=1, max_fixed=0, strip_zeros=False)
                assert got == _sci_str_ref(v, digits)
                far = mp.make_mpf(libmp.mpf_shift(v._mpf_, rng.choice((-1, 1)) * 30000))
                assert sci_str(far, digits) == _sci_str_ref(far, digits)
