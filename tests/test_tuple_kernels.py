"""The raw-tuple kernels against the mpf-operator formulas they replaced.

Each reference below is the operator form, under ``mp.workprec``, of a loop
that now runs on ``_mpf_`` tuples through ``mpmath.libmp``: the r_n orbit
and the pass built on it (beta_n and h_n formed in the orbit loop), the
certified-digit compare, the edge-zero decision, the Hankel product and the
closed-form Hermite norms.  The compare walks its pairs last to first and
skips those that exponents prove below half the worst so far, and the
edge-zero check settles from exponents each P_n(a) at least 4 times above
its threshold, so both are also run with the worst pair, a sign flip or a
lone zero at each end and in the middle, and on ratios within a factor of 4
of the threshold.  ``sci_str`` is held to the truncation and ``nstr`` it
replaced, through carries into the next decade, at 1 to 60 digits and at
binary exponents either side of +-3500, where it hands off to
``libmp.to_str``.  The Chebyshev pass is held to its full-width form, which
carried every moment and every mixed moment, the exact zeros included.  The
two must agree bit for bit.  (The strings of the 16384-bit table at a = 30
are checked in ``test_cli``, which builds it.)
"""

import math
import random

import mpmath as mp
import pytest
from mpmath import libmp

from gue_gap_lab.difference_eqs import _orbit_pass, iterate_r_orbit
from gue_gap_lab.exceptions import EdgeZeroError
from gue_gap_lab.ladder import edge_quantities, ladder_states
from gue_gap_lab.orthopoly import RecurrenceTable, _chebyshev_pass, hermite_norms_exact
from gue_gap_lab.precision import (
    CHECK_BITS,
    GUARD_BITS,
    Jet,
    NonPositiveNorm,
    as_mpf,
    certified_digits,
    pass_numbers,
)
from gue_gap_lab.probability import _fredholm_pass, hankel_probabilities
from gue_gap_lab.report import sci_str
from gue_gap_lab.weight import even_moments

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
                raise NonPositiveNorm(n)
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


def _full_width_pass_ref(a, n_max, bits, jets):
    """The Chebyshev pass on all 2 n_max + 1 moments, odd zeros included,
    with full-width rows row_k[i] = S_k[k + i], i = 0..2 (n_max - k), so
    that every S_k[l] with k + l odd is formed as an exact zero."""
    even = even_moments(n_max + 1, as_mpf(a, bits), bits, jets)
    zero = as_mpf(0, bits)
    odd = Jet((zero, zero, zero)) if jets else zero
    mu = [odd if k % 2 else even[k // 2] for k in range(2 * n_max + 1)]

    def value(x):
        return x.c[0] if jets else x

    with mp.workprec(bits):
        beta, h = [mu[0] * 0], [mu[0]]
        if not value(h[0]) > 0:
            raise NonPositiveNorm(0)
        row_km2, row_km1 = [], mu
        for k in range(1, n_max + 1):
            width = 2 * (n_max - k) + 1
            if k == 1:
                row = [row_km1[i + 2] for i in range(width)]
            else:
                b = beta[k - 1]
                row = [row_km1[i + 2] - b * row_km2[i + 2] for i in range(width)]
            if not value(row[0]) > 0:
                raise NonPositiveNorm(k)
            beta.append(row[0] / h[k - 1])
            h.append(row[0])
            row_km2, row_km1 = row_km1, row
    return beta, h


def _certified_digits_ref(lo, hi, lo_bits):
    cap = int(lo_bits * 0.30102999566398120)
    pairs = list(zip(pass_numbers(lo), pass_numbers(hi)))
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
    except NonPositiveNorm as exc:
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
    assert certified_digits(lo, hi, 512) == _certified_digits_ref(lo, hi, 512)
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
                assert certified_digits(lo, hi, 512) == _certified_digits_ref(lo, hi, 512)
        same = ([zero, mp.mpf(1)], [mp.mpf(2)])
        assert certified_digits(same, same, 512) == _certified_digits_ref(same, same, 512) == 154
        far = ([zero, mp.mpf(1)], [mp.mpf(2)]), ([zero, mp.mpf(-1)], [mp.mpf(2)])
        assert certified_digits(*far, 512) == _certified_digits_ref(*far, 512) == 0
    a = as_mpf("0.7", 1024)
    lo, hi = _chebyshev_pass(a, 6, 512, jets=True), _chebyshev_pass(a, 6, 576, jets=True)
    assert certified_digits(lo, hi, 512) == _certified_digits_ref(lo, hi, 512)


@pytest.mark.parametrize("a_text", ("0", "1e-40", "0.25", "1", "8"))
def test_half_length_chebyshev_pass_matches_the_full_width_pass(a_text):
    # every beta, h and jet coefficient, or the degree that lost positivity
    for n_max in (0, 1, 2, 7, 40):
        for bits in (64, 256, 576):
            for jets in (False, True):
                ref = _ref_or_index(_full_width_pass_ref, a_text, n_max, bits, jets)
                got = _ref_or_index(_chebyshev_pass, a_text, n_max, bits, jets)
                if isinstance(ref, int):
                    assert bits < 576 and got == ref
                    continue
                assert len(got[0]) == len(got[1]) == n_max + 1
                assert _tuples(pass_numbers(got)) == _tuples(pass_numbers(ref))


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


@pytest.mark.parametrize("where", (0, 6, 11))
def test_certified_digits_finds_the_worst_pair_wherever_it_sits(where):
    # the worst pair just above 10^-k (k - 1 digits) among pairs just below
    # it and down to half of it, which the walk may meet first and skip by
    rng = random.Random(where)
    zero = mp.mpf(0)
    with mp.workprec(400):
        for k in (3, 12, 30, 90):
            x = [rng.choice((-1, 1)) * mp.mpf(rng.random() + 0.5)
                 * mp.mpf(10) ** rng.randint(-20, 20) for _ in range(12)]
            rels = [0.95, 0.9, 0.6, 0.51, 0.49, 1e-5] * 2
            rels[where] = 1.05
            y = [v * (1 + mp.mpf(r) * mp.mpf(10) ** -k) for v, r in zip(x, rels)]
            lo, hi = ([zero] + x[:6], x[6:]), ([zero] + y[:6], y[6:])
            assert certified_digits(lo, hi, 512) == _certified_digits_ref(lo, hi, 512) == k - 1


@pytest.mark.parametrize("where", (0, 3, 7))
def test_certified_digits_after_a_sign_flip_or_a_lone_zero(where):
    # pairs agreeing to 1.5e-20, and one that flips sign or is zero in one
    # pass only: the compare reads 0 digits wherever the walk meets it
    with mp.workprec(400):
        x = [mp.mpf(j + 1) / 7 for j in range(8)]
        y = [v * (1 + mp.mpf("1.5e-20")) for v in x]
        for lo_v, hi_v in ((x[where], -x[where]), (mp.mpf(0), x[where]), (x[where], mp.mpf(0)),
                           (x[where], -x[where] * mp.mpf(10) ** -30)):
            lo, hi = list(x), list(y)
            lo[where], hi[where] = lo_v, hi_v
            assert certified_digits(lo, hi, 512) == _certified_digits_ref(lo, hi, 512) == 0
        assert certified_digits(x, y, 512) == _certified_digits_ref(x, y, 512) == 19


@pytest.mark.parametrize("a_text", ("0.3", "1.3", "6"))
def test_certified_digits_of_fredholm_minor_pairs(a_text):
    for n, bits in ((4, 128), (12, 256), (30, 384)):
        lo = _fredholm_pass(a_text, n, bits)
        hi = _fredholm_pass(a_text, n, bits + CHECK_BITS)
        assert certified_digits(lo, hi, bits) == _certified_digits_ref(lo, hi, bits)


@pytest.mark.parametrize("ratio", ("0.26", "0.3", "0.5", "0.9", "0.99", "1.01", "1.1", "2", "3.9"))
def test_edge_check_at_ratios_near_the_threshold(ratio):
    # a = sqrt(beta_1) (1 + d) puts |P_2(a)| / scale at about 2 d, with the
    # scale beta_1 P_0 and threshold 10^-20 (40 certified digits): d sets
    # the ratio to the threshold, within a factor of 4 either side
    beta, h = _orbit_pass(as_mpf("1", 576), 8, 576)
    with mp.workprec(576):
        for sign in (1, -1):
            a = mp.sqrt(beta[1]) * (1 + sign * mp.mpf(ratio) * mp.mpf(10) ** -20 / 2)
            table = RecurrenceTable(a=a, n_max=8, beta=tuple(beta), h=tuple(h),
                                    certified_digits=40, working_bits=576)
            P = edge_quantities(a, table.beta, table.h, 576)["P"]
            expected = _edge_zero_ref(table, P)
            assert expected == (2 if mp.mpf(ratio) < 1 else None)
            assert _edge_zero(table) == expected


@pytest.mark.parametrize("digits", (1, 2, 8, 30, 60))
def test_sci_str_carries_into_the_next_decade_like_the_cut_nstr(digits):
    # a run of 9s rounds up into the next decade, which moves the exponent:
    # from -1 to 0 (the e suffix disappears), from 0 to 1 (it appears), and
    # elsewhere; ...94 and ...849 must not carry.  Within binary exponents
    # +-3500 no mantissa is cut, so nstr itself is the reference, exact
    # decimal ties such as 9.5e40 at 1 digit included
    values = []
    with mp.workprec(400):
        for k in (-40, -2, -1, 0, 1, 2, 40):
            for tail in ("9" * (digits + 5), "9" * digits + "5", "9" * digits + "49",
                         "9" * (digits - 1) + "849", "9" * (digits - 1) + "85"):
                values.append(mp.mpf(f"0.{tail}e{k + 1}"))  # 9.99...e{k}
    for v in values:
        for w in (v, -v):
            assert sci_str(w, digits) == mp.nstr(w, digits, min_fixed=1, max_fixed=0,
                                                 strip_zeros=False)
    one = "1." + "0" * (digits - 1)
    assert sci_str(values[10], digits) == one  # 9.99..e-1 -> 1.0
    assert sci_str(-values[15], digits) == "-" + one + "e+1"  # -9.99.. -> -1.0e+1
    assert sci_str(values[30], digits) == one + "e+41"


@pytest.mark.parametrize("text, digits, want", [
    ("9.5e25", 1, "1.e+26"), ("9.99999995e40", 8, "1.0000000e+41")])
def test_sci_str_rounds_an_exact_tie_up_like_nstr(text, digits, want):
    # ties held exactly, far above the leading (digits + 3) log2(10) + 10
    # bits: the whole integer part is formed, so the tie rounds half up
    with mp.workprec(400):
        v = mp.mpf(text)
    for w, s in ((v, want), (-v, "-" + want)):
        assert sci_str(w, digits) == s == mp.nstr(w, digits, min_fixed=1, max_fixed=0,
                                                  strip_zeros=False)


@pytest.mark.parametrize("top", (-3501, -3500, -3499, 3499, 3500, 3501))
def test_sci_str_either_side_of_the_to_str_hand_off(top):
    # binary exponents beyond +-3500 go through libmp.to_str, which rescales
    # them by a rounded power of ten; those within are formed here
    rng = random.Random(top)
    for bc in (1, 53, 200, 4096):
        for _ in range(6):
            man = rng.getrandbits(bc) | 1 << (bc - 1)
            man >>= (man & -man).bit_length() - 1
            for sign in (0, 1):
                v = mp.make_mpf((sign, man, top - man.bit_length(), man.bit_length()))
                for digits in (1, 2, 30, 60):
                    assert sci_str(v, digits) == _sci_str_ref(v, digits)
