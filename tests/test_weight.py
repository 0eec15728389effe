"""Moments of the gap-deformed Gaussian weight and the closed-form seeds."""

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gue_gap_lab import DomainError, GapWeight, Real, moment, seed_R0
from gue_gap_lab.precision import GUARD_BITS, as_mpf
from gue_gap_lab.weight import moment_jets, moments

R0_AT_1 = "2.63896751423479126047150115207156112883768656"
TWO_OVER_SQRT_PI = "1.12837916709551257389615890312154517168810126"


def make_weight(a_text, bits=512):
    return GapWeight.from_str(a_text, bits)


def test_odd_moments_vanish_exactly():
    w = make_weight("0.8")
    for k in (1, 3, 5, 11):
        assert moment(k, w).value == 0


def test_even_moments_match_incomplete_gamma_oracle():
    # mu_k = Gamma((k+1)/2, a^2) for even k, checked against mpmath; wide
    # gaps and k up to 40 cover the rounding growth of the recurrence in k
    for a_text in ("0", "1.5", "3", "6"):
        w = make_weight(a_text)
        for k in range(0, 41, 2):
            m = moment(k, w)
            with mp.workprec(560):
                av = mp.mpf(a_text)
                ref = mp.gammainc(mp.mpf(k + 1) / 2, av * av, mp.inf)
                rel = abs(m.value - ref) / ref
            assert rel < mp.mpf(10) ** -140


@pytest.mark.parametrize("a_text", ["0.3", "1.7", "4"])
def test_moment_jets_match_differentiated_incomplete_gamma(a_text):
    # (mu_k, mu_k', mu_k''/2) against mp.diffs of Gamma((k+1)/2, a^2); the
    # values are those of the one-sweep recurrence
    w = make_weight(a_text)
    jets = moment_jets(11, w)
    assert [j.c[0] for j in jets] == [m.value for m in moments(11, w)]
    assert all(jets[k].c == (0, 0, 0) for k in range(1, 11, 2))
    with mp.workprec(400):
        av = mp.mpf(a_text)
        for k in (0, 2, 4, 10):
            _, d1, d2 = mp.diffs(lambda x: mp.gammainc(mp.mpf(k + 1) / 2, x * x), av, 2)
            assert abs(jets[k].c[1] - d1) / abs(d1) < mp.mpf(10) ** -100
            assert abs(2 * jets[k].c[2] - d2) / abs(d2) < mp.mpf(10) ** -100


def per_order_moment(k, w):
    """mu_k by restarting the recurrence at mu_0 for this k alone."""
    bits = w.prec_bits
    if k % 2 == 1:
        return as_mpf(0, bits)
    mu = w._mu0_guarded
    with mp.workprec(bits + GUARD_BITS):
        a = w.a.value
        edge = a * mp.exp(-a * a)
        for j in range(0, k, 2):
            mu = (j + 1) * mu / 2 + edge
            edge *= a * a
    return as_mpf(mu, bits)


@pytest.mark.parametrize("a_text", ["0", "0.5", "3"])
def test_one_sweep_matches_per_order_recurrence(a_text):
    # the sweep rounds each mu_k exactly as a fresh run up to k would
    w = make_weight(a_text, 700)
    swept = moments(121, w)
    assert len(swept) == 121
    for k in range(121):
        assert swept[k].value._mpf_ == per_order_moment(k, w)._mpf_, k
        assert moment(k, w).value._mpf_ == swept[k].value._mpf_
    assert moments(0, w) == []
    with pytest.raises(DomainError):
        moments(-1, w)


def test_zeroth_moment_is_sqrt_pi_erfc():
    w = make_weight("1.3")
    with mp.workprec(560):
        ref = mp.sqrt(mp.pi) * mp.erfc(mp.mpf("1.3"))
        rel = abs(moment(0, w).value - ref) / ref
    assert rel < mp.mpf(10) ** -140


def test_moments_at_zero_reduce_to_gaussian():
    w = make_weight("0")
    with mp.workprec(560):
        assert abs(moment(0, w).value - mp.sqrt(mp.pi)) < mp.mpf(10) ** -140
        assert abs(moment(2, w).value - mp.sqrt(mp.pi) / 2) < mp.mpf(10) ** -140


def test_seed_R0_frozen_value_at_one():
    w = make_weight("1")
    with mp.workprec(512):
        rel = abs(seed_R0(w).value - mp.mpf(R0_AT_1)) / mp.mpf(R0_AT_1)
    assert rel < mp.mpf(10) ** -44


def test_seed_R0_at_zero_is_two_over_sqrt_pi():
    w = make_weight("0")
    with mp.workprec(512):
        rel = abs(seed_R0(w).value - mp.mpf(TWO_OVER_SQRT_PI)) / mp.mpf(TWO_OVER_SQRT_PI)
    assert rel < mp.mpf(10) ** -44


def test_negative_half_width_rejected():
    with pytest.raises(DomainError):
        make_weight("-0.5")


@given(st.integers(min_value=0, max_value=6).map(lambda k: 2 * k))
@settings(max_examples=10, deadline=None)
def test_even_moments_decrease_as_gap_widens(k):
    # removing more of the axis can only shrink the integral
    w_narrow = make_weight("0.4", 320)
    w_wide = make_weight("1.7", 320)
    assert moment(k, w_wide).value < moment(k, w_narrow).value


@given(st.floats(min_value=0.05, max_value=3.0))
@settings(max_examples=20, deadline=None)
def test_moment_ordering_in_k(a):
    # mu_{k+2} > a^2 mu_k since x^2 > a^2 on the support
    w = GapWeight(Real(mp.mpf(a), 320), 320)
    with mp.workprec(320):
        av = mp.mpf(a)
        for k in (0, 2, 4):
            assert moment(k + 2, w).value > av * av * moment(k, w).value