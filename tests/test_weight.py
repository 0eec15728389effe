"""Moments of the gap-deformed Gaussian weight and the closed-form seeds."""

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gue_gap_lab import (
    DomainError,
    GapWeight,
    build_a_grid,
    build_recurrence_table,
    iterate_r_orbit,
    moment,
    probability_record,
)
from gue_gap_lab.difference_eqs import orbit_recurrence_table
from gue_gap_lab.precision import GUARD_BITS, as_mpf
from gue_gap_lab.probability import overlap_matrix
from gue_gap_lab.weight import even_moment_jets, even_moments, orbit_seed

R0_AT_1 = "2.63896751423479126047150115207156112883768656"
TWO_OVER_SQRT_PI = "1.12837916709551257389615890312154517168810126"


def make_weight(a_text, bits=512):
    return GapWeight(as_mpf(a_text, bits), bits)


def test_odd_moments_vanish_exactly():
    w = make_weight("0.8")
    for k in (1, 3, 5, 11):
        assert moment(k, w) == 0


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
                rel = abs(m - ref) / ref
            assert rel < mp.mpf(10) ** -140


@pytest.mark.parametrize("a_text", ["0.3", "1.7", "4"])
def test_moment_jets_match_differentiated_incomplete_gamma(a_text):
    # (mu_k, mu_k', mu_k''/2) against mp.diffs of Gamma((k+1)/2, a^2); jet m
    # is that of mu_{2m}, and its values are those of the one-sweep recurrence
    w = make_weight(a_text)
    jets = even_moment_jets(6, w)
    assert [j.c[0] for j in jets] == even_moments(6, w)
    assert all(moment(k, w) == 0 for k in range(1, 11, 2))
    with mp.workprec(400):
        av = mp.mpf(a_text)
        for k in (0, 2, 4, 10):
            _, d1, d2 = mp.diffs(lambda x: mp.gammainc(mp.mpf(k + 1) / 2, x * x), av, 2)
            assert abs(jets[k // 2].c[1] - d1) / abs(d1) < mp.mpf(10) ** -100
            assert abs(2 * jets[k // 2].c[2] - d2) / abs(d2) < mp.mpf(10) ** -100


def per_order_moment(k, w):
    """mu_k by restarting the recurrence at mu_0 for this k alone."""
    bits = w.prec_bits
    if k % 2 == 1:
        return as_mpf(0, bits)
    mu = w._mu0_guarded
    with mp.workprec(bits + GUARD_BITS):
        a = w.a
        edge = a * mp.exp(-a * a)
        for j in range(0, k, 2):
            mu = (j + 1) * mu / 2 + edge
            edge *= a * a
    return as_mpf(mu, bits)


@pytest.mark.parametrize("a_text", ["0", "0.5", "3"])
def test_one_sweep_matches_per_order_recurrence(a_text):
    # the sweep rounds each mu_k exactly as a fresh run up to k would
    w = make_weight(a_text, 700)
    swept = even_moments(61, w)
    assert len(swept) == 61
    for k in range(121):
        want = per_order_moment(k, w)._mpf_
        if k % 2 == 0:
            assert swept[k // 2]._mpf_ == want, k
        assert moment(k, w)._mpf_ == want, k
    assert even_moments(0, w) == []
    with pytest.raises(DomainError):
        even_moments(-1, w)


def test_zeroth_moment_is_sqrt_pi_erfc():
    w = make_weight("1.3")
    with mp.workprec(560):
        ref = mp.sqrt(mp.pi) * mp.erfc(mp.mpf("1.3"))
        rel = abs(moment(0, w) - ref) / ref
    assert rel < mp.mpf(10) ** -140


def test_moments_at_zero_reduce_to_gaussian():
    w = make_weight("0")
    with mp.workprec(560):
        assert abs(moment(0, w) - mp.sqrt(mp.pi)) < mp.mpf(10) ** -140
        assert abs(moment(2, w) - mp.sqrt(mp.pi) / 2) < mp.mpf(10) ** -140


def test_seed_R0_frozen_value_at_one():
    w = make_weight("1")
    h0, R0 = orbit_seed(w.a, 512)
    assert h0 == moment(0, w)
    with mp.workprec(512):
        rel = abs(R0 - mp.mpf(R0_AT_1)) / mp.mpf(R0_AT_1)
    assert rel < mp.mpf(10) ** -44


def test_seed_R0_at_zero_is_two_over_sqrt_pi():
    w = make_weight("0")
    h0, R0 = orbit_seed(w.a, 512)
    assert h0 == moment(0, w)
    with mp.workprec(512):
        rel = abs(R0 - mp.mpf(TWO_OVER_SQRT_PI)) / mp.mpf(TWO_OVER_SQRT_PI)
    assert rel < mp.mpf(10) ** -44


def test_negative_half_width_rejected():
    with pytest.raises(DomainError):
        make_weight("-0.5")


@pytest.mark.parametrize("route, args", [
    (build_recurrence_table, ("inf", 5)),
    (orbit_recurrence_table, ("nan", 5)),
    (iterate_r_orbit, ("inf", 5, 256)),
    (build_a_grid, ("inf", 3)),
    (probability_record, (3, "inf")),
    (overlap_matrix, (3, "inf", 64)),
    (overlap_matrix, (3, "nan", 64)),
], ids=lambda x: getattr(x, "__name__", None))
def test_non_finite_half_width_fails_at_the_boundary(route, args):
    # every route builds a GapWeight, which rejects a that is not finite
    with pytest.raises(DomainError):
        route(*args)


@pytest.mark.parametrize("route, args", [
    (build_recurrence_table, ("1e400", 5)),
    (orbit_recurrence_table, ("1e155", 5)),
    (iterate_r_orbit, ("1e400", 5, 256)),
    (build_a_grid, ("1e400", 3)),
    (probability_record, (3, "1e400")),
    (build_recurrence_table, ("1e154", 5)),
    (orbit_recurrence_table, ("1e154", 5)),
    (iterate_r_orbit, ("1e154", 3, 128)),
    (iterate_r_orbit, ("1e154", 3, 256)),
    (iterate_r_orbit, ("1e154", 3, 300)),
    (iterate_r_orbit, ("1e154", 3, 512)),
    (probability_record, (3, "1e154")),
    (overlap_matrix, (3, "1e400", 64)),
], ids=lambda x: getattr(x, "__name__", None))
def test_half_width_past_the_erfc_bound_fails_at_the_boundary(route, args):
    # mpmath's erfc squares int(a) into a float, which overflows past about
    # 1.34e154; GapWeight rejects a >= 1e154 before any pass reaches it, at
    # 64 bits, so a = 1e154 fails whatever precision a pass would run at
    with pytest.raises(DomainError, match="below 1e154"):
        route(*args)


def test_erfc_bound_is_exclusive_and_just_below_it_evaluates():
    with pytest.raises(DomainError, match="below 1e154"):
        make_weight("1e154")
    assert moment(0, make_weight("9.9e153")) > 0


@given(st.integers(min_value=0, max_value=6).map(lambda k: 2 * k))
@settings(max_examples=10, deadline=None)
def test_even_moments_decrease_as_gap_widens(k):
    # removing more of the axis can only shrink the integral
    w_narrow = make_weight("0.4", 320)
    w_wide = make_weight("1.7", 320)
    assert moment(k, w_wide) < moment(k, w_narrow)


@given(st.floats(min_value=0.05, max_value=3.0))
@settings(max_examples=20, deadline=None)
def test_moment_ordering_in_k(a):
    # mu_{k+2} > a^2 mu_k since x^2 > a^2 on the support
    w = GapWeight(mp.mpf(a), 320)
    with mp.workprec(320):
        av = mp.mpf(a)
        for k in (0, 2, 4):
            assert moment(k + 2, w) > av * av * moment(k, w)