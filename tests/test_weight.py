"""Moments of the gap-deformed Gaussian weight and the closed-form seeds."""

import hashlib

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gue_gap_lab import (
    DomainError,
    build_a_grid,
    build_recurrence_table,
    gap_probability_fredholm,
    iterate_r_orbit,
    probability_record,
)
from gue_gap_lab.difference_eqs import orbit_recurrence_table
from gue_gap_lab.precision import GUARD_BITS, as_mpf
from gue_gap_lab.weight import even_moments, orbit_seed

R0_AT_1 = "2.63896751423479126047150115207156112883768656"
TWO_OVER_SQRT_PI = "1.12837916709551257389615890312154517168810126"

# sha256 of the repr of every _mpf_ tuple that even_moments (plain and on
# jets) and orbit_seed give over the grid of test_moments_and_seed_keep_their_bits,
# as the weight module gave them before its sweeps were merged into one
PINNED_DIGEST = "abce628f888308dc961be59da1701d9cba7adab78efb7bb471840f613cdfce7e"


def test_moments_and_seed_keep_their_bits():
    rows = []
    for a_text in ("0", "1e-40", "0.3", "1", "1.7", "4", "30", "1e100"):
        for bits in (64, 200, 777):
            a = as_mpf(a_text, bits)
            for count in (0, 1, 2, 7, 40):
                rows.append([m._mpf_ for m in even_moments(count, a, bits)])
                rows.append([tuple(c._mpf_ for c in j.c)
                             for j in even_moments(count, a, bits, jets=True)])
            rows.append([v._mpf_ for v in orbit_seed(a, bits)])
    assert len(rows) == 264
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == PINNED_DIGEST


def test_even_moments_match_incomplete_gamma_oracle():
    # mu_k = Gamma((k+1)/2, a^2) for even k, checked against mpmath; wide
    # gaps and k up to 40 cover the rounding growth of the recurrence in k
    for a_text in ("0", "1.5", "3", "6"):
        a = as_mpf(a_text, 512)
        for k, m in zip(range(0, 41, 2), even_moments(21, a, 512), strict=True):
            with mp.workprec(560):
                av = mp.mpf(a_text)
                ref = mp.gammainc(mp.mpf(k + 1) / 2, av * av, mp.inf)
                rel = abs(m - ref) / ref
            assert rel < mp.mpf(10) ** -140


@pytest.mark.parametrize("a_text", ["0.3", "1.7", "4"])
def test_moment_jets_match_differentiated_incomplete_gamma(a_text):
    # (mu_k, mu_k', mu_k''/2) against mp.diffs of Gamma((k+1)/2, a^2); jet m
    # is that of mu_{2m}, and its values are those of the one-sweep recurrence
    a = as_mpf(a_text, 512)
    jets = even_moments(6, a, 512, jets=True)
    assert [j.c[0] for j in jets] == even_moments(6, a, 512)
    with mp.workprec(400):
        av = mp.mpf(a_text)
        for k in (0, 2, 4, 10):
            _, d1, d2 = mp.diffs(lambda x: mp.gammainc(mp.mpf(k + 1) / 2, x * x), av, 2)
            assert abs(jets[k // 2].c[1] - d1) / abs(d1) < mp.mpf(10) ** -100
            assert abs(2 * jets[k // 2].c[2] - d2) / abs(d2) < mp.mpf(10) ** -100


def per_order_moment(k, a, bits):
    """mu_k, k even, by restarting the recurrence at mu_0 for this k alone."""
    with mp.workprec(bits + GUARD_BITS):
        mu = mp.sqrt(mp.pi) * mp.erfc(a)
        edge = a * mp.exp(-a * a)
        for j in range(0, k, 2):
            mu = (j + 1) * mu / 2 + edge
            edge *= a * a
    return as_mpf(mu, bits)


@pytest.mark.parametrize("a_text", ["0", "0.5", "3"])
def test_one_sweep_matches_per_order_recurrence(a_text):
    # the sweep rounds each mu_k exactly as a fresh run up to k would
    a = as_mpf(a_text, 700)
    swept = even_moments(61, a, 700)
    assert len(swept) == 61
    for k in range(0, 121, 2):
        assert swept[k // 2]._mpf_ == per_order_moment(k, a, 700)._mpf_, k
        assert even_moments(k // 2 + 1, a, 700) == swept[:k // 2 + 1], k
    assert even_moments(0, a, 700) == []
    with pytest.raises(DomainError):
        even_moments(-1, a, 700)


def test_zeroth_moment_is_sqrt_pi_erfc():
    with mp.workprec(560):
        ref = mp.sqrt(mp.pi) * mp.erfc(mp.mpf("1.3"))
        rel = abs(even_moments(1, as_mpf("1.3", 512), 512)[0] - ref) / ref
    assert rel < mp.mpf(10) ** -140


def test_moments_at_zero_reduce_to_gaussian():
    mu0, mu2 = even_moments(2, as_mpf(0, 512), 512)
    with mp.workprec(560):
        assert abs(mu0 - mp.sqrt(mp.pi)) < mp.mpf(10) ** -140
        assert abs(mu2 - mp.sqrt(mp.pi) / 2) < mp.mpf(10) ** -140


def test_seed_R0_frozen_value_at_one():
    a = as_mpf("1", 512)
    h0, R0 = orbit_seed(a, 512)
    assert h0 == even_moments(1, a, 512)[0]
    with mp.workprec(512):
        rel = abs(R0 - mp.mpf(R0_AT_1)) / mp.mpf(R0_AT_1)
    assert rel < mp.mpf(10) ** -44


def test_seed_R0_at_zero_is_two_over_sqrt_pi():
    a = as_mpf(0, 512)
    h0, R0 = orbit_seed(a, 512)
    assert h0 == even_moments(1, a, 512)[0]
    with mp.workprec(512):
        rel = abs(R0 - mp.mpf(TWO_OVER_SQRT_PI)) / mp.mpf(TWO_OVER_SQRT_PI)
    assert rel < mp.mpf(10) ** -44


@pytest.mark.parametrize("route, args", [
    (build_recurrence_table, ("-0.5", 5)),
    (orbit_recurrence_table, ("-0.5", 5)),
    (iterate_r_orbit, ("-0.5", 5, 256)),
], ids=lambda x: getattr(x, "__name__", None))
def test_negative_half_width_rejected(route, args):
    with pytest.raises(DomainError, match="must be a finite number >= 0"):
        route(*args)


@pytest.mark.parametrize("route, args, message", [
    (build_recurrence_table, (mp.mpf(-1), 2),
     "gap half-width must be a finite number >= 0, got -1.0"),
    (orbit_recurrence_table, (mp.inf, 2), "gap half-width must be a finite number >= 0, got +inf"),
    (iterate_r_orbit, (mp.inf, 2, 64), "gap half-width must be a finite number >= 0, got +inf"),
    (iterate_r_orbit, ("1", 3, 0), "prec_bits must be positive"),
], ids=lambda x: getattr(x, "__name__", None))
def test_entry_points_refuse_with_the_whole_message(route, args, message):
    with pytest.raises(DomainError) as exc:
        route(*args)
    assert str(exc.value) == message


@pytest.mark.parametrize("route, args", [
    (build_recurrence_table, ("inf", 5)),
    (orbit_recurrence_table, ("nan", 5)),
    (iterate_r_orbit, ("inf", 5, 256)),
    (build_a_grid, ("inf", 3)),
    (probability_record, (3, "inf")),
    (gap_probability_fredholm, (3, "inf")),
    (gap_probability_fredholm, (3, "nan")),
], ids=lambda x: getattr(x, "__name__", None))
def test_non_finite_half_width_fails_at_the_boundary(route, args):
    # every route judges a with check_half_width before any pass, which
    # rejects a that is not finite
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
    (gap_probability_fredholm, (3, "1e400")),
], ids=lambda x: getattr(x, "__name__", None))
def test_half_width_past_the_erfc_bound_fails_at_the_boundary(route, args):
    # mpmath's erfc squares int(a) into a float, which overflows past about
    # 1.34e154; every route rejects a >= 1e154 before any pass reaches it, at
    # 64 bits, so a = 1e154 fails whatever precision a pass would run at
    with pytest.raises(DomainError, match="below 1e154"):
        route(*args)


def test_erfc_bound_is_exclusive_and_just_below_it_evaluates():
    for route in (build_recurrence_table, orbit_recurrence_table):
        with pytest.raises(DomainError, match="below 1e154"):
            route("1e154", 1)
    assert even_moments(1, as_mpf("9.9e153", 512), 512)[0] > 0
    assert orbit_recurrence_table("9.9e153", 1).h[0] > 0


@given(st.integers(min_value=0, max_value=6).map(lambda k: 2 * k))
@settings(max_examples=10, deadline=None)
def test_even_moments_decrease_as_gap_widens(k):
    # removing more of the axis can only shrink the integral
    narrow, wide = as_mpf("0.4", 320), as_mpf("1.7", 320)
    m = k // 2
    assert even_moments(m + 1, wide, 320)[m] < even_moments(m + 1, narrow, 320)[m]


@given(st.floats(min_value=0.05, max_value=3.0))
@settings(max_examples=20, deadline=None)
def test_moment_ordering_in_k(a):
    # mu_{k+2} > a^2 mu_k since x^2 > a^2 on the support
    mu = even_moments(4, as_mpf(a, 320), 320)
    with mp.workprec(320):
        av = mp.mpf(a)
        for m in range(3):
            assert mu[m + 1] > av * av * mu[m]