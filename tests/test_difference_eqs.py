"""Difference-equation suite: orbit iteration, closures, branch recovery."""

import mpmath as mp
import pytest

from gue_gap_lab import (
    BranchSelectionError,
    DomainError,
    PrecisionPolicy,
    build_recurrence_table,
    difference_eqs,
    iterate_r_orbit,
    residual_R_recurrence,
    residual_alternate_r,
    residual_orbit_vs_direct,
    residual_sigma_recurrence,
)
from gue_gap_lab.difference_eqs import orbit_recurrence_table, select_r_branch


def test_orbit_seeds(states_a1):
    orbit = iterate_r_orbit("1", 6, states_a1[0].bits)
    assert orbit.r[0] == 0
    with mp.workprec(states_a1[0].bits):
        rel = abs(orbit.r[1] - states_a1[1].r) / abs(states_a1[1].r)
    assert rel < mp.mpf(10) ** -140


def test_orbit_matches_direct_route(states_a1):
    orbit = iterate_r_orbit("1", 8, states_a1[0].bits)
    reports = residual_orbit_vs_direct(orbit, states_a1)
    assert all(rep.all_pass for rep in reports)
    assert max(rep.worst for rep in reports) < 1e-25


def test_orbit_stable_under_extra_precision():
    lo = iterate_r_orbit("0.7", 6, 320)
    hi = iterate_r_orbit("0.7", 6, 640)
    with mp.workprec(320):
        for n in range(7):
            diff = abs(lo.r[n] - hi.r[n])
            scale = max(abs(hi.r[n]), mp.mpf(1))
            assert diff / scale < mp.mpf(10) ** -80


def test_orbit_rejects_nonpositive_a():
    # iterate_r_orbit runs outside the certification loop, so it judges a
    # itself, at 64 bits whatever its precision
    for bits in (64, 256):
        for a_text in ("nan", "-2"):
            with pytest.raises(DomainError, match="must be a finite number >= 0"):
                iterate_r_orbit(a_text, 5, bits)
        with pytest.raises(DomainError, match="orbit iteration requires a > 0"):
            iterate_r_orbit("0", 5, bits)
    with pytest.raises(DomainError):
        orbit_recurrence_table("0", 5)


def test_orbit_refuses_a_precision_below_one_bit():
    # iterate_r_orbit runs outside the certification loop, so it refuses
    # a precision below one bit itself, before any step
    for bits in (0, -64):
        with pytest.raises(DomainError, match="^prec_bits must be positive$"):
            iterate_r_orbit("1", 3, bits)


def test_orbit_table_certifies_under_a_ceiling_below_its_start():
    # the default start lies above the top of a 200-bit ceiling, 136 bits,
    # so the first level runs there, as an escalation would
    policy = PrecisionPolicy(max_bits=200)
    assert policy.start_bits("orbit", "1", 5) > 200 - 64
    table = orbit_recurrence_table("1", 5, policy)
    assert (table.certified_digits, table.working_bits, table.escalations) == (40, 200, 0)


def test_orbit_iterates_at_tiny_half_width():
    # the pair divides only by 2 beta_n R_{n-1}, so at a = 1e-12 (where
    # r_2 + r_1 = a R_1 cancels to about 1e-24 of r_1) even 128 bits iterate
    lo = iterate_r_orbit("1e-12", 6, 128)
    hi = iterate_r_orbit("1e-12", 6, 512)
    with mp.workprec(512):
        for n in range(1, 7):
            rel = abs(lo.r[n] - hi.r[n]) / abs(hi.r[n])
            assert rel < mp.mpf(10) ** -35, n


@pytest.mark.parametrize("a_text", ["1e-300", "1e-60", "1e-9", "0.25", "1", "3", "6", "12"])
def test_orbit_table_agrees_with_chebyshev_table(a_text):
    # two routes to beta_j and h_j, each certified by its own pair of passes
    for n_max in (0, 1, 2, 30, 60):
        orbit = orbit_recurrence_table(a_text, n_max)
        cheb = build_recurrence_table(a_text, n_max)
        digits = min(orbit.certified_digits, cheb.certified_digits)
        assert digits >= 40
        with mp.workprec(cheb.working_bits):
            tol = mp.mpf(10) ** (1 - digits)
            for j in range(n_max + 1):
                for x, y in ((orbit.beta[j], cheb.beta[j]), (orbit.h[j], cheb.h[j])):
                    assert abs(x - y) <= tol * abs(y), (n_max, j)


def test_orbit_table_certifies_from_base_bits(monkeypatch):
    # one pair of orbit passes (W, W + 64) per precision level, W from
    # base_bits, without the Chebyshev route's bits_per_n
    bits_seen = []
    real_pass = difference_eqs._orbit_pass

    def counting_pass(a_value, n_max, bits):
        bits_seen.append(bits)
        return real_pass(a_value, n_max, bits)

    monkeypatch.setattr(difference_eqs, "_orbit_pass", counting_pass)
    table = orbit_recurrence_table("1", 12, PrecisionPolicy(base_bits=64, bits_per_n=32))
    assert bits_seen == [64, 128, 128, 192, 256, 320]
    assert table.working_bits == 320
    assert table.escalations == 2
    assert table.certified_digits >= 40


def test_orbit_table_escalates_past_a_nonpositive_level(monkeypatch):
    # started at 512 bits, the orbit at a = 30 loses beta_n > 0; that level
    # certifies nothing, skips its check pass, and the loop goes on to the
    # level (1024, 1088)
    bits_seen = []
    real_pass = difference_eqs._orbit_pass

    def counting_pass(a_value, n_max, bits):
        bits_seen.append(bits)
        return real_pass(a_value, n_max, bits)

    monkeypatch.setattr(difference_eqs, "_orbit_pass", counting_pass)
    table = orbit_recurrence_table("30", 100, PrecisionPolicy(base_bits=512))
    assert bits_seen == [512, 1024, 1088]
    assert table.working_bits == 1088
    assert table.certified_digits >= 40


def test_each_orbit_pass_evaluates_erfc_and_exp_once(monkeypatch):
    # the seed R_0 and h_0 come from one erfc and one exponential per pass,
    # with no cache between a pass and mpmath
    calls = {"erfc": 0, "exp": 0}
    for name in calls:
        def counting(*args, _real=getattr(mp, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(mp, name, counting)
    table = orbit_recurrence_table("2.1", 2)
    assert table.escalations == 0  # one level: a pass and its check pass
    assert calls == {"erfc": 2, "exp": 2}
    orbit_recurrence_table("2.1", 2)  # a second build evaluates both again
    assert calls == {"erfc": 4, "exp": 4}
    calls.update(erfc=0, exp=0)
    iterate_r_orbit("1", 6, 256)
    assert calls == {"erfc": 1, "exp": 1}


@pytest.mark.parametrize("a_text, n_max, digits", [
    ("1", 1000, 118), ("6", 1000, 93), ("30", 100, 140), ("30", 20, 107),
    ("1e-40", 200, 152), ("3", 200, 108),
])
def test_orbit_table_certified_digits_are_pinned(a_text, n_max, digits):
    # an explicit start sets W exactly: from 512 bits the counts are those a
    # comparison with a pass at twice the bits gave
    table = orbit_recurrence_table(a_text, n_max, PrecisionPolicy(base_bits=512))
    assert table.certified_digits == digits


@pytest.mark.parametrize("a_text, n_max, digits, bits", [
    ("1", 1000, 43, 326), ("6", 1000, 41, 916), ("30", 100, 42, 764), ("30", 20, 44, 364),
    ("1e-40", 200, 43, 210), ("3", 200, 45, 367),
])
def test_orbit_default_start_certified_digits_are_pinned(a_text, n_max, digits, bits):
    # the default start's first level, which the measured loss puts just
    # above the 40-digit target
    table = orbit_recurrence_table(a_text, n_max)
    assert (table.certified_digits, table.working_bits, table.escalations) == (digits, bits, 0)


def test_closure_residuals_pass(states_a1):
    for n in range(1, len(states_a1) - 1):
        for fn in (residual_alternate_r, residual_sigma_recurrence,
                   residual_R_recurrence):
            rep = fn(states_a1, n)
            assert rep.all_pass, f"{fn.__name__} at n={n}"
            assert rep.worst < 1e-30


def test_closures_hold_across_half_widths():
    from gue_gap_lab import build_recurrence_table, ladder_states

    for a_text in ("0.25", "2.5"):
        states = ladder_states(build_recurrence_table(a_text, 7))
        for n in (1, 3, 5):
            assert residual_alternate_r(states, n).worst < 1e-30
            assert residual_sigma_recurrence(states, n).worst < 1e-30
            assert residual_R_recurrence(states, n).worst < 1e-30


def test_branch_selection_alternates_with_parity(states_a1):
    # the matching quadratic root is positive at odd n, negative at even n
    for n in range(1, len(states_a1) - 1):
        choice = select_r_branch(states_a1, n)
        assert choice.rel_err < 1e-30
        assert choice.rel_err_other > 0.1
        expected = "+" if n % 2 == 1 else "-"
        assert choice.sign == expected
        with mp.workprec(64):
            assert mp.sign(choice.value) == mp.sign(states_a1[n].r)


def test_branch_selection_rejects_corrupted_data(states_a1):
    from gue_gap_lab.precision import as_mpf

    bad = list(states_a1)
    bits = states_a1[2].bits
    bad[2] = bad[2]._replace(r=as_mpf("100", bits))
    with pytest.raises(BranchSelectionError):
        select_r_branch(bad, 2)


def test_closure_index_bounds(states_a1):
    with pytest.raises(DomainError):
        residual_sigma_recurrence(states_a1, 0)
    with pytest.raises(DomainError):
        residual_R_recurrence(states_a1, len(states_a1) - 1)
