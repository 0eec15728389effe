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
from gue_gap_lab.report import all_pass


def test_orbit_seeds(states_a1):
    orbit = iterate_r_orbit("1", 6, states_a1[0].bits)
    assert orbit.r[0].value == 0
    with mp.workprec(states_a1[0].bits):
        rel = abs(orbit.r[1].value - states_a1[1].r.value) / abs(states_a1[1].r.value)
    assert rel < mp.mpf(10) ** -140


def test_orbit_matches_direct_route(states_a1):
    orbit = iterate_r_orbit("1", 8, states_a1[0].bits)
    reports = residual_orbit_vs_direct(orbit, states_a1)
    assert all_pass(reports)
    assert max(rep.worst for rep in reports) < 1e-25


def test_orbit_stable_under_extra_precision():
    lo = iterate_r_orbit("0.7", 6, 320)
    hi = iterate_r_orbit("0.7", 6, 640)
    with mp.workprec(320):
        for n in range(7):
            diff = abs(lo.r[n].value - hi.r[n].value)
            scale = max(abs(hi.r[n].value), mp.mpf(1))
            assert diff / scale < mp.mpf(10) ** -80


def test_orbit_rejects_nonpositive_a():
    with pytest.raises(DomainError):
        iterate_r_orbit("0", 5, 256)
    with pytest.raises(DomainError):
        iterate_r_orbit("-2", 5, 256)
    with pytest.raises(DomainError):
        orbit_recurrence_table("0", 5)


def test_orbit_iterates_at_tiny_half_width():
    # the pair divides only by 2 beta_n R_{n-1}, so at a = 1e-12 (where
    # r_2 + r_1 = a R_1 cancels to about 1e-24 of r_1) even 128 bits iterate
    lo = iterate_r_orbit("1e-12", 6, 128)
    hi = iterate_r_orbit("1e-12", 6, 512)
    with mp.workprec(512):
        for n in range(1, 7):
            rel = abs(lo.r[n].value - hi.r[n].value) / abs(hi.r[n].value)
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
                    assert abs(x.value - y.value) <= tol * abs(y.value), (n_max, j)


def test_orbit_table_certifies_from_base_bits(monkeypatch):
    # one pair of orbit passes (W, W + 64) per precision level, W from
    # base_bits, not working_bits(n_max)
    bits_seen = []
    real_pass = difference_eqs._orbit_pass

    def counting_pass(a_value, n_max, bits):
        bits_seen.append(bits)
        return real_pass(a_value, n_max, bits)

    monkeypatch.setattr(difference_eqs, "_orbit_pass", counting_pass)
    table = orbit_recurrence_table("1", 12, PrecisionPolicy(base_bits=64))
    assert bits_seen == [64, 128, 128, 192, 256, 320]
    assert table.working_bits == 320
    assert table.escalations == 2
    assert table.certified_digits >= 40


def test_orbit_table_escalates_past_a_nonpositive_level(monkeypatch):
    # at a = 30 the orbit loses beta_n > 0 at 512 bits; that level
    # certifies nothing and the loop goes on to the level (1024, 1088)
    bits_seen = []
    real_pass = difference_eqs._orbit_pass

    def counting_pass(a_value, n_max, bits):
        bits_seen.append(bits)
        return real_pass(a_value, n_max, bits)

    monkeypatch.setattr(difference_eqs, "_orbit_pass", counting_pass)
    table = orbit_recurrence_table("30", 100)
    assert bits_seen == [512, 576, 1024, 1088]
    assert table.working_bits == 1088
    assert table.certified_digits >= 40


@pytest.mark.parametrize("a_text, n_max, digits", [
    ("1", 1000, 118), ("6", 1000, 93), ("30", 100, 140), ("30", 20, 107),
    ("1e-40", 200, 152), ("3", 200, 108),
])
def test_orbit_table_certified_digits_are_pinned(a_text, n_max, digits):
    # the counts a comparison with a pass at twice the bits gave
    assert orbit_recurrence_table(a_text, n_max).certified_digits == digits


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
            assert mp.sign(choice.value.value) == mp.sign(states_a1[n].r.value)


def test_branch_selection_rejects_corrupted_data(states_a1):
    import dataclasses

    from gue_gap_lab.precision import Real

    bad = list(states_a1)
    bits = states_a1[2].bits
    bad[2] = dataclasses.replace(bad[2], r=Real.from_str("100", bits))
    with pytest.raises(BranchSelectionError):
        select_r_branch(bad, 2)


def test_closure_index_bounds(states_a1):
    with pytest.raises(DomainError):
        residual_sigma_recurrence(states_a1, 0)
    with pytest.raises(DomainError):
        residual_R_recurrence(states_a1, len(states_a1) - 1)
