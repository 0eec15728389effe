"""Certified recurrence coefficients and everything derived from them.

The independent oracles here avoid the production code paths: moment-space
orthogonality sums, an LU determinant of the raw moment matrix via mpmath,
and the closed-form Hermite data at a = 0.
"""

import math

import mpmath as mp
import pytest

from gue_gap_lab import (
    DomainError,
    PrecisionExhaustedError,
    PrecisionPolicy,
    build_recurrence_table,
    difference_eqs,
    hermite_norms_exact,
    ladder_states,
    orthopoly,
)
from gue_gap_lab.precision import CHECK_BITS, Jet
from gue_gap_lab.weight import GapWeight, moment


def monic_coefficient_rows(table, n_top, bits):
    """Coefficient vectors of P_0..P_n_top from the three-term recurrence."""
    rows = [[mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]]
    with mp.workprec(bits):
        for j in range(1, n_top):
            prev, cur = rows[j - 1], rows[j]
            nxt = [mp.mpf(0)] + list(cur)
            for i, c in enumerate(prev):
                nxt[i] -= table.beta[j].value * c
            rows.append(nxt)
    return rows


class TestHermiteLimit:
    def test_matches_closed_forms_at_zero(self):
        table = build_recurrence_table("0", 12)
        h0 = hermite_norms_exact(table.n_max + 1, table.working_bits)
        with mp.workprec(table.working_bits):
            for j in range(table.n_max + 1):
                b_ref = mp.mpf(j) / 2
                h_ref = h0[j]
                assert abs(table.h[j].value - h_ref) / h_ref < mp.mpf(10) ** -150
                if j >= 1:
                    assert abs(table.beta[j].value - b_ref) / b_ref < mp.mpf(10) ** -150

    @pytest.mark.parametrize("bits", [64, 577, 1664])
    def test_norms_list_matches_the_closed_form(self, bits):
        norms = hermite_norms_exact(20, bits)
        with mp.workprec(bits):
            ref = [mp.mpf(math.factorial(k)) / mp.mpf(2) ** k * mp.sqrt(mp.pi) for k in range(20)]
        assert [v._mpf_ for v in norms] == [v._mpf_ for v in ref]
        assert hermite_norms_exact(0, bits) == []
        with pytest.raises(DomainError):
            hermite_norms_exact(-1, bits)

    def test_beta0_is_zero_by_convention(self):
        table = build_recurrence_table("0.6", 3)
        assert table.beta[0].value == 0


class TestCertification:
    def test_default_policy_meets_target(self, table_a1, policy):
        assert table_a1.certified_digits >= policy.target_certified_digits
        assert table_a1.working_bits >= policy.working_bits(table_a1.n_max)

    def test_positive_coefficients(self, table_a1):
        for j in range(1, table_a1.n_max + 1):
            assert table_a1.beta[j].value > 0
        for j in range(table_a1.n_max + 1):
            assert table_a1.h[j].value > 0

    def test_starved_policy_escalates_and_still_certifies(self):
        starved = PrecisionPolicy(base_bits=64, bits_per_n=1,
                                  target_certified_digits=40)
        table = build_recurrence_table("1", 12, starved)
        assert table.escalations >= 1
        assert table.certified_digits >= 40

    def test_one_pass_per_precision_level(self, monkeypatch):
        # each level runs its pair (W, W + 64) once; at a = 3 the 64- and
        # 128-bit passes lose positivity, so the first two levels certify
        # nothing and W goes 64, 128, 256, 512
        bits_seen = []
        real_pass = orthopoly._chebyshev_pass

        def counting_pass(a_value, n_max, bits):
            bits_seen.append(bits)
            return real_pass(a_value, n_max, bits)

        monkeypatch.setattr(orthopoly, "_chebyshev_pass", counting_pass)
        starved = PrecisionPolicy(base_bits=64, bits_per_n=0)
        table = build_recurrence_table("3", 80, starved)
        assert bits_seen == [64, 128, 128, 192, 256, 320, 512, 576]
        assert table.escalations == 3
        assert table.working_bits == 576
        assert table.certified_digits >= 40

    @pytest.mark.parametrize("route", ["chebyshev", "orbit"])
    @pytest.mark.parametrize("a_text, n_max, max_bits", [
        ("3", 80, 16384), ("3", 40, 256), ("1", 30, 200),
    ])
    def test_each_level_is_a_pass_and_one_64_bits_up(self, monkeypatch, route,
                                                     a_text, n_max, max_bits):
        # no pass is compared with one at its own bits: under a ceiling of
        # 256 or 200 bits the top level is (ceiling - 64, ceiling), which
        # falls short of 40 digits, so the build gives up
        module, name, build = {
            "chebyshev": (orthopoly, "_chebyshev_pass", build_recurrence_table),
            "orbit": (difference_eqs, "_orbit_pass", difference_eqs.orbit_recurrence_table),
        }[route]
        bits_seen = []
        real_pass = getattr(module, name)

        def recording_pass(a_value, n, bits):
            bits_seen.append(bits)
            return real_pass(a_value, n, bits)

        monkeypatch.setattr(module, name, recording_pass)
        policy = PrecisionPolicy(base_bits=64, bits_per_n=0, max_bits=max_bits)
        exhausted = max_bits < 1000
        if exhausted:
            with pytest.raises(PrecisionExhaustedError):
                build(a_text, n_max, policy)
        else:
            table = build(a_text, n_max, policy)
            assert table.working_bits == bits_seen[-1]
            assert table.escalations == len(bits_seen) // 2 - 1
        lows, highs = bits_seen[0::2], bits_seen[1::2]
        assert len(lows) == len(highs)
        assert all(lo + CHECK_BITS == hi <= max_bits for lo, hi in zip(lows, highs))
        ladder = [64]
        while len(ladder) < len(lows):
            ladder.append(min(2 * ladder[-1], max_bits - CHECK_BITS))
        assert lows == ladder
        if exhausted:
            assert highs[-1] == max_bits

    @pytest.mark.parametrize("a_text, n_max, digits", [
        ("0.7", 26, 391), ("3", 26, 383), ("1", 61, 711), ("8", 61, 670),
    ])
    def test_certified_digits_are_pinned(self, a_text, n_max, digits):
        # the counts a comparison with a pass at twice the bits gave
        table = build_recurrence_table(a_text, n_max, jets=True)
        assert table.certified_digits == digits

    @pytest.mark.parametrize("a_text", ["0.7", "1.1", "2.5"])
    def test_jet_values_are_the_plain_build(self, a_text):
        plain = build_recurrence_table(a_text, 8)
        jets = build_recurrence_table(a_text, 8, jets=True)
        assert plain.jets is None
        assert jets.working_bits == plain.working_bits
        for x, y in zip(plain.beta + plain.h, jets.beta + jets.h):
            assert x.value._mpf_ == y.value._mpf_
        beta_jets, h_jets = jets.jets
        assert [j.c[0] for j in beta_jets] == [b.value for b in jets.beta]
        assert [j.c[0] for j in h_jets] == [v.value for v in jets.h]

    def test_certified_digits_cover_the_derivative_parts(self):
        # two passes that agree on every value but differ in one second
        # derivative at the 1e-20 level certify 20 digits, not the cap
        lo = orthopoly._chebyshev_pass(mp.mpf(1), 3, 256, jets=True)
        hi = orthopoly._chebyshev_pass(mp.mpf(1), 3, 512, jets=True)
        assert orthopoly._certified_digits(lo, hi, 256) > 60
        v, d1, d2 = hi[1][2].c
        with mp.workprec(512):
            hi[1][2] = Jet((v, d1, d2 * (1 + mp.mpf(10) ** -20)))
        assert orthopoly._certified_digits(lo, hi, 256) in (19, 20)

    def test_unreachable_target_raises(self):
        impossible = PrecisionPolicy(base_bits=64, bits_per_n=0,
                                     target_certified_digits=40, max_bits=128)
        with pytest.raises(PrecisionExhaustedError):
            build_recurrence_table("1", 12, impossible)

    def test_negative_a_rejected(self):
        with pytest.raises(DomainError):
            build_recurrence_table("-1", 4)


class TestOrthogonality:
    def test_moment_space_orthogonality(self):
        # <P_n, x^k> = sum_j c_j mu_{j+k}: zero for k < n, h_n at k = n
        table = build_recurrence_table("0.7", 6)
        bits = table.working_bits
        w = GapWeight.from_str("0.7", bits)
        rows = monic_coefficient_rows(table, 6, bits)
        with mp.workprec(bits):
            for n in range(1, 7):
                coeffs = rows[n]
                h_n = table.h[n].value
                for k in range(n + 1):
                    inner = mp.mpf(0)
                    scale = h_n
                    for j, c in enumerate(coeffs):
                        if c != 0:
                            term = c * moment(j + k, w).value
                            inner += term
                            scale = max(scale, abs(term))
                    if k < n:
                        assert abs(inner) / scale < mp.mpf(10) ** -130
                    else:
                        assert abs(inner - h_n) / h_n < mp.mpf(10) ** -130

    def test_subleading_matches_coefficient_expansion(self):
        table = build_recurrence_table("0.7", 6)
        rows = monic_coefficient_rows(table, 6, table.working_bits)
        with mp.workprec(table.working_bits):
            for n in range(2, 7):
                direct = rows[n][n - 2]
                p_n = ladder_states(table)[n].p.value
                assert abs(direct - p_n) / abs(p_n) < mp.mpf(10) ** -140


def hankel_product(table, n):
    """D_n = h_0 h_1 ... h_{n-1}, the n x n moment determinant."""
    with mp.workprec(table.working_bits):
        return mp.fprod(table.h[j].value for j in range(n))


class TestHankelDeterminant:
    def test_against_lu_of_moment_matrix(self):
        # independent route: det of the raw (mu_{i+j}) matrix via mpmath LU
        table = build_recurrence_table("0.7", 5)
        bits = table.working_bits
        w = GapWeight.from_str("0.7", bits)
        for n in (2, 3, 5):
            with mp.workprec(bits):
                M = mp.matrix(n, n)
                for i in range(n):
                    for j in range(n):
                        M[i, j] = moment(i + j, w).value
                ref = mp.det(M)
                got = hankel_product(table, n)
                assert abs(got - ref) / abs(ref) < mp.mpf(10) ** -120


class TestEdgeValues:
    def test_edge_signs_follow_period_four_pattern(self, table_a1):
        # at a = 1: P_n(a) signs go +, +, -, -, +, +, -, - ...
        signs = [1 if s.Pn_at_a.value > 0 else -1 for s in ladder_states(table_a1)[:9]]
        expected = [1, 1, -1, -1, 1, 1, -1, -1, 1]
        assert signs == expected

    def test_degree_bounds(self, table_a1):
        with pytest.raises(DomainError):
            ladder_states(table_a1, table_a1.n_max + 1)
        with pytest.raises(DomainError):
            ladder_states(table_a1, -1)
