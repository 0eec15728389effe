"""Certified recurrence coefficients and everything derived from them.

The independent oracles here avoid the production code paths: moment-space
orthogonality sums, an LU determinant of the raw moment matrix via mpmath,
both over moments from mpmath's incomplete gamma function, and the
closed-form Hermite data at a = 0.
"""

import functools
import math

import mpmath as mp
import pytest

from gue_gap_lab import (
    DomainError,
    IllConditioningError,
    PrecisionExhaustedError,
    PrecisionPolicy,
    build_recurrence_table,
    difference_eqs,
    hermite_norms_exact,
    ladder_states,
    orthopoly,
    precision,
    probability,
)
from gue_gap_lab.precision import CHECK_BITS, Jet, as_mpf


# The start before the loss model; the bounds of the tests that pass it
# assume its 150-odd certified digits.
WIDE_POLICY = PrecisionPolicy(base_bits=512, bits_per_n=32)


# The pass of each certified route, as (module, name), and each builder as
# build(a, n).
ROUTE_PASSES = ((orthopoly, "_chebyshev_pass"), (difference_eqs, "_orbit_pass"),
                (probability, "_fredholm_pass"))
BUILDS = {
    "chebyshev": build_recurrence_table,
    "jets": functools.partial(build_recurrence_table, jets=True),
    "orbit": difference_eqs.orbit_recurrence_table,
    "fredholm": lambda a, n, policy=None: probability.gap_probability_fredholm(n, a, policy),
}


@pytest.fixture()
def passes_seen(monkeypatch):
    """The half-width of every pass run, on any route, in order."""
    seen = []

    def recording(real_pass):
        def run(a_value, *args, **kwargs):
            seen.append(a_value)
            return real_pass(a_value, *args, **kwargs)

        return run

    for module, name in ROUTE_PASSES:
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
    return seen


def gamma_moment(k, a):
    """mu_k = Gamma((k+1)/2, a^2) for even k and 0 for odd k, from mpmath at
    the ambient precision."""
    return mp.gammainc(mp.mpf(k + 1) / 2, a * a) if k % 2 == 0 else mp.mpf(0)


def monic_coefficient_rows(table, n_top, bits):
    """Coefficient vectors of P_0..P_n_top from the three-term recurrence."""
    rows = [[mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]]
    with mp.workprec(bits):
        for j in range(1, n_top):
            prev, cur = rows[j - 1], rows[j]
            nxt = [mp.mpf(0)] + list(cur)
            for i, c in enumerate(prev):
                nxt[i] -= table.beta[j] * c
            rows.append(nxt)
    return rows


class TestHermiteLimit:
    def test_matches_closed_forms_at_zero(self):
        table = build_recurrence_table("0", 12, WIDE_POLICY)
        h0 = hermite_norms_exact(table.n_max + 1, table.working_bits)
        with mp.workprec(table.working_bits):
            for j in range(table.n_max + 1):
                b_ref = mp.mpf(j) / 2
                h_ref = h0[j]
                assert abs(table.h[j] - h_ref) / h_ref < mp.mpf(10) ** -150
                if j >= 1:
                    assert abs(table.beta[j] - b_ref) / b_ref < mp.mpf(10) ** -150

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
        assert table.beta[0] == 0


class TestCertification:
    def test_default_policy_meets_target(self, table_a1, policy):
        assert table_a1.certified_digits >= policy.target_certified_digits
        start = policy.start_bits("chebyshev", table_a1.a, table_a1.n_max)
        assert table_a1.working_bits == start + CHECK_BITS

    def test_positive_coefficients(self, table_a1):
        for j in range(1, table_a1.n_max + 1):
            assert table_a1.beta[j] > 0
        for j in range(table_a1.n_max + 1):
            assert table_a1.h[j] > 0

    def test_starved_policy_escalates_and_still_certifies(self):
        starved = PrecisionPolicy(base_bits=64, bits_per_n=1,
                                  target_certified_digits=40)
        table = build_recurrence_table("1", 12, starved)
        assert table.escalations >= 1
        assert table.certified_digits >= 40

    def test_one_pass_per_precision_level(self, monkeypatch):
        # each level runs its pair (W, W + 64) once; at a = 3 the 64- and
        # 128-bit passes lose positivity, so the first two levels certify
        # nothing and skip their check passes, and W goes 64, 128, 256, 512
        bits_seen = []
        real_pass = orthopoly._chebyshev_pass

        def counting_pass(a_value, n_max, bits):
            bits_seen.append(bits)
            return real_pass(a_value, n_max, bits)

        monkeypatch.setattr(orthopoly, "_chebyshev_pass", counting_pass)
        starved = PrecisionPolicy(base_bits=64, bits_per_n=0)
        table = build_recurrence_table("3", 80, starved)
        assert bits_seen == [64, 128, 256, 320, 512, 576]
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
        # falls short of 40 digits, so the build gives up; a level whose
        # lower pass lost positivity below the top skips its check pass
        module, name, build = {
            "chebyshev": (orthopoly, "_chebyshev_pass", build_recurrence_table),
            "orbit": (difference_eqs, "_orbit_pass", difference_eqs.orbit_recurrence_table),
        }[route]
        passes = []  # (bits, kept positivity)
        real_pass = getattr(module, name)

        def recording_pass(a_value, n, bits):
            try:
                out = real_pass(a_value, n, bits)
            except precision.NonPositiveNorm:
                passes.append((bits, False))
                raise
            passes.append((bits, True))
            return out

        monkeypatch.setattr(module, name, recording_pass)
        policy = PrecisionPolicy(base_bits=64, bits_per_n=0, max_bits=max_bits)
        exhausted = max_bits < 1000
        if exhausted:
            with pytest.raises(PrecisionExhaustedError):
                build(a_text, n_max, policy)
        else:
            table = build(a_text, n_max, policy)
        top = max_bits - CHECK_BITS
        lows, i = [], 0
        while i < len(passes):
            lo, kept = passes[i]
            lows.append(lo)
            if kept or lo >= top:
                assert passes[i + 1][0] == lo + CHECK_BITS <= max_bits
                i += 2
            else:
                i += 1
        ladder = [64]
        while len(ladder) < len(lows):
            ladder.append(min(2 * ladder[-1], top))
        assert lows == ladder
        if exhausted:
            assert passes[-1][0] == max_bits
        else:
            assert table.working_bits == passes[-1][0]
            assert table.escalations == len(lows) - 1

    @pytest.mark.parametrize("a_text, n_max, digits", [
        ("0.7", 26, 391), ("3", 26, 383), ("1", 61, 711), ("8", 61, 670),
    ])
    def test_certified_digits_are_pinned(self, a_text, n_max, digits):
        # an explicit start sets W exactly: from 512 + 32 n bits the counts
        # are those a comparison with a pass at twice the bits gave
        table = build_recurrence_table(a_text, n_max, WIDE_POLICY, jets=True)
        assert table.certified_digits == digits

    @pytest.mark.parametrize("a_text, n_max, digits, bits", [
        ("0.7", 26, 44, 257), ("3", 26, 45, 287), ("1", 61, 43, 312), ("8", 61, 45, 451),
    ])
    def test_default_start_certified_digits_are_pinned(self, a_text, n_max, digits, bits):
        # the default start's first level, which the measured loss puts just
        # above the 40-digit target, at a sixth to a half of those bits
        table = build_recurrence_table(a_text, n_max, jets=True)
        assert (table.certified_digits, table.working_bits, table.escalations) == (digits, bits, 0)

    @pytest.mark.parametrize("route, a_text, n_max, base_bits, record", [
        ("chebyshev", "0.7", 26, None, (47, 257, 0)), ("chebyshev", "8", 61, None, (50, 451, 0)),
        ("chebyshev", "0", 12, None, (46, 233, 0)), ("orbit", "1", 300, None, (46, 274, 0)),
        ("orbit", "12", 100, None, (45, 543, 0)), ("orbit", "1e-40", 20, None, (43, 210, 0)),
        ("fredholm", "1", 60, None, (42, 233, 0)), ("fredholm", "30", 100, None, (40, 839, 0)),
        ("fredholm", "0", 10, None, (42, 204, 0)), ("chebyshev", "3", 40, 64, (51, 320, 2)),
        ("jets", "1", 20, 64, (65, 320, 2)), ("orbit", "3", 200, 64, (108, 576, 3)),
        ("fredholm", "3", 20, 64, (64, 320, 2)),
    ])
    def test_loop_record_is_pinned_on_every_route(self, route, a_text, n_max, base_bits, record):
        # (certified_digits, working_bits, escalations) of the one loop on
        # each route, from the default start and from a 64-bit start that
        # escalates
        built = BUILDS[route](a_text, n_max, PrecisionPolicy(base_bits=base_bits))
        assert (built.certified_digits, built.working_bits, built.escalations) == record

    @pytest.mark.parametrize("a_text", ["0.7", "1.1", "2.5"])
    def test_jet_values_are_the_plain_build(self, a_text):
        plain = build_recurrence_table(a_text, 8)
        jets = build_recurrence_table(a_text, 8, jets=True)
        assert plain.jets is None
        assert jets.working_bits == plain.working_bits
        for x, y in zip(plain.beta + plain.h, jets.beta + jets.h):
            assert x._mpf_ == y._mpf_
        beta_jets, h_jets = jets.jets
        assert [j.c[0] for j in beta_jets] == list(jets.beta)
        assert [j.c[0] for j in h_jets] == list(jets.h)

    def test_jets_at_zero_half_width_fail_before_any_pass(self, monkeypatch):
        # at a = 0 the derivative parts that vanish exactly come out as
        # rounding noise, so escalation would run to the ceiling in vain
        passes = []
        monkeypatch.setattr(orthopoly, "_chebyshev_pass", lambda *args, **kw: passes.append(args))
        for a in ("0", "0.000", mp.mpf(0)):
            with pytest.raises(DomainError, match="a > 0"):
                build_recurrence_table(a, 61, PrecisionPolicy(max_bits=4096), jets=True)
        assert passes == []

    def test_certified_digits_cover_the_derivative_parts(self):
        # two passes that agree on every value but differ in one second
        # derivative at the 1e-20 level certify 20 digits, not the cap
        lo = orthopoly._chebyshev_pass(mp.mpf(1), 3, 256, jets=True)
        hi = orthopoly._chebyshev_pass(mp.mpf(1), 3, 512, jets=True)
        assert precision.certified_digits(lo, hi, 256) > 60
        v, d1, d2 = hi[1][2].c
        with mp.workprec(512):
            hi[1][2] = Jet((v, d1, d2 * (1 + mp.mpf(10) ** -20)))
        assert precision.certified_digits(lo, hi, 256) in (19, 20)

    @pytest.mark.parametrize("route", ["chebyshev", "jets", "orbit", "fredholm"])
    @pytest.mark.parametrize("a_text, n_max, max_bits", [
        ("1", 12, 128), ("30", 100, 128), ("3", 61, 200), ("1", 5, 129),
    ])
    def test_a_ceiling_too_small_ends_in_a_precision_error(self, monkeypatch, route, a_text,
                                                           n_max, max_bits):
        # every lower pass, the start included, is capped at
        # max_bits - CHECK_BITS, which the policy keeps at 64 bits or more:
        # the build tries the top level and gives up there
        bits_seen = []
        for module, name in ROUTE_PASSES:
            def recording(a_value, n, bits, real_pass=getattr(module, name), **kwargs):
                bits_seen.append(bits)
                return real_pass(a_value, n, bits, **kwargs)

            monkeypatch.setattr(module, name, recording)
        with pytest.raises((PrecisionExhaustedError, IllConditioningError)):
            BUILDS[route](a_text, n_max, PrecisionPolicy(max_bits=max_bits))
        assert bits_seen[-2:] == [max_bits - CHECK_BITS, max_bits]

    def test_unreachable_target_raises(self):
        impossible = PrecisionPolicy(base_bits=64, bits_per_n=0,
                                     target_certified_digits=40, max_bits=128)
        with pytest.raises(PrecisionExhaustedError):
            build_recurrence_table("1", 12, impossible)

    @pytest.mark.parametrize("text", [
        "1.5", "0.25", "2.500", "1.625", "-0.75", "1.7", "0.1", "1", "30", "1e-300", "1e-40",
        "12.5e-1", "5e-401",
    ])
    def test_half_width_parses_to_the_mpf_of_as_mpf(self, text, passes_seen):
        # a is checked once and kept as given; each pass, and the table,
        # round the decimal itself, never a parse at some other precision
        builds = [BUILDS[route] for route in ("chebyshev", "orbit", "fredholm")]
        if text.startswith("-"):
            for build in builds:
                with pytest.raises(DomainError, match="must be a finite number >= 0"):
                    build(text, 4)
            assert passes_seen == []
            return
        tables = [build(text, 4) for build in builds[:2]]
        builds[2](text, 4)
        assert len(passes_seen) >= 6 and all(a is text for a in passes_seen)
        for table in tables:
            assert table.a._mpf_ == as_mpf(text, table.working_bits)._mpf_

    @pytest.mark.parametrize("route", list(BUILDS))
    @pytest.mark.parametrize("a_text, n, message", [
        ("nan", 4, "must be a finite number >= 0"),
        ("inf", 4, "must be a finite number >= 0"),
        ("-1", 4, "must be a finite number >= 0"),
        ("1e154", 4, "below 1e154"),
        ("1", -1, "must be >= [01], got -1"),
    ])
    def test_every_route_refuses_its_inputs_before_any_pass(self, passes_seen, route,
                                                            a_text, n, message):
        # one check ahead of the certification loop, with check_half_width's
        # messages for a; the Fredholm route's n is a matrix order, >= 1
        with pytest.raises(DomainError, match=message):
            BUILDS[route](a_text, n)
        assert passes_seen == []

    def test_negative_a_rejected(self):
        with pytest.raises(DomainError):
            build_recurrence_table("-1", 4)

    @pytest.mark.parametrize("a_text, route, message", [
        ("nan", "build_recurrence_table", "must be a finite number >= 0"),
        ("inf", "build_recurrence_table", "must be a finite number >= 0"),
        ("-1", "build_recurrence_table", "must be a finite number >= 0"),
        ("0", "build_recurrence_table", None),
        ("nan", "orbit_recurrence_table", "must be a finite number >= 0"),
        ("inf", "orbit_recurrence_table", "must be a finite number >= 0"),
        ("-1", "orbit_recurrence_table", "must be a finite number >= 0"),
        ("0", "orbit_recurrence_table", "orbit iteration requires a > 0"),
    ])
    def test_both_builders_check_the_half_width_with_one_message(self, a_text, route,
                                                                 message):
        # both parse a once, and a value that is not finite and >= 0 fails
        # there with check_half_width's message; a = 0 is the Hermite weight, which
        # only the orbit, dividing by R_{n-1}, cannot take
        build = getattr(difference_eqs if route.startswith("orbit") else orthopoly, route)
        if message is None:
            assert build(a_text, 4).a == 0
        else:
            with pytest.raises(DomainError, match=message):
                build(a_text, 4)


class TestOrthogonality:
    def test_moment_space_orthogonality(self):
        # <P_n, x^k> = sum_j c_j mu_{j+k}: zero for k < n, h_n at k = n
        table = build_recurrence_table("0.7", 6, WIDE_POLICY)
        bits = table.working_bits
        rows = monic_coefficient_rows(table, 6, bits)
        with mp.workprec(bits):
            a = mp.mpf("0.7")
            for n in range(1, 7):
                coeffs = rows[n]
                h_n = table.h[n]
                for k in range(n + 1):
                    inner = mp.mpf(0)
                    scale = h_n
                    for j, c in enumerate(coeffs):
                        if c != 0:
                            term = c * gamma_moment(j + k, a)
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
                p_n = ladder_states(table)[n].p
                assert abs(direct - p_n) / abs(p_n) < mp.mpf(10) ** -140


def hankel_product(table, n):
    """D_n = h_0 h_1 ... h_{n-1}, the n x n moment determinant."""
    with mp.workprec(table.working_bits):
        return mp.fprod(table.h[j] for j in range(n))


class TestHankelDeterminant:
    def test_against_lu_of_moment_matrix(self):
        # independent route: det of the raw (mu_{i+j}) matrix via mpmath LU
        table = build_recurrence_table("0.7", 5, WIDE_POLICY)
        bits = table.working_bits
        for n in (2, 3, 5):
            with mp.workprec(bits):
                a = mp.mpf("0.7")
                M = mp.matrix(n, n)
                for i in range(n):
                    for j in range(n):
                        M[i, j] = gamma_moment(i + j, a)
                ref = mp.det(M)
                got = hankel_product(table, n)
                assert abs(got - ref) / abs(ref) < mp.mpf(10) ** -120


class TestEdgeValues:
    def test_edge_signs_follow_period_four_pattern(self, table_a1):
        # at a = 1: P_n(a) signs go +, +, -, -, +, +, -, - ...
        signs = [1 if s.Pn_at_a > 0 else -1 for s in ladder_states(table_a1)[:9]]
        expected = [1, 1, -1, -1, 1, 1, -1, -1, 1]
        assert signs == expected

    def test_degree_bounds(self, table_a1):
        with pytest.raises(DomainError):
            ladder_states(table_a1, table_a1.n_max + 1)
        with pytest.raises(DomainError):
            ladder_states(table_a1, -1)
