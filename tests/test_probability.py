"""Gap probability routes: the Fredholm pass, its minors, anchors, agreement."""

import functools
import math

import mpmath as mp
import pytest

from gue_gap_lab import (
    DomainError,
    PrecisionExhaustedError,
    PrecisionPolicy,
    build_recurrence_table,
    orthopoly,
    precision,
    probability,
)
from gue_gap_lab.difference_eqs import orbit_recurrence_table
from gue_gap_lab.precision import NonPositiveNorm
from gue_gap_lab.probability import (
    _fredholm_pass,
    gap_probability_fredholm,
    hankel_probabilities,
    hermite_function_values,
    probability_record,
    residual_oracle,
)

ERFC_1 = "0.157299207050285130658779364917390740703933002"


def gauss_legendre(order, bits):
    """Nodes and weights of the order-point Gauss-Legendre rule on (-1, 1):
    Newton on the Legendre three-term recurrence from the Tricomi guess."""
    nodes, weights = [], []
    with mp.workprec(bits + 32):
        tol = mp.mpf(2) ** -(bits + 16)
        for k in range(1, order + 1):
            x = mp.cos(mp.pi * (k - mp.mpf(1) / 4) / (order + mp.mpf(1) / 2))
            for _ in range(64):
                p_prev, p = mp.mpf(1), x
                for l in range(2, order + 1):
                    p_prev, p = p, ((2 * l - 1) * x * p - (l - 1) * p_prev) / l
                dp = order * (x * p - p_prev) / (x * x - 1)
                step = p / dp
                x -= step
                if abs(step) < tol:
                    break
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


def quad_overlaps(n, a_text, bits):
    """C[j][k] = integral_{|x| > a} phi_j phi_k dx for j + k even by mpmath's
    quadrature over (-inf, -a] and [a, inf), and 0 for j + k odd.  Every
    entry's quadrature meets the same nodes, so the Hermite functions are
    formed once per node."""
    phi = functools.lru_cache(maxsize=None)(lambda x: hermite_function_values(n, x, bits))
    C = [[mp.mpf(0)] * n for _ in range(n)]
    with mp.workprec(bits):
        av = mp.mpf(a_text)
        for j in range(n):
            for k in range(j, n, 2):
                C[j][k] = C[k][j] = sum(mp.quad(lambda x: phi(x)[j] * phi(x)[k], span)
                                        for span in ([-mp.inf, -av], [av, mp.inf]))
    return C


def node_sum_overlaps(n, a_text, order, bits):
    """I minus the order-point Gauss-Legendre sum of phi_j phi_k over (-a, a),
    over every node and every entry, j + k odd included."""
    nodes, weights = gauss_legendre(order, bits)
    C = [[None] * n for _ in range(n)]
    with mp.workprec(bits):
        av = mp.mpf(a_text)
        rows = [hermite_function_values(n, av * t, bits) for t in nodes]
        for j in range(n):
            for k in range(j, n):
                C[j][k] = C[k][j] = (j == k) - av * mp.fsum(
                    w * row[j] * row[k] for w, row in zip(weights, rows))
    return C


def worst_minor_error(C, minors, bits):
    """The worst relative difference of ``minors`` from mpmath's LU
    determinants of the leading blocks of C."""
    with mp.workprec(bits):
        return max(abs(m - mp.det(mp.matrix([row[:k] for row in C[:k]]))) / m
                   for k, m in enumerate(minors, start=1))


def dense_minors(n, a_text, bits):
    """The leading minors the way the Fredholm route once formed them: every
    entry of C filled by the overlap recurrence, C[0][0] = erfc(a) and, for
    j + k even and j <= k,
    C[j][k] = (sqrt(j) C[j-1][k-1] + sqrt(2) phi_j(a) phi_{k-1}(a)) / sqrt(k),
    then an LDL^T over the lower triangle of the pivot's parity."""
    with mp.workprec(bits):
        av = mp.mpf(a_text)
        phi = hermite_function_values(n, av, bits)
        roots, sqrt2 = [mp.sqrt(j) for j in range(n)], mp.sqrt(2)
        C = [[mp.mpf(0)] * n for _ in range(n)]
        C[0][0] = mp.erfc(av)
        for j in range(n):
            for k in range(j or 2, n, 2):
                edge = sqrt2 * phi[j] * phi[k - 1]
                inner = roots[j] * C[j - 1][k - 1] + edge if j else edge
                C[j][k] = C[k][j] = inner / roots[k]
        minors, det = [], mp.mpf(1)
        for k in range(n):
            det *= C[k][k]
            minors.append(det)
            for i in range(k + 2, n, 2):
                f = C[i][k] / C[k][k]
                for j in range(k + 2, i + 1, 2):
                    C[i][j] -= f * C[j][k]
        return minors


def watch_fredholm_passes(monkeypatch):
    """Record (n, a, bits) of every Fredholm pass the routes run."""
    built = []
    exact = probability._fredholm_pass

    def watched(a, n, bits):
        built.append((n, a, bits))
        return exact(a, n, bits)

    monkeypatch.setattr(probability, "_fredholm_pass", watched)
    return built


class TestHermiteFunctions:
    def test_first_two_against_closed_forms(self):
        bits = 512
        with mp.workprec(bits):
            x = mp.mpf("0.7")
            vals = hermite_function_values(3, x, bits)
            phi0 = mp.pi ** mp.mpf("-0.25") * mp.exp(-x * x / 2)
            phi1 = mp.sqrt(2) * x * phi0
            assert abs(vals[0] - phi0) / phi0 < mp.mpf(10) ** -140
            assert abs(vals[1] - phi1) / phi1 < mp.mpf(10) ** -140

    def test_matches_the_uncached_recurrence(self):
        # the textbook recurrence, rounding for rounding
        bits = 384
        with mp.workprec(bits):
            x = mp.mpf("-1.3")
            ref = [mp.exp(-x * x / 2) / mp.sqrt(mp.sqrt(mp.pi))]
            ref.append(mp.sqrt(mp.mpf(2)) * x * ref[0])
            for l in range(1, 7):
                ref.append(
                    mp.sqrt(mp.mpf(2) / (l + 1)) * x * ref[l]
                    - mp.sqrt(mp.mpf(l) / (l + 1)) * ref[l - 1]
                )
        vals = hermite_function_values(8, x, bits)
        assert [v._mpf_ for v in vals] == [r._mpf_ for r in ref]

    def test_count_zero_is_empty_and_negative_count_is_refused(self):
        assert hermite_function_values(0, mp.mpf("0.7"), 128) == []
        assert len(hermite_function_values(1, mp.mpf("0.7"), 128)) == 1
        with pytest.raises(DomainError):
            hermite_function_values(-1, mp.mpf("0.7"), 128)
        with pytest.raises(DomainError):
            hermite_function_values(-2, mp.mpf("0.7"), 128)

    def test_orthonormality_via_quadrature(self):
        # integrate phi_i phi_j over [-12, 12]: the tail beyond is < 1e-31
        bits = 160
        half = 12
        with mp.workprec(bits):
            for i in range(3):
                for j in range(i, 3):
                    got = mp.quad(lambda x: (lambda v: v[i] * v[j])(
                        hermite_function_values(3, x, bits)), [-half, 0, half])
                    target = 1 if i == j else 0
                    assert abs(got - target) < mp.mpf(10) ** -25


class TestOverlapMatrix:
    @pytest.mark.parametrize("n, a_text", [(6, "0.5"), (12, "2.5"), (8, "4")])
    def test_entries_against_mpmath_quad(self, n, a_text):
        # the entries the pass's generators and diagonal recurrence stand
        # for, against direct quadrature: (k - j) C[j][k] = u_j w_k - w_j u_k
        # with u_j = sqrt(2) phi_j(a), w_j = sqrt(j) phi_{j-1}(a), and
        # C[k][k] - C[k-1][k-1] = sqrt(2/k) phi_k(a) phi_{k-1}(a)
        bits = 256
        C = quad_overlaps(n, a_text, bits)
        with mp.workprec(bits):
            av = mp.mpf(a_text)
            phi = hermite_function_values(n, av, bits)
            u = [mp.sqrt(2) * p for p in phi]
            w = [mp.mpf(0)] + [mp.sqrt(j) * phi[j - 1] for j in range(1, n)]
            tol = mp.mpf(2) ** -240
            assert abs(C[0][0] - mp.erfc(av)) < tol
            for k in range(1, n):
                edge = mp.sqrt(mp.mpf(2) / k) * phi[k] * phi[k - 1]
                assert abs(C[k][k] - C[k - 1][k - 1] - edge) < tol
                for j in range(k % 2, k, 2):
                    assert abs((k - j) * C[j][k] - (u[j] * w[k] - w[j] * u[k])) < n * tol

    @pytest.mark.parametrize("a_text", ["0.1", "1.3", "6"])
    def test_doubling_the_bits_moves_no_entry(self, a_text):
        # no minor of the pass moves by more than its fitted loss when the
        # bits double
        n, bits = 20, 320
        lo, hi = _fredholm_pass(a_text, n, bits), _fredholm_pass(a_text, n, 2 * bits)
        loss = precision.loss_digits("fredholm", a_text, n) + precision.LOSS_MARGIN_DIGITS
        with mp.workprec(2 * bits):
            worst = max(abs(x - y) / y for x, y in zip(lo, hi))
        assert worst < mp.mpf(10) ** loss * mp.mpf(2) ** -bits

    def test_zero_gap_is_the_zero_matrix(self):
        # the overlaps over a gap of zero width, I - C, are exactly zero:
        # every boundary term holds a factor phi_odd(0) = 0, so every minor
        # of C is exactly 1
        assert all(m == 1 for m in _fredholm_pass("0", 12, 128))


class TestDeterminant:
    def test_against_mpmath_lu(self):
        # every leading principal minor against mpmath's LU of the block of
        # the quadrature-built C
        bits = 384
        minors = _fredholm_pass("0.9", 4, bits)
        assert len(minors) == 4
        assert worst_minor_error(quad_overlaps(4, "0.9", bits), minors, bits) < mp.mpf(10) ** -100

    @pytest.mark.parametrize("n, a_text", [(12, "2.5"), (9, "0.7"), (60, "1"), (150, "1"), (60, "8")])
    def test_parity_skip_matches_dense_elimination(self, n, a_text):
        # elimination on the generators against the filled C and its LDL^T,
        # at 300 bits, and 450 at a = 8, where C_60 loses about 60 digits
        bits = 450 if a_text == "8" else 300
        new, ref = _fredholm_pass(a_text, n, bits), dense_minors(n, a_text, bits)
        with mp.workprec(bits):
            assert max(abs(x - y) / y for x, y in zip(new, ref, strict=True)) < mp.mpf(10) ** -70

    def test_non_positive_pivot_is_a_quadrature_failure(self, monkeypatch):
        # Hermite values for which the second pivot erfc(1) + sqrt(2) phi_1 phi_0
        # is negative: it raises the NonPositiveNorm on which the loop escalates
        monkeypatch.setattr(probability, "hermite_function_values",
                            lambda count, x, bits: [mp.mpf(1), mp.mpf(-1)])
        with pytest.raises(NonPositiveNorm, match="pivot 2") as exc:
            _fredholm_pass("1", 2, 128)
        assert exc.value.index == 2

    @pytest.mark.parametrize("n, a_text, order, bits", [
        (1, "0.5", 40, 256), (6, "1.1", 45, 384), (9, "2.5", 76, 800),
        (4, "5", 129, 1328), (5, "0.7", 52, 1328),
    ])
    def test_parity_fold_matches_the_full_node_sum(self, n, a_text, order, bits):
        # the pass, which never forms the entries with j + k odd, against
        # mpmath's LU of I minus the order-point Gauss-Legendre sum over
        # (-a, a), over every node and every entry; the sum's own truncation
        # error is at most 2e-72 at these orders
        C = node_sum_overlaps(n, a_text, order, bits)
        minors = _fredholm_pass(a_text, n, bits)
        assert worst_minor_error(C, minors, bits) < mp.mpf(10) ** -60
        with mp.workprec(bits):
            assert all(abs(C[j][k]) < mp.mpf(10) ** -60
                       for j in range(n) for k in range(n) if (j + k) % 2)


class TestRoutes:
    def test_erfc_anchor(self):
        for a_text in ("0.1", "0.5", "1", "2"):
            table = build_recurrence_table(a_text, 0)
            p = hankel_probabilities(table, 1)[1]
            with mp.workprec(table.working_bits):
                ref = mp.erfc(mp.mpf(a_text))
                assert abs(p - ref) / ref < mp.mpf(10) ** -30

    def test_erfc_anchor_frozen_digits(self):
        p = hankel_probabilities(build_recurrence_table("1", 0), 1)[1]
        with mp.workprec(512):
            assert abs(p - mp.mpf(ERFC_1)) / mp.mpf(ERFC_1) < mp.mpf(10) ** -44

    def test_probability_in_unit_interval_and_decreasing_in_n(self):
        table = build_recurrence_table("0.8", 7)
        prev = mp.mpf(1)
        for n in range(1, 8):
            p = hankel_probabilities(table, n)[n]
            assert 0 < p < 1
            assert p < prev
            prev = p

    def test_routes_agree(self):
        for n, a_text in ((2, "0.5"), (4, "1"), (6, "1.5")):
            rec = probability_record(n, a_text)
            assert rec.rel_discrepancy < 1e-25

    def test_oracle_report(self):
        rep = residual_oracle(3, "0.8")
        assert [(c.name, c.n) for c in rep.checks] == [("route_agreement", k) for k in (1, 2, 3)]
        assert rep.all_pass
        assert rep.worst < 1e-12

    def test_oracle_builds_one_rule_pair_for_every_n(self, monkeypatch):
        # one C_n at each precision of the cross-precision pair serves
        # every k <= n through its leading minors, from the route's own start
        built = watch_fredholm_passes(monkeypatch)
        rep = residual_oracle(4, "0.9")
        assert len(rep.checks) == 4 and rep.all_pass
        assert len(built) == 2
        start = PrecisionPolicy().start_bits("fredholm", 0.9, 4)
        assert [b[2] for b in built] == [start, start + 64]
        assert all(b[:2] == (4, "0.9") for b in built)

    def test_fredholm_convergence_guard(self, monkeypatch):
        # an error in phi_0(a) that does not shrink as the bits grow, about
        # 1e-28 between the passes of a level, keeps every level below 40
        # digits, so the loop ends at the ceiling
        exact = probability.hermite_function_values

        def perturbed(count, x, bits):
            vals = exact(count, x, bits)
            with mp.workprec(bits):
                vals[0] += mp.ldexp(bits, -100)
            return vals

        policy = PrecisionPolicy(max_bits=2048)
        monkeypatch.setattr(probability, "hermite_function_values", perturbed)
        with pytest.raises(PrecisionExhaustedError, match="certified only 2[78] digits"):
            gap_probability_fredholm(4, "0.5", policy)
        monkeypatch.setattr(probability, "hermite_function_values", exact)
        fredholm = gap_probability_fredholm(4, "0.5", policy)
        assert len(fredholm.value) == 4 and fredholm.certified_digits >= 40

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gap_probability_fredholm(0, "1")

    def test_a_positive_half_width_runs_no_chebyshev_pass(self, monkeypatch):
        # with no table given, the Hankel side is the orbit's, as in `table`
        def refuse(*args, **kwargs):
            raise AssertionError("Chebyshev pass")

        monkeypatch.setattr(orthopoly, "_chebyshev_pass", refuse)
        rec = probability_record(5, "1")
        assert rec.rel_discrepancy < 1e-40
        assert residual_oracle(3, "0.8").all_pass

    @pytest.mark.parametrize("n, a_text", [(1, "1"), (5, "1"), (12, "1e-40"), (30, "6")])
    def test_hankel_side_is_the_orbit_tables_product(self, n, a_text):
        rec = probability_record(n, a_text)
        table = orbit_recurrence_table(a_text, n - 1)
        assert rec.prob_hankel.value._mpf_ == hankel_probabilities(table, n)[n]._mpf_
        assert rec.prob_hankel.bits == table.working_bits

    def test_zero_half_width_gives_one_by_both_routes(self, monkeypatch):
        # the Hankel side is D_n(0) / D_n(0), exactly 1, with no table; each
        # Fredholm product holds a factor phi_odd(0) = 0, so that side is
        # exactly 1 too
        def refuse(*args, **kwargs):
            raise AssertionError("Chebyshev pass")

        monkeypatch.setattr(orthopoly, "_chebyshev_pass", refuse)
        rec = probability_record(3, "0")
        assert rec.prob_hankel.value == 1
        assert rec.prob_fredholm.value == 1
        assert rec.rel_discrepancy == 0

    def test_zero_gap_is_certain(self):
        table = build_recurrence_table("0", 4, PrecisionPolicy(base_bits=512, bits_per_n=32))
        p = hankel_probabilities(table, 5)[5]
        with mp.workprec(table.working_bits):
            assert abs(p - 1) < mp.mpf(10) ** -150

    def test_one_running_product_serves_every_size(self):
        # each P(k, a) is the product prod_{j<k} h_j / h_j(0), formed in
        # order at the table's bits, whichever size asks for it
        table = build_recurrence_table("0.9", 8)
        bits = table.working_bits
        probs = hankel_probabilities(table, 9)
        assert len(probs) == 10
        with mp.workprec(bits):
            for k in range(10):
                ref = mp.mpf(1)
                for j in range(k):
                    h0 = mp.mpf(math.factorial(j)) / mp.mpf(2) ** j * mp.sqrt(mp.pi)
                    ref *= table.h[j] / h0
                assert probs[k]._mpf_ == ref._mpf_
        with pytest.raises(DomainError):
            hankel_probabilities(table, 10)

    def test_table_reuse_matches_fresh_build(self):
        wide = PrecisionPolicy(base_bits=512, bits_per_n=32)
        table = build_recurrence_table("1.2", 6, wide)
        fresh_table = build_recurrence_table("1.2", 3, wide)
        via_table = hankel_probabilities(table, 4)[4]
        fresh = hankel_probabilities(fresh_table, 4)[4]
        with mp.workprec(min(table.working_bits, fresh_table.working_bits)):
            rel = abs(via_table - fresh) / fresh
            assert rel < mp.mpf(10) ** -100


class TestPrecisionRule:
    def test_start_is_target_plus_fredholm_loss(self, monkeypatch):
        # the route starts at the target plus its own fitted loss, or at
        # --prec-bits exactly, and keeps the upper pass of its first level
        policy = PrecisionPolicy()
        for a, n in ((0.7, 3), (8, 60), (1e100, 2)):
            digits = 40 + precision.loss_digits("fredholm", a, n) + precision.LOSS_MARGIN_DIGITS
            assert policy.start_bits("fredholm", a, n) == math.ceil(digits * math.log2(10))
        assert precision.loss_digits("fredholm", 1, 10) < precision.loss_digits("fredholm", 1, 40)
        assert precision.loss_digits("fredholm", 1, 40) < precision.loss_digits("fredholm", 8, 40)
        explicit = PrecisionPolicy(base_bits=200, bits_per_n=8)
        assert explicit.start_bits("fredholm", 8, 60) == 200
        built = watch_fredholm_passes(monkeypatch)
        fredholm = gap_probability_fredholm(3, "1.1", explicit)
        assert [b[2] for b in built] == [200, 264]
        assert (fredholm.working_bits, fredholm.escalations) == (264, 0)

    @pytest.mark.parametrize("a_text, n", [
        ("3", 10), ("6", 4), ("5", 1), ("2", 25), ("8", 60), ("12", 30),
    ])
    def test_hard_cells_agree_with_the_hankel_route(self, a_text, n):
        # wide gaps and large n, where C_n loses the most digits: every
        # minor against the Hankel product over a 4096-bit orbit table
        table = orbit_recurrence_table(a_text, n - 1, PrecisionPolicy(base_bits=4096))
        p_h = hankel_probabilities(table, n)[1:]
        fredholm = gap_probability_fredholm(n, a_text)
        assert fredholm.certified_digits >= 40
        with mp.workprec(table.working_bits):
            for h, f in zip(p_h, fredholm.value, strict=True):
                assert abs(h - f) / h < mp.mpf(10) ** -40

    def test_nearby_cells_share_one_rule_pair(self, monkeypatch):
        # each cell builds C at one pair of precisions: its start bits and
        # CHECK_BITS more, with no escalation
        built = watch_fredholm_passes(monkeypatch)
        assert residual_oracle(3, "0.7").all_pass
        assert residual_oracle(3, "1.1").all_pass
        starts = [PrecisionPolicy().start_bits("fredholm", a, 3) for a in (0.7, 1.1)]
        assert [b[2] for b in built] == [starts[0], starts[0] + 64, starts[1], starts[1] + 64]
