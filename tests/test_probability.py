"""Gap probability routes: quadrature, determinants, anchors, agreement."""

import hashlib

import mpmath as mp
from mpmath.calculus.quadrature import GaussLegendre
import pytest

from gue_gap_lab import DomainError, PrecisionPolicy, QuadratureConvergenceError, probability
from gue_gap_lab.probability import (
    default_quad_order,
    det_identity_minus,
    fredholm_bits,
    gap_probability_fredholm,
    gap_probability_hankel,
    gauss_legendre_rule,
    hankel_probabilities,
    hermite_function_values,
    overlap_matrix,
    probability_record,
    residual_oracle,
)

ERFC_1 = "0.157299207050285130658779364917390740703933002"


class TestQuadrature:
    def test_weights_sum_to_two(self):
        nodes, weights = gauss_legendre_rule(24, 512)
        with mp.workprec(512):
            total = mp.fsum(weights)
            assert abs(total - 2) < mp.mpf(10) ** -140

    def test_nodes_antisymmetric(self):
        nodes, _ = gauss_legendre_rule(24, 512)
        with mp.workprec(512):
            for k in range(len(nodes)):
                assert abs(nodes[k] + nodes[-1 - k]) < mp.mpf(10) ** -140

    def test_polynomial_exactness(self):
        # an order-m rule integrates monomials up to degree 2m - 1
        order = 12
        nodes, weights = gauss_legendre_rule(order, 512)
        with mp.workprec(512):
            for k in (0, 2, 10, 22):
                got = mp.fsum(w * x ** k for x, w in zip(nodes, weights))
                exact = mp.mpf(2) / (k + 1)
                assert abs(got - exact) / exact < mp.mpf(10) ** -130
            # one degree past the guarantee must fail clearly
            got = mp.fsum(w * x ** 24 for x, w in zip(nodes, weights))
            exact = mp.mpf(2) / 25
            assert abs(got - exact) / exact > mp.mpf(10) ** -10

    def test_rule_is_cached(self):
        r1 = gauss_legendre_rule(16, 256)
        r2 = gauss_legendre_rule(16, 256)
        assert r1 is r2

    def test_against_mpmath_rule(self):
        # mpmath's degree-5 Gauss-Legendre rule has 3 * 2^4 = 48 nodes
        nodes, weights = gauss_legendre_rule(48, 512)
        ref = sorted(GaussLegendre(mp.mp).calc_nodes(5, 512))
        assert len(ref) == len(nodes) == 48
        with mp.workprec(512):
            for x, w, (x_ref, w_ref) in zip(nodes, weights, ref):
                assert abs(x - x_ref) < mp.mpf(10) ** -140
                assert abs(w - w_ref) < mp.mpf(10) ** -140

    @pytest.mark.parametrize("order, digest", [
        (52, "510cf593c42d283c9a0f3de792c1dae4f09c4a04bfcd83e23dcd929e638bc23f"),
        (104, "498906c63952bcd15c3676369bc49532231d19ed29126706aac012d38904c7b4"),
    ])
    def test_verify_cell_rules_are_pinned(self, order, digest):
        # the rule pair of orders 52 and 104 (n = 3, a <= 2) at 1328 bits:
        # its rounded nodes and weights, byte for byte
        def raw(values):
            return [(s, int(m), e, bc) for s, m, e, bc in (v._mpf_ for v in values)]

        nodes, weights = gauss_legendre_rule(order, 1328)
        text = repr((raw(nodes), raw(weights)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_newton_failure_is_an_error(self, monkeypatch):
        # from x = 5 Newton creeps towards the largest root by about x / order
        # per step, far too slowly to converge within its step budget
        monkeypatch.setattr(probability, "_GL_CACHE", {})
        monkeypatch.setattr(probability, "_initial_guess", lambda k, order: 5.0)
        with pytest.raises(QuadratureConvergenceError, match="did not converge"):
            gauss_legendre_rule(48, 256)
        assert probability._GL_CACHE == {}

    def test_order_grows_with_n(self):
        assert default_quad_order(10, "1") > default_quad_order(1, "1")
        # unchanged up to a = 2, then growing with a
        assert default_quad_order(3, "0.5") == default_quad_order(3, "2") == 52
        assert default_quad_order(1, "6") > default_quad_order(1, "5") > default_quad_order(1, "2.5")


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
        # the cached coefficients are the same roundings in the same order
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

    def test_orthonormality_via_quadrature(self):
        # integrate phi_i phi_j over [-12, 12]: the tail beyond is < 1e-31,
        # and a 256-node rule resolves the Gaussian to far below that
        bits = 448
        half = 12
        nodes, weights = gauss_legendre_rule(256, bits)
        with mp.workprec(bits):
            acc = [[mp.mpf(0)] * 3 for _ in range(3)]
            for node, w in zip(nodes, weights):
                x = node * half
                vals = hermite_function_values(3, x, bits)
                for i in range(3):
                    for j in range(3):
                        acc[i][j] += w * half * vals[i] * vals[j]
            for i in range(3):
                for j in range(3):
                    target = 1 if i == j else 0
                    assert abs(acc[i][j] - target) < mp.mpf(10) ** -25


class TestDeterminant:
    def test_against_mpmath_lu(self):
        # every leading principal minor against mpmath's LU of the block
        bits = 512
        G = overlap_matrix(4, "0.9", 40, bits)
        minors = det_identity_minus(G, bits)
        assert len(minors) == 4
        with mp.workprec(bits):
            for k in range(1, 5):
                M = mp.matrix(k, k)
                for i in range(k):
                    for j in range(k):
                        M[i, j] = G[i][j]
                ref = mp.det(mp.eye(k) - M)
                assert abs(minors[k - 1] - ref) / abs(ref) < mp.mpf(10) ** -120

    def test_non_positive_pivot_is_a_quadrature_failure(self):
        # I - G with an overlap of 1 on the diagonal is not positive definite
        bits = 128
        with mp.workprec(bits):
            G = [[mp.mpf("0.5"), mp.mpf(0)], [mp.mpf(0), mp.mpf(1)]]
        with pytest.raises(QuadratureConvergenceError):
            det_identity_minus(G, bits)

    @pytest.mark.parametrize("n, a_text, order, bits", [
        (1, "0.5", 40, 256), (6, "1.1", 45, 384), (9, "2.5", 76, 800),
        (4, "5", 129, 1328), (5, "0.7", 52, 1328),
    ])
    def test_parity_fold_matches_the_full_node_sum(self, n, a_text, order, bits):
        # reference: every node, every entry with m >= l, one fsum each
        nodes, weights = gauss_legendre_rule(order, bits)
        ref = [[None] * n for _ in range(n)]
        with mp.workprec(bits):
            av = mp.mpf(a_text)
            rows = [hermite_function_values(n, av * t, bits) for t in nodes]
            for l in range(n):
                for m in range(l, n):
                    ref[l][m] = ref[m][l] = av * mp.fsum(
                        w * row[l] * row[m] for w, row in zip(weights, rows))
        G = overlap_matrix(n, a_text, order, bits)
        assert [[v._mpf_ for v in row] for row in G] == [[v._mpf_ for v in row] for row in ref]
        assert all(G[l][m] == 0 for l in range(n) for m in range(n) if (l + m) % 2)

    def test_overlap_matrix_symmetric(self):
        bits = 384
        G = overlap_matrix(5, "1.1", 44, bits)
        with mp.workprec(bits):
            for i in range(5):
                for j in range(5):
                    assert abs(G[i][j] - G[j][i]) < mp.mpf(10) ** -100


class TestRoutes:
    def test_erfc_anchor(self):
        for a_text in ("0.1", "0.5", "1", "2"):
            p = gap_probability_hankel(1, a_text)
            with mp.workprec(p.precision_bits):
                ref = mp.erfc(mp.mpf(a_text))
                assert abs(p.value - ref) / ref < mp.mpf(10) ** -30

    def test_erfc_anchor_frozen_digits(self):
        p = gap_probability_hankel(1, "1")
        with mp.workprec(512):
            assert abs(p.value - mp.mpf(ERFC_1)) / mp.mpf(ERFC_1) < mp.mpf(10) ** -44

    def test_probability_in_unit_interval_and_decreasing_in_n(self):
        from gue_gap_lab import build_recurrence_table

        table = build_recurrence_table("0.8", 7)
        prev = mp.mpf(1)
        for n in range(1, 8):
            p = gap_probability_hankel(n, table=table)
            assert 0 < p.value < 1
            assert p.value < prev
            prev = p.value

    def test_routes_agree(self):
        for n, a_text in ((2, "0.5"), (4, "1"), (6, "1.5")):
            rec = probability_record(n, a_text)
            assert rec.rel_discrepancy < 1e-25

    def test_oracle_report(self):
        rep = residual_oracle(3, "0.8")
        assert [(c.name, c.n) for c in rep.checks] == [("route_agreement", k) for k in (1, 2, 3)]
        assert rep.all_pass
        assert rep.worst < 1e-12

    def test_oracle_builds_one_rule_pair_for_every_n(self):
        probability._GL_CACHE.clear()
        rep = residual_oracle(4, "0.9")
        assert len(rep.checks) == 4 and rep.all_pass
        assert len(probability._GL_CACHE) == 2

    def test_fredholm_convergence_guard(self, monkeypatch):
        monkeypatch.setattr(probability, "default_quad_order", lambda n, a: 6)
        monkeypatch.setattr(probability, "QUAD_CONVERGENCE_TOL", 1e-60)
        with pytest.raises(QuadratureConvergenceError):
            gap_probability_fredholm(4, "1", prec_bits=64)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gap_probability_hankel(-1, "1")
        with pytest.raises(DomainError):
            gap_probability_fredholm(0, "1")
        with pytest.raises(DomainError):
            gap_probability_hankel(3, None)

    def test_zero_gap_is_certain(self):
        p = gap_probability_hankel(5, "0")
        with mp.workprec(p.precision_bits):
            assert abs(p.value - 1) < mp.mpf(10) ** -150

    def test_one_running_product_serves_every_size(self):
        # each P(k, a) is the product prod_{j<k} h_j / h_j(0), formed in
        # order at the table's bits, whichever size asks for it
        from gue_gap_lab import build_recurrence_table, hermite_norm_exact

        table = build_recurrence_table("0.9", 8)
        bits = table.working_bits
        probs = hankel_probabilities(table, 9)
        assert len(probs) == 10
        with mp.workprec(bits):
            for k in range(10):
                ref = mp.mpf(1)
                for j in range(k):
                    ref *= table.h[j].value / hermite_norm_exact(j, bits).value
                assert probs[k]._mpf_ == ref._mpf_
                assert gap_probability_hankel(k, table=table).value._mpf_ == ref._mpf_
        with pytest.raises(DomainError):
            hankel_probabilities(table, 10)

    def test_table_reuse_matches_fresh_build(self):
        from gue_gap_lab import build_recurrence_table

        table = build_recurrence_table("1.2", 6)
        via_table = gap_probability_hankel(4, table=table)
        fresh = gap_probability_hankel(4, "1.2")
        with mp.workprec(min(via_table.precision_bits, fresh.precision_bits)):
            rel = abs(via_table.value - fresh.value) / fresh.value
            assert rel < mp.mpf(10) ** -100


class TestPrecisionRule:
    def test_digits_plus_loss_rounded_to_64_bits(self):
        # 40 digits are 133 bits; P = 2^-100 at n = 1 adds 100 bits of loss
        assert fredholm_bits(1, 1, 40) == 192
        assert fredholm_bits(1, mp.mpf(2) ** -100, 40) == 256
        assert fredholm_bits(4, mp.mpf(2) ** -100, 40) == 256
        assert fredholm_bits(4, mp.mpf(2) ** -124, 40) == 320
        assert fredholm_bits(1, 1, 1) == 64
        with pytest.raises(DomainError):
            fredholm_bits(0, 1, 40)

    @pytest.mark.parametrize("a_text, n", [("3", 10), ("6", 4), ("5", 1), ("2", 25)])
    def test_hard_cells_agree_with_the_hankel_route(self, a_text, n):
        # wide gaps and large n, where I - G_n loses the most bits
        p_h = gap_probability_hankel(n, a_text)
        bits = fredholm_bits(n, p_h, 40)
        p_f = gap_probability_fredholm(n, a_text, prec_bits=bits)[-1]
        assert p_f.precision_bits == bits
        with mp.workprec(p_h.precision_bits):
            assert abs(p_h.value - p_f.value) / p_h.value < mp.mpf(10) ** -40

    def test_nearby_cells_share_one_rule_pair(self, monkeypatch):
        # a = 0.7 and 1.1 need 138 and 142 bits, both rounded to 192
        monkeypatch.setattr(probability, "_GL_CACHE", {})
        assert residual_oracle(3, "0.7").all_pass
        assert residual_oracle(3, "1.1").all_pass
        assert len(probability._GL_CACHE) == 2
