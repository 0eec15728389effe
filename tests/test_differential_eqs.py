"""Differential-equation suite: stencils, grids, residuals, convergence."""

import mpmath as mp
import pytest

from gue_gap_lab import DomainError, Real, build_recurrence_table
from gue_gap_lab.differential_eqs import (
    STENCIL_HALFWIDTH,
    build_a_grid,
    continuous_suite,
    convergence_study,
    fd_derivative,
    jet_source,
    residual_chazy,
    residual_derivative_identities,
    residual_painleve4,
    residual_riccati,
    residual_sigma_form,
)
from gue_gap_lab.probability import gap_probability_hankel

ALL_CHECK_NAMES = {
    "norm_log_deriv", "beta_log_deriv", "hankel_log_deriv", "prob_log_deriv",
    "subleading_deriv", "beta_deriv",
    "r_slope", "R_slope",
    "painleve4_R",
    "sigma_slope", "riccati_product", "R_root_plus", "R_root_minus",
    "discriminant", "sigma_ode",
    "chazy",
}


class TestStencils:
    def test_exact_on_degree_six_polynomial(self):
        bits = 512
        h = "0.5"
        with mp.workprec(bits):
            samples = [Real((mp.mpf(2) + k * mp.mpf(h)) ** 6, bits) for k in range(-3, 4)]
        d1 = fd_derivative(samples, 1, h)
        d2 = fd_derivative(samples, 2, h)
        with mp.workprec(bits):
            # 6 x^5 and 30 x^4 at x = 2; only stencil-weight rounding remains
            assert abs(d1.value - 192) / 192 < mp.mpf(2) ** (40 - bits)
            assert abs(d2.value - 480) / 480 < mp.mpf(2) ** (40 - bits)

    def test_truncation_scales_as_h6_on_exp(self):
        bits = 700
        errs = []
        for h in ("1e-2", "1e-3"):
            with mp.workprec(bits):
                hv = mp.mpf(h)
                samples = [Real(mp.exp(1 + k * hv), bits) for k in range(-3, 4)]
                d1 = fd_derivative(samples, 1, h)
                errs.append(abs(d1.value - mp.exp(mp.mpf(1))))
        ratio = float(errs[0] / errs[1])
        assert 3e5 < ratio < 3e7  # h^6 means a factor near 1e6 per decade

    def test_input_validation(self):
        bits = 256
        samples = [Real.from_str(str(k), bits) for k in range(7)]
        with pytest.raises(DomainError):
            fd_derivative(samples[:5], 1, "0.1")
        with pytest.raises(DomainError):
            fd_derivative(samples, 3, "0.1")
        with pytest.raises(DomainError):
            fd_derivative(samples, 1, "-0.1")


class TestGrid:
    def test_grid_shape_and_precision_floor(self, grid_a1):
        assert len(grid_a1.nodes) == 7
        assert grid_a1.bits >= 700
        with mp.workprec(grid_a1.bits):
            h = grid_a1.h.value
            for k in range(7):
                expect = grid_a1.a0.value + (k - 3) * h
                assert abs(grid_a1.nodes[k].value - expect) < mp.mpf(2) ** (-600)

    def test_nodes_must_stay_positive(self):
        with pytest.raises(DomainError):
            build_a_grid("1e-9", 3)

    def test_step_must_be_positive(self):
        with pytest.raises(DomainError):
            build_a_grid("1", 3, h="0")


class TestResiduals:
    def test_full_suite_passes(self, grid_a1):
        for n in range(1, 5):
            rep = continuous_suite(grid_a1, n)
            assert rep.all_pass, f"n={n}: worst {rep.worst}"
            assert rep.worst < 1e-20

    def test_every_equation_is_checked(self, grid_a1):
        names = {c.name for c in continuous_suite(grid_a1, 3).checks}
        assert names == ALL_CHECK_NAMES

    def test_seed_riccati_at_n_zero(self, grid_a1):
        # with r_0 = 0 the R equation collapses to R' = R^2 - 2aR, which
        # the closed-form seed satisfies exactly
        rep = residual_riccati(grid_a1, 0)
        assert rep.all_pass
        assert rep.worst < 1e-20

    def test_residuals_across_half_widths(self):
        for a_text in ("0.4", "2"):
            grid = build_a_grid(a_text, 3)
            for n in (1, 3):
                for fn in (residual_riccati, residual_painleve4,
                           residual_sigma_form, residual_chazy):
                    rep = fn(grid, n)
                    assert rep.all_pass, f"{fn.__name__} a={a_text} n={n}"

    def test_sigma_form_implication_constant(self, grid_a1):
        # if the chain identities hold to eps, the closed sigma equation
        # must hold to C * eps; C stays modest at generic cells
        C_BOUND = 1e6
        for n in (2, 5):
            rep = residual_sigma_form(grid_a1, n)
            by_name = {c.name: c.residual for c in rep.checks}
            eps = max(by_name["sigma_slope"], by_name["riccati_product"],
                      by_name["R_root_plus"], by_name["R_root_minus"])
            closed = by_name["sigma_ode"]
            assert closed < C_BOUND * eps
            print(f"sigma-form implication at n={n}: eps={mp.nstr(eps, 3)}, "
                  f"closed={mp.nstr(closed, 3)}, "
                  f"C={mp.nstr(closed / eps, 3)} (bound {C_BOUND:g})")

    def test_discriminant_positive(self, grid_a1):
        # (r')^2 + 8 r^2 (n + r) > 0 wherever the branch split is used
        bits = grid_a1.bits
        with mp.workprec(bits):
            for n in range(1, grid_a1.n_max + 1):
                s = grid_a1.states[STENCIL_HALFWIDTH][n]
                r, R = s.r.value, s.R.value
                dr = 2 * r * r / R - (n + r) * R
                disc = dr * dr + 8 * r * r * (n + r)
                assert disc > 0

    def test_monotonicity_transfer(self, grid_a1):
        # sigma_n < 0 for n >= 1, and P(n, .) strictly decreases, locally
        # across the grid nodes and globally across separated half-widths
        n = 4
        with mp.workprec(grid_a1.bits):
            assert grid_a1.states[STENCIL_HALFWIDTH][n].sigma.value < 0
            probs = [gap_probability_hankel(n, table=t).value for t in grid_a1.tables]
            for lo, hi in zip(probs[1:], probs[:-1]):
                assert lo < hi
        coarse = [gap_probability_hankel(n, a).value for a in ("0.5", "1", "2")]
        assert coarse[0] > coarse[1] > coarse[2]


class TestJetSource:
    @pytest.mark.parametrize("a_text", ["0.3", "1", "2"])
    def test_jets_match_the_finite_difference_grid(self, a_text):
        # the grid's h^6 truncation is about 1e-46 here, so agreement to
        # 1e-40 in every component checks value, d/da and d^2/da^2
        grid = build_a_grid(a_text, 5)
        source = jet_source(build_recurrence_table(a_text, 5, jets=True))
        for name in ("h", "beta", "R", "r", "sigma", "p"):
            for n in range(6):
                exact = source.derivs(name, n)
                fd = grid.derivs(name, n)
                with mp.workprec(64):
                    # relative, or against the jet's size where a part is 0
                    # (h_1'' = mu_2'' vanishes at a = 1)
                    size = max(abs(x) for x in exact)
                    for x, y in zip(exact, fd):
                        assert abs(x - y) <= 1e-40 * (abs(x) or size), f"{name}_{n}"

    def test_full_suite_at_working_precision(self):
        source = jet_source(build_recurrence_table("1", 6, jets=True))
        for n in range(1, 6):
            rep = continuous_suite(source, n)
            assert {c.name for c in rep.checks} == ALL_CHECK_NAMES
            assert rep.worst < mp.ldexp(1, -(source.bits - 16))

    def test_needs_a_table_with_jets(self, table_a1):
        with pytest.raises(DomainError):
            jet_source(table_a1)


class TestConvergence:
    def test_slopes_near_six(self):
        slopes = convergence_study("1", 2, h_values=("1e-6", "1e-7"), n_max=3)
        assert set(slopes) == ALL_CHECK_NAMES
        for name, slope in slopes.items():
            assert 5.4 < slope < 6.6, f"{name}: slope {slope}"
