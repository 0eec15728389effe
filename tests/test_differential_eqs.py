"""Differential-equation suite: stencils, grids, residuals, convergence."""

import hashlib

import mpmath as mp
import pytest

from gue_gap_lab import DomainError, PrecisionPolicy, build_recurrence_table, cli, differential_eqs
from gue_gap_lab.differential_eqs import (
    MIN_GRID_BITS,
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
from gue_gap_lab.probability import hankel_probabilities

ALL_CHECK_NAMES = {
    "norm_log_deriv", "beta_log_deriv", "hankel_log_deriv", "prob_log_deriv",
    "subleading_deriv", "beta_deriv",
    "r_slope", "R_slope",
    "painleve4_R",
    "sigma_slope", "riccati_product", "R_root_plus", "R_root_minus",
    "discriminant", "sigma_ode",
    "chazy",
}
NAMES = ("h", "beta", "R", "r", "sigma", "p")


def _source_digest(source):
    """sha256 of the repr of every derivs(name, n) triple's _mpf_ tuples,
    for every name and n, and of every dlog_d entry."""
    rows = [[x._mpf_ for x in source.derivs(name, n)]
            for name in NAMES for n in range(source.n_max + 1)]
    rows.append([x._mpf_ for x in source.dlog_d])
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class TestStencils:
    def test_exact_on_degree_six_polynomial(self):
        bits = 512
        h = "0.5"
        with mp.workprec(bits):
            samples = [(mp.mpf(2) + k * mp.mpf(h)) ** 6 for k in range(-3, 4)]
        d1 = fd_derivative(samples, 1, h, bits)
        d2 = fd_derivative(samples, 2, h, bits)
        with mp.workprec(bits):
            # 6 x^5 and 30 x^4 at x = 2; only stencil-weight rounding remains
            assert abs(d1 - 192) / 192 < mp.mpf(2) ** (40 - bits)
            assert abs(d2 - 480) / 480 < mp.mpf(2) ** (40 - bits)

    def test_truncation_scales_as_h6_on_exp(self):
        bits = 700
        errs = []
        for h in ("1e-2", "1e-3"):
            with mp.workprec(bits):
                hv = mp.mpf(h)
                samples = [mp.exp(1 + k * hv) for k in range(-3, 4)]
                d1 = fd_derivative(samples, 1, h, bits)
                errs.append(abs(d1 - mp.exp(mp.mpf(1))))
        ratio = float(errs[0] / errs[1])
        assert 3e5 < ratio < 3e7  # h^6 means a factor near 1e6 per decade

    def test_input_validation(self):
        bits = 256
        samples = [mp.mpf(k) for k in range(7)]
        with pytest.raises(DomainError):
            fd_derivative(samples[:5], 1, "0.1", bits)
        with pytest.raises(DomainError):
            fd_derivative(samples, 3, "0.1", bits)
        with pytest.raises(DomainError):
            fd_derivative(samples, 1, "-0.1", bits)


class TestGrid:
    def test_grid_shape_and_precision_floor(self, grid_a1):
        assert grid_a1.bits >= 700
        assert set(grid_a1.columns) == set(NAMES)
        for column in grid_a1.columns.values():
            assert len(column) == grid_a1.n_max + 1
            assert all(len(triple) == 3 for triple in column)

    # digests taken when the grid kept its node tables and formed the two
    # differences on every derivs call
    @pytest.mark.parametrize("args, kwargs, digest", [
        (("1", 5), {},
         "26248555e4c89330fb30f896282c6f5e3b0688f46550ef1d4654975685c4b4a5"),
        (("0.3", 10), {"h": "1e-7"},
         "eda5bb6d68d63cd68fa4365cff642d1941926de17f5acff8d5949d64b3ab21ca"),
        (("1", 5, PrecisionPolicy(max_bits=700)), {},
         "26248555e4c89330fb30f896282c6f5e3b0688f46550ef1d4654975685c4b4a5"),
    ], ids=["a1", "a0.3-h1e-7", "a1-max700"])
    def test_derivatives_are_pinned(self, args, kwargs, digest):
        assert _source_digest(build_a_grid(*args, **kwargs)) == digest

    def test_log_d_slopes_keep_the_fsum_bits(self, grid_a1):
        with mp.workprec(grid_a1.bits):
            for n, value in enumerate(grid_a1.dlog_d):
                ref = mp.fsum(d / v for v, d, _ in (grid_a1.derivs("h", j) for j in range(n)))
                assert value._mpf_ == ref._mpf_

    def test_nodes_must_stay_positive(self):
        with pytest.raises(DomainError):
            build_a_grid("1e-9", 3)

    def test_ceiling_at_the_grid_floor_is_lifted_above_it(self):
        # the grid's tables start at its 700-bit floor, so a 700-bit ceiling
        # is lifted 64 bits, to room for the floor's check pass
        grid = build_a_grid("1", 5, PrecisionPolicy(max_bits=700))
        assert grid.bits == 764

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
                r, R = grid_a1.derivs("r", n)[0], grid_a1.derivs("R", n)[0]
                dr = 2 * r * r / R - (n + r) * R
                disc = dr * dr + 8 * r * r * (n + r)
                assert disc > 0

    def test_monotonicity_transfer(self, grid_a1):
        # sigma_n < 0 for n >= 1, and P(n, .) strictly decreases, locally
        # across the 7 nodes of the default grid at a = 1 and globally across
        # separated half-widths
        n = 4
        assert grid_a1.derivs("sigma", n)[0] < 0
        policy = PrecisionPolicy(base_bits=MIN_GRID_BITS)
        with mp.workprec(MIN_GRID_BITS + 64):
            nodes = [1 + k * mp.mpf("1e-8") for k in range(-STENCIL_HALFWIDTH, STENCIL_HALFWIDTH + 1)]
        probs = [hankel_probabilities(build_recurrence_table(v, n, policy), n)[n] for v in nodes]
        with mp.workprec(MIN_GRID_BITS):
            for lo, hi in zip(probs[1:], probs[:-1]):
                assert lo < hi
        coarse = [hankel_probabilities(build_recurrence_table(a, n - 1), n)[n]
                  for a in ("0.5", "1", "2")]
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

    @pytest.mark.parametrize("a_text, n_max", [
        ("0.1", 25), ("3", 25), ("0.3", 6), ("0.7", 6), ("1.1", 6), ("2.5", 6),
        ("1", 60), ("8", 60), ("1", 150), ("1e-20", 1), ("1e-100", 1), ("1", 0),
    ])
    def test_log_d_slopes_keep_the_fsum_bits(self, a_text, n_max):
        # the cells of the CI verify commands, built as verify builds them
        policy = cli._verify_policy(PrecisionPolicy(), a_text)
        source = jet_source(build_recurrence_table(a_text, n_max + 1, policy, jets=True))
        assert len(source.dlog_d) == n_max + 2
        with mp.workprec(source.bits):
            for n, value in enumerate(source.dlog_d):
                ref = mp.fsum(d / v for v, d, _ in (source.derivs("h", j) for j in range(n)))
                assert value._mpf_ == ref._mpf_

    # digests taken when the source kept the jets and read each triple from
    # them on every derivs call; the cells of the CI verify commands, built
    # as verify builds them
    @pytest.mark.parametrize("a_text, n_max, digest", [
        ("0.7", 3, "c614c4967b5d69e1ea09fa52b568d2b2682f7988c8fe935059f35050bfb0a11b"),
        ("1.1", 3, "f91c6077397949685613d27133606b5f421fdc69ad9147ae1ac9cb0ea1bdb873"),
        ("0.1", 25, "23f2cb86c3216a63368245c2c055c216c727ffe0c6c9cec26679987a0c4037f3"),
        ("3", 25, "6e601169ea869bb21b056df7f3172ef4cbaf2365dd3bb860ffff6bc2bc63432e"),
        ("1e-20", 1, "6cf797166168ef0697f177fceb7117dc0d22e439c0762e505820ad9440c714c8"),
    ])
    def test_derivatives_are_pinned(self, a_text, n_max, digest):
        policy = cli._verify_policy(PrecisionPolicy(), a_text)
        source = jet_source(build_recurrence_table(a_text, n_max + 1, policy, jets=True))
        assert _source_digest(source) == digest

    def test_needs_a_table_with_jets(self, table_a1):
        with pytest.raises(DomainError):
            jet_source(table_a1)


# the slopes of the study below, taken when the grid formed its differences
# on every derivs call
PINNED_SLOPES = {
    "norm_log_deriv": 5.99999999999897, "beta_log_deriv": 6.000000000000242,
    "hankel_log_deriv": 5.99999999999001, "prob_log_deriv": 5.99999999999001,
    "subleading_deriv": 5.999999999988049, "beta_deriv": 6.000000000000249,
    "r_slope": 6.000000000000242, "R_slope": 6.000000000000497,
    "painleve4_R": 5.999999999999041, "sigma_slope": 5.999999999970598,
    "riccati_product": 6.000000000000249, "R_root_plus": 6.000000000000242,
    "R_root_minus": 6.000000000000242, "discriminant": 6.000000000000242,
    "sigma_ode": 5.999999999998614, "chazy": 5.999999999998543,
}


class TestConvergence:
    @pytest.fixture(scope="class")
    def slopes(self):
        return convergence_study("1", 2, h_values=("1e-6", "1e-7"), n_max=3)

    def test_slopes_near_six(self, slopes):
        assert set(slopes) == ALL_CHECK_NAMES
        for name, slope in slopes.items():
            assert 5.4 < slope < 6.6, f"{name}: slope {slope}"

    def test_slopes_are_pinned(self, slopes):
        assert slopes == PINNED_SLOPES

    @pytest.mark.parametrize("h_values", [(), ("1e-6",), ("1e-7", "1e-7")],
                             ids=["none", "one", "repeated"])
    def test_fewer_than_two_distinct_steps_are_refused(self, h_values, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(differential_eqs, "build_a_grid", no_grid)
        with pytest.raises(DomainError, match="two distinct steps") as info:
            convergence_study("1", 2, h_values=h_values)
        assert "\n" not in str(info.value)
