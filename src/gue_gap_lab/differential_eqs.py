"""Differential equations in the gap half-width a.

Every quantity the package computes is, for fixed degree n, a smooth
function of a.  This module checks the differential relations those
functions satisfy:

  first derivatives   d/da ln h_n = -R_n,   d/da ln beta_n = R_{n-1} - R_n,
                      d/da ln D_n = sigma_n,   dp/da = a r_n - (n+r_n) R_n / 2,
                      a closed form for beta_n',
  coupled Riccatis    r' = 2 r^2/R - (n+r) R,
                      R' = 4r + R^2 - 2aR - 2rR/a,
  a single second-order equation for R alone, the sigma-form chain ending
  in a polynomial relation between sigma, sigma', sigma'', and a
  second-order equation for r alone.

The second-order closures are obtained by eliminating one unknown from
the coupled Riccati pair, so they hold exactly on the same data; each is
verified here as an independent residual because the eliminations are
easy to get wrong by hand.

Each residual family is a formula in the values and first and second
a-derivatives of h_n, beta_n, R_n, r_n, sigma_n and p_n, which it reads
from a derivative source, ``grid.derivs(name, n) -> (value, d/da,
d^2/da^2)``.  Log-derivatives are ratios, (ln h_n)' = h_n'/h_n and
(ln D_n)' = sum_{j<n} h_j'/h_j, so no logarithm is taken.  There are two
sources:

  JetSource   exact derivatives at a: the recurrence table is built on
              Taylor jets from the exact moment derivatives, and
              ``ladder.edge_quantities`` forms the edge quantities from its
              jets with the edge x = a itself the jet (a, 1, 0).  The
              residuals sit at working precision.  ``verify`` reads the
              cell's one table this way.
  AGrid       standard central differences of order h^6 on 7 nodes a0 + kh,
              each node with its own certified table at full working
              precision (at least 700 bits), so the h^6 truncation term
              dominates the residual and ``convergence_study`` can measure
              its order.  The acceptance gate runs on this source.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from .exceptions import DomainError
from .ladder import LadderState, edge_quantities, ladder_states
from .orthopoly import RecurrenceTable, build_recurrence_table
from .precision import GUARD_BITS, Jet, PrecisionPolicy, Real, as_mpf
from .report import ResidualReport, make_check

CONTINUOUS_TOL = 1e-20
DEFAULT_FD_STEP = "1e-8"
MIN_GRID_BITS = 700
STENCIL_HALFWIDTH = 3

# 7-node central coefficients, exact rationals; truncation error is O(h^6).
_D1_W7 = (
    Fraction(-1, 60), Fraction(3, 20), Fraction(-3, 4), Fraction(0),
    Fraction(3, 4), Fraction(-3, 20), Fraction(1, 60),
)
_D2_W7 = (
    Fraction(1, 90), Fraction(-3, 20), Fraction(3, 2), Fraction(-49, 18),
    Fraction(3, 2), Fraction(-3, 20), Fraction(1, 90),
)


def fd_derivative(values: Sequence, order: int, h) -> Real:
    """Central finite-difference derivative of ``order`` 1 or 2 on 7 equally
    spaced samples."""
    if order not in (1, 2):
        raise DomainError(f"derivative order must be 1 or 2, got {order}")
    if len(values) != 7:
        raise DomainError(f"need exactly 7 samples, got {len(values)}")
    bits = max(
        (v.precision_bits for v in values if isinstance(v, Real)),
        default=mp.mp.prec,
    )
    with mp.workprec(bits):
        vals = [v.value if isinstance(v, Real) else mp.mpf(v) for v in values]
        hv = as_mpf(h, bits)
        if not hv > 0:
            raise DomainError("step h must be positive")
        acc = mp.fsum(
            vals[i] * mp.mpf(c.numerator) / c.denominator
            for i, c in enumerate(_D1_W7 if order == 1 else _D2_W7)
            if c != 0
        )
        deriv = acc / hv**order
    return Real(deriv, bits)


@dataclass(frozen=True)
class AGrid:
    """Ladder data on 7 nodes a0 + k h, k = -3..3, for derivative checks.

    Each node carries its own certified recurrence table and ladder states
    up to n_max.  All nodes share the policy, with the working precision
    floored at MIN_GRID_BITS so that stencil cancellation (about 10^{16}
    amplification at h = 1e-8) cannot eat into the h^6 truncation signal.
    """

    a0: Real
    h: Real
    n_max: int
    nodes: tuple[Real, ...]
    tables: tuple[RecurrenceTable, ...]
    states: tuple[tuple[LadderState, ...], ...]

    @property
    def bits(self) -> int:
        return max(t.working_bits for t in self.tables)

    def derivs(self, name: str, n: int) -> tuple[mp.mpf, mp.mpf, mp.mpf]:
        """(value, d/da, d^2/da^2) of ``name`` ("h", "beta", "R", "r",
        "sigma" or "p") at degree n: the centre node's value and the 7-node
        central differences."""
        if name in ("h", "beta"):
            samples = [getattr(t, name)[n].value for t in self.tables]
        else:
            samples = [getattr(s[n], name).value for s in self.states]
        with mp.workprec(self.bits):
            return (
                samples[STENCIL_HALFWIDTH],
                fd_derivative(samples, 1, self.h).value,
                fd_derivative(samples, 2, self.h).value,
            )


def build_a_grid(
    a0,
    n_max: int,
    policy: PrecisionPolicy | None = None,
    h=DEFAULT_FD_STEP,
) -> AGrid:
    """Build the 7-node derivative grid centered at a0.

    a0 and h are parsed once at high precision; nodes are a0 + k h with
    k = -3..3 and every node must stay strictly positive.
    """
    if policy is None:
        policy = PrecisionPolicy()
    floor_bits = max(policy.working_bits(n_max), MIN_GRID_BITS)
    grid_policy = replace(
        policy,
        base_bits=floor_bits,
        bits_per_n=0,
        max_bits=max(policy.max_bits, floor_bits),
    )
    parse_bits = grid_policy.max_bits + GUARD_BITS
    a0v = as_mpf(a0, parse_bits)
    hv = as_mpf(h, parse_bits)
    if not hv > 0:
        raise DomainError("step h must be positive")
    with mp.workprec(parse_bits):
        node_vals = [a0v + k * hv for k in range(-STENCIL_HALFWIDTH, STENCIL_HALFWIDTH + 1)]
    if not node_vals[0] > 0:
        raise DomainError(
            f"grid node a0 - 3h = {mp.nstr(node_vals[0], 8)} is not positive"
        )
    tables = tuple(build_recurrence_table(v, n_max, grid_policy) for v in node_vals)
    states = tuple(ladder_states(t) for t in tables)
    bits = max(t.working_bits for t in tables)
    return AGrid(
        a0=Real(as_mpf(a0v, bits), bits),
        h=Real(as_mpf(hv, bits), bits),
        n_max=n_max,
        nodes=tuple(Real(as_mpf(v, bits), bits) for v in node_vals),
        tables=tables,
        states=states,
    )


@dataclass(frozen=True)
class JetSource:
    """Exact a-derivatives at one half-width: Taylor jets (value, d/da,
    d^2/da^2 / 2) of h, beta, R, r, sigma and p for n = 0..n_max, from one
    recurrence table built with ``jets=True``."""

    a0: Real
    n_max: int
    bits: int
    jets: dict[str, Sequence[Jet]]

    def derivs(self, name: str, n: int) -> tuple[mp.mpf, mp.mpf, mp.mpf]:
        """(value, d/da, d^2/da^2) of ``name`` at degree n."""
        c = self.jets[name][n].c
        return c[0], c[1], mp.ldexp(c[2], 1)


def jet_source(table: RecurrenceTable) -> JetSource:
    """The edge quantities of ``ladder.ladder_states`` as jets in a:
    ``ladder.edge_quantities`` run on the table's (beta, h) jets.
    ``table`` must carry jets and have a > 0.
    """
    if table.jets is None:
        raise DomainError("table carries no jets; build it with jets=True")
    if not table.a.value > 0:
        raise DomainError("ladder quantities require a > 0")
    beta, h = table.jets
    edge = edge_quantities(table.a.value, beta, h, table.working_bits)
    return JetSource(
        a0=table.a,
        n_max=table.n_max,
        bits=table.working_bits,
        jets={"h": h, "beta": beta, **{k: edge[k] for k in ("R", "r", "sigma", "p")}},
    )


def _report(grid: AGrid | JetSource, n: int) -> ResidualReport:
    if not 0 <= n <= grid.n_max:
        raise DomainError(f"degree {n} outside grid range 0..{grid.n_max}")
    return ResidualReport(a=mp.nstr(grid.a0.value, 12), n=n)


def residual_derivative_identities(grid: AGrid | JetSource, n: int) -> ResidualReport:
    """First-derivative identities for norms, recurrence and subleading data.

      norm_log_deriv       h_n'/h_n + R_n
      beta_log_deriv       beta_n'/beta_n - (R_{n-1} - R_n)      (n >= 1)
      hankel_log_deriv     (ln D_n)' - sigma_n                   (n >= 1)
      prob_log_deriv       (ln [D_n(a)/D_n(0)])' - sigma_n       (n >= 1)
      subleading_deriv     p' - [a r_n - (n + r_n) R_n / 2]
      beta_deriv           beta_n' - [a(2 r_n - a R_n) - beta_n R_n
                                      + (a R_n - r_n)^2 / R_n]

    with (ln D_n)' = sum_{j<n} h_j'/h_j; D_n(0) does not depend on a, so
    that sum is also the log-derivative of P(n, a) = D_n(a)/D_n(0).
    """
    rep = _report(grid, n)
    bits = grid.bits
    with mp.workprec(bits):
        a = grid.a0.value
        hn, dh, _ = grid.derivs("h", n)
        beta, dbeta, _ = grid.derivs("beta", n)
        R = grid.derivs("R", n)[0]
        r = grid.derivs("r", n)[0]
        rep.add(make_check("norm_log_deriv", n, [dh / hn, R], CONTINUOUS_TOL, bits))
        if n >= 1:
            rep.add(make_check(
                "beta_log_deriv", n,
                [dbeta / beta, -grid.derivs("R", n - 1)[0], R],
                CONTINUOUS_TOL, bits))
            dlog_d = mp.fsum(d / v for v, d, _ in (grid.derivs("h", j) for j in range(n)))
            sigma = grid.derivs("sigma", n)[0]
            rep.add(make_check(
                "hankel_log_deriv", n, [dlog_d, -sigma], CONTINUOUS_TOL, bits))
            rep.add(make_check(
                "prob_log_deriv", n, [dlog_d, -sigma], CONTINUOUS_TOL, bits))
        dp = grid.derivs("p", n)[1]
        rep.add(make_check(
            "subleading_deriv", n,
            [dp, -a * r, (n + r) * R / 2],
            CONTINUOUS_TOL, bits))
        if R != 0:
            rep.add(make_check(
                "beta_deriv", n,
                [
                    dbeta,
                    -a * (2 * r - a * R),
                    beta * R,
                    -((a * R - r) ** 2) / R,
                ],
                CONTINUOUS_TOL, bits))
    return rep


def residual_riccati(grid: AGrid | JetSource, n: int) -> ResidualReport:
    """The coupled first-order system in a:

      r_slope    r' - [2 r^2 / R - (n + r) R]
      R_slope    R' - [4 r + R^2 - 2 a R - 2 r R / a]

    The r equation comes from differentiating the norm ratio; the R
    equation from differentiating the subleading-coefficient identity
    that ties p(n, a) to r and R.  At n = 0 the second reduces to the
    closed Riccati R' = R^2 - 2aR for the seed ratio.
    """
    rep = _report(grid, n)
    bits = grid.bits
    with mp.workprec(bits):
        a = grid.a0.value
        R, dR, _ = grid.derivs("R", n)
        r, dr, _ = grid.derivs("r", n)
        if R != 0:
            rep.add(make_check(
                "r_slope", n,
                [dr, -2 * r * r / R, (n + r) * R],
                CONTINUOUS_TOL, bits))
        rep.add(make_check(
            "R_slope", n,
            [dR, -4 * r, -R * R, 2 * a * R, 2 * r * R / a],
            CONTINUOUS_TOL, bits))
    return rep


def residual_painleve4(grid: AGrid | JetSource, n: int) -> ResidualReport:
    """Second-order closure for R alone.

    Solving the R-Riccati for r and substituting into the r-Riccati
    eliminates r and leaves a single quasilinear equation:

        a R (2a - R) R'' + a (R - a) (R')^2 - R^2 R'
            + R^2 (R - 2a)^2 [a (R - a) + 2n + 1] = 0.

    At n = 0 this is the derivative of the seed Riccati.  The equation is
    polynomial, so no sign or branch choices enter the residual.
    """
    rep = _report(grid, n)
    bits = grid.bits
    with mp.workprec(bits):
        a = grid.a0.value
        R, dR, d2R = grid.derivs("R", n)
        rep.add(make_check(
            "painleve4_R", n,
            [
                a * R * (2 * a - R) * d2R,
                a * (R - a) * dR * dR,
                -R * R * dR,
                R * R * (R - 2 * a) ** 2 * (a * (R - a) + 2 * n + 1),
            ],
            CONTINUOUS_TOL, bits))
    return rep


def residual_sigma_form(grid: AGrid | JetSource, n: int) -> ResidualReport:
    """The chain leading to the closed sigma equation, link by link:

      sigma_slope       sigma' - [2 r - r^2 / a^2]
      riccati_product   8 (n + r) r^2 - [X^2 - (r')^2]
      R_root_plus       4 r^2 / R - [X + r']
      R_root_minus      2 (n + r) R - [X - r']
      discriminant      sqrt((r')^2 + 8 r^2 (r + n)) - |2 (n + r) R + r'|
      sigma_ode         P^2 - 64 a^2 (a^2 - sigma') Q^2

    with X = 2 a r - sigma + r^2 / a and

      P = a^2 (sigma'')^2 - 4 a (2a^2 - sigma') sigma'' + c,
      Q = 8 a^4 n + 4 a^3 sigma + 4 a^2 - 8 a^2 n sigma'
          - 4 a sigma sigma' - a sigma'' - 2 sigma',
      c = (a^2 - sigma') [32 a^2 n (2a^2 - sigma')
          + 8 a sigma (4a^2 - sigma') + 32 a^2
          - 4 a^2 (sigma')^2 - 4 sigma^2] + 4 (sigma')^2.

    The slope relation makes r a two-branch algebraic function of sigma',
    r = a^2 +- a sqrt(a^2 - sigma'), so the closed equation is the
    resultant over both branches; that is why it is quartic rather than
    quadratic in sigma''.  Equations of X and the product come from the
    partial-fraction sum rule for sum R_j combined with the r-Riccati.
    """
    rep = _report(grid, n)
    bits = grid.bits
    with mp.workprec(bits):
        a = grid.a0.value
        R = grid.derivs("R", n)[0]
        r, dr, _ = grid.derivs("r", n)
        sigma, ds, d2s = grid.derivs("sigma", n)
        rep.add(make_check(
            "sigma_slope", n,
            [ds, -2 * r, r * r / (a * a)],
            CONTINUOUS_TOL, bits))
        core = 2 * a * r - sigma + r * r / a
        rep.add(make_check(
            "riccati_product", n,
            [8 * (n + r) * r * r, -core * core, dr * dr],
            CONTINUOUS_TOL, bits))
        if R != 0:
            rep.add(make_check(
                "R_root_plus", n,
                [4 * r * r / R, -core, -dr],
                CONTINUOUS_TOL, bits))
        rep.add(make_check(
            "R_root_minus", n,
            [2 * (n + r) * R, -core, dr],
            CONTINUOUS_TOL, bits))
        disc = dr * dr + 8 * r * r * (r + n)
        rep.add(make_check(
            "discriminant", n,
            [mp.sqrt(disc), -abs(2 * (n + r) * R + dr)],
            CONTINUOUS_TOL, bits))
        c0 = (
            (a * a - ds)
            * (
                32 * a * a * n * (2 * a * a - ds)
                + 8 * a * sigma * (4 * a * a - ds)
                + 32 * a * a
                - 4 * a * a * ds * ds
                - 4 * sigma * sigma
            )
            + 4 * ds * ds
        )
        big_p = a * a * d2s * d2s - 4 * a * (2 * a * a - ds) * d2s + c0
        big_q = (
            8 * a**4 * n
            + 4 * a**3 * sigma
            + 4 * a * a
            - 8 * a * a * n * ds
            - 4 * a * sigma * ds
            - a * d2s
            - 2 * ds
        )
        rep.add(make_check(
            "sigma_ode", n,
            [big_p * big_p, -64 * a * a * (a * a - ds) * big_q * big_q],
            CONTINUOUS_TOL, bits))
    return rep


def residual_chazy(grid: AGrid | JetSource, n: int) -> ResidualReport:
    """Second-order closure for the off-diagonal quantity alone.

    Eliminating R between the r-Riccati and the R-Riccati (the R-Riccati
    is quadratic in R, so the elimination squares once) leaves

        a^2 (r'')^2 + 8 a^2 r (2n + 3r) r''
            = 4 (a^2 + r)^2 (r')^2
              + 16 r^2 [a^2 - 2(n + r)] [2 (n + r) a^2 - r^2],

    a particular case of Chazy's second-degree second-order equation, which
    takes its normalized form in v = -2r - 2n/3.  The check is evaluated in
    r itself.
    """
    rep = _report(grid, n)
    bits = grid.bits
    with mp.workprec(bits):
        a = grid.a0.value
        n3 = mp.mpf(n)
        r, dr, d2r = grid.derivs("r", n)
        rep.add(make_check(
            "chazy", n,
            [
                a * a * d2r * d2r,
                8 * a * a * r * (2 * n3 + 3 * r) * d2r,
                -4 * (a * a + r) ** 2 * dr * dr,
                -16 * r * r * (a * a - 2 * (n3 + r)) * (2 * (n3 + r) * a * a - r * r),
            ],
            CONTINUOUS_TOL, bits))
    return rep


def continuous_suite(grid: AGrid | JetSource, n: int) -> ResidualReport:
    """Every continuous residual for one (n, a0) cell, merged, from either
    derivative source."""
    rep = residual_derivative_identities(grid, n)
    for part in (
        residual_riccati(grid, n),
        residual_painleve4(grid, n),
        residual_sigma_form(grid, n),
        residual_chazy(grid, n),
    ):
        rep.extend(part.checks)
    return rep


def convergence_study(
    a0,
    n: int,
    h_values: Sequence[str] = ("1e-6", "1e-7", "1e-8"),
    policy: PrecisionPolicy | None = None,
    n_max: int | None = None,
) -> dict[str, float]:
    """Fit the log-log slope of each continuous residual against h.

    Returns {check name: slope}.  For 7-node stencils on analytic data the
    truncation term is O(h^6), so slopes near 6 confirm that the residuals
    are finite-difference truncation rather than equation error.
    """
    if n_max is None:
        n_max = n + 1
    slopes_in: dict[str, list[tuple[float, float]]] = {}
    for h_text in h_values:
        grid = build_a_grid(a0, n_max, policy, h=h_text)
        rep = continuous_suite(grid, n)
        for c in rep.checks:
            if c.residual <= 0:
                continue
            slopes_in.setdefault(c.name, []).append(
                (float(mp.log10(mp.mpf(h_text))), float(mp.log10(c.residual)))
            )
    out = {}
    for name, pts in slopes_in.items():
        if len(pts) != len(h_values):
            continue
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        xbar = sum(xs) / len(xs)
        ybar = sum(ys) / len(ys)
        den = sum((x - xbar) ** 2 for x in xs)
        out[name] = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / den
    return out
