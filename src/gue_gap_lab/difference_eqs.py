"""Difference equations in n satisfied by the edge quantities.

The ladder relations give two first-order conditions on the edge quantities,
r_{n+1} + r_n = a R_n and r_n^2 = beta_n R_n R_{n-1} with
beta_n = (n + r_n)/2.  Iterating that pair from R_0 = 2 e^{-a^2} /
(sqrt(pi) erfc(a)) and r_1 = a R_0 gives a route to every r_n that never
touches the polynomials, so comparing the orbit against the directly
computed ladder is a genuine two-route consistency check.  With
h_n = beta_n h_{n-1} the orbit also gives the whole recurrence table in O(n)
steps (``orbit_recurrence_table``), certified by the same two-level loop as
the Chebyshev route; ``table`` and ``prob`` build every a > 0 cell that way.

Eliminating R_n closes r_n on itself as a second-order rational recurrence.
That closure can be written three more ways, each checked here as a
residual: an alternate form in y_n = -2 r_n / a^2 (a modified discrete
Painleve II equation with parameter z_n = -2n/a^2), a recurrence for the
partial sums sigma_n alone, and a recurrence in R_n alone whose two
sides are perfect squares.  Finally r_n can be recovered from
(R_{n-1}, R_n) by solving a quadratic; branch selection against a reference
value is part of the verification contract.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import mpmath as mp
from mpmath.libmp import from_int, fzero, mpf_add, mpf_div, mpf_mul, mpf_shift, mpf_sub
from mpmath.libmp import round_nearest as RN

from .exceptions import BranchSelectionError, DegenerateDenominatorError, DomainError
from .ladder import LadderState
from .orthopoly import RecurrenceTable
from .precision import NonPositiveNorm, PrecisionPolicy, as_mpf, certify, check_half_width
from .report import ResidualReport
from .weight import orbit_seed

DISCRETE_TOL = 1e-30
ORBIT_TOL = 1e-25
DEGENERACY_DIGITS = 20
BRANCH_MATCH_TOL = 1e-6


class DiscreteOrbit(NamedTuple):
    """r_0..r_N obtained by iterating the rational recurrence in n, as
    plain mpf values at ``bits``."""

    r: tuple[mp.mpf, ...]
    bits: int


def _orbit(a, n_top: int, bits: int):
    """(r, beta, h) for n = 0..n_top at ``bits``, lists of raw mpf tuples
    (see ``precision``), from the first-order pair

        R_n = 2 r_n^2 / ((n + r_n) R_{n-1}),    r_{n+1} = a R_n - r_n,

    iterated from ``weight.orbit_seed``'s h_0 and R_0, and r_1 = a R_0.
    These are the ladder relations r_n^2 = beta_n R_n R_{n-1}, with
    beta_n = (n + r_n)/2, and r_{n+1} + r_n = a R_n; eliminating R_n gives
    the second-order closure in r_n alone, whose denominator
    r_n + r_{n-1} = a R_{n-1} cancels to O(a^3) at small a.  The sum
    n + r_n that the denominator forms also gives beta_n, halved exactly,
    and h_n = beta_n h_{n-1}, with beta_0 = 0.  The pair only divides by
    2 beta_n R_{n-1}, positive in exact arithmetic, so a value <= 0 at some
    n <= n_top means this precision lost the orbit: that raises
    NonPositiveNorm(n), and the certification loop escalates.  The caller
    has judged a with ``precision.check_half_width``; it must be > 0 at
    ``bits``.
    """
    av = as_mpf(a, bits)
    if not av > 0:
        raise DomainError("orbit iteration requires a > 0")
    h0, R = orbit_seed(av, bits)
    a_t, R, hn = av._mpf_, R._mpf_, h0._mpf_
    r, beta, h = [fzero, mpf_mul(a_t, R, bits, RN)], [fzero], [hn]
    for n in range(1, n_top + 1):
        rn = r[n]
        s = mpf_add(rn, from_int(n), bits, RN)
        den = mpf_mul(s, R, bits, RN)
        if den[0] or not den[1]:  # den <= 0: a sign bit, or a zero mantissa
            raise NonPositiveNorm(n)
        R = mpf_div(mpf_mul(mpf_shift(rn, 1), rn, bits, RN), den, bits, RN)  # exact doubling
        r.append(mpf_sub(mpf_mul(a_t, R, bits, RN), rn, bits, RN))
        bn = mpf_shift(s, -1)  # exact halving
        hn = mpf_mul(bn, hn, bits, RN)
        beta.append(bn)
        h.append(hn)
    return r[:-1], beta, h


def iterate_r_orbit(a, n_top: int, prec_bits: int) -> DiscreteOrbit:
    """r_0..r_n_top from the first-order pair of the ladder relations (see
    ``_orbit``), at ``prec_bits`` >= 1.  Requires n_top >= 1 and a > 0; a is
    judged by ``precision.check_half_width`` at 64 bits, as ``certify``
    judges it, so that whether it is refused does not depend on
    ``prec_bits``."""
    if n_top < 1:
        raise DomainError(f"n_top must be >= 1, got {n_top}")
    check_half_width(as_mpf(a, 64))
    if prec_bits < 1:
        raise DomainError("prec_bits must be positive")
    r = _orbit(a, n_top, prec_bits)[0]
    return DiscreteOrbit(r=tuple(map(mp.make_mpf, r)), bits=prec_bits)


def _orbit_pass(a_value, n_max: int, bits: int):
    """One orbit-to-recurrence pass at ``bits``: (beta, h) as lists of mpf
    for n = 0..n_max, from ``_orbit``, which formed them on raw tuples."""
    _, beta, h = _orbit(a_value, max(n_max, 1), bits)
    return list(map(mp.make_mpf, beta[:n_max + 1])), list(map(mp.make_mpf, h[:n_max + 1]))


def orbit_recurrence_table(a, n_max: int, policy: PrecisionPolicy | None = None) -> RecurrenceTable:
    """beta_j, h_j for j <= n_max from the r_n orbit, with certified accuracy.

    The same table as ``orthopoly.build_recurrence_table`` by another route:
    O(n_max) steps of the difference equation instead of moments and the
    Chebyshev pass, certified by the same loop (``precision.certify``).
    The orbit loses digits slowly while a is below sqrt(n_max) (tens at
    n = 1000 for a <= 3), and by default the loop's start covers its
    measured loss.  Requires a > 0
    (DomainError); raises the Chebyshev route's exceptions otherwise.
    """
    return RecurrenceTable.from_certified(certify("orbit", _orbit_pass, a, n_max, policy), a)


def residual_orbit_vs_direct(
    orbit: DiscreteOrbit, states: Sequence[LadderState]
) -> list[ResidualReport]:
    """Relative disagreement between the iterated and the direct r_n."""
    n_top = min(len(orbit.r), len(states)) - 1
    reports = []
    with mp.workprec(orbit.bits):
        for n in range(1, n_top + 1):
            rep = ResidualReport(n, orbit.bits)
            rep.check("orbit_vs_direct", [orbit.r[n], -states[n].r], ORBIT_TOL)
            reports.append(rep)
    return reports


def _inner_report(states: Sequence[LadderState], n: int) -> ResidualReport:
    """The empty report of a three-term family at degree n, which reads
    states n - 1, n and n + 1."""
    if n < 1 or n + 1 >= len(states):
        raise DomainError(f"need 1 <= n <= {len(states) - 2}, got {n}")
    return ResidualReport(n, states[0].bits)


def residual_alternate_r(states: Sequence[LadderState], n: int) -> ResidualReport:
    """Residual of the alternate form in y_n = -2 r_n / a^2 (n >= 1):

        (y_{n+1} + y_n)(y_n + y_{n-1}) = -4 y_n^2 / (y_n + z_n),
        z_n = -2n / a^2.

    This is a modified discrete Painleve II equation with unit scale
    parameter; its degenerate cells (y_n + z_n near zero) raise
    DegenerateDenominatorError.
    """
    rep = _inner_report(states, n)
    a = states[0].a
    with mp.workprec(rep.bits):
        scale = -2 / (a * a)
        y_prev = scale * states[n - 1].r
        y = scale * states[n].r
        y_next = scale * states[n + 1].r
        z_n = scale * n
        den = y + z_n
        if abs(den) < mp.mpf(10) ** (-DEGENERACY_DIGITS) * (abs(y) + abs(z_n)):
            raise DegenerateDenominatorError(f"y_n + z_n degenerates at n={n}", n=n)
        rep.check("alternate_r", [(y_next + y) * (y + y_prev), 4 * y * y / den], DISCRETE_TOL)
    return rep


def residual_sigma_recurrence(states: Sequence[LadderState], n: int) -> ResidualReport:
    """Residual of the pure-sigma recurrence (n >= 1).

    With the consecutive differences u = sigma_n - sigma_{n+1} (= R_n)
    and v = sigma_{n-1} - sigma_n (= R_{n-1}), set

        N = 2 a sigma_n + n [2a (u + v) - u v],
        D = (2a - u)(2a - v).

    N/D recovers r_n from sigma data alone, and feeding that into
    2 r_n^2 = (n + r_n) u v closes the three-term relation

        2 N^2 = u v N D + n u v D^2.
    """
    rep = _inner_report(states, n)
    a = states[0].a
    with mp.workprec(rep.bits):
        s_prev = states[n - 1].sigma
        s = states[n].sigma
        s_next = states[n + 1].sigma
        u = s - s_next
        v = s_prev - s
        big_n = 2 * a * s + n * (2 * a * (u + v) - u * v)
        big_d = (2 * a - u) * (2 * a - v)
        rep.check("sigma_recurrence",
                  [2 * big_n * big_n, -u * v * big_n * big_d, -n * u * v * big_d * big_d],
                  DISCRETE_TOL)
    return rep


def residual_R_recurrence(states: Sequence[LadderState], n: int) -> ResidualReport:
    """Residual of the closure in R_n alone (n >= 1):

        R_{n-1} R_{n+1} (R_n R_{n-1} + 8n)(R_{n+1} R_n + 8n + 8)
        = [8 R_n a^2 + R_n R_{n-1} R_{n+1}
           - 4 (a R_n + n + 1) R_{n+1} - 4 (a R_n + n) R_{n-1}]^2.
    """
    rep = _inner_report(states, n)
    a = states[0].a
    with mp.workprec(rep.bits):
        Rm = states[n - 1].R
        R = states[n].R
        Rp = states[n + 1].R
        lhs = Rm * Rp * (R * Rm + 8 * n) * (Rp * R + 8 * n + 8)
        inner = (
            8 * R * a * a
            + R * Rm * Rp
            - 4 * (a * R + n + 1) * Rp
            - 4 * (a * R + n) * Rm
        )
        rep.check("R_recurrence", [lhs, -inner * inner], DISCRETE_TOL)
    return rep


class BranchChoice(NamedTuple):
    """Outcome of recovering r_n from (R_{n-1}, R_n) by the quadratic."""

    n: int
    sign: str
    value: mp.mpf
    rel_err: mp.mpf
    rel_err_other: mp.mpf


def select_r_branch(states: Sequence[LadderState], n: int) -> BranchChoice:
    """Solve 4 r^2 - Q r - (n/2) Q = 0, Q = R_n R_{n-1}, and pick the root
    matching the directly computed r_n.

    The roots are (Q +- sqrt(Q) sqrt(8n + Q))/4, one positive and one
    negative since Q > 0.  The sign of r_n itself alternates with n
    (r_n = 2 w0 P_n P_{n-1} / h_{n-1} and the edge values P_n(a) change
    sign in a period-four pattern), so the selected branch alternates as
    well; selection is by measurement, not assumption.  Raises
    BranchSelectionError when neither root is within BRANCH_MATCH_TOL
    relatively.
    """
    if n < 1 or n >= len(states):
        raise DomainError(f"need 1 <= n <= {len(states) - 1}, got {n}")
    bits = states[0].bits
    with mp.workprec(bits):
        Q = states[n].R * states[n - 1].R
        disc = mp.sqrt(Q) * mp.sqrt(8 * n + Q)
        root_plus = (Q + disc) / 4
        root_minus = (Q - disc) / 4
        ref = states[n].r
        scale = max(abs(ref), abs(root_plus), abs(root_minus))
        err_plus = abs(root_plus - ref) / scale
        err_minus = abs(root_minus - ref) / scale
        if err_plus <= err_minus:
            sign, value, err, other = "+", root_plus, err_plus, err_minus
        else:
            sign, value, err, other = "-", root_minus, err_minus, err_plus
        if not err < BRANCH_MATCH_TOL:
            raise BranchSelectionError(
                f"neither quadratic root matches r_{n} within {BRANCH_MATCH_TOL}"
            )
        return BranchChoice(n=n, sign=sign, value=value, rel_err=err, rel_err_other=other)
