"""Difference equations in n satisfied by the edge quantities.

The ladder relations give two first-order conditions on the edge quantities,
r_{n+1} + r_n = a R_n and r_n^2 = beta_n R_n R_{n-1} with
beta_n = (n + r_n)/2.  Iterating that pair from R_0 = 2 e^{-a^2} /
(sqrt(pi) erfc(a)) and r_1 = a R_0 gives a route to every r_n that never
touches the polynomials, so comparing the orbit against the directly
computed ladder is a genuine two-route consistency check.  With
h_n = beta_n h_{n-1} the orbit also gives the whole recurrence table in O(n)
steps (``orbit_recurrence_table``), certified by the same two-level loop as
the Chebyshev route; ``table`` builds every a > 0 cell that way.

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

from dataclasses import dataclass
from typing import Sequence

import mpmath as mp

from .exceptions import BranchSelectionError, DegenerateDenominatorError, DomainError
from .ladder import LadderState
from .orthopoly import RecurrenceTable, _certify, _NonPositiveNorm, _parse_inputs
from .precision import PrecisionPolicy, Real, as_mpf
from .report import ResidualReport, make_check
from .weight import GapWeight, moment, seed_R0

DISCRETE_TOL = 1e-30
ORBIT_TOL = 1e-25
DEGENERACY_DIGITS = 20
BRANCH_MATCH_TOL = 1e-6


@dataclass(frozen=True)
class DiscreteOrbit:
    """r_0..r_N obtained by iterating the rational recurrence in n."""

    a: Real
    r: tuple[Real, ...]


def iterate_r_orbit(a, n_top: int, prec_bits: int) -> DiscreteOrbit:
    """Iterate the first-order pair of the ladder relations,

        R_n = 2 r_n^2 / ((n + r_n) R_{n-1}),    r_{n+1} = a R_n - r_n,

    from R_0 and r_1 = a R_0 (r_0 = 0).  These are r_n^2 = beta_n R_n R_{n-1}
    with beta_n = (n + r_n)/2, and r_{n+1} + r_n = a R_n; eliminating R_n
    gives the second-order closure in r_n alone, whose denominator
    r_n + r_{n-1} = a R_{n-1} cancels to O(a^3) at small a.  The pair only
    divides by 2 beta_n R_{n-1}, positive in exact arithmetic, so a value
    <= 0 at some n <= n_top means this precision lost the orbit: that raises
    _NonPositiveNorm(n), and the certification loop escalates.
    """
    if n_top < 1:
        raise DomainError(f"n_top must be >= 1, got {n_top}")
    av = as_mpf(a, prec_bits)
    if not av > 0:
        raise DomainError("orbit iteration requires a > 0")
    w = GapWeight(Real(av, prec_bits), prec_bits)
    R = seed_R0(w).value
    with mp.workprec(prec_bits):
        r = [mp.mpf(0), av * R]
        for n in range(1, n_top + 1):
            den = (n + r[n]) * R
            if not den > 0:
                raise _NonPositiveNorm(n)
            R = 2 * r[n] * r[n] / den
            r.append(av * R - r[n])
    return DiscreteOrbit(a=Real(av, prec_bits), r=tuple(Real(v, prec_bits) for v in r[:-1]))


def _orbit_pass(a_value: mp.mpf, n_max: int, bits: int):
    """One orbit-to-recurrence pass at a fixed precision.

    beta_n = (n + r_n)/2 from the orbit, which has already checked that each
    is positive, h_0 = mu_0 = sqrt(pi) erfc(a) and h_n = beta_n h_{n-1}.
    Returns (beta, h) as lists of mpf.
    """
    r = iterate_r_orbit(a_value, max(n_max, 1), bits).r
    h0 = moment(0, GapWeight(Real(as_mpf(a_value, bits), bits), bits)).value
    with mp.workprec(bits):
        beta = [mp.mpf(0)]
        h = [h0]
        for n in range(1, n_max + 1):
            beta.append((n + r[n].value) / 2)
            h.append(beta[n] * h[n - 1])
    return beta, h


def orbit_recurrence_table(a, n_max: int, policy: PrecisionPolicy | None = None) -> RecurrenceTable:
    """beta_j, h_j for j <= n_max from the r_n orbit, with certified accuracy.

    The same table as ``orthopoly.build_recurrence_table`` by another route:
    O(n_max) steps of the difference equation instead of moments and the
    Chebyshev pass, certified by the same loop (``orthopoly._certify``).
    The orbit loses digits slowly (tens at n = 1000 for a <= 3), so the
    loop starts at ``policy.base_bits`` rather than at the Chebyshev
    route's ``policy.working_bits(n_max)``.  Requires a > 0 (DomainError);
    raises the Chebyshev route's exceptions otherwise.
    """
    policy, a_value = _parse_inputs(a, n_max, policy)
    return _certify(_orbit_pass, a_value, n_max, policy.base_bits, policy)


def residual_orbit_vs_direct(
    orbit: DiscreteOrbit, states: Sequence[LadderState]
) -> list[ResidualReport]:
    """Relative disagreement between the iterated and the direct r_n."""
    n_top = min(len(orbit.r), len(states)) - 1
    bits = orbit.r[0].precision_bits
    a_str = mp.nstr(orbit.a.value, 12)
    reports = []
    with mp.workprec(bits):
        for n in range(1, n_top + 1):
            rep = ResidualReport(a=a_str, n=n)
            rep.add(make_check(
                "orbit_vs_direct", n,
                [orbit.r[n].value, -states[n].r.value],
                ORBIT_TOL, bits))
            reports.append(rep)
    return reports


def residual_alternate_r(states: Sequence[LadderState], n: int) -> ResidualReport:
    """Residual of the alternate form in y_n = -2 r_n / a^2 (n >= 1):

        (y_{n+1} + y_n)(y_n + y_{n-1}) = -4 y_n^2 / (y_n + z_n),
        z_n = -2n / a^2.

    This is a modified discrete Painleve II equation with unit scale
    parameter; its degenerate cells (y_n + z_n near zero) raise
    DegenerateDenominatorError.
    """
    if n < 1 or n + 1 >= len(states):
        raise DomainError(f"need 1 <= n <= {len(states) - 2}, got {n}")
    bits = states[0].bits
    a = states[0].a.value
    with mp.workprec(bits):
        scale = -2 / (a * a)
        y_prev = scale * states[n - 1].r.value
        y = scale * states[n].r.value
        y_next = scale * states[n + 1].r.value
        z_n = scale * n
        den = y + z_n
        if abs(den) < mp.mpf(10) ** (-DEGENERACY_DIGITS) * (abs(y) + abs(z_n)):
            raise DegenerateDenominatorError(f"y_n + z_n degenerates at n={n}", n=n)
        rep = ResidualReport(a=mp.nstr(a, 12), n=n)
        rep.add(make_check(
            "alternate_r", n,
            [(y_next + y) * (y + y_prev), 4 * y * y / den],
            DISCRETE_TOL, bits))
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
    if n < 1 or n + 1 >= len(states):
        raise DomainError(f"need 1 <= n <= {len(states) - 2}, got {n}")
    bits = states[0].bits
    a = states[0].a.value
    with mp.workprec(bits):
        s_prev = states[n - 1].sigma.value
        s = states[n].sigma.value
        s_next = states[n + 1].sigma.value
        u = s - s_next
        v = s_prev - s
        big_n = 2 * a * s + n * (2 * a * (u + v) - u * v)
        big_d = (2 * a - u) * (2 * a - v)
        rep = ResidualReport(a=mp.nstr(a, 12), n=n)
        rep.add(make_check(
            "sigma_recurrence", n,
            [2 * big_n * big_n, -u * v * big_n * big_d, -n * u * v * big_d * big_d],
            DISCRETE_TOL, bits))
    return rep


def residual_R_recurrence(states: Sequence[LadderState], n: int) -> ResidualReport:
    """Residual of the closure in R_n alone (n >= 1):

        R_{n-1} R_{n+1} (R_n R_{n-1} + 8n)(R_{n+1} R_n + 8n + 8)
        = [8 R_n a^2 + R_n R_{n-1} R_{n+1}
           - 4 (a R_n + n + 1) R_{n+1} - 4 (a R_n + n) R_{n-1}]^2.
    """
    if n < 1 or n + 1 >= len(states):
        raise DomainError(f"need 1 <= n <= {len(states) - 2}, got {n}")
    bits = states[0].bits
    a = states[0].a.value
    with mp.workprec(bits):
        Rm = states[n - 1].R.value
        R = states[n].R.value
        Rp = states[n + 1].R.value
        lhs = Rm * Rp * (R * Rm + 8 * n) * (Rp * R + 8 * n + 8)
        inner = (
            8 * R * a * a
            + R * Rm * Rp
            - 4 * (a * R + n + 1) * Rp
            - 4 * (a * R + n) * Rm
        )
        rep = ResidualReport(a=mp.nstr(a, 12), n=n)
        rep.add(make_check("R_recurrence", n, [lhs, -inner * inner], DISCRETE_TOL, bits))
    return rep


@dataclass(frozen=True)
class BranchChoice:
    """Outcome of recovering r_n from (R_{n-1}, R_n) by the quadratic."""

    n: int
    sign: str
    value: Real
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
        Q = states[n].R.value * states[n - 1].R.value
        disc = mp.sqrt(Q) * mp.sqrt(8 * n + Q)
        root_plus = (Q + disc) / 4
        root_minus = (Q - disc) / 4
        ref = states[n].r.value
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
        return BranchChoice(
            n=n, sign=sign, value=Real(value, bits), rel_err=err, rel_err_other=other
        )
