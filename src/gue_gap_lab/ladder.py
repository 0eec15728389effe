"""Edge quantities of the gap weight and their recurrence identities.

For the even weight e^{-x^2} on |x| > a the whole effect of the excluded
interval enters through boundary terms at x = a.  With w0 = e^{-a^2} and
the monic polynomials P_j, the edge quantities are

    R_n = 2 w0 P_n(a)^2 / h_n
    r_n = 2 w0 P_n(a) P_{n-1}(a) / h_{n-1}        (r_0 = 0)
    sigma_n = -(R_0 + ... + R_{n-1})
    p_n = -(beta_0 + ... + beta_{n-1})            (subleading coefficient)

``edge_quantities`` is the one place these are formed, with P_j(a) from
the three-term recurrence: on plain values for ``ladder_states``, on
Taylor jets in a for ``differential_eqs.jet_source``, and at a = 0 for the
closed-form rows of ``table``.

sigma_n is simultaneously the logarithmic derivative d/da ln D_n of the
moment determinant, which ties these ladder quantities to the gap
probability.  The residual suites below check, cell by cell, the closed
algebraic relations these quantities satisfy: pair sums, the closed form of
beta_n, partial-sum identities, the subleading-coefficient formula, and the
three supplementary conditions on the associated spectral functions
A_n(z), B_n(z).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import mpmath as mp

from .exceptions import DomainError, EdgeZeroError
from .orthopoly import RecurrenceTable
from .precision import Jet, Real, as_mpf
from .report import ResidualReport, make_check

IDENTITY_TOL = 1e-30
SUPPLEMENTARY_TOL = 1e-30

# z values used by default for the spectral-function checks; chosen to land
# both inside and outside typical gap widths while staying away from poles.
DEFAULT_Z_SAMPLES = ("0.37", "-0.37", "2.1", "-2.1", "3.7", "10")
POLE_MARGIN = 1e-3


@dataclass(frozen=True)
class LadderState:
    """All edge quantities for one degree n at one gap half-width a."""

    n: int
    a: Real
    R: Real
    r: Real
    beta: Real
    sigma: Real
    p: Real
    Pn_at_a: Real

    @property
    def bits(self) -> int:
        return self.R.precision_bits


def edge_quantities(a, beta, h, bits: int) -> dict[str, list]:
    """Lists P_n(a), R_n, r_n, sigma_n and p_n for n = 0..N, under the keys
    "P", "R", "r", "sigma" and "p", from beta_0..beta_N and h_0..h_N.

    P_j(a) comes from the three-term recurrence at x = a, the rest from the
    formulas of the module docstring.  When ``h[0]`` is a ``Jet`` the inputs
    are jets in a, x is the jet (a, 1, 0) and 2 w0 the jet of 2 e^{-a^2};
    a jet's value part is the same mpf operation as the plain one, so the
    values agree bit for bit.  R is 2 w0 (P_n P_n) / h_n, which rounds as
    2 w0 P_n^2 / h_n.  No check on a: the a = 0 rows use it too.
    """
    top = len(h) - 1
    with mp.workprec(bits):
        e = mp.exp(-a * a)
        if isinstance(h[0], Jet):
            two_w0 = Jet((2 * e, -4 * a * e, 2 * (2 * a * a - 1) * e))
            x = Jet((a, mp.mpf(1), mp.mpf(0)))
            one, zero = Jet((mp.mpf(1), mp.mpf(0), mp.mpf(0))), Jet([mp.mpf(0)] * 3)
        else:
            two_w0, x, one, zero = 2 * e, a, mp.mpf(1), mp.mpf(0)
        P = [one, x][:top + 1]
        for j in range(1, top):
            P.append(x * P[j] - beta[j] * P[j - 1])
        R, r, sigma, p = [], [zero], [zero], [zero]
        for n in range(top + 1):
            R.append(two_w0 * (P[n] * P[n]) / h[n])
            if n:
                r.append(two_w0 * P[n] * P[n - 1] / h[n - 1])
            if n < top:
                sigma.append(sigma[n] - R[n])
                p.append(p[n] - beta[n])
    return {"P": P, "R": R, "r": r, "sigma": sigma, "p": p}


def ladder_states(table: RecurrenceTable, n_top: int | None = None) -> list[LadderState]:
    """LadderState for n = 0..n_top from one certified recurrence table.

    Requires a > 0: at a = 0 every odd-degree polynomial vanishes at the
    edge by parity and the ladder is not defined.  An accidental near-zero
    of P_n at the edge for a > 0 raises EdgeZeroError rather than returning
    uncertifiable ratios; the threshold is 10^-t relative to the recurrence
    terms that produced the value, with t half the table's certified digits.
    """
    if n_top is None:
        n_top = table.n_max
    if not 0 <= n_top <= table.n_max:
        raise DomainError(f"n_top {n_top} outside table range 0..{table.n_max}")
    if not table.a.value > 0:
        raise DomainError("ladder quantities require a > 0")
    t = table.certified_digits // 2
    bits = table.working_bits
    a = table.a.value
    beta = [b.value for b in table.beta[:n_top + 1]]
    edge = edge_quantities(a, beta, [v.value for v in table.h[:n_top + 1]], bits)
    P = edge["P"]
    with mp.workprec(bits):
        thresh = mp.mpf(10) ** (-t)
        for n in range(1, n_top + 1):
            # scale of the two recurrence terms whose difference is P_n(a)
            scale = abs(a * P[n - 1])
            if n >= 2:
                scale = max(scale, abs(beta[n - 1] * P[n - 2]))
            if abs(P[n]) < thresh * scale:
                raise EdgeZeroError(
                    f"P_{n}(a) is below the certification threshold at a={mp.nstr(a, 8)}",
                    n=n,
                )
    return [
        LadderState(n=n, a=Real(a, bits), beta=table.beta[n], Pn_at_a=Real(P[n], bits),
                    **{k: Real(edge[k][n], bits) for k in ("R", "r", "sigma", "p")})
        for n in range(n_top + 1)
    ]


def residual_identities(states: Sequence[LadderState]) -> list[ResidualReport]:
    """Residuals of the algebraic recurrence identities, one report per n.

    For each n with a successor state available the following must vanish:

      pair_sum          r_{n+1} + r_n - a R_n
      beta_closed_form  beta_n - (n + r_n)/2
      r_squared         r_n^2 - beta_n R_n R_{n-1}                (n >= 1)
      weighted_sum      a sum R_j - 2 sum r_j - r_n               (j < n)
      R_partial_sum     sum R_j - [-2 a r_n - r_n^2/a
                                   + (n+r_n) R_n + 2 r_n^2/R_n]
      subleading        -p_n - [n(n-1)/4 - (1/4 + a^2/2) r_n - r_n^2/4
                               + (a/4)(n+r_n) R_n + (a/2) r_n^2/R_n]
      sigma_step        R_n - (sigma_n - sigma_{n+1})

    The closed forms for sum R_j and p_n follow from matching pole orders
    in the spectral sum rule: the double-pole numerator z^2 r_n^2 splits as
    r_n^2 (z^2 - a^2) + a^2 r_n^2, so the first-order matching picks up an
    r_n^2 term alongside 2 a^2 r_n.  Dropping it yields variants of these
    two identities that fail at O(1); the forms above hold to working
    precision.
    """
    if len(states) < 2:
        raise DomainError("need at least two consecutive states")
    bits = states[0].bits
    a = states[0].a.value
    a_str = mp.nstr(a, 12)
    reports = []
    with mp.workprec(bits):
        sum_R = mp.mpf(0)
        sum_r = mp.mpf(0)
        for n in range(len(states) - 1):
            s = states[n]
            s1 = states[n + 1]
            R, r, beta, sigma, p = s.R.value, s.r.value, s.beta.value, s.sigma.value, s.p.value
            rep = ResidualReport(a=a_str, n=n)
            rep.add(make_check(
                "pair_sum", n, [s1.r.value, r, -a * R], IDENTITY_TOL, bits))
            rep.add(make_check(
                "beta_closed_form", n, [beta, -mp.mpf(n) / 2, -r / 2], IDENTITY_TOL, bits))
            if n >= 1:
                Rm = states[n - 1].R.value
                rep.add(make_check(
                    "r_squared", n, [r * r, -beta * R * Rm], IDENTITY_TOL, bits))
            rep.add(make_check(
                "weighted_sum", n, [a * sum_R, -2 * sum_r, -r], IDENTITY_TOL, bits))
            if R != 0:
                rep.add(make_check(
                    "R_partial_sum", n,
                    [sum_R, 2 * a * r, r * r / a, -(n + r) * R, -2 * r * r / R],
                    IDENTITY_TOL, bits))
                rep.add(make_check(
                    "subleading", n,
                    [
                        -p,
                        -mp.mpf(n * (n - 1)) / 4,
                        (mp.mpf(1) / 4 + a * a / 2) * r,
                        r * r / 4,
                        -(a / 4) * (n + r) * R,
                        -(a / 2) * r * r / R,
                    ],
                    IDENTITY_TOL, bits))
            rep.add(make_check(
                "sigma_step", n, [R, -sigma, s1.sigma.value], IDENTITY_TOL, bits))
            reports.append(rep)
            sum_R += R
            sum_r += r
    return reports


def _spectral_AB(state: LadderState, z: mp.mpf, a: mp.mpf):
    """A_n(z) = 2 + R_n a/(z^2 - a^2), B_n(z) = r_n z/(z^2 - a^2)."""
    d = z * z - a * a
    return 2 + state.R.value * a / d, state.r.value * z / d


def default_z_samples(a, bits: int) -> list[Real]:
    """The default spectral sample points, nudged away from z^2 = a^2."""
    av = as_mpf(a, bits)
    out = []
    with mp.workprec(bits):
        for text in DEFAULT_Z_SAMPLES:
            z = mp.mpf(text)
            while abs(z * z - av * av) <= POLE_MARGIN:
                z *= mp.mpf("1.5")
            out.append(Real(z, bits))
    return out


def residual_supplementary(states: Sequence[LadderState], n: int) -> ResidualReport:
    """Residuals of the three supplementary spectral-function conditions.

    With v0'(z) = 2z for the Gaussian potential these read

      s1      B_{n+1} + B_n = z A_n - 2z
      s2      1 + z (B_{n+1} - B_n) = beta_{n+1} A_{n+1} - beta_n A_{n-1}
      s2sum   B_n^2 + 2 z B_n + sum_{j<n} A_j = beta_n A_n A_{n-1}

    where sum_{j<n} A_j = 2n - a sigma_n / (z^2 - a^2).  s1 is checked for
    n >= 0, the other two need n >= 1.  The sample points are the defaults,
    which move themselves off the poles at z = +-a.
    """
    if n < 0 or n + 1 >= len(states):
        raise DomainError(f"need states 0..{n + 1}, have {len(states)}")
    bits = states[0].bits
    a = states[0].a.value
    rep = ResidualReport(a=mp.nstr(a, 12), n=n)
    with mp.workprec(bits):
        for z_real in default_z_samples(a, bits):
            z = z_real.value
            ztag = mp.nstr(z, 8)
            A_n, B_n = _spectral_AB(states[n], z, a)
            A_np1, B_np1 = _spectral_AB(states[n + 1], z, a)
            rep.add(make_check(
                f"s1@{ztag}", n,
                [B_np1, B_n, -z * A_n, 2 * z],
                SUPPLEMENTARY_TOL, bits))
            if n >= 1:
                A_nm1, _ = _spectral_AB(states[n - 1], z, a)
                beta_n = states[n].beta.value
                beta_np1 = states[n + 1].beta.value
                rep.add(make_check(
                    f"s2@{ztag}", n,
                    [1, z * B_np1, -z * B_n, -beta_np1 * A_np1, beta_n * A_nm1],
                    SUPPLEMENTARY_TOL, bits))
                sum_A = 2 * mp.mpf(n) - a * states[n].sigma.value / (z * z - a * a)
                rep.add(make_check(
                    f"s2sum@{ztag}", n,
                    [B_n * B_n, 2 * z * B_n, sum_A, -beta_n * A_n * A_nm1],
                    SUPPLEMENTARY_TOL, bits))
    return rep
