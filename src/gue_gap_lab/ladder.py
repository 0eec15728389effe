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

from typing import NamedTuple, Sequence

import mpmath as mp
from mpmath.libmp import fone, from_int, ftwo, mpf_abs, mpf_add, mpf_cmp, mpf_div, mpf_mul
from mpmath.libmp import mpf_neg, mpf_shift, mpf_sub, round_nearest as RN

from .exceptions import DomainError, EdgeZeroError
from .orthopoly import RecurrenceTable
from .precision import Jet, as_mpf
from .report import ResidualReport

IDENTITY_TOL = 1e-30
SUPPLEMENTARY_TOL = 1e-30

# z values used by default for the spectral-function checks; chosen to land
# both inside and outside typical gap widths while staying away from poles.
DEFAULT_Z_SAMPLES = ("0.37", "-0.37", "2.1", "-2.1", "3.7", "10")
POLE_MARGIN = 1e-3


class LadderState(NamedTuple):
    """All edge quantities for one degree n at one gap half-width a, as
    plain mpf values at the ``bits`` of the table they came from."""

    n: int
    a: mp.mpf
    R: mp.mpf
    r: mp.mpf
    beta: mp.mpf
    sigma: mp.mpf
    p: mp.mpf
    Pn_at_a: mp.mpf
    bits: int


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
    if not table.a > 0:
        raise DomainError("ladder quantities require a > 0")
    t = table.certified_digits // 2
    bits = table.working_bits
    a = table.a
    beta = table.beta[:n_top + 1]
    edge = edge_quantities(a, beta, table.h[:n_top + 1], bits)
    P = edge["P"]
    pt = [x._mpf_ for x in P]
    with mp.workprec(bits):
        thresh = (mp.mpf(10) ** (-t))._mpf_
    a_t = a._mpf_
    # a tuple (s, m, e, b) with m != 0 has magnitude in [2^(e+b-1), 2^(e+b)),
    # and a rounded product of magnitudes below 2^k stays at most 2^k; so
    # |P_n| at least 4 times the bound on thresh * scale passes the check
    top = [x[2] + x[3] for x in pt]
    lead = thresh[2] + thresh[3] + 2
    a_top, b_top = a_t[2] + a_t[3], [b._mpf_[2] + b._mpf_[3] for b in beta]
    for n in range(1, n_top + 1):
        bound = a_top + top[n - 1]
        if n >= 2:
            bound = max(bound, b_top[n - 1] + top[n - 2])
        if pt[n][1] and top[n] - 1 >= lead + bound:
            continue
        # scale of the two recurrence terms whose difference is P_n(a)
        scale = mpf_abs(mpf_mul(a_t, pt[n - 1], bits, RN), bits, RN)
        if n >= 2:
            other = mpf_abs(mpf_mul(beta[n - 1]._mpf_, pt[n - 2], bits, RN), bits, RN)
            if mpf_cmp(other, scale) > 0:
                scale = other
        if mpf_cmp(mpf_abs(pt[n], bits, RN), mpf_mul(thresh, scale, bits, RN)) < 0:
            raise EdgeZeroError(
                f"P_{n}(a) is below the certification threshold at a={mp.nstr(a, 8)}",
                n=n,
            )
    return list(map(LadderState, range(n_top + 1), [a] * (n_top + 1), edge["R"], edge["r"],
                    beta, edge["sigma"], edge["p"], P, [bits] * (n_top + 1)))


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
    a = states[0].a
    reports = []
    with mp.workprec(bits):
        sum_R = mp.mpf(0)
        sum_r = mp.mpf(0)
        for n in range(len(states) - 1):
            s = states[n]
            s1 = states[n + 1]
            R, r, beta, sigma, p = s.R, s.r, s.beta, s.sigma, s.p
            rep = ResidualReport(n, bits)
            rep.check("pair_sum", [s1.r, r, -a * R], IDENTITY_TOL)
            rep.check("beta_closed_form", [beta, -mp.mpf(n) / 2, -r / 2], IDENTITY_TOL)
            if n >= 1:
                rep.check("r_squared", [r * r, -beta * R * states[n - 1].R], IDENTITY_TOL)
            rep.check("weighted_sum", [a * sum_R, -2 * sum_r, -r], IDENTITY_TOL)
            if R != 0:
                rep.check("R_partial_sum",
                          [sum_R, 2 * a * r, r * r / a, -(n + r) * R, -2 * r * r / R],
                          IDENTITY_TOL)
                rep.check("subleading", [
                    -p,
                    -mp.mpf(n * (n - 1)) / 4,
                    (mp.mpf(1) / 4 + a * a / 2) * r,
                    r * r / 4,
                    -(a / 4) * (n + r) * R,
                    -(a / 2) * r * r / R,
                ], IDENTITY_TOL)
            rep.check("sigma_step", [R, -sigma, s1.sigma], IDENTITY_TOL)
            reports.append(rep)
            sum_R += R
            sum_r += r
    return reports


def spectral_samples(states: Sequence[LadderState]) -> list[tuple]:
    """The cell's spectral table: per default sample point z, nudged off
    z^2 = a^2, (names, z, -z, 2z, d, A, B) with names its checks s1@z, s2@z,
    s2sum@z (z as mp.nstr(z, 8)) and the rest raw mpf tuples at the states'
    bits: d = z^2 - a^2, A[j] = 2 + R_j a / d and B[j] = r_j z / d for every
    state j, each operation rounded once as the mpf expression rounds it."""
    bits, a = states[0].bits, states[0].a._mpf_
    a2 = mpf_mul(a, a, bits, RN)
    R_a = [mpf_mul(s.R._mpf_, a, bits, RN) for s in states]
    out = []
    with mp.workprec(bits):
        av = as_mpf(states[0].a, bits)
        for text in DEFAULT_Z_SAMPLES:
            z = mp.mpf(text)
            while abs(z * z - av * av) <= POLE_MARGIN:
                z *= mp.mpf("1.5")
            tag, z = mp.nstr(z, 8), z._mpf_
            d = mpf_sub(mpf_mul(z, z, bits, RN), a2, bits, RN)
            out.append(((f"s1@{tag}", f"s2@{tag}", f"s2sum@{tag}"), z, mpf_neg(z),
                        mpf_shift(z, 1), d,
                        [mpf_add(ftwo, mpf_div(x, d, bits, RN), bits, RN) for x in R_a],
                        [mpf_div(mpf_mul(s.r._mpf_, z, bits, RN), d, bits, RN) for s in states]))
    return out


def residual_supplementary(states: Sequence[LadderState], n: int,
                           samples: Sequence[tuple] | None = None) -> ResidualReport:
    """Residuals of the three supplementary spectral-function conditions.

    With v0'(z) = 2z for the Gaussian potential these read

      s1      B_{n+1} + B_n = z A_n - 2z
      s2      1 + z (B_{n+1} - B_n) = beta_{n+1} A_{n+1} - beta_n A_{n-1}
      s2sum   B_n^2 + 2 z B_n + sum_{j<n} A_j = beta_n A_n A_{n-1}

    where sum_{j<n} A_j = 2n - a sigma_n / (z^2 - a^2).  s1 is checked for
    n >= 0, the other two need n >= 1, at the default sample points moved
    off the poles at z = +-a: ``samples`` is ``spectral_samples(states)``,
    built here when not given, once per cell by a caller of many n.
    """
    if n < 0 or n + 1 >= len(states):
        raise DomainError(f"need states 0..{n + 1}, have {len(states)}")
    if samples is None:
        samples = spectral_samples(states)
    bits = states[0].bits
    rep = ResidualReport(n, bits)
    if n >= 1:
        beta_n, beta_np1, two_n = states[n].beta._mpf_, states[n + 1].beta._mpf_, from_int(2 * n)
        neg_beta_n, neg_beta_np1 = mpf_neg(beta_n, bits, RN), mpf_neg(beta_np1, bits, RN)
        a_sigma = mpf_mul(states[0].a._mpf_, states[n].sigma._mpf_, bits, RN)
    for (s1, s2, s2sum), z, neg_z, two_z, d, A, B in samples:
        A_n, B_n, B_np1 = A[n], B[n], B[n + 1]
        rep.check(s1, [B_np1, B_n, mpf_mul(neg_z, A_n, bits, RN), two_z], SUPPLEMENTARY_TOL)
        if n >= 1:
            A_nm1 = A[n - 1]
            rep.check(s2, [fone, mpf_mul(z, B_np1, bits, RN), mpf_mul(neg_z, B_n, bits, RN),
                           mpf_mul(neg_beta_np1, A[n + 1], bits, RN),
                           mpf_mul(beta_n, A_nm1, bits, RN)], SUPPLEMENTARY_TOL)
            rep.check(s2sum, [
                mpf_mul(B_n, B_n, bits, RN), mpf_mul(two_z, B_n, bits, RN),
                mpf_sub(two_n, mpf_div(a_sigma, d, bits, RN), bits, RN),
                mpf_mul(mpf_mul(neg_beta_n, A_n, bits, RN), A_nm1, bits, RN)], SUPPLEMENTARY_TOL)
    return rep
