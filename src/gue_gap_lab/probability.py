"""Gap probabilities for the finite-n Gaussian unitary ensemble.

P(n, a) is the probability that no eigenvalue of an n x n GUE matrix lies
in (-a, a).  Two independent routes compute it:

* hankel route: P(n, a) = D_n(a) / D_n(0), the ratio of moment
  determinants of the gap weight and the plain Hermite weight, evaluated
  as prod_{j<n} h_j(a) / h_j(0) over a recurrence table, by default the
  orbit of the ladder relations (``difference_eqs.orbit_recurrence_table``),
  with the closed form h_j(0) = (j!/2^j) sqrt(pi), and exactly 1 at a = 0;

* fredholm route: P(n, a) = det(I - G_n) where G_n is the n x n matrix of
  overlaps of the first n orthonormal Hermite functions over (-a, a).
  I - G_n is their Gram matrix C over |x| > a.  C is Cauchy-like, and
  erfc(a) and the Hermite functions at x = a set it exactly, with no
  quadrature and no subtraction from the identity (DLMF 18.9).  C_k is the
  leading k x k block of C_n, so one unpivoted elimination of C_n, run on
  its generators in O(n^2) without forming C (``_fredholm_pass``), gives
  P(k, a) for every k <= n as its leading principal minors (Bornemann, "On
  the numerical evaluation of Fredholm determinants", Math. Comp. 79, 2010).
  The minors are certified by the loop that certifies the recurrence
  tables (``precision.certify``), from the start bits of the route's own
  measured loss, so the route reads no number of the Hankel route.

Agreement of the two routes is the package's strongest end-to-end check,
since they share no code beyond the scalar kernel.
"""

from __future__ import annotations

from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import fone, mpf_div, mpf_mul
from mpmath.libmp import round_nearest as RN

from .difference_eqs import orbit_recurrence_table
from .exceptions import DomainError
from .orthopoly import RecurrenceTable, hermite_norms_exact
from .precision import Certified, NonPositiveNorm, PrecisionPolicy, as_mpf, certify
from .report import ResidualReport

ORACLE_TOL = 1e-12


def hermite_function_values(count: int, x: mp.mpf, bits: int) -> list[mp.mpf]:
    """[phi_0(x), ..., phi_{count-1}(x)] for the orthonormal Hermite
    functions phi_l(x) = (2^l l! sqrt(pi))^{-1/2} H_l(x) e^{-x^2/2}."""
    if count < 0:
        raise DomainError(f"count must be >= 0, got {count}")
    if count == 0:
        return []
    with mp.workprec(bits):
        vals = [mp.exp(-x * x / 2) / mp.sqrt(mp.sqrt(mp.pi))]
        for l in range(count - 1):
            # at l = 0, c_down is exactly 0 and vals[l - 1] is only a placeholder
            c_up, c_down = mp.sqrt(mp.mpf(2) / (l + 1)), mp.sqrt(mp.mpf(l) / (l + 1))
            vals.append(c_up * x * vals[l] - c_down * vals[l - 1])
        return vals


def hankel_probabilities(table: RecurrenceTable, n: int) -> list[mp.mpf]:
    """[P(0, a), ..., P(n, a)] in one running product of h_j(a) / h_j(0)
    over the table, on raw mpf tuples at the table's bits.  Each factor lies
    in (0, 1], so the product is monotone and free of overflow."""
    if table.n_max < n - 1:
        raise DomainError(f"table covers degrees 0..{table.n_max}, need {n - 1}")
    bits = table.working_bits
    p = fone
    probs = [mp.make_mpf(p)]
    for hj, h0 in zip(table.h, hermite_norms_exact(n, bits)):
        p = mpf_mul(p, mpf_div(hj._mpf_, h0._mpf_, bits, RN), bits, RN)
        probs.append(mp.make_mpf(p))
    return probs


def _fredholm_pass(a_value, n: int, bits: int) -> list[mp.mpf]:
    """[P(1, a), ..., P(n, a)] at ``bits``: the leading principal minors of
    C = I - G_n, by elimination on its generators, with C never formed.

    C[j][k] = integral_{|x| > a} phi_j phi_k dx is exactly 0 when j + k is
    odd, since phi_j phi_k is then odd.  Integrating (phi_j phi_k)' over
    |x| > a with phi_k' = sqrt(k/2) phi_{k-1} - sqrt((k+1)/2) phi_{k+1} and
    x phi_k = sqrt(k/2) phi_{k-1} + sqrt((k+1)/2) phi_{k+1} (DLMF 18.9)
    gives, for j + k even,

        (k - j) C[j][k] = u_j w_k - w_j u_k,
        u_j = sqrt(2) phi_j(a),  w_j = sqrt(j) phi_{j-1}(a),

    and on the diagonal C[k][k] = C[k-1][k-1] + sqrt(2/k) phi_k(a) phi_{k-1}(a)
    from C[0][0] = erfc(a).  So C is Cauchy-like: eliminating pivot k leaves
    a Schur complement of the same form, with generators u_i - f u_k and
    w_i - f w_k, f = C[i][k] / C[k][k] (Gohberg, Kailath and Olshevsky,
    Math. Comp. 64, 1995).  u, w and the diagonal carry the whole
    elimination in O(n^2), and only the rows of the pivot's parity change.
    C is the Gram matrix of orthonormal functions on |x| > a, so it is
    positive definite, unpivoted elimination is stable, and the k-th minor
    is the product of the first k pivots.  A pivot that is not positive
    means rounding lost that, and raises ``precision.NonPositiveNorm``, on
    which the certification loop escalates.  At a = 0 each product of u and
    w holds a factor phi_odd(0) = 0, so every minor is exactly 1.
    """
    av = as_mpf(a_value, bits)
    phi = hermite_function_values(n, av, bits)
    with mp.workprec(bits):
        sqrt2 = mp.sqrt(2)
        u = [sqrt2 * p for p in phi]
        w = [mp.mpf(0)] + [mp.sqrt(j) * phi[j - 1] for j in range(1, n)]
        d = [mp.erfc(av)]
        for k in range(1, n):
            d.append(d[k - 1] + mp.sqrt(mp.mpf(2) / k) * phi[k] * phi[k - 1])
        minors, det = [], mp.mpf(1)
        for k in range(n):
            pivot, uk, wk = d[k], u[k], w[k]
            if not pivot > 0:
                raise NonPositiveNorm(k + 1, "pivot")
            det *= pivot
            minors.append(det)
            for i in range(k + 2, n, 2):
                c = (uk * w[i] - wk * u[i]) / (i - k)
                f = c / pivot
                d[i] -= f * c
                u[i] -= f * uk
                w[i] -= f * wk
        return minors


def gap_probability_fredholm(n: int, a, policy: PrecisionPolicy | None = None) -> Certified:
    """[P(1, a), ..., P(n, a)] as det(I - G_k), G_k the leading k x k block
    of the Hermite-function overlap matrix G_n: the leading minors of
    I - G_n, by elimination on its generators (``_fredholm_pass``).

    Certified by ``precision.certify`` to ``policy.target_certified_digits``
    from the target plus the route's measured loss, unless ``base_bits``
    sets the start exactly.  Returns the loop's record: the minors of the
    upper pass in ``value``, their certified digits, bits and escalations.
    """
    if n < 1:
        raise DomainError(f"matrix size must be >= 1, got {n}")
    return certify("fredholm", _fredholm_pass, a, n, policy)


def _both_routes(n: int, a, policy: PrecisionPolicy | None, table: RecurrenceTable | None):
    """(bits, Hankel [P(1, a), ..., P(n, a)], certified Fredholm minors).
    bits is the table's, and so is a if None.  Unless given, the table is
    the orbit's at degree n - 1 (``difference_eqs.orbit_recurrence_table``),
    which ``table`` builds too; at a = 0, which the orbit refuses, the
    Hankel side is D_n(0) / D_n(0) = 1 exactly, at the Fredholm side's bits.
    The routes share no number: the Hankel side comes from the ladder
    relations, the Fredholm side from the Hermite functions at a."""
    if n < 1:
        raise DomainError(f"matrix size must be >= 1, got {n}")
    if table is None:
        if a is None:
            raise DomainError("need either a or a prebuilt table")
        if as_mpf(a, 64) == 0:
            fredholm = gap_probability_fredholm(n, a, policy)
            return fredholm.working_bits, [mp.mpf(1)] * n, fredholm
        table = orbit_recurrence_table(a, n - 1, policy)
    if a is None:
        a = table.a
    p_h = hankel_probabilities(table, n)[1:]
    return table.working_bits, p_h, gap_probability_fredholm(n, a, policy)


class RouteProbability(NamedTuple):
    """One route's P(n, a): a plain mpf ``value`` and the ``bits`` it is at."""

    value: mp.mpf
    bits: int


class ProbabilityRecord(NamedTuple):
    """P(n, a) by both routes, with their relative discrepancy."""

    prob_hankel: RouteProbability
    prob_fredholm: RouteProbability
    rel_discrepancy: mp.mpf


def probability_record(
    n: int,
    a,
    policy: PrecisionPolicy | None = None,
    table: RecurrenceTable | None = None,
) -> ProbabilityRecord:
    """Compute both routes and their relative discrepancy |h - f| / h, each
    certified to ``policy.target_certified_digits``."""
    bits, p_h, fredholm = _both_routes(n, a, policy, table)
    p_f = fredholm.value[-1]
    with mp.workprec(bits):
        rel = abs(p_h[-1] - p_f) / p_h[-1]
    return ProbabilityRecord(prob_hankel=RouteProbability(p_h[-1], bits),
                             prob_fredholm=RouteProbability(p_f, fredholm.working_bits),
                             rel_discrepancy=rel)


def residual_oracle(
    n: int,
    a,
    policy: PrecisionPolicy | None = None,
    *,
    table: RecurrenceTable | None = None,
) -> ResidualReport:
    """Route-agreement residuals |P_hankel - P_fredholm| / P_hankel for
    P(k, a), k = 1..n, from one recurrence table and one Fredholm call, each
    certified to ``policy.target_certified_digits``."""
    bits, p_h, fredholm = _both_routes(n, a, policy, table)
    p_f = fredholm.value
    rep = ResidualReport(n, bits)
    with mp.workprec(bits):
        for k, (h, f) in enumerate(zip(p_h, p_f), start=1):
            rep.check("route_agreement", [h, -f], ORACLE_TOL, n=k)
    return rep
