"""Gap probabilities for the finite-n Gaussian unitary ensemble.

P(n, a) is the probability that no eigenvalue of an n x n GUE matrix lies
in (-a, a).  Two independent routes compute it:

* hankel route: P(n, a) = D_n(a) / D_n(0), the ratio of moment
  determinants of the gap weight and the plain Hermite weight, evaluated
  as prod_{j<n} h_j(a) / h_j(0) with the closed form
  h_j(0) = (j!/2^j) sqrt(pi);

* fredholm route: P(n, a) = det(I - G_n) where G_n is the n x n matrix of
  overlaps of the first n orthonormal Hermite functions over (-a, a).
  I - G_n is their Gram matrix C over |x| > a, whose entries follow
  exactly, with no quadrature and no subtraction from the identity, from
  erfc(a) and the Hermite functions at x = a, by a recurrence from the
  derivative and x phi relations of DLMF 18.9 (``overlap_matrix``).  C_k
  is the leading k x k block of C_n, so one unpivoted LDL^T factorization
  of C_n gives P(k, a) for every k <= n as its leading principal minors
  (Bornemann, "On the numerical evaluation of Fredholm determinants",
  Math. Comp. 79, 2010).  The minors are certified by the loop that
  certifies the recurrence tables (``orthopoly._certify``), from the start
  bits of the route's own measured loss, so the route reads no number of
  the Hankel route.

Agreement of the two routes is the package's strongest end-to-end check,
since they share no code beyond the scalar kernel.
"""

from __future__ import annotations

from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import fone, mpf_div, mpf_mul
from mpmath.libmp import round_nearest as RN

from .exceptions import DomainError
from .orthopoly import (Certified, RecurrenceTable, _certify, _NonPositiveNorm, _parse_inputs,
                        build_recurrence_table, hermite_norms_exact)
from .precision import PrecisionPolicy, as_mpf
from .report import ResidualReport
from .weight import GapWeight

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


def overlap_matrix(n: int, a, bits: int) -> list[list[mp.mpf]]:
    """C[j][k] = integral_{|x| > a} phi_j phi_k dx for j, k < n, exactly:
    C = I - G_n itself, whose minors are those of I - G_n.

    Integrating (phi_j phi_k)' over |x| > a with the relations
    phi_k' = sqrt(k/2) phi_{k-1} - sqrt((k+1)/2) phi_{k+1} and
    x phi_k = sqrt(k/2) phi_{k-1} + sqrt((k+1)/2) phi_{k+1} (DLMF 18.9)
    gives, for j + k even and j <= k,

        C[j][k] = (sqrt(j) C[j-1][k-1] + sqrt(2) phi_j(a) phi_{k-1}(a)) / sqrt(k)

    from C[0][0] = erfc(a); the first row is the boundary term alone, and
    on the diagonal this is C[k-1][k-1] + sqrt(2/k) phi_k(a) phi_{k-1}(a).
    An entry with j + k odd is exactly 0, since phi_j phi_k is then odd.
    Only k >= j is walked, so each factor sqrt(j / k) is at most 1 and
    rounding errors add up along a band instead of growing.  At a = 0 every
    boundary term holds a factor phi_odd(0) = 0, so C is exactly I.
    """
    if n < 1:
        raise DomainError(f"matrix size must be >= 1, got {n}")
    GapWeight(as_mpf(a, 64), 64)
    av = as_mpf(a, bits)
    phi = hermite_function_values(n, av, bits)
    with mp.workprec(bits):
        roots = [mp.sqrt(j) for j in range(n)]
        sqrt2 = mp.sqrt(2)
        C = [[mp.mpf(0)] * n for _ in range(n)]
        C[0][0] = mp.erfc(av)
        for j in range(n):
            for k in range(j or 2, n, 2):
                edge = sqrt2 * phi[j] * phi[k - 1]
                inner = roots[j] * C[j - 1][k - 1] + edge if j else edge
                C[j][k] = C[k][j] = inner / roots[k]
        return C


def det_identity_minus(C: list[list[mp.mpf]], bits: int) -> list[mp.mpf]:
    """Leading principal minors det(I - G_n)[:k, :k] for k = 1..n, by LDL^T:
    the minors of I - G_n, from C = I - G_n itself (``overlap_matrix``).

    C is symmetric positive definite, the Gram matrix of orthonormal
    functions restricted to |x| > a.  Unpivoted elimination is therefore
    stable, and the k-th minor is the product of the first k pivots.  Only
    the lower triangle of the Schur complement is updated.  A pivot that is
    not positive means rounding lost that property, and raises
    ``orthopoly._NonPositiveNorm``, on which the certification loop
    escalates.

    C must vanish wherever j + k is odd, as ``overlap_matrix``'s does; the
    updates keep that pattern, so only the rows and columns of the pivot's
    parity are updated (the others would subtract exact zeros).
    """
    n = len(C)
    with mp.workprec(bits):
        M = [list(row) for row in C]
        minors = []
        det = mp.mpf(1)
        for k in range(n):
            pivot = M[k][k]
            if not pivot > 0:
                raise _NonPositiveNorm(k + 1, "pivot")
            det *= pivot
            minors.append(det)
            for i in range(k + 2, n, 2):
                f = M[i][k] / pivot
                Mi = M[i]
                for j in range(k + 2, i + 1, 2):
                    Mi[j] -= f * M[j][k]
        return minors


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
    """[P(1, a), ..., P(n, a)] at ``bits``: the minors of one C_n."""
    return det_identity_minus(overlap_matrix(n, a_value, bits), bits)


def gap_probability_fredholm(n: int, a, policy: PrecisionPolicy | None = None) -> Certified:
    """[P(1, a), ..., P(n, a)] as det(I - G_k), G_k the leading k x k block
    of the Hermite-function overlap matrix G_n: the minors of I - G_n, from
    C = I - G_n itself.

    Certified by ``orthopoly._certify`` to ``policy.target_certified_digits``
    from ``policy.start_bits("fredholm", a, n)``, the target plus the
    route's measured loss unless ``base_bits`` sets W exactly.  Returns the
    loop's record: the minors of the upper pass in ``value``, their
    certified digits, bits and escalations.
    """
    if n < 1:
        raise DomainError(f"matrix size must be >= 1, got {n}")
    policy, a = _parse_inputs(a, n, policy)
    return _certify(lambda bits: _fredholm_pass(a, n, bits),
                    policy.start_bits("fredholm", a, n), policy)


def _both_routes(n: int, a, policy: PrecisionPolicy | None, table: RecurrenceTable | None):
    """(bits, Hankel [P(1, a), ..., P(n, a)], certified Fredholm minors).
    bits is the table's, built at degree n - 1 unless given, and so is a if
    None.  The routes share no number: the Fredholm route starts from a."""
    if n < 1:
        raise DomainError(f"matrix size must be >= 1, got {n}")
    if table is None:
        if a is None:
            raise DomainError("need either a or a prebuilt table")
        table = build_recurrence_table(a, n - 1, policy)
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
