"""Gap probabilities for the finite-n Gaussian unitary ensemble.

P(n, a) is the probability that no eigenvalue of an n x n GUE matrix lies
in (-a, a).  Two independent routes compute it:

* hankel route: P(n, a) = D_n(a) / D_n(0), the ratio of moment
  determinants of the gap weight and the plain Hermite weight, evaluated
  as prod_{j<n} h_j(a) / h_j(0) with the closed form
  h_j(0) = (j!/2^j) sqrt(pi);

* fredholm route: P(n, a) = det(I - G) where G is the n x n matrix of
  overlaps of the first n orthonormal Hermite functions over (-a, a).
  Its entries follow exactly, with no quadrature, from erf(a) and the
  Hermite functions at x = a, by a recurrence from the derivative and
  x phi relations of DLMF 18.9 (``overlap_matrix``).  G_k is the leading
  k x k block of G_n, so one unpivoted LDL^T factorization of I - G_n
  gives P(k, a) for every k <= n as its leading principal minors.  Its
  precision comes from the digits asked for plus the bits I - G_n can
  lose, bounded through the Hankel value of P(n, a) (``fredholm_bits``),
  not from the Hankel table's bits.  It is certified across precisions:
  the minors formed again at CHECK_BITS more bits must agree within that
  loss.

Agreement of the two routes is the package's strongest end-to-end check,
since they share no code beyond the scalar kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

from .exceptions import DomainError, QuadratureConvergenceError
from .orthopoly import RecurrenceTable, build_recurrence_table, hermite_norms_exact
from .precision import CHECK_BITS, GUARD_BITS, PrecisionPolicy, Real, as_mpf
from .report import ResidualReport, make_check

ORACLE_TOL = 1e-12


def hermite_function_values(count: int, x: mp.mpf, bits: int) -> list[mp.mpf]:
    """[phi_0(x), ..., phi_{count-1}(x)] for the orthonormal Hermite
    functions phi_l(x) = (2^l l! sqrt(pi))^{-1/2} H_l(x) e^{-x^2/2}."""
    with mp.workprec(bits):
        vals = [mp.exp(-x * x / 2) / mp.sqrt(mp.sqrt(mp.pi))]
        for l in range(count - 1):
            # at l = 0, c_down is exactly 0 and vals[l - 1] is only a placeholder
            c_up, c_down = mp.sqrt(mp.mpf(2) / (l + 1)), mp.sqrt(mp.mpf(l) / (l + 1))
            vals.append(c_up * x * vals[l] - c_down * vals[l - 1])
        return vals


def overlap_matrix(n: int, a, bits: int) -> list[list[mp.mpf]]:
    """G[j][k] = integral_{-a}^{a} phi_j phi_k dx for j, k < n, exactly.

    Integrating (phi_j phi_k)' over (-a, a) with the relations
    phi_k' = sqrt(k/2) phi_{k-1} - sqrt((k+1)/2) phi_{k+1} and
    x phi_k = sqrt(k/2) phi_{k-1} + sqrt((k+1)/2) phi_{k+1} (DLMF 18.9)
    gives, for j + k even,

        G[j][k] = (sqrt(j) G[j-1][k-1] - sqrt(2) phi_j(a) phi_{k-1}(a)) / sqrt(k)

    from G[0][0] = erf(a); the first row is the boundary term alone.  An
    entry with j + k odd is exactly 0, since phi_j phi_k is then odd.  Only
    k >= j is walked, so each factor sqrt(j / k) is at most 1 and rounding
    errors add up along a band instead of growing.
    """
    if n < 1:
        raise DomainError(f"matrix size must be >= 1, got {n}")
    av = as_mpf(a, bits)
    if av < 0:
        raise DomainError("gap half-width must be >= 0")
    phi = hermite_function_values(n, av, bits)
    with mp.workprec(bits):
        roots = [mp.sqrt(j) for j in range(n)]
        sqrt2 = mp.sqrt(2)
        G = [[mp.mpf(0)] * n for _ in range(n)]
        G[0][0] = mp.erf(av)
        for j in range(n):
            for k in range(j or 2, n, 2):
                edge = sqrt2 * phi[j] * phi[k - 1]
                inner = roots[j] * G[j - 1][k - 1] - edge if j else -edge
                G[j][k] = G[k][j] = inner / roots[k]
        return G


def det_identity_minus(G: list[list[mp.mpf]], bits: int) -> list[mp.mpf]:
    """Leading principal minors det(I - G)[:k, :k] for k = 1..n, by LDL^T.

    I - G is symmetric positive definite, since 0 <= G < I is the Gram
    matrix of orthonormal functions restricted to (-a, a).  Unpivoted
    elimination is therefore stable, and the k-th minor is the product of
    the first k pivots.  Only the lower triangle of the Schur complement is
    updated.  A pivot that is not positive means rounding lost that
    property, and raises QuadratureConvergenceError.

    G must vanish wherever j + k is odd, as ``overlap_matrix``'s does; the
    updates keep that pattern, so only the rows and columns of the pivot's
    parity are updated (the others would subtract exact zeros).
    """
    n = len(G)
    with mp.workprec(bits):
        M = [[(mp.mpf(1) if i == j else mp.mpf(0)) - G[i][j] for j in range(n)] for i in range(n)]
        minors = []
        det = mp.mpf(1)
        for k in range(n):
            pivot = M[k][k]
            if not pivot > 0:
                raise QuadratureConvergenceError(
                    f"pivot {k + 1} of I - G is {mp.nstr(pivot, 5)}, not positive"
                )
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
    over the table.  Each factor lies in (0, 1], so the product is monotone
    and free of overflow."""
    if table.n_max < n - 1:
        raise DomainError(f"table covers degrees 0..{table.n_max}, need {n - 1}")
    bits = table.working_bits
    with mp.workprec(bits):
        probs = [mp.mpf(1)]
        for j, h0 in enumerate(hermite_norms_exact(n, bits)):
            probs.append(probs[j] * (table.h[j].value / h0))
    return probs


def gap_probability_hankel(
    n: int,
    a=None,
    policy: PrecisionPolicy | None = None,
    table: RecurrenceTable | None = None,
) -> Real:
    """P(n, a) as prod_{j<n} h_j(a) / h_j(0) (``hankel_probabilities``).

    Either pass a prebuilt certified table (preferred when one exists) or
    a value for ``a``.
    """
    if n < 0:
        raise DomainError(f"matrix size must be >= 0, got {n}")
    if table is None:
        if a is None:
            raise DomainError("need either a or a prebuilt table")
        table = build_recurrence_table(a, max(n - 1, 0), policy)
    return Real(hankel_probabilities(table, n)[n], table.working_bits)


def gap_probability_fredholm(n: int, a, prec_bits: int = 512) -> list[Real]:
    """[P(1, a), ..., P(n, a)] as det(I - G_k), G_k the leading k x k block
    of the Hermite-function overlap matrix G_n.

    G_n and its minors are formed at prec_bits + GUARD_BITS and again at
    CHECK_BITS more bits.  At prec_bits the k-th minor may lose up to
    log2(k / P(k, a)) bits (``fredholm_bits``), so the two must agree to a
    relative 2^-prec_bits k / P(k, a); a larger disagreement, or a pivot
    that is not positive, raises QuadratureConvergenceError.  The minors of
    the second pass are returned, rounded to prec_bits.
    """
    if n < 1:
        raise DomainError(f"matrix size must be >= 1, got {n}")
    bits = prec_bits + GUARD_BITS
    dets_lo, dets_hi = (det_identity_minus(overlap_matrix(n, a, b), b)
                        for b in (bits, bits + CHECK_BITS))
    with mp.workprec(bits):
        for k, (det_lo, det_hi) in enumerate(zip(dets_lo, dets_hi), start=1):
            rel = abs(det_hi - det_lo) / det_hi
            bound = mp.ldexp(k, -prec_bits) / det_hi
            if not rel <= bound:
                raise QuadratureConvergenceError(
                    f"minors at {bits} and {bits + CHECK_BITS} bits disagree by "
                    f"{mp.nstr(rel, 5)} (bound {mp.nstr(bound, 5)}) at n={k}"
                )
    return [Real(as_mpf(d, prec_bits), prec_bits) for d in dets_hi]


def fredholm_bits(n: int, p_hankel, digits: int) -> int:
    """Precision at which ``gap_probability_fredholm`` gives ``digits`` digits
    of P(k, a) for every k <= n, from the Hankel route's P(n, a).

    0 <= G_n < I, so every eigenvalue of I - G_n lies in (0, 1] and the
    smallest is at least det(I - G_n) = P(n, a): the LDL^T minors lose at
    most about log2(n / P(n, a)) bits (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 10), and GUARD_BITS absorb the constant.
    A wrong P(n, a) would show as route disagreement, so it cannot make the
    check pass falsely.  Rounded up to a multiple of 64 bits.
    """
    if n < 1:
        raise DomainError(f"matrix size must be >= 1, got {n}")
    with mp.workprec(64):
        loss = max(0, int(mp.ceil(mp.log(n / as_mpf(p_hankel, 64), 2))))
    bits = math.ceil(digits * math.log2(10)) + loss
    return -(-bits // 64) * 64


def _both_routes(n: int, a, policy: PrecisionPolicy | None,
                 table: RecurrenceTable | None, digits: int | None):
    """(a, bits, Hankel [P(1, a), ..., P(n, a)], Fredholm [P(1, a), ..., P(n, a)]).
    bits is the table's, built at degree n - 1 unless given, and so is a if None."""
    if n < 1:
        raise DomainError(f"matrix size must be >= 1, got {n}")
    if policy is None:
        policy = PrecisionPolicy()
    if table is None:
        if a is None:
            raise DomainError("need either a or a prebuilt table")
        table = build_recurrence_table(a, n - 1, policy)
    if a is None:
        a = table.a
    p_h = hankel_probabilities(table, n)[1:]
    f_bits = fredholm_bits(n, p_h[-1], digits or policy.target_certified_digits)
    return a, table.working_bits, p_h, gap_probability_fredholm(n, a, prec_bits=f_bits)


@dataclass(frozen=True)
class ProbabilityRecord:
    """P(n, a) by both routes, with their relative discrepancy."""

    n: int
    a: Real
    prob_hankel: Real
    prob_fredholm: Real
    rel_discrepancy: mp.mpf


def probability_record(
    n: int,
    a,
    policy: PrecisionPolicy | None = None,
    table: RecurrenceTable | None = None,
    digits: int | None = None,
) -> ProbabilityRecord:
    """Compute both routes and their relative discrepancy |h - f| / h.

    The Fredholm route runs at ``fredholm_bits`` for ``digits``, by default
    ``policy.target_certified_digits``.
    """
    a, bits, p_h, p_f = _both_routes(n, a, policy, table, digits)
    with mp.workprec(bits):
        rel = abs(p_h[-1] - p_f[-1].value) / p_h[-1]
    return ProbabilityRecord(n=n, a=Real(as_mpf(a, bits), bits), prob_hankel=Real(p_h[-1], bits),
                             prob_fredholm=p_f[-1], rel_discrepancy=rel)


def residual_oracle(
    n: int,
    a,
    policy: PrecisionPolicy | None = None,
    *,
    table: RecurrenceTable | None = None,
) -> ResidualReport:
    """Route-agreement residuals |P_hankel - P_fredholm| / P_hankel for
    P(k, a), k = 1..n, from one recurrence table and one Fredholm call at
    ``fredholm_bits`` for ``policy.target_certified_digits``."""
    a, bits, p_h, p_f = _both_routes(n, a, policy, table, None)
    rep = ResidualReport(a=mp.nstr(as_mpf(a, bits), 12), n=n)
    with mp.workprec(bits):
        for k, (h, f) in enumerate(zip(p_h, p_f), start=1):
            rep.add(make_check("route_agreement", k, [h, -f.value], ORACLE_TOL, bits))
    return rep
