"""Gap probabilities for the finite-n Gaussian unitary ensemble.

P(n, a) is the probability that no eigenvalue of an n x n GUE matrix lies
in (-a, a).  Two independent routes compute it:

* hankel route: P(n, a) = D_n(a) / D_n(0), the ratio of moment
  determinants of the gap weight and the plain Hermite weight, evaluated
  as prod_{j<n} h_j(a) / h_j(0) with the closed form
  h_j(0) = (j!/2^j) sqrt(pi);

* fredholm route: P(n, a) = det(I - G) where G is the n x n matrix of
  overlaps of the first n orthonormal Hermite functions over (-a, a),
  integrated by arbitrary-precision Gauss-Legendre quadrature.  G_k is
  the leading k x k block of G_n on the same nodes, so one unpivoted
  LDL^T factorization of I - G_n gives P(k, a) for every k <= n as its
  leading principal minors, and one pair of rules (order and twice the
  order) serves a whole verify cell.  Its precision comes from the digits
  asked for plus the bits I - G_n can lose, bounded through the Hankel
  value of P(n, a) (``fredholm_bits``), not from the Hankel table's bits.

Agreement of the two routes is the package's strongest end-to-end check,
since they share no code beyond the scalar kernel.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import mpmath as mp
from mpmath import libmp

from .exceptions import DomainError, QuadratureConvergenceError
from .orthopoly import RecurrenceTable, build_recurrence_table, hermite_norm_exact
from .precision import GUARD_BITS, PrecisionPolicy, Real, as_mpf, pi_const
from .report import ResidualReport, make_check

ORACLE_TOL = 1e-12
ANCHOR_TOL = 1e-30
QUAD_CONVERGENCE_TOL = 1e-25

_GL_LOCK = threading.Lock()
_GL_CACHE: dict[tuple[int, int], tuple[tuple[mp.mpf, ...], tuple[mp.mpf, ...]]] = {}


def default_quad_order(n: int, a) -> int:
    """Quadrature order used for the n x n overlap matrix at half-width a.

    Mapped onto (-1, 1), the integrands phi_l(a t) phi_m(a t) vary on a
    scale of 1/a, so beyond a = 2 the order gains 16 nodes per unit of a
    (at 400 bits, n = 1 needs 36, 48, 60 and 76 nodes at a = 3, 4, 5, 6).
    """
    return 40 + 4 * n + 16 * max(0, int(mp.ceil(as_mpf(a, 64))) - 2)


def _initial_guess(k: int, order: int) -> float:
    """Chebyshev-type guess for the k-th largest root of P_order."""
    return math.cos(math.pi * (4 * k - 1) / (4 * order + 2))


def _legendre_newton(order: int, X: int, F: int) -> tuple[int, int, int]:
    """(dX, D, S) at x = X / 2^F from the recurrence in integers scaled by
    2^F: the Newton correction dX = -P_order / P_order' scaled by 2^F,
    D = (x P_order - P_order-1) 2^F and S = (1 - x^2) 2^(2F), so that the
    Gauss-Legendre weight at x is 2 S / (order D)^2."""
    p_prev, p = 1 << F, X
    for j in range(1, order):
        p_prev, p = p, ((2 * j + 1) * (X * p >> F) - j * p_prev) // (j + 1)
    d = (X * p >> F) - p_prev
    s = (1 << 2 * F) - X * X
    return p * s // (order * d << F), d, s


def gauss_legendre_rule(order: int, bits: int):
    """Nodes and weights of the Gauss-Legendre rule on (-1, 1).

    Newton iteration on the degree-``order`` Legendre polynomial from
    Chebyshev initial guesses, in fixed-point integers x = X / 2^F: each
    node converges at a low F, then F about doubles with every step up to
    bits + GUARD_BITS + 32 (Brent & Zimmermann, Modern Computer Arithmetic,
    2010, sec. 4.2).  One repeated step at full F must move the node by less
    than 2^-(bits + GUARD_BITS/2), else QuadratureConvergenceError; it also
    gives the weight.  Rounded to nearest at ``bits`` and cached per
    (order, bits).  Nodes come in exact +- pairs so odd integrands cancel.
    """
    if order < 1:
        raise DomainError(f"quadrature order must be >= 1, got {order}")
    key = (order, bits)
    with _GL_LOCK:
        hit = _GL_CACHE.get(key)
    if hit is not None:
        return hit

    F = bits + GUARD_BITS + 32
    # near the ends the Newton constant costs up to loss bits: a step at
    # precision f from f // 2 + loss accurate bits is accurate to f - loss
    loss = 2 * order.bit_length()
    start = 2 * loss + 32
    schedule = [F]
    while schedule[-1] > start:
        schedule.append(schedule[-1] // 2 + loss)
    rnd = libmp.round_nearest
    pos_nodes, pos_weights = [], []
    for k in range(1, order // 2 + 1):
        f = start
        X = round(math.ldexp(_initial_guess(k, order), f))
        for _ in range(100):
            dX = _legendre_newton(order, X, f)[0]
            X += dX
            if abs(dX) < 1 << loss:
                break
        for f_next in schedule[-2::-1]:
            X <<= f_next - f
            f = f_next
            X += _legendre_newton(order, X, f)[0]
        dX, d, s = _legendre_newton(order, X, F)
        if not abs(dX) < 1 << (F - bits - GUARD_BITS // 2):
            raise QuadratureConvergenceError(
                f"Newton did not converge to root {k} of P_{order} at {bits} bits"
            )
        pos_nodes.append(libmp.from_man_exp(X + dX, -F, bits, rnd))
        pos_weights.append(libmp.from_rational(2 * s, (order * d) ** 2, bits, rnd))
    nodes = [libmp.mpf_neg(x) for x in pos_nodes]
    weights = list(pos_weights)
    if order % 2 == 1:
        _, d, s = _legendre_newton(order, 0, F)
        nodes.append(libmp.fzero)
        weights.append(libmp.from_rational(2 * s, (order * d) ** 2, bits, rnd))
    nodes += reversed(pos_nodes)
    weights += reversed(pos_weights)
    result = (tuple(map(mp.make_mpf, nodes)), tuple(map(mp.make_mpf, weights)))
    with _GL_LOCK:
        _GL_CACHE[key] = result
    return result


@functools.lru_cache(maxsize=16)
def _hermite_coefficients(count: int, bits: int) -> tuple:
    """(sqrt(2/(l+1)), sqrt(l/(l+1))) for l < count - 1, at ``bits``."""
    with mp.workprec(bits):
        return tuple((mp.sqrt(mp.mpf(2) / (l + 1)), mp.sqrt(mp.mpf(l) / (l + 1)))
                     for l in range(count - 1))


def hermite_function_values(count: int, x: mp.mpf, bits: int) -> list[mp.mpf]:
    """[phi_0(x), ..., phi_{count-1}(x)] for the orthonormal Hermite
    functions phi_l(x) = (2^l l! sqrt(pi))^{-1/2} H_l(x) e^{-x^2/2}."""
    coefficients = _hermite_coefficients(count, bits)
    with mp.workprec(bits):
        phi0 = mp.exp(-x * x / 2) / mp.sqrt(mp.sqrt(pi_const(bits)))
        vals = [phi0]
        if count > 1:
            vals.append(coefficients[0][0] * x * phi0)
        for l in range(1, count - 1):
            c_up, c_down = coefficients[l]
            vals.append(c_up * x * vals[l] - c_down * vals[l - 1])
        return vals


def overlap_matrix(n: int, a, order: int, bits: int) -> list[list[mp.mpf]]:
    """G[l][m] = integral_{-a}^{a} phi_l phi_m dx for l, m < n.

    phi_l(-x) = (-1)^l phi_l(x) holds exactly in floating point and the
    rule's nodes come in exact +- pairs, so only the nonnegative nodes are
    evaluated: an entry with l + m even is the sum of twice each positive
    node's term plus the middle node's (one rounding, as over all nodes),
    and an entry with l + m odd is exactly 0.
    """
    if n < 1:
        raise DomainError(f"matrix size must be >= 1, got {n}")
    av = as_mpf(a, bits)
    if av < 0:
        raise DomainError("gap half-width must be >= 0")
    nodes, weights = gauss_legendre_rule(order, bits)
    half = order // 2
    with mp.workprec(bits):
        phi_rows = [hermite_function_values(n, av * t, bits) for t in nodes[half:]]
        folded = [w if t == 0 else 2 * w for t, w in zip(nodes[half:], weights[half:])]
        G = [[mp.mpf(0)] * n for _ in range(n)]
        for l in range(n):
            w_l = [w * row[l] for w, row in zip(folded, phi_rows)]
            for m in range(l, n, 2):
                G[l][m] = G[m][l] = av * mp.fsum(wl * row[m] for wl, row in zip(w_l, phi_rows))
        return G


def det_identity_minus(G: list[list[mp.mpf]], bits: int) -> list[mp.mpf]:
    """Leading principal minors det(I - G)[:k, :k] for k = 1..n, by LDL^T.

    I - G is symmetric positive definite, since 0 <= G < I is the Gram
    matrix of orthonormal functions restricted to (-a, a).  Unpivoted
    elimination is therefore stable, and the k-th minor is the product of
    the first k pivots.  Only the lower triangle of the Schur complement is
    updated.  A pivot that is not positive means the quadrature lost that
    property, and raises QuadratureConvergenceError.
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
            for i in range(k + 1, n):
                f = M[i][k] / pivot
                if f != 0:
                    Mi = M[i]
                    for j in range(k + 1, i + 1):
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
        for j in range(n):
            probs.append(probs[j] * (table.h[j].value / hermite_norm_exact(j, bits).value))
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

    One rule pair serves every k: the minors are computed at the default
    quadrature order and at twice that order; a relative disagreement beyond
    QUAD_CONVERGENCE_TOL at any k raises QuadratureConvergenceError,
    otherwise the doubled-order values are returned.
    """
    if n < 1:
        raise DomainError(f"matrix size must be >= 1, got {n}")
    order = default_quad_order(n, a)
    bits = prec_bits + GUARD_BITS
    dets_lo = det_identity_minus(overlap_matrix(n, a, order, bits), bits)
    dets_hi = det_identity_minus(overlap_matrix(n, a, 2 * order, bits), bits)
    with mp.workprec(bits):
        for k, (det_lo, det_hi) in enumerate(zip(dets_lo, dets_hi), start=1):
            rel = abs(det_hi - det_lo) / max(det_lo, det_hi)
            if not rel < QUAD_CONVERGENCE_TOL:
                raise QuadratureConvergenceError(
                    f"orders {order} and {2 * order} disagree by {mp.nstr(rel, 5)} "
                    f"(tolerance {QUAD_CONVERGENCE_TOL}) at n={k}"
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
    check pass falsely.  Rounded up to a multiple of 64 bits so that nearby
    cells share one cached rule pair.
    """
    if n < 1:
        raise DomainError(f"matrix size must be >= 1, got {n}")
    with mp.workprec(64):
        loss = max(0, int(mp.ceil(mp.log(n / as_mpf(p_hankel, 64), 2))))
    bits = math.ceil(digits * math.log2(10)) + loss
    return -(-bits // 64) * 64


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
    if policy is None:
        policy = PrecisionPolicy()
    p_h = gap_probability_hankel(n, a, policy, table=table)
    bits = p_h.precision_bits
    a_val = a if a is not None else table.a
    f_bits = fredholm_bits(n, p_h, digits or policy.target_certified_digits)
    p_f = gap_probability_fredholm(n, a_val, prec_bits=f_bits)[-1]
    with mp.workprec(bits):
        rel = abs(p_h.value - p_f.value) / p_h.value
        av = as_mpf(a_val, bits)
    return ProbabilityRecord(
        n=n, a=Real(av, bits), prob_hankel=p_h, prob_fredholm=p_f, rel_discrepancy=rel
    )


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
    if n < 1:
        raise DomainError(f"matrix size must be >= 1, got {n}")
    if policy is None:
        policy = PrecisionPolicy()
    if table is None:
        table = build_recurrence_table(a, max(n - 1, 0), policy)
    bits = table.working_bits
    a_val = a if a is not None else table.a
    p_h = hankel_probabilities(table, n)[1:]
    f_bits = fredholm_bits(n, p_h[-1], policy.target_certified_digits)
    p_f = gap_probability_fredholm(n, a_val, prec_bits=f_bits)
    rep = ResidualReport(a=mp.nstr(as_mpf(a_val, bits), 12), n=n)
    with mp.workprec(bits):
        for k, (h, f) in enumerate(zip(p_h, p_f), start=1):
            rep.add(make_check("route_agreement", k, [h, -f.value], ORACLE_TOL, bits))
    return rep
