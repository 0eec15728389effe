"""Monic orthogonal polynomials for the gap weight, from exact moments.

The three-term recurrence P_{j+1}(x) = x P_j(x) - beta_j P_{j-1}(x) (no
x-coefficient: the weight is even) is recovered from power moments by the
Chebyshev algorithm on mixed moments S_k[l] = integral P_k(x) x^l w(x) dx:

    S_k[l]  = S_{k-1}[l+1] - beta_{k-1} S_{k-2}[l]
    h_k     = S_k[k]
    beta_k  = h_k / h_{k-1}

That map is notoriously ill conditioned (about half a digit lost per
degree), which is the point of running it in arbitrary precision: a build
is accepted only after a pass at W bits and a check pass at W + CHECK_BITS
agree to the policy's target number of digits, and W escalates until they
do or the check pass reaches the ceiling.  That loop, ``_certify``, also
certifies the second route to the same table,
``difference_eqs.orbit_recurrence_table``, from which ``table`` builds every
a > 0 cell; ``verify``, ``prob``, the continuous grid and the acceptance gate
use this module's Chebyshev route.  The table keeps the check pass, so its
working bits are W + CHECK_BITS.

Every moment has an exact a-derivative (``weight.moment_jets``), so the same
pass run on Taylor jets (``build_recurrence_table(..., jets=True)``) carries
d/da and d^2/da^2 of every beta_j and h_j alongside its values, which are
bit for bit the plain pass's.  The certification loop then compares the
derivative parts too, so the certified digit count covers them.  ``verify``
builds its one table per cell this way and takes every derivative of the
continuous suite from it.

The polynomials themselves are evaluated only at the edge x = a, by
``ladder.edge_quantities``.  Conventions: beta_0 = 0 and P_{-1} = 0, so
h_0 = mu_0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath as mp

from .exceptions import DomainError, IllConditioningError, PrecisionExhaustedError
from .precision import CHECK_BITS, GUARD_BITS, Jet, PrecisionPolicy, Real, as_mpf
from .weight import GapWeight, moment_jets, moments

_LOG10_2 = 0.30102999566398120


@dataclass(frozen=True)
class RecurrenceTable:
    """Certified recurrence data for one gap half-width.

    ``beta[j]`` and ``h[j]`` are available for j = 0..n_max, computed at
    ``working_bits`` and certified to ``certified_digits`` decimal digits by
    cross-precision agreement.  ``escalations`` counts how many times the
    precision had to be raised beyond the policy's starting level.  A table
    built with ``jets=True`` also holds ``jets``, the (beta, h) Taylor jets
    in a whose value parts are ``beta`` and ``h``; otherwise it is None.
    """

    a: Real
    n_max: int
    beta: tuple[Real, ...]
    h: tuple[Real, ...]
    certified_digits: int
    working_bits: int
    escalations: int = 0
    jets: tuple[tuple[Jet, ...], tuple[Jet, ...]] | None = None

    def __post_init__(self):
        if len(self.beta) != self.n_max + 1 or len(self.h) != self.n_max + 1:
            raise DomainError("beta and h must both have n_max + 1 entries")


class _NonPositiveNorm(IllConditioningError):
    """A quantity that is positive in exact arithmetic (h_n, or the orbit's
    2 beta_n R_{n-1}) came out <= 0 at the current precision.  ``_certify``
    treats that level as certifying nothing; outside the loop it is an
    IllConditioningError."""

    def __init__(self, index: int):
        super().__init__(f"norm {index} not positive")
        self.index = index


def _chebyshev_pass(a_value: mp.mpf, n_max: int, bits: int, jets: bool = False):
    """One full moment-to-recurrence pass at a fixed precision.

    Returns (beta, h) as lists of mpf, or of Jet when ``jets`` is set: the
    same formulas then run on the moment jets.  Raises _NonPositiveNorm if
    the precision was insufficient to keep the norms positive.
    """
    w = GapWeight(Real(as_mpf(a_value, bits), bits), bits)
    if jets:
        mu = moment_jets(2 * n_max + 1, w)
    else:
        mu = [m.value for m in moments(2 * n_max + 1, w)]

    def value(x):
        return x.c[0] if jets else x

    with mp.workprec(bits):
        zero = mu[0] * 0
        beta = [zero]
        h = [mu[0]]
        if not value(h[0]) > 0:
            raise _NonPositiveNorm(0)
        row_km2: list = []
        row_km1 = mu
        for k in range(1, n_max + 1):
            width = 2 * (n_max - k) + 1
            if k == 1:
                row = [row_km1[i + 2] for i in range(width)]
            else:
                b = beta[k - 1]
                row = [row_km1[i + 2] - b * row_km2[i + 2] for i in range(width)]
            hk = row[0]
            if not value(hk) > 0:
                raise _NonPositiveNorm(k)
            beta.append(hk / h[k - 1])
            h.append(hk)
            row_km2 = row_km1
            row_km1 = row
    return beta, h


def _numbers(values):
    """Every number of a pass's list: its values, or its jets' coefficients."""
    for v in values:
        if isinstance(v, Jet):
            yield from v.c
        else:
            yield v


def _certified_digits(lo, hi, lo_bits: int) -> int:
    """Decimal digits on which two passes agree: the worst relative
    disagreement over all recurrence coefficients (over each jet
    coefficient, for a pass on jets), capped at the lower pass's precision.
    One logarithm, of the worst disagreement, since floor(-log10(rel))
    falls as rel grows."""
    beta_lo, h_lo = lo
    beta_hi, h_hi = hi
    cap = int(lo_bits * _LOG10_2)
    pairs = (list(zip(_numbers(beta_lo[1:]), _numbers(beta_hi[1:])))
             + list(zip(_numbers(h_lo), _numbers(h_hi))))
    worst = 0
    with mp.workprec(64):
        for x, y in pairs:
            if x != y:
                worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
        if worst == 0:
            return cap
        if worst >= 1:
            return 0
        return min(cap, int(mp.floor(-mp.log10(worst))))


def _certify(pass_fn, a_value: mp.mpf, n_max: int, start_bits: int,
             policy: PrecisionPolicy) -> RecurrenceTable:
    """Run ``pass_fn(a_value, n_max, bits) -> (beta, h)`` at pairs of
    precisions until a pair agrees to the policy target.

    Each level runs a pass at W bits and a check pass at W + CHECK_BITS,
    and takes their worst relative agreement over all beta_j and h_j,
    capped at W's digits, as the certified digit count; the table keeps the
    upper pass.  A pass loses about the same digits at any precision, so
    the pass 64 bits up measures W's error as well as one at 2W would.  W
    starts at ``start_bits`` and escalates through ``policy.escalate``,
    capped at max_bits - CHECK_BITS so that the top level is
    (max_bits - CHECK_BITS, max_bits) and no pass is ever compared with one
    at the same bits.  A pass raises _NonPositiveNorm when its precision
    cannot keep positive what must be; its level then certifies nothing.
    Raises PrecisionExhaustedError when the top level falls short of the
    target, or when start_bits + CHECK_BITS is already above the ceiling,
    and IllConditioningError if norms cannot even be kept positive at the
    ceiling.  Both recurrence builders certify through this one loop.
    """
    top = policy.max_bits - CHECK_BITS
    if start_bits > top:
        raise PrecisionExhaustedError(
            f"cannot certify: starting precision {start_bits} bits leaves no room "
            f"for a check pass {CHECK_BITS} bits up under the ceiling",
            certified_digits=0,
            ceiling_bits=policy.max_bits,
        )

    def run(bits):
        """The pass at ``bits``, or None when its norms did not stay positive."""
        try:
            return pass_fn(a_value, n_max, bits)
        except _NonPositiveNorm as exc:
            if bits >= policy.max_bits:
                raise IllConditioningError(
                    f"norm h_{exc.index} not positive at ceiling precision "
                    f"{policy.max_bits} bits (a={mp.nstr(a_value, 8)}, n_max={n_max})"
                ) from exc
            return None

    bits = start_bits
    levels = 0
    best_certified = 0
    while True:
        lo, hi = run(bits), run(bits + CHECK_BITS)
        levels += 1
        if lo is not None and hi is not None:
            certified = _certified_digits(lo, hi, bits)
            best_certified = max(best_certified, certified)
            if certified >= policy.target_certified_digits:
                beta, h = hi
                jets = None
                if isinstance(h[0], Jet):
                    jets = (tuple(beta), tuple(h))
                    beta = [b.c[0] for b in beta]
                    h = [v.c[0] for v in h]
                kept = bits + CHECK_BITS
                return RecurrenceTable(
                    a=Real(as_mpf(a_value, kept), kept),
                    n_max=n_max,
                    beta=tuple(Real(b, kept) for b in beta),
                    h=tuple(Real(v, kept) for v in h),
                    certified_digits=certified,
                    working_bits=kept,
                    escalations=levels - 1,
                    jets=jets,
                )
        if bits >= top:
            raise PrecisionExhaustedError(
                f"certified only {best_certified} digits of "
                f"{policy.target_certified_digits} at ceiling {policy.max_bits} bits",
                certified_digits=best_certified,
                ceiling_bits=policy.max_bits,
            )
        bits = min(policy.escalate(bits), top)


def _parse_inputs(a, n_max: int, policy: PrecisionPolicy | None):
    """(policy, a) for a recurrence build: the default policy when None, and
    a parsed once at the ceiling precision so every pass sees the same
    real number.  Rejects n_max < 0 and a < 0."""
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    if policy is None:
        policy = PrecisionPolicy()
    a_value = as_mpf(a, policy.max_bits + GUARD_BITS)
    if a_value < 0:
        raise DomainError(f"gap half-width must be >= 0, got {a_value}")
    return policy, a_value


def build_recurrence_table(a, n_max: int, policy: PrecisionPolicy | None = None,
                           jets: bool = False) -> RecurrenceTable:
    """Build beta_j, h_j for j <= n_max with certified accuracy.

    ``a`` may be a Real, an mpf, an int, or a decimal string (preferred for
    CLI input: the string parses exactly once at the ceiling precision, so
    every pass sees the same real number).

    Chebyshev passes from the moments, certified by ``_certify`` from
    ``policy.working_bits(n_max)``: the map loses about half a digit per
    degree, which that starting precision budgets for.  With ``jets`` the
    passes run on Taylor jets, and the table also carries them (see
    ``RecurrenceTable``); its values are those of the plain build.
    """
    policy, a_value = _parse_inputs(a, n_max, policy)
    pass_fn = functools.partial(_chebyshev_pass, jets=True) if jets else _chebyshev_pass
    return _certify(pass_fn, a_value, n_max, policy.working_bits(n_max), policy)


def hermite_norms_exact(count: int, bits: int) -> list[mp.mpf]:
    """[h_0, ..., h_{count-1}] at a = 0 in closed form: h_k = (k! / 2^k) sqrt(pi)."""
    if count < 0:
        raise DomainError(f"count must be >= 0, got {count}")
    with mp.workprec(bits):
        s = mp.sqrt(mp.pi)
        return [mp.mpf(math.factorial(k)) / mp.mpf(2) ** k * s for k in range(count)]
