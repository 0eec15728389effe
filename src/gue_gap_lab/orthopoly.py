"""Monic orthogonal polynomials for the gap weight, from exact moments.

The three-term recurrence P_{j+1}(x) = x P_j(x) - beta_j P_{j-1}(x) (no
x-coefficient: the weight is even) is recovered from power moments by the
Chebyshev algorithm on mixed moments S_k[l] = integral P_k(x) x^l w(x) dx:

    S_k[l]  = S_{k-1}[l+1] - beta_{k-1} S_{k-2}[l]
    h_k     = S_k[k]
    beta_k  = h_k / h_{k-1}

P_k has the parity of k, so S_k[l] is exactly 0 when k + l is odd; the
pass stores and updates only S_k[k + 2m], from the even moments.  That map
is notoriously ill conditioned (about half a digit lost per degree), which
is the point of running it in arbitrary precision: a build is accepted
only after a pass at W bits and a check pass at W + CHECK_BITS agree to the
policy's target number of digits, and W escalates until they do or the
check pass reaches the ceiling.  W starts at the target plus the route's
measured loss (``PrecisionPolicy.start_bits``), so the first level
normally certifies.  That loop, ``_certify``, certifies every route: the
second route to the same table, ``difference_eqs.orbit_recurrence_table``,
from which ``table`` builds every a > 0 cell, and the Fredholm minors of
``probability``; ``verify``, ``prob``, the continuous grid and the
acceptance gate use this module's Chebyshev route.  The table keeps the
check pass, so its working bits are W + CHECK_BITS.

Every moment has an exact a-derivative (``weight.even_moment_jets``), so
the same pass run on Taylor jets (``build_recurrence_table(..., jets=True)``)
carries d/da and d^2/da^2 of every beta_j and h_j alongside its values,
which are bit for bit the plain pass's.  The certification loop then
compares the derivative parts too, so the certified digit count covers
them.  ``verify`` builds its one table per cell this way and takes every
derivative of the continuous suite from it.

The polynomials themselves are evaluated only at the edge x = a, by
``ladder.edge_quantities``.  Conventions: beta_0 = 0 and P_{-1} = 0, so
h_0 = mu_0.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import (from_int, fone, fzero, mpf_abs, mpf_cmp, mpf_div, mpf_mul, mpf_shift,
                          mpf_sub)
from mpmath.libmp import round_nearest as RN

from .exceptions import DomainError, IllConditioningError, PrecisionExhaustedError
from .precision import CHECK_BITS, Jet, PrecisionPolicy, as_mpf
from .weight import GapWeight, even_moment_jets, even_moments

_LOG10_2 = 0.30102999566398120


class _TableFields(NamedTuple):
    a: mp.mpf
    n_max: int
    beta: tuple[mp.mpf, ...]
    h: tuple[mp.mpf, ...]
    certified_digits: int
    working_bits: int
    escalations: int = 0
    jets: tuple[tuple[Jet, ...], tuple[Jet, ...]] | None = None


class RecurrenceTable(_TableFields):
    """Certified recurrence data for one gap half-width.

    ``a``, ``beta[j]`` and ``h[j]`` (j = 0..n_max) are plain mpf values at
    ``working_bits``, the one precision of the table; beta and h are
    certified to ``certified_digits`` decimal digits by cross-precision
    agreement.  ``escalations`` counts how many times the
    precision had to be raised beyond the policy's starting level.  A table
    built with ``jets=True`` also holds ``jets``, the (beta, h) Taylor jets
    in a whose value parts are ``beta`` and ``h``; otherwise it is None.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.beta) != self.n_max + 1 or len(self.h) != self.n_max + 1:
            raise DomainError("beta and h must both have n_max + 1 entries")
        return self


class _NonPositiveNorm(IllConditioningError):
    """A quantity that is positive in exact arithmetic (h_n, the orbit's
    2 beta_n R_{n-1}, or a pivot of I - G_n) came out <= 0 at the current
    precision.  ``_certify`` treats that level as certifying nothing;
    outside the loop it is an IllConditioningError."""

    def __init__(self, index: int, what: str = "norm"):
        super().__init__(f"{what} {index} not positive")
        self.index = index


class Certified(NamedTuple):
    """What ``_certify`` keeps: the upper pass of the level that reached the
    target (``value``, numbers at ``working_bits``), the digits its pair
    agreed on, and how many times the precision was raised to get there."""

    value: object
    certified_digits: int
    working_bits: int
    escalations: int


def _chebyshev_pass(a_value, n_max: int, bits: int, jets: bool = False):
    """One full moment-to-recurrence pass at a fixed precision.

    Row k holds only the mixed moments that can be nonzero,
    row_k[m] = S_k[k + 2m] for m = 0..n_max - k, so row_0 is the even
    moments mu_0, ..., mu_{2 n_max}, row_1 = row_0[1:], and
    row_k[m] = row_{k-1}[m+1] - beta_{k-1} row_{k-2}[m+1]; h_k = row_k[0].
    Returns (beta, h) as lists of mpf, or of Jet when ``jets`` is set: the
    same formulas then run on the moment jets.  Raises _NonPositiveNorm if
    the precision was insufficient to keep the norms positive.
    """
    w = GapWeight(as_mpf(a_value, bits), bits)
    row = (even_moment_jets if jets else even_moments)(n_max + 1, w)

    def value(x):
        return x.c[0] if jets else x

    with mp.workprec(bits):
        beta = [row[0] * 0]
        h = [row[0]]
        if not value(h[0]) > 0:
            raise _NonPositiveNorm(0)
        for k in range(1, n_max + 1):
            if k == 1:
                prev, row = row, row[1:]
            else:
                b = beta[k - 1]
                prev, row = row, [row[m + 1] - b * prev[m + 1] for m in range(n_max - k + 1)]
            hk = row[0]
            if not value(hk) > 0:
                raise _NonPositiveNorm(k)
            beta.append(hk / h[k - 1])
            h.append(hk)
    return beta, h


def _numbers(values):
    """Every number of a pass, in order: nested sequences are flattened, and
    a jet gives its coefficients."""
    for v in values:
        if isinstance(v, Jet):
            yield from v.c
        elif isinstance(v, (list, tuple)):
            yield from _numbers(v)
        else:
            yield v


def _certified_digits(lo, hi, lo_bits: int) -> int:
    """Decimal digits on which two passes agree: the worst relative
    disagreement over all their numbers (over each jet coefficient, for a
    pass on jets), capped at the lower pass's precision.  One logarithm, of
    the worst disagreement, since floor(-log10(rel)) falls as rel grows.
    The compare runs at 64 bits on raw mpf tuples."""
    cap = int(lo_bits * _LOG10_2)
    worst = fzero
    for x, y in zip(_numbers(lo), _numbers(hi)):
        x, y = x._mpf_, y._mpf_
        if x != y:  # normalized tuples are equal exactly when the values are
            ax, ay = mpf_abs(x, 64, RN), mpf_abs(y, 64, RN)
            den = ax if mpf_cmp(ax, ay) >= 0 else ay
            rel = mpf_div(mpf_abs(mpf_sub(x, y, 64, RN)), den, 64, RN)
            if mpf_cmp(rel, worst) > 0:
                worst = rel
    if worst == fzero:
        return cap
    if mpf_cmp(worst, fone) >= 0:
        return 0
    with mp.workprec(64):
        return min(cap, int(mp.floor(-mp.log10(mp.make_mpf(worst)))))


def _certify(run, start_bits: int, policy: PrecisionPolicy) -> Certified:
    """Run the pass ``run(bits)``, which returns a nested sequence of mpf or
    Jet, at pairs of precisions until a pair agrees to the policy target.

    Each level runs a pass at W bits and a check pass at W + CHECK_BITS,
    and takes their worst relative agreement over all their numbers, capped
    at W's digits, as the certified digit count; the upper pass is kept.  A
    pass loses about the same digits at any precision, so the pass 64 bits
    up measures W's error as well as one at 2W would.  W starts at
    ``start_bits`` and escalates through ``policy.escalate``, capped at
    max_bits - CHECK_BITS so that the top level is
    (max_bits - CHECK_BITS, max_bits) and no pass is ever compared with one
    at the same bits.  A pass raises _NonPositiveNorm when its precision
    cannot keep positive what must be; its level then certifies nothing,
    and below the top level its check pass is skipped.
    Raises PrecisionExhaustedError when the top level falls short of the
    target, or when start_bits + CHECK_BITS is already above the ceiling,
    and IllConditioningError if positivity fails even at the ceiling.  Every
    certified route runs through this one loop: the Chebyshev and orbit
    tables (``_certified_table``) and the Fredholm minors.
    """
    top = policy.max_bits - CHECK_BITS
    if start_bits > top:
        raise PrecisionExhaustedError(
            f"cannot certify: starting precision {start_bits} bits leaves no room "
            f"for a check pass {CHECK_BITS} bits up under the ceiling",
            certified_digits=0,
            ceiling_bits=policy.max_bits,
        )

    def attempt(bits):
        """The pass at ``bits``, or None when it did not stay positive."""
        try:
            return run(bits)
        except _NonPositiveNorm as exc:
            if bits >= policy.max_bits:
                raise IllConditioningError(
                    f"{exc} at ceiling precision {policy.max_bits} bits") from exc
            return None

    bits = start_bits
    levels = 0
    best_certified = 0
    while True:
        lo = attempt(bits)
        # a level whose lower pass lost positivity certifies nothing, so its
        # check pass runs only at the top, where it may raise
        hi = attempt(bits + CHECK_BITS) if lo is not None or bits >= top else None
        levels += 1
        if lo is not None and hi is not None:
            certified = _certified_digits(lo, hi, bits)
            best_certified = max(best_certified, certified)
            if certified >= policy.target_certified_digits:
                return Certified(hi, certified, bits + CHECK_BITS, levels - 1)
        if bits >= top:
            raise PrecisionExhaustedError(
                f"certified only {best_certified} digits of "
                f"{policy.target_certified_digits} at ceiling {policy.max_bits} bits",
                certified_digits=best_certified,
                ceiling_bits=policy.max_bits,
            )
        bits = min(policy.escalate(bits), top)


def _certified_table(route: str, pass_fn, a_value, n_max: int,
                     policy: PrecisionPolicy) -> RecurrenceTable:
    """The table of ``pass_fn(a_value, n_max, bits) -> (beta, h)``,
    certified by ``_certify`` from ``policy.start_bits(route, a, n_max)``;
    a pass on jets also gives the table its ``jets``.  ``a_value`` is the
    half-width as the caller gave it, which the table keeps rounded at its
    kept bits."""
    (beta, h), certified, kept, escalations = _certify(
        lambda bits: pass_fn(a_value, n_max, bits),
        policy.start_bits(route, a_value, n_max), policy)
    jets = None
    if isinstance(h[0], Jet):
        jets = (tuple(beta), tuple(h))
        beta = [b.c[0] for b in beta]
        h = [v.c[0] for v in h]
    return RecurrenceTable(a=as_mpf(a_value, kept), n_max=n_max, beta=tuple(beta), h=tuple(h),
                           certified_digits=certified, working_bits=kept,
                           escalations=escalations, jets=jets)


def _parse_inputs(a, n_max: int, policy: PrecisionPolicy | None):
    """(policy, a) for a build: the default policy when None, and a as
    given, which each pass rounds at its own bits.  Rejects n_max < 0, and
    through ``GapWeight`` at 64 bits, once for every pass, an a that is
    not a finite number >= 0 below 1e154."""
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    GapWeight(as_mpf(a, 64), 64)
    return policy or PrecisionPolicy(), a


def build_recurrence_table(a, n_max: int, policy: PrecisionPolicy | None = None,
                           jets: bool = False) -> RecurrenceTable:
    """Build beta_j, h_j for j <= n_max with certified accuracy.

    ``a`` may be an mpf, an int, or a decimal string (preferred for
    CLI input: each pass rounds the decimal itself at its own bits, and
    the table's ``a`` is its rounding at the kept bits).

    Chebyshev passes from the moments, certified by ``_certify`` from
    ``policy.start_bits("chebyshev", a, n_max)``: the map loses about half
    a digit per degree, more as a grows, and by default that start covers
    the loss measured for the pass on jets.  With ``jets`` the passes run
    on Taylor jets, and the table also carries them (see
    ``RecurrenceTable``); its values are those of the plain build.  Jets
    require a > 0 (DomainError): at a = 0 derivative parts that vanish
    exactly come out as rounding noise, so no level would certify.
    """
    policy, a = _parse_inputs(a, n_max, policy)
    if jets and not as_mpf(a, 64) > 0:
        raise DomainError("a table on jets requires a > 0")
    pass_fn = functools.partial(_chebyshev_pass, jets=True) if jets else _chebyshev_pass
    return _certified_table("chebyshev", pass_fn, a, n_max, policy)


def hermite_norms_exact(count: int, bits: int) -> list[mp.mpf]:
    """[h_0, ..., h_{count-1}] at a = 0 in closed form: h_k = (k! / 2^k) sqrt(pi),
    on raw mpf tuples: k! rounded to ``bits``, shifted by -k, times sqrt(pi)."""
    if count < 0:
        raise DomainError(f"count must be >= 0, got {count}")
    with mp.workprec(bits):
        s = mp.sqrt(mp.pi)._mpf_
    out, fact = [], 1
    for k in range(count):
        fact *= k or 1
        out.append(mp.make_mpf(mpf_mul(mpf_shift(from_int(fact, bits, RN), -k), s, bits, RN)))
    return out
