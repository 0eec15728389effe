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
normally certifies.  ``precision.certify`` runs that loop for every route:
``difference_eqs.orbit_recurrence_table``, the same table by another route,
from which ``table`` and ``prob`` build every a > 0 cell, and the Fredholm
minors of ``probability``; ``verify``, the continuous grid and the
acceptance gate use this module's Chebyshev route.  The table keeps the
check pass, so its working bits are W + CHECK_BITS.

Every moment has an exact a-derivative, which ``weight.even_moments``
gives with ``jets``, so the same pass run on Taylor jets
(``build_recurrence_table(..., jets=True)``) carries d/da and d^2/da^2 of
every beta_j and h_j alongside its values, which are bit for bit the plain
pass's.  The certification loop then compares the derivative parts too, so
the certified digit count covers them.  ``verify`` builds its one table per
cell this way and takes every derivative of the continuous suite from it.

The polynomials themselves are evaluated only at the edge x = a, by
``ladder.edge_quantities``.  Conventions: beta_0 = 0 and P_{-1} = 0, so
h_0 = mu_0.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import from_int, mpf_mul, mpf_shift
from mpmath.libmp import round_nearest as RN

from .exceptions import DomainError
from .precision import Certified, Jet, NonPositiveNorm, PrecisionPolicy, as_mpf, certify
from .weight import even_moments


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

    @classmethod
    def from_certified(cls, certified: Certified, a) -> "RecurrenceTable":
        """The table of a certified pass (beta, h) at half-width a, as given,
        which the table keeps rounded at its kept bits; a pass on jets also
        gives the table its ``jets``."""
        (beta, h), digits, kept, escalations = certified
        jets = None
        if isinstance(h[0], Jet):
            jets = (tuple(beta), tuple(h))
            beta = [b.c[0] for b in beta]
            h = [v.c[0] for v in h]
        return cls(a=as_mpf(a, kept), n_max=len(h) - 1, beta=tuple(beta), h=tuple(h),
                   certified_digits=digits, working_bits=kept, escalations=escalations, jets=jets)


def _chebyshev_pass(a_value, n_max: int, bits: int, jets: bool = False):
    """One full moment-to-recurrence pass at a fixed precision.

    Row k holds only the mixed moments that can be nonzero,
    row_k[m] = S_k[k + 2m] for m = 0..n_max - k, so row_0 is the even
    moments mu_0, ..., mu_{2 n_max}, row_1 = row_0[1:], and
    row_k[m] = row_{k-1}[m+1] - beta_{k-1} row_{k-2}[m+1]; h_k = row_k[0].
    Returns (beta, h) as lists of mpf, or of Jet when ``jets`` is set: the
    same formulas then run on the moment jets.  Raises NonPositiveNorm if
    the precision was insufficient to keep the norms positive.
    """
    row = even_moments(n_max + 1, as_mpf(a_value, bits), bits, jets)

    def value(x):
        return x.c[0] if jets else x

    with mp.workprec(bits):
        beta = [row[0] * 0]
        h = [row[0]]
        if not value(h[0]) > 0:
            raise NonPositiveNorm(0)
        for k in range(1, n_max + 1):
            if k == 1:
                prev, row = row, row[1:]
            else:
                b = beta[k - 1]
                prev, row = row, [row[m + 1] - b * prev[m + 1] for m in range(n_max - k + 1)]
            hk = row[0]
            if not value(hk) > 0:
                raise NonPositiveNorm(k)
            beta.append(hk / h[k - 1])
            h.append(hk)
    return beta, h


def build_recurrence_table(a, n_max: int, policy: PrecisionPolicy | None = None,
                           jets: bool = False) -> RecurrenceTable:
    """Build beta_j, h_j for j <= n_max with certified accuracy.

    ``a`` may be an mpf, an int, or a decimal string (preferred for
    CLI input: each pass rounds the decimal itself at its own bits, and
    the table's ``a`` is its rounding at the kept bits).

    Chebyshev passes from the moments, certified by ``precision.certify`` from
    ``policy.start_bits("chebyshev", a, n_max)``: the map loses about half
    a digit per degree, more as a grows, and by default that start covers
    the loss measured for the pass on jets.  With ``jets`` the passes run
    on Taylor jets, and the table also carries them (see
    ``RecurrenceTable``); its values are those of the plain build.  Jets
    require a > 0 (DomainError): at a = 0 derivative parts that vanish
    exactly come out as rounding noise, so no level would certify.
    """
    if jets and as_mpf(a, 64) == 0:
        raise DomainError("a table on jets requires a > 0")
    pass_fn = functools.partial(_chebyshev_pass, jets=True) if jets else _chebyshev_pass
    return RecurrenceTable.from_certified(certify("chebyshev", pass_fn, a, n_max, policy), a)


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
