"""The gap-deformed Hermite weight and its power moments.

The weight is w(x) = e^{-x^2} restricted to |x| > a, i.e. the Gaussian
weight with the symmetric interval (-a, a) cut out.  Because the weight is
even, odd moments vanish identically and even moments reduce to upper
incomplete gamma values:

    mu_k(a) = integral_{|x|>a} x^k e^{-x^2} dx = Gamma((k+1)/2, a^2)

for even k (substitute t = x^2 on each half line).  Integrating by parts
gives the two-term recurrence (DLMF 8.8.2 with s = (k+1)/2, x = a^2)

    mu_{k+2} = ((k+1)/2) mu_k + a^{k+1} e^{-a^2},   mu_0 = sqrt(pi) erfc(a),

which ``even_moments`` runs upward from mu_0 in one sweep, storing only the
even moments: no list here holds an odd one.  Every term is nonnegative
for a >= 0, so no step cancels: each one adds at most a few roundings, and
mu_k carries a relative error of about (k/2 + 1) 2^-work at ``work`` bits.
The recurrence runs with guard bits above the weight's precision, which
covers that growth for any k the recurrence builder asks for.  These exact
moments are the sole input to the Chebyshev route of the recurrence
builder; no quadrature is involved on the main computational path.
"""

from __future__ import annotations

from typing import NamedTuple

import mpmath as mp

from .exceptions import DomainError
from .precision import GUARD_BITS, Jet, as_mpf, check_half_width


class _GapWeightFields(NamedTuple):
    a: mp.mpf
    prec_bits: int


class GapWeight(_GapWeightFields):
    """The weight e^{-x^2} on |x| > a, with its working precision.

    a = 0 is allowed and recovers the classical Hermite weight; the
    eigenvalue-gap quantities that divide by edge values restrict to a > 0
    at their own boundaries.  A half-width that ``precision.check_half_width``
    refuses (not finite and >= 0, or not below 1e154) fails here.
    """

    __slots__ = ()

    def __new__(cls, a: mp.mpf, prec_bits: int):
        check_half_width(a)
        if prec_bits <= 0:
            raise DomainError("prec_bits must be positive")
        return super().__new__(cls, a, prec_bits)

    @property
    def _mu0_guarded(self) -> mp.mpf:
        """mu_0 = sqrt(pi) erfc(a) at prec_bits + GUARD_BITS, the recurrence start."""
        return _mu0(self.a, self.prec_bits + GUARD_BITS)


def _mu0(a: mp.mpf, work: int) -> mp.mpf:
    """sqrt(pi) erfc(a) at ``work`` bits, evaluated afresh on every call."""
    with mp.workprec(work):
        return mp.sqrt(mp.pi) * mp.erfc(a)


def _moment_sweep(count: int, w: GapWeight, exp_a_sq: mp.mpf | None) -> list[mp.mpf]:
    """``even_moments``, given e^{-a^2} at the sweep's prec_bits + GUARD_BITS
    (None when count <= 1, which never reads it)."""
    if count < 0:
        raise DomainError(f"moment count must be >= 0, got {count}")
    bits = w.prec_bits
    out = []
    mu = w._mu0_guarded
    with mp.workprec(bits + GUARD_BITS):
        a = w.a
        a_sq = a * a
        # a^{k-1} e^{-a^2} at the step to even k >= 2, which mu_0 alone skips
        edge = a * exp_a_sq if count > 1 else None
        for k in range(0, 2 * count, 2):
            if k > 0:
                mu = (k - 1) * mu / 2 + edge
                edge *= a_sq
            out.append(as_mpf(mu, bits))
    return out


def even_moments(count: int, w: GapWeight) -> list[mp.mpf]:
    """[mu_0, mu_2, ..., mu_{2(count-1)}] from one upward sweep of the
    recurrence in the module docstring, started at mu_0 = sqrt(pi) erfc(a)."""
    with mp.workprec(w.prec_bits + GUARD_BITS):
        return _moment_sweep(count, w, mp.exp(-(w.a * w.a)) if count > 1 else None)


def even_moment_jets(count: int, w: GapWeight) -> list[Jet]:
    """``even_moments`` as Taylor jets (mu_k, mu_k', mu_k''/2) in a.

    Differentiating the defining integral in its limits gives, for even k,
    mu_k' = -2 a^k e^{-a^2} and mu_k'' = -2 (k a^{k-1} - 2 a^{k+1}) e^{-a^2},
    so every derivative is exact and needs no recurrence.  The values are
    ``even_moments``'s, from the same e^{-a^2}, and the derivatives are
    rounded from the same guard bits to the weight's precision.
    """
    bits = w.prec_bits
    out = []
    with mp.workprec(bits + GUARD_BITS):
        a = w.a
        a_sq = a * a
        edge = mp.exp(-a_sq)  # a^k e^{-a^2} at even k
        prev = 0  # a^{k-2} e^{-a^2}, absent at k = 0
        for m, mu in enumerate(_moment_sweep(count, w, edge)):
            d1 = -2 * edge
            half_d2 = a * (2 * edge - 2 * m * prev)
            out.append(Jet((mu, as_mpf(d1, bits), as_mpf(half_d2, bits))))
            prev, edge = edge, edge * a_sq
    return out


def orbit_seed(a: mp.mpf, bits: int) -> tuple[mp.mpf, mp.mpf]:
    """(h_0, R_0) of the orbit route at ``bits``, from one erfc and one
    exponential: h_0 = mu_0, rounded from bits + GUARD_BITS as
    ``even_moments`` rounds it for a weight at ``bits``, and the ladder's
    base R_0 = 2 w(a) P_0(a)^2 / h_0 = 2 e^{-a^2} / h_0.  a is an mpf at
    ``bits`` that ``GapWeight`` accepts."""
    h0 = as_mpf(_mu0(a, bits + GUARD_BITS), bits)
    with mp.workprec(bits):
        return h0, 2 * mp.exp(-(a ** 2)) / h0
