"""The gap-deformed Hermite weight and its power moments.

The weight is w(x) = e^{-x^2} restricted to |x| > a, i.e. the Gaussian
weight with the symmetric interval (-a, a) cut out.  Because the weight is
even, odd moments vanish identically and even moments reduce to upper
incomplete gamma values:

    mu_k(a) = integral_{|x|>a} x^k e^{-x^2} dx = Gamma((k+1)/2, a^2)

for even k (substitute t = x^2 on each half line).  Integrating by parts
gives the two-term recurrence (DLMF 8.8.2 with s = (k+1)/2, x = a^2)

    mu_{k+2} = ((k+1)/2) mu_k + a^{k+1} e^{-a^2},   mu_0 = sqrt(pi) erfc(a),

which ``moments`` runs upward from mu_0 in one sweep.  Every term is
nonnegative for a >= 0, so no step cancels: each one adds at most a few
roundings, and mu_k carries a relative error of about (k/2 + 1) 2^-work at
``work`` bits.  The recurrence runs with guard bits above the weight's
precision, which covers that growth for any k the recurrence builder asks
for.  These exact moments are the sole input to the Chebyshev route of the
recurrence builder; no quadrature is involved on the main computational
path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import mpmath as mp

from .exceptions import DomainError
from .precision import GUARD_BITS, Jet, Real, as_mpf


@dataclass(frozen=True)
class GapWeight:
    """The weight e^{-x^2} on |x| > a, with its working precision.

    a = 0 is allowed and recovers the classical Hermite weight; the
    eigenvalue-gap quantities that divide by edge values restrict to a > 0
    at their own boundaries.
    """

    a: Real
    prec_bits: int

    def __post_init__(self):
        if self.a.value < 0:
            raise DomainError(f"gap half-width must be >= 0, got {self.a.value}")
        if self.prec_bits <= 0:
            raise DomainError("prec_bits must be positive")

    @classmethod
    def from_str(cls, a_text: str, prec_bits: int) -> "GapWeight":
        return cls(Real.from_str(a_text, prec_bits), prec_bits)

    @property
    def _mu0_guarded(self) -> mp.mpf:
        """mu_0 = sqrt(pi) erfc(a) at prec_bits + GUARD_BITS, the recurrence start."""
        return _mu0(self.a.value, self.prec_bits + GUARD_BITS)


@functools.lru_cache(maxsize=16)
def _mu0(a: mp.mpf, work: int) -> mp.mpf:
    """sqrt(pi) erfc(a) at ``work`` bits, cached per (a, work): an orbit pass
    needs it twice, for the seed r_1 and for h_0, from two weights."""
    with mp.workprec(work):
        return mp.sqrt(mp.pi) * mp.erfc(a)


def moments(count: int, w: GapWeight) -> list[Real]:
    """[mu_0, ..., mu_{count-1}] from one upward sweep of the recurrence in
    the module docstring, started at mu_0 = sqrt(pi) erfc(a); odd moments
    are exactly zero."""
    if count < 0:
        raise DomainError(f"moment count must be >= 0, got {count}")
    bits = w.prec_bits
    zero = Real(as_mpf(0, bits), bits)
    out = []
    mu = w._mu0_guarded
    with mp.workprec(bits + GUARD_BITS):
        a = w.a.value
        a_sq = a * a
        # a^{k-1} e^{-a^2} at the step to even k >= 2, which mu_0 alone skips
        edge = a * mp.exp(-a_sq) if count > 2 else None
        for k in range(count):
            if k % 2 == 1:
                out.append(zero)
                continue
            if k > 0:
                mu = (k - 1) * mu / 2 + edge
                edge *= a_sq
            out.append(Real(as_mpf(mu, bits), bits))
    return out


def moment_jets(count: int, w: GapWeight) -> list[Jet]:
    """``moments`` as Taylor jets (mu_k, mu_k', mu_k''/2) in a.

    Differentiating the defining integral in its limits gives, for even k,
    mu_k' = -2 a^k e^{-a^2} and mu_k'' = -2 (k a^{k-1} - 2 a^{k+1}) e^{-a^2},
    so every derivative is exact and needs no recurrence; odd moments are
    zero jets.  The values are ``moments``'s, and the derivatives are
    rounded from the same guard bits to the weight's precision.
    """
    bits = w.prec_bits
    zero = as_mpf(0, bits)
    out = []
    with mp.workprec(bits + GUARD_BITS):
        a = w.a.value
        a_sq = a * a
        edge = mp.exp(-a_sq)  # a^k e^{-a^2} at even k
        prev = zero  # a^{k-2} e^{-a^2}, absent at k = 0
        for k, mu in enumerate(moments(count, w)):
            if k % 2 == 1:
                out.append(Jet((mu.value, zero, zero)))
                continue
            d1 = -2 * edge
            half_d2 = a * (2 * edge - k * prev)
            out.append(Jet((mu.value, as_mpf(d1, bits), as_mpf(half_d2, bits))))
            prev, edge = edge, edge * a_sq
    return out


def moment(k: int, w: GapWeight) -> Real:
    """k-th power moment of the weight; exactly zero for odd k."""
    if k < 0:
        raise DomainError(f"moment order must be >= 0, got {k}")
    return moments(k + 1, w)[k]


def seed_R0(w: GapWeight) -> Real:
    """R_0(a) = 2 e^{-a^2} / (sqrt(pi) erfc(a)).

    This is 2 w(a) P_0(a)^2 / h_0(a) with P_0 = 1, the base of the ladder
    of edge quantities.
    """
    bits = w.prec_bits
    h0 = moment(0, w)
    with mp.workprec(bits):
        v = 2 * mp.exp(-(w.a.value ** 2)) / h0.value
    return Real(v, bits)
