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
The recurrence runs with guard bits above the requested precision, which
covers that growth for any k the recurrence builder asks for.  These exact
moments are the sole input to the Chebyshev route of the recurrence
builder; no quadrature is involved on the main computational path.

Both functions take the half-width a as an mpf and the bits as given and
judge neither: ``precision.certify`` refuses a bad a once per build, before
any pass, and ``difference_eqs.iterate_r_orbit`` does so for its one
uncertified orbit.
"""

from __future__ import annotations

import mpmath as mp

from .exceptions import DomainError
from .precision import GUARD_BITS, Jet, as_mpf


def even_moments(count: int, a: mp.mpf, bits: int, jets: bool = False) -> list:
    """[mu_0, mu_2, ..., mu_{2(count-1)}] at ``bits``, from one upward sweep
    of the recurrence in the module docstring at bits + GUARD_BITS, started
    at mu_0 = sqrt(pi) erfc(a).  a is an mpf at ``bits``.

    With ``jets`` each moment comes as its Taylor jet (mu_k, mu_k', mu_k''/2)
    in a.  Differentiating the defining integral in its limits gives, for
    even k, mu_k' = -2 a^k e^{-a^2} and mu_k'' = -2 (k a^{k-1} - 2 a^{k+1})
    e^{-a^2}, so every derivative is exact and needs no recurrence.  The
    values are bit for bit those of the plain sweep, and the derivatives are
    rounded from the same guard bits to ``bits``.
    """
    if count < 0:
        raise DomainError(f"moment count must be >= 0, got {count}")
    out = []
    with mp.workprec(bits + GUARD_BITS):
        mu = mp.sqrt(mp.pi) * mp.erfc(a)
        a_sq = a * a
        exp_a_sq = mp.exp(-a_sq) if jets or count > 1 else None
        # a^{k-1} e^{-a^2} at the step to even k >= 2, which mu_0 alone skips
        edge = a * exp_a_sq if count > 1 else None
        jet_edge, prev = exp_a_sq, 0  # a^k e^{-a^2} and a^{k-2} e^{-a^2} at even k
        for m in range(count):
            if m:
                mu = (2 * m - 1) * mu / 2 + edge
                edge *= a_sq
            value = as_mpf(mu, bits)
            if jets:
                half_d2 = a * (2 * jet_edge - 2 * m * prev)
                value = Jet((value, as_mpf(-2 * jet_edge, bits), as_mpf(half_d2, bits)))
                prev, jet_edge = jet_edge, jet_edge * a_sq
            out.append(value)
    return out


def orbit_seed(a: mp.mpf, bits: int) -> tuple[mp.mpf, mp.mpf]:
    """(h_0, R_0) of the orbit route at ``bits``, from one erfc and one
    exponential: h_0 = mu_0 as ``even_moments`` gives it, and the ladder's
    base R_0 = 2 w(a) P_0(a)^2 / h_0 = 2 e^{-a^2} / h_0.  a is an mpf at
    ``bits``."""
    h0, = even_moments(1, a, bits)
    with mp.workprec(bits):
        return h0, 2 * mp.exp(-(a ** 2)) / h0
