"""Arbitrary-precision scalar kernel.

Everything downstream (moments, recurrences, residuals) manipulates values
produced here.  The kernel wraps mpmath: mpf numbers carry their own bits,
and mpf arithmetic runs inside an explicit ``mp.workprec`` block so results
never silently round to the ambient global precision (``Jet`` arithmetic
runs inside its callers' blocks).

Values travel as plain mpf, and each container states their bits once.  A
:class:`Real` pairs a value with its bits only where the caller cannot know
them (the Hankel probability and the probability record), and a
:class:`Jet` carries a value together with its first a-derivatives.

Loops of O(n) steps at one precision (the r_n orbit and its pass, the
certification compare, the edge-zero check, the Hankel product,
``report.relative_residual``) run on raw ``_mpf_`` tuples through
``mpmath.libmp`` instead, skipping the mpf operators' dispatch.  Each call
takes the stated bits and ``round_nearest``, as an operator does under
``mp.workprec``, so every value is bit for bit the same; tuples never leave
the function, which returns plain mpf.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .exceptions import DomainError

# Extra bits carried by internal evaluations before final rounding.
GUARD_BITS = 48

# How far above a pass's precision the pass that checks it runs.  One pass
# at W bits loses about the same digits at any W, so a second pass this
# much higher measures W's error as well as one at 2W would.
CHECK_BITS = 64


def as_mpf(x, bits: int) -> mp.mpf:
    """Coerce x to an mpf rounded at ``bits`` of precision.

    Accepts Real, mpf, int, Fraction-like rationals, str decimal literals
    and float.  Strings are the preferred way to introduce non-integer
    constants, since they parse exactly at the target precision.
    """
    if isinstance(x, Real):
        x = x.value
    with mp.workprec(bits):
        return +mp.mpf(x)


@dataclass(frozen=True)
class Real:
    """An arbitrary-precision real paired with the bits it was computed at.

    ``value`` is an mpmath mpf; ``precision_bits`` is the working precision
    of the computation that produced it, not a rigorous error bound.  The
    certification loop in the recurrence builder is what turns these nominal
    precisions into certified digits.
    """

    value: mp.mpf
    precision_bits: int

    def __post_init__(self):
        if not isinstance(self.precision_bits, int) or self.precision_bits <= 0:
            raise DomainError("precision_bits must be a positive integer")
        if not mp.isfinite(self.value):
            raise DomainError(f"Real must be finite, got {self.value}")

    def __repr__(self):
        with mp.workprec(self.precision_bits):
            return f"Real({mp.nstr(self.value, 20)}, bits={self.precision_bits})"


class Jet:
    """A truncated Taylor jet c[0] + c[1] t + c[2] t^2 + ... of a smooth
    function of the gap half-width a about a point: c[0] is the value, c[1]
    the first derivative and c[2] half the second.

    Jets subtract, multiply and divide one another (truncating at the
    shorter one), and multiply by a plain number.  Arithmetic rounds at the
    ambient mpmath precision, and the c[0] of a result is the same operation
    on the operands' c[0], so a formula run on jets yields bit for bit the
    values it yields on plain numbers, plus exact derivatives (Griewank and
    Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).
    """

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = tuple(c)

    def __sub__(self, other: "Jet") -> "Jet":
        return Jet([x - y for x, y in zip(self.c, other.c)])

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet([x * other for x in self.c])
        a, b = self.c, other.c
        out = []
        for k in range(min(len(a), len(b))):
            acc = a[0] * b[k]
            for i in range(1, k + 1):
                acc += a[i] * b[k - i]
            out.append(acc)
        return Jet(out)

    def __truediv__(self, other: "Jet") -> "Jet":
        a, b = self.c, other.c
        out = []
        for k in range(min(len(a), len(b))):
            acc = a[k]
            for i in range(1, k + 1):
                acc -= b[i] * out[k - i]
            out.append(acc / b[0])
        return Jet(out)


@dataclass(frozen=True)
class PrecisionPolicy:
    """How much precision to start with and how to escalate.

    ``working_bits(n_max)`` gives the starting precision W for a recurrence
    build up to degree ``n_max``; certification compares a pass at W with
    one at W + CHECK_BITS.  When that falls short of
    ``target_certified_digits``, W doubles until it certifies or the upper
    pass reaches ``max_bits``.
    """

    base_bits: int = 512
    bits_per_n: int = 32
    target_certified_digits: int = 40
    max_bits: int = 16384

    def __post_init__(self):
        if self.base_bits < 64:
            raise DomainError("base_bits must be at least 64")
        if self.bits_per_n < 0:
            raise DomainError("bits_per_n must be nonnegative")
        if self.target_certified_digits < 1:
            raise DomainError("target_certified_digits must be positive")
        if self.max_bits < self.base_bits:
            raise DomainError("max_bits must be at least base_bits")

    def working_bits(self, n_max: int) -> int:
        return self.base_bits + self.bits_per_n * n_max

    def escalate(self, bits: int) -> int:
        return 2 * bits

