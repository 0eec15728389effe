"""Arbitrary-precision scalar kernel.

Everything downstream (moments, recurrences, residuals) manipulates values
produced here.  The kernel wraps mpmath: mpf numbers carry their own bits,
and mpf arithmetic runs inside an explicit ``mp.workprec`` block so results
never silently round to the ambient global precision (``Jet`` arithmetic
runs inside its callers' blocks).

Values travel as plain mpf, and each container states their bits once; a
:class:`Jet` carries a value together with its first a-derivatives.

Loops of O(n) steps at one precision (the one r_n orbit loop, which also
forms beta_n and h_n, the certification compare, the edge-zero check, the
Hankel product, ``report.relative_residual``) run on raw ``_mpf_`` tuples
through ``mpmath.libmp`` instead, skipping the mpf operators' dispatch.
Each call takes the stated bits and ``round_nearest``, as an operator does
under ``mp.workprec``, so every value is bit for bit the same.  The compare
and the edge-zero check first settle from exponents (and, for the compare,
an exact mantissa difference) each number whose outcome those already
prove, and run the libmp path on the rest.  ``report.sci_str`` forms its
decimal digits from the tuple with integer arithmetic, as
``libmp.to_digits_exp`` does.  Tuples leave only the private orbit loop,
for its two callers in ``difference_eqs``; every public function returns
plain mpf.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import mpmath as mp

from .exceptions import DomainError

# Extra bits carried by internal evaluations before final rounding.
GUARD_BITS = 48

# How far above a pass's precision the pass that checks it runs.  One pass
# at W bits loses about the same digits at any W, so a second pass this
# much higher measures W's error as well as one at 2W would.
CHECK_BITS = 64

# Decimal digits one certified build loses, per route: (c, s, p, q) in
#
#     loss(a, n) = c + s n + n log10(1 + p t + q t^2),   t = a / sqrt(n),
#
# a minimax fit to the losses measured over (a, n) in
# tests/data/loss_table.json, which ``tools/loss_table.py`` writes and, with
# --check, re-measures.  n is the table's top degree on the Chebyshev and
# orbit routes and the order of the Fredholm matrix C_n.  The loss grows
# about linearly in n with a slope that depends on a (Gautschi, *Orthogonal
# Polynomials: Computation and Approximation*, OUP 2004, sec. 2.1.7): s is
# the Chebyshev map's own loss per degree at a = 0, which neither the orbit
# nor C_n (exactly I at a = 0) has, and the logarithm is the gap's, about
# (p t + q t^2) / ln 10 per degree while t is small and log10(q t^2) once a
# is well past sqrt(n).  The Chebyshev losses are those of the pass on jets,
# whose derivative parts certification also compares.
LOSS_FIT = {
    "chebyshev": (1.47, 0.45, 0.0, 3.94),
    "orbit": (-0.29, 0.0, 2.53, 4.21),
    "fredholm": (-2.15, 0.0, 2.02, 8.3),
}

# Digits a default start adds to the fitted loss: the smallest margin at
# which every cell of the committed table certifies without escalation.
LOSS_MARGIN_DIGITS = 4

_LOG2_10 = math.log2(10)


def loss_digits(route: str, a, n: int) -> float:
    """The fitted digit loss (``LOSS_FIT``) of a ``route`` build
    ("chebyshev", "orbit" or "fredholm") at half-width a and size n, as
    ``LOSS_FIT`` defines it.  a is taken as given, anything ``as_mpf``
    takes, and rounded once to a double.  An a that is not below 1e100
    (huge, infinite or not a number) counts as 1e100, so that no float
    overflows; the builders reject the last two before a pass runs."""
    c, s, p, q = LOSS_FIT[route]
    x = min(1e100, float(as_mpf(a, 53)))  # min keeps its first argument when the float is nan
    if n == 0:
        return c
    t = x / math.sqrt(n)
    return c + s * n + n * math.log10(1 + p * t + q * t * t)


def as_mpf(x, bits: int) -> mp.mpf:
    """Coerce x to an mpf rounded at ``bits`` of precision.

    Accepts mpf, int, Fraction-like rationals, str decimal literals and
    float.  Strings are the preferred way to introduce non-integer
    constants, since they parse exactly at the target precision.
    """
    with mp.workprec(bits):
        return +mp.mpf(x)


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


class _PolicyFields(NamedTuple):
    base_bits: int | None = None
    bits_per_n: int = 0
    target_certified_digits: int = 40
    max_bits: int = 16384


class PrecisionPolicy(_PolicyFields):
    """How much precision to start with and how to escalate.

    ``start_bits(route, a, n_max)`` gives the starting precision W of a
    certified build; certification compares a pass at W with one at
    W + CHECK_BITS.  By default W is (target + loss + margin) log2(10)
    rounded up, the loss from ``loss_digits`` and the margin
    ``LOSS_MARGIN_DIGITS``, so a build certifies at its first level.  An
    explicit ``base_bits`` sets W exactly: base_bits + bits_per_n n_max on
    the Chebyshev route and base_bits on the others.  When a level falls
    short of ``target_certified_digits``, W doubles until it certifies or
    the upper pass reaches ``max_bits``.

    The constructor validates the fields; ``_replace`` does not, so build
    a changed policy through the constructor.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.base_bits is not None and self.base_bits < 64:
            raise DomainError("base_bits must be at least 64")
        if self.bits_per_n < 0:
            raise DomainError("bits_per_n must be nonnegative")
        if self.bits_per_n and self.base_bits is None:
            raise DomainError("bits_per_n needs base_bits")
        if self.target_certified_digits < 1:
            raise DomainError("target_certified_digits must be positive")
        if self.max_bits < (self.base_bits or 64):
            raise DomainError("max_bits must be at least base_bits (64 without it)")
        return self

    def start_bits(self, route: str, a, n_max: int) -> int:
        """W for a ``route`` build ("chebyshev", "orbit" or "fredholm") at
        half-width a and size n_max (see ``LOSS_FIT``)."""
        if self.base_bits is not None:
            return self.base_bits + (self.bits_per_n * n_max if route == "chebyshev" else 0)
        digits = self.target_certified_digits + loss_digits(route, a, n_max) + LOSS_MARGIN_DIGITS
        return math.ceil(digits * _LOG2_10)

    def escalate(self, bits: int) -> int:
        return 2 * bits
