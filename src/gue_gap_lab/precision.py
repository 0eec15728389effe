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

One loop, ``certify``, certifies every route's pass under a
``PrecisionPolicy``: the recurrence tables and the Fredholm minors.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import fone, fzero, mpf_abs, mpf_cmp, mpf_div, mpf_sub
from mpmath.libmp import round_nearest as RN

from .exceptions import DomainError, IllConditioningError, PrecisionExhaustedError

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
A_MAX = mp.mpf(10 ** 154, prec=0)  # exact; every half-width lies below it, check_half_width says why


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
    the upper pass reaches ``max_bits``.  Every W, the start included, is
    capped at max_bits - CHECK_BITS, which must be base_bits (64 without
    it) or more.

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
        if self.max_bits < (self.base_bits or 64) + CHECK_BITS:
            raise DomainError(f"max_bits must be at least base_bits + {CHECK_BITS} "
                              f"({64 + CHECK_BITS} without base_bits)")
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


def check_half_width(a: mp.mpf) -> None:
    """Refuse an mpf a that is not a finite number >= 0 below ``A_MAX`` =
    1e154: mpmath's erfc, which starts every moment sweep and every orbit,
    squares int(a) into a float, which overflows once a passes about
    1.34e154.  ``certify`` calls it once per build, before any pass, and
    ``difference_eqs.iterate_r_orbit`` for its uncertified orbit."""
    if not (mp.isfinite(a) and a >= 0):
        raise DomainError(f"gap half-width must be a finite number >= 0, got {a}")
    if not a < A_MAX:
        raise DomainError(f"gap half-width must be below 1e154, where erfc overflows, got {a}")


class NonPositiveNorm(IllConditioningError):
    """A quantity that is positive in exact arithmetic (h_n, the orbit's
    2 beta_n R_{n-1}, or a pivot of I - G_n) came out <= 0 at the current
    precision.  ``certify`` treats that level as certifying nothing;
    outside the loop it is an IllConditioningError."""

    def __init__(self, index: int, what: str = "norm"):
        super().__init__(f"{what} {index} not positive")
        self.index = index


class Certified(NamedTuple):
    """What ``certify`` keeps: the upper pass of the level that reached the
    target (``value``, numbers at ``working_bits``), the digits its pair
    agreed on, and how many times the precision was raised to get there."""

    value: object
    certified_digits: int
    working_bits: int
    escalations: int


def pass_numbers(values):
    """Every number of a pass, in order: nested sequences are flattened, and
    a jet gives its coefficients."""
    for v in values:
        if isinstance(v, Jet):
            yield from v.c
        elif isinstance(v, (list, tuple)):
            yield from pass_numbers(v)
        else:
            yield v


def certified_digits(lo, hi, lo_bits: int) -> int:
    """Decimal digits on which two passes agree: the worst relative
    disagreement over all their numbers (over each jet coefficient, for a
    pass on jets), capped at the lower pass's precision.  One logarithm, of
    the worst disagreement, since floor(-log10(rel)) falls as rel grows.

    The compare runs at 64 bits on raw mpf tuples, last number first, since
    a pass loses its digits as the degree grows.  A pair of one sign whose
    aligned mantissa difference and exponents bound its disagreement below
    half the worst so far cannot raise it and is skipped; every other pair
    runs the 64-bit compare."""
    cap = int(lo_bits * math.log10(2))
    worst = fzero
    bound = None  # a pair whose disagreement is below 2^bound is skipped
    xs, ys = list(pass_numbers(lo)), list(pass_numbers(hi))
    for i in range(min(len(xs), len(ys)) - 1, -1, -1):
        x, y = xs[i]._mpf_, ys[i]._mpf_
        if x == y:  # normalized tuples are equal exactly when the values are
            continue
        if bound is not None and x[1] and y[1] and x[0] == y[0]:
            tx, ty = x[2] + x[3], y[2] + y[3]  # |x| in [2^(tx-1), 2^tx)
            if -1 <= tx - ty <= 1:
                e = min(x[2], y[2])
                diff = (x[1] << (x[2] - e)) - (y[1] << (y[2] - e))  # (x - y) / 2^e
                # rel < 2^(bits(diff) + e) / 2^(max(tx, ty) - 1)
                if diff.bit_length() + e - max(tx, ty) + 1 <= bound:
                    continue
        ax, ay = mpf_abs(x, 64, RN), mpf_abs(y, 64, RN)
        den = ax if mpf_cmp(ax, ay) >= 0 else ay
        rel = mpf_div(mpf_abs(mpf_sub(x, y, 64, RN)), den, 64, RN)
        if mpf_cmp(rel, worst) > 0:
            worst = rel
            bound = worst[2] + worst[3] - 2  # worst / 2 >= 2^bound
    if worst == fzero:
        return cap
    if mpf_cmp(worst, fone) >= 0:
        return 0
    with mp.workprec(64):
        return min(cap, int(mp.floor(-mp.log10(mp.make_mpf(worst)))))


def certify(route: str, pass_fn, a, n: int, policy: PrecisionPolicy | None) -> Certified:
    """Run the ``route`` pass ``pass_fn(a, n, bits)``, which returns a nested
    sequence of mpf or Jet, at pairs of precisions until a pair agrees to
    the policy target.

    Before any pass it refuses n < 0, and through ``check_half_width`` at
    64 bits an a that is not a finite number >= 0 below 1e154; a is passed
    on as given, and each pass rounds it at its own bits.  The policy is
    ``PrecisionPolicy()`` when None.  Each level runs a pass at W bits and a
    check pass at W + CHECK_BITS, and takes their worst relative agreement
    over all their numbers, capped at W's digits (``certified_digits``), as
    the certified digit count; the upper pass is kept.  W starts at
    ``policy.start_bits(route, a, n)`` and escalates through
    ``policy.escalate``, and every W, the start included, is capped at
    max_bits - CHECK_BITS, so that the top level is
    (max_bits - CHECK_BITS, max_bits) and no pass is ever compared with one
    at the same bits.  A pass raises NonPositiveNorm when its precision
    cannot keep positive what must be; its level then certifies nothing,
    and below the top level its check pass is skipped.  Raises
    PrecisionExhaustedError when the top level falls short of the target,
    and IllConditioningError if positivity fails even at the ceiling.
    """
    if n < 0:
        raise DomainError(f"n_max must be >= 0, got {n}")
    check_half_width(as_mpf(a, 64))
    policy = policy or PrecisionPolicy()
    top = policy.max_bits - CHECK_BITS
    bits = min(policy.start_bits(route, a, n), top)

    def attempt(bits):
        """The pass at ``bits``, or None when it did not stay positive."""
        try:
            return pass_fn(a, n, bits)
        except NonPositiveNorm as exc:
            if bits >= policy.max_bits:
                raise IllConditioningError(
                    f"{exc} at ceiling precision {policy.max_bits} bits") from exc
            return None

    levels = 0
    best_certified = 0
    while True:
        lo = attempt(bits)
        # a level whose lower pass lost positivity certifies nothing, so its
        # check pass runs only at the top, where it may raise
        hi = attempt(bits + CHECK_BITS) if lo is not None or bits >= top else None
        levels += 1
        if lo is not None and hi is not None:
            certified = certified_digits(lo, hi, bits)
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
