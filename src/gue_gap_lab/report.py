"""Residual bookkeeping shared by every verification suite.

A residual is always evaluated the same way: collect the signed terms of
(left side minus right side), sum them at working precision, and divide by
the largest single term magnitude.  That relative form is what tolerances
apply to, so identities with huge or tiny natural scales are judged
fairly.

Every residual family fills a ``ResidualReport`` made at its degree and
working bits, and names each check with ``ResidualReport.check(name,
terms, tolerance)``.  A report does not label its half-width:
``ResidualCheck.row`` is the one JSON form of a check, under the
half-width text the caller gives it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import mpmath as mp
from mpmath import libmp

from .precision import GUARD_BITS


_LOG2_10 = math.log(10, 2)  # the constant libmp.to_digits_exp scales digits to bits with
_POW10: dict[int, int] = {}
_DOUBLES: dict[float, tuple] = {}  # tolerance -> its exact double as a raw mpf tuple


def sci_str(x, digits: int) -> str:
    """Deterministic scientific-notation string with ``digits`` significant
    digits.  An mpf prints as given, whatever the ambient precision.

    For binary exponents within +-3500 the string is nstr's
    (``libmp.to_str``'s), byte for byte, formed as ``libmp.to_digits_exp``
    forms it: floor(|x| 2^fix) as an integer, where fix keeps the leading
    (digits + 3) log2(10) + 10 bits or, for a larger value, the whole
    integer part (at most 3500 bits); one multiply by a power of ten (cached
    by exponent), a shift and ``str``; then rounded half up, carrying
    through a run of 9s into the next decade.  Zero and exponents beyond
    +-3500, which to_digits_exp first rescales by a power of ten taken from
    the raw exponent, go to ``libmp.to_str`` itself, with the mantissa first
    truncated to (digits + 3) log2(10) + GUARD_BITS bits: one tens of
    thousands of bits wide would become an integer past Python's int-str
    limit.
    """
    sign, man, exp, bc = t = x._mpf_ if isinstance(x, mp.mpf) else mp.mpmathify(x)._mpf_
    top = exp + bc
    if not man or not -3500 <= top <= 3500 or digits < 1:
        t = libmp.mpf_pos(t, int((digits + 3) * math.log2(10)) + GUARD_BITS, libmp.round_down)
        return libmp.to_str(t, digits, min_fixed=1, max_fixed=0, strip_zeros=False)
    # to_digits_exp at digits + 3: floor(|x| 2^fix) as a fixed-point integer,
    # times 10^fixdps, shifted back down
    fix = max(int((digits + 3) * _LOG2_10) + 10 - top, 0)
    fixdps = int(fix / _LOG2_10 + 0.5)
    shift = exp + fix
    pow10 = _POW10.get(fixdps) or _POW10.setdefault(fixdps, 10 ** fixdps)
    s = str(((man << shift) if shift >= 0 else (man >> -shift)) * pow10 >> fix)
    e = len(s) - fixdps - 1
    # to_str's half-up rounding, where a carry out of the leading digit
    # moves the exponent
    if len(s) > digits and s[digits] >= "5":
        s = str(int(s[:digits]) + 1)
        if len(s) > digits:
            s = s[:digits]
            e += 1
    else:
        s = s[:digits]
    s = s[0] + "." + s[1:]
    if sign:
        s = "-" + s
    if e == 0:
        return s
    return f"{s}e+{e}" if e > 0 else f"{s}e{e}"


def relative_residual(terms: Sequence, bits: int) -> mp.mpf:
    """|sum of terms| / max |term|, or exact 0 when every term vanishes.

    Runs on raw mpf tuples, at ``bits`` with round-nearest: every term (an
    mpf, a raw tuple or a number mpmath converts) is first rounded to ``bits``,
    so the result is bit for bit |fsum(terms)| / max|term| under workprec.
    """
    rnd = libmp.round_nearest
    vals = []
    for t in terms:
        if isinstance(t, mp.mpf):
            t = t._mpf_
        elif type(t) is not tuple:
            t = mp.mpf(t, prec=bits, rounding=rnd)._mpf_
        vals.append(t if t[3] <= bits else libmp.mpf_pos(t, bits, rnd))
    scale = libmp.fzero
    for v in vals:
        m = libmp.mpf_abs(v)
        if libmp.mpf_cmp(m, scale) > 0:
            scale = m
    if scale == libmp.fzero:
        return mp.mpf(0)
    total = libmp.mpf_abs(libmp.mpf_sum(vals, bits, rnd))
    return mp.make_mpf(libmp.mpf_div(total, scale, bits, rnd))


def passes(residual: mp.mpf, tolerance: float) -> bool:
    """The verdict of every check: residual < tolerance, with the residual's
    raw tuple compared against the exact double of the tolerance."""
    tol = _DOUBLES.get(tolerance) or _DOUBLES.setdefault(tolerance, libmp.from_float(tolerance))
    return libmp.mpf_cmp(residual._mpf_, tol) < 0


class ResidualCheck(NamedTuple):
    """One named residual with its verdict."""

    name: str
    n: int
    residual: mp.mpf
    tolerance: float
    passed: bool
    note: str = ""

    def row(self, a: str) -> dict:
        """Plain-type JSON row, labelled with the half-width text ``a``.

        The residual goes out as a decimal scientific-notation string
        because residuals routinely sit far below the double-precision
        underflow threshold and a float field would flatten them to 0.0.
        """
        row = {"name": self.name, "n": self.n, "a": a, "residual": sci_str(self.residual, 8),
               "tolerance": self.tolerance, "pass": bool(self.passed)}
        if self.note:
            row["note"] = self.note
        return row


def make_check(name: str, n: int, terms: Sequence, tolerance: float, bits: int) -> ResidualCheck:
    """Evaluate a relative residual and judge it against its tolerance."""
    r = relative_residual(terms, bits)
    return ResidualCheck(name, n, r, tolerance, passes(r, tolerance))


class ResidualReport:
    """All residual checks attached to one degree n of a cell or one suite
    slice, each evaluated at ``bits``."""

    def __init__(self, n: int, bits: int, checks: list[ResidualCheck] | None = None):
        self.n = n
        self.bits = bits
        self.checks = [] if checks is None else checks

    def check(self, name: str, terms: Sequence, tolerance: float, n: int | None = None) -> None:
        """Add the check ``name`` of ``terms`` at the report's bits, at degree
        ``n``, by default the report's own."""
        self.checks.append(make_check(name, self.n if n is None else n, terms, tolerance,
                                      self.bits))

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst(self) -> mp.mpf:
        vals = [c.residual for c in self.checks]
        return max(vals) if vals else mp.mpf(0)
