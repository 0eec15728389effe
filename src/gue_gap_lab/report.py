"""Residual bookkeeping shared by every verification suite.

A residual is always evaluated the same way: collect the signed terms of
(left side minus right side), sum them at working precision, and divide by
the largest single term magnitude.  That relative form is what tolerances
apply to, so identities with huge or tiny natural scales are judged
fairly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import mpmath as mp
from mpmath import libmp

from .precision import GUARD_BITS, Real


def sci_str(x, digits: int) -> str:
    """Deterministic scientific-notation string with ``digits`` significant
    digits.  A Real or mpf prints as given, whatever the ambient precision.

    nstr reads only the leading (digits + 3) log2(10) + 10 bits, truncated,
    but scales a tiny or huge value by a power of ten taken from the raw
    binary exponent, so a mantissa tens of thousands of bits wide would
    become an integer past Python's int-str limit.  A wider mantissa is
    therefore first truncated to (digits + 3) log2(10) + GUARD_BITS bits,
    which leaves every bit nstr reads as it was.
    """
    v = x.value if isinstance(x, Real) else mp.mpmathify(x)
    bits = int((digits + 3) * math.log2(10)) + GUARD_BITS
    if isinstance(v, mp.mpf) and v._mpf_[3] > bits:
        v = mp.make_mpf(libmp.mpf_pos(v._mpf_, bits, libmp.round_down))
    return mp.nstr(v, digits, min_fixed=1, max_fixed=0, strip_zeros=False)


def relative_residual(terms: Sequence, bits: int) -> mp.mpf:
    """|sum of terms| / max |term|, or exact 0 when every term vanishes.

    Runs on the raw mpf tuples, at ``bits`` with round-nearest: an mpf or
    int term is first rounded to ``bits`` and a Real's value enters the sum
    as it is, so the result is bit for bit that of |fsum(terms)| / max|term|
    under ``mp.workprec(bits)``.
    """
    rnd = libmp.round_nearest
    vals = []
    for t in terms:
        if isinstance(t, Real):
            vals.append(t.value._mpf_)
        elif isinstance(t, mp.mpf):
            vals.append(libmp.mpf_pos(t._mpf_, bits, rnd))
        else:
            vals.append(mp.mpf(t, prec=bits, rounding=rnd)._mpf_)
    scale = libmp.fzero
    for v in vals:
        m = libmp.mpf_abs(v, bits, rnd)
        if libmp.mpf_cmp(m, scale) > 0:
            scale = m
    if scale == libmp.fzero:
        return mp.mpf(0)
    total = libmp.mpf_abs(libmp.mpf_sum(vals, bits, rnd), bits, rnd)
    return mp.make_mpf(libmp.mpf_div(total, scale, bits, rnd))


@dataclass(frozen=True)
class ResidualCheck:
    """One named residual with its verdict."""

    name: str
    n: int
    residual: mp.mpf
    tolerance: float
    passed: bool
    note: str = ""


def make_check(name: str, n: int, terms: Sequence, tolerance: float, bits: int) -> ResidualCheck:
    """Evaluate a relative residual and compare against its tolerance."""
    r = relative_residual(terms, bits)
    return ResidualCheck(name=name, n=n, residual=r, tolerance=tolerance, passed=bool(r < tolerance))


@dataclass
class ResidualReport:
    """All residual checks attached to one (n, a) cell or one suite slice."""

    a: str
    n: int
    checks: list[ResidualCheck] = field(default_factory=list)

    def add(self, check: ResidualCheck) -> None:
        self.checks.append(check)

    def extend(self, checks: Iterable[ResidualCheck]) -> None:
        self.checks.extend(checks)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst(self) -> mp.mpf:
        vals = [c.residual for c in self.checks]
        return max(vals) if vals else mp.mpf(0)

    def rows(self) -> list[dict]:
        """Plain-type rows for JSON serialization.

        Residuals go out as decimal scientific-notation strings because
        they routinely sit far below the double-precision underflow
        threshold and a float field would flatten them to 0.0.
        """
        out = []
        for c in self.checks:
            row = {
                "name": c.name,
                "n": c.n,
                "a": self.a,
                "residual": sci_str(c.residual, 8),
                "tolerance": c.tolerance,
                "pass": bool(c.passed),
            }
            if c.note:
                row["note"] = c.note
            out.append(row)
        return out


def all_pass(reports: Iterable[ResidualReport]) -> bool:
    return all(r.all_pass for r in reports)
