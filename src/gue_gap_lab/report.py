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
    """|sum of terms| / max |term|, or exact 0 when every term vanishes."""
    with mp.workprec(bits):
        vals = [t.value if isinstance(t, Real) else mp.mpf(t) for t in terms]
        scale = max(abs(v) for v in vals)
        if scale == 0:
            return mp.mpf(0)
        total = mp.fsum(vals)
        return abs(total) / scale


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
