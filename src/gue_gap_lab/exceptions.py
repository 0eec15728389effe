"""Exception hierarchy for gue-gap-lab.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can map it to a row status or a nonzero exit without string
matching.  All of them derive from :class:`GapLabError`.
"""

from __future__ import annotations


class GapLabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GapLabError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class IllConditioningError(GapLabError):
    """A certified computation lost all significant digits.

    Raised when a quantity that must be positive (a norm h_n, the orbit's
    2 beta_n R_{n-1}, or a pivot of I - G_n) comes out zero or negative at
    the highest precision the policy allows.
    """


class PrecisionExhaustedError(GapLabError):
    """Escalation hit the precision ceiling before certifying enough digits.

    Attributes
    ----------
    certified_digits : int
        Digits that were certified at the ceiling.
    ceiling_bits : int
        The precision ceiling that was reached.
    """

    def __init__(self, message: str, *, certified_digits: int = 0, ceiling_bits: int = 0):
        super().__init__(message)
        self.certified_digits = certified_digits
        self.ceiling_bits = ceiling_bits


class EdgeZeroError(GapLabError):
    """A polynomial value at the gap edge is numerically indistinguishable
    from zero, so a quantity that divides by it cannot be certified.

    Attributes
    ----------
    n : int
        Degree of the offending polynomial.
    """

    def __init__(self, message: str, *, n: int = -1):
        super().__init__(message)
        self.n = n


class DegenerateDenominatorError(GapLabError):
    """A difference-equation step hit a denominator too close to zero.

    Attributes
    ----------
    n : int
        Index at which the iteration degenerated.
    """

    def __init__(self, message: str, *, n: int = -1):
        super().__init__(message)
        self.n = n


class BranchSelectionError(GapLabError):
    """Neither root of the branch quadratic matches the reference value."""
