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
    """The moment-to-recurrence map lost all significant digits.

    Raised when a norm that must be positive comes out zero or negative, or
    when two precision levels fail to agree on any leading digit, at the
    highest precision the policy allows.
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


class QuadratureConvergenceError(GapLabError):
    """The Fredholm determinant of the overlap matrix cannot be certified.

    Raised when a pivot of the LDL^T factorization of I - G is not positive,
    or when the minors formed at two precisions disagree by more than the
    loss the route budgets.  The name dates from when G came from
    quadrature.
    """


class BranchSelectionError(GapLabError):
    """Neither root of the branch quadratic matches the reference value."""
