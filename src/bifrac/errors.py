"""Exception hierarchy shared by all bifrac modules.

Every library error derives from :class:`BifracError` so callers can catch
one base class.  The CLI maps subfamilies to stable exit codes (see
``bifrac.cli``).
"""

from __future__ import annotations


class BifracError(Exception):
    """Base class for all bifrac errors."""


class NonFiniteError(BifracError):
    """An input or an intermediate value was NaN or infinite."""


class OutOfDomainError(BifracError):
    """A parameter violates its admissible domain.

    ``constraint`` names the specific bound that failed, e.g. ``"K <= 2"``.
    """

    def __init__(self, constraint: str, message: str | None = None):
        self.constraint = constraint
        super().__init__(message or f"parameter constraint violated: {constraint}")


class NegativeTimeError(BifracError):
    """A time argument was negative."""


class NegativeArgumentError(BifracError):
    """A function argument that must be >= 0 was negative."""


class NumericalFailureError(BifracError):
    """A numerical routine (eigen decomposition) failed to converge."""


class NotPSDError(BifracError):
    """Covariance factorization failed even after the jitter retries."""


class InsufficientSamplesError(BifracError):
    """A Monte Carlo routine was asked for fewer than 2 samples."""


class DegenerateFamilyError(BifracError):
    """A two-point family collapsed to a single atom."""


class SearchExhaustedError(BifracError):
    """A parameter search hit its cap without success (numerical breakdown)."""


class InequalityViolationError(BifracError):
    """A nonnegativity assertion fired; signals a numerical or logic defect."""
