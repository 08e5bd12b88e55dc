"""Exception hierarchy shared by all bifrac modules, and the checks that
decide what an input error is.

Every error the library raises derives from :class:`BifracError`, so callers
can catch one base class; any other exception leaving a library call is a
defect.  :class:`InvalidInputError` is also a ``ValueError``.  The private
checkers :func:`_real`, :func:`_finite`, :func:`_count` and :func:`_pairs` are
the one validation path for real and integer arguments and pairs of reals.
The CLI maps subfamilies to stable exit codes (see ``bifrac.cli``).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping, Set


class BifracError(Exception):
    """Base class for all bifrac errors."""


class InvalidInputError(BifracError, ValueError):
    """An input is malformed or breaks a hypothesis of the call: a wrong
    type, a count out of range, a law whose masses do not sum to 1."""


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


def _real(name: str, value) -> float:
    """``value`` as a float, NaN and infinities included, for a check such
    as ``not x > 0`` to judge.  Raises InvalidInputError if it is not a real
    number (a string is not) and NonFiniteError for an int past double
    range."""
    try:
        math.isfinite(value)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}") from None
    except OverflowError:
        raise NonFiniteError(f"{name} is past double range") from None
    return float(value)


def _finite(name: str, value) -> float:
    """``value`` as a float.  Raises as :func:`_real` does, and
    NonFiniteError if it is NaN or infinite."""
    x = _real(name, value)
    if not math.isfinite(x):
        raise NonFiniteError(f"{name} must be finite, got {x!r}")
    return x


def _count(name: str, value, least: int) -> int:
    """``value`` as an int >= ``least``.  Raises InvalidInputError for a
    value that is not an integer (a float is not, 2.0 included) or is
    smaller; the message leaves out an int too long to print."""
    try:
        n = operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}") from None
    if n < least:
        got = f", got {n}" if n.bit_length() <= 64 else ""
        raise InvalidInputError(f"{name} must be >= {least}{got}")
    return n


def _pairs(name: str, seq, first: str, second: str) -> list[tuple[float, float]]:
    """The items of ``seq`` as (float, float) pairs, each value through
    :func:`_finite`.  Raises InvalidInputError if ``seq`` is not iterable or
    an item does not unpack into exactly two values, or is a mapping or a
    set, which unpacks in its own order rather than as (first, second)."""
    message = f"{name}s must be a sequence of ({first}, {second}) pairs"
    try:
        items = list(seq)
        pairs = [(a, b) for a, b in items]
    except (TypeError, ValueError):
        raise InvalidInputError(message) from None
    if any(isinstance(item, (Mapping, Set)) for item in items):
        raise InvalidInputError(message)
    first, second = f"{name} {first}", f"{name} {second}"
    return [(_finite(first, a), _finite(second, b)) for a, b in pairs]
