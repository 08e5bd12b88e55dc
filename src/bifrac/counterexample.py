"""Two-point family violating the moment gap inequality for alpha > 2.

The family puts mass p = 1 - c/M at +1 and mass q = c/M at -M.  For
alpha > 2 and M >= 1,

    E|X-Y|**alpha - E|X+Y|**alpha
        = 2pq[(M+1)**alpha - (M-1)**alpha] - 2**alpha M**alpha q**2 - 2**alpha p**2
       >= 4pq alpha M**(alpha-1) - 2**alpha M**alpha q**2 - 2**alpha p**2
        = M**(alpha-2) (4 p alpha c - 2**alpha c**2) - 2**alpha p**2,

which blows up with M whenever c < 2**(2-alpha) * alpha, so the violation
is eventually positive.  ``find_violation`` makes that constructive by
fixing c at half the threshold and doubling M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .dists import DiscreteDist
from .errors import (
    DegenerateFamilyError,
    InequalityViolationError,
    NonFiniteError,
    OutOfDomainError,
    SearchExhaustedError,
    _finite,
    _real,
)

M_CAP = 1e9
ALPHA_MAX = 40.0


@dataclass(frozen=True)
class CounterFamily:
    """Parameters (alpha, c, M) with derived masses q = c/M, p = 1 - q."""

    alpha: float
    c: float
    M: float

    def __post_init__(self):
        for name in ("alpha", "c", "M"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        if not self.alpha > 2:
            raise OutOfDomainError("alpha > 2")
        if not self.c > 0:
            raise OutOfDomainError("c > 0")
        if not self.M >= max(self.c, 1.0):
            raise OutOfDomainError("M >= max(c, 1)")

    @property
    def q(self) -> float:
        return self.c / self.M

    @property
    def p(self) -> float:
        return 1.0 - self.q

    @property
    def threshold(self) -> float:
        """c must stay below 2**(2-alpha) * alpha for the guaranteed blow-up."""
        return 2.0 ** (2.0 - self.alpha) * self.alpha

    @property
    def below_threshold(self) -> bool:
        return self.c < self.threshold


class BoundChain(NamedTuple):
    exact: float
    bound1: float
    bound2: float


def family_dist(f: CounterFamily) -> DiscreteDist:
    """The two-atom law {(1, p), (-M, q)}."""
    q = f.q
    if q == 1.0:
        raise DegenerateFamilyError(f"q = c/M = 1 collapses the family to a point mass at -{f.M}")
    return DiscreteDist([(-f.M, q), (1.0, f.p)])


def closed_form_violation(alpha: float, c: float, M: float) -> float:
    """E|X-Y|**alpha - E|X+Y|**alpha for the two-point law, closed form.

    Valid for any finite alpha > 0 with M >= max(c, 1); negative for
    alpha <= 2.  Raises NonFiniteError if alpha, c or M is not finite, or
    if a power of degree alpha, such as M**alpha, leaves double range.
    """
    alpha, c, M = _finite("alpha", alpha), _finite("c", c), _finite("M", M)
    if not alpha > 0:
        raise OutOfDomainError("alpha > 0")
    if not M >= max(c, 1.0):
        raise OutOfDomainError("M >= max(c, 1)")
    q = c / M
    p = 1.0 - q
    try:
        m_alpha = M**alpha
        # (M+1)**alpha - (M-1)**alpha without cancellation; at M = 1 the
        # second power is exactly 0, where log1p(-1) would raise.
        lower = -1.0 if M == 1.0 else math.expm1(alpha * math.log1p(-1.0 / M))
        diff = m_alpha * (math.expm1(alpha * math.log1p(1.0 / M)) - lower)
        two_alpha = 2.0**alpha
    except OverflowError:
        raise NonFiniteError(f"a power of degree alpha leaves double range at {(alpha, c, M)}") from None
    return 2.0 * p * q * diff - two_alpha * m_alpha * q * q - two_alpha * p * p


def violation_exact(f: CounterFamily) -> float:
    """Closed-form violation for the family; positive means the inequality
    fails.  Agrees with the negated exact double-sum gap."""
    return closed_form_violation(f.alpha, f.c, f.M)


def lower_bound_chain(f: CounterFamily) -> BoundChain:
    """The exact violation and its two algebraically equal lower bounds.

    Asserts exact >= bound1 and bound1 == bound2 up to floating tolerance;
    a failure signals a defect, not mathematics.
    """
    exact = violation_exact(f)  # first: it raises NonFiniteError where M**alpha overflows
    alpha, c, M = f.alpha, f.c, f.M
    q = f.q
    p = f.p
    two_alpha = 2.0**alpha
    term_a = 4.0 * p * q * alpha * M ** (alpha - 1.0)
    term_b = two_alpha * M**alpha * q * q
    term_c = two_alpha * p * p
    bound1 = term_a - term_b - term_c
    bound2 = M ** (alpha - 2.0) * (4.0 * p * alpha * c - two_alpha * c * c) - term_c
    scale = abs(term_a) + abs(term_b) + abs(term_c)
    if exact < bound1 - 1e-10 * scale:
        raise InequalityViolationError(f"exact {exact!r} fell below bound1 {bound1!r}")
    if abs(bound1 - bound2) > 1e-10 * scale:
        raise InequalityViolationError(f"bound1 {bound1!r} != bound2 {bound2!r}")
    return BoundChain(exact=exact, bound1=bound1, bound2=bound2)


def find_violation(alpha: float) -> CounterFamily:
    """A family with positive violation for 2 < alpha <= 40.

    c is fixed at half the blow-up threshold, then M doubles from
    2*max(c, 1) until the closed form goes positive.  The threshold choice
    guarantees termination; the M cap only guards numerical breakdown.
    """
    alpha = _real("alpha", alpha)
    if not alpha > 2:
        raise OutOfDomainError("alpha > 2")
    if not alpha <= ALPHA_MAX:
        raise OutOfDomainError(f"alpha <= {ALPHA_MAX:g}")
    c = 2.0 ** (1.0 - alpha) * alpha
    M = 2.0 * max(c, 1.0)
    while M <= M_CAP:
        f = CounterFamily(alpha=alpha, c=c, M=M)
        v = violation_exact(f)
        if math.isfinite(v) and v > 0.0:
            return f
        M *= 2.0
    raise SearchExhaustedError(f"no positive violation found for alpha={alpha} with M <= {M_CAP:g}")
