"""Finite-atom Bernstein functions and the F(lam) = G(lam**2) gap machinery.

A Bernstein function here is

    G(lam) = a + b*lam + sum_i w_i * (1 - exp(-t_i * lam)),   a, b >= 0,

with a finite atomic measure (t_i > 0, w_i > 0).  The induced F(lam) =
G(lam**2) satisfies E F(|X-Y|) <= E F(|X+Y|) for i.i.d. X, Y.  The gap
decomposes over the representation: the constant contributes nothing, the
linear part contributes b times the alpha = 2 moment gap, and each measure
atom contributes the elementary gap

    E[exp(-t (X-Y)**2) - exp(-t (X+Y)**2)]
        = 2 * sum_{n>=0} (2t)**(2n+1) / (2n+1)! * E(X**(2n+1) e**(-t X**2))**2,

a series of squares, hence nonnegative term by term.  The gap depends on
the law only through w_a = P(X = a) - P(X = -a) over the distinct |x| = a,
as the variance route's quadratic form does.  The series evaluator keeps the
odd moments rescaled (one state per a carries w_a, its exp(-t a**2) damping
and powers of a/max|x|, accumulated multiplicatively) inside floating range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dists import DiscreteDist, _json_number, _signed_weights, expect_pair
from .errors import NegativeArgumentError, NonFiniteError
from .inequality import GapReport, _signed_form

__all__ = [
    "BernsteinFn",
    "SeriesResult",
    "IdentityCheck",
    "eval_g",
    "eval_f",
    "bernstein_gap_exact",
    "elementary_gap_series",
    "series_identity_check",
    "bernstein_from_json",
    "bernstein_to_json",
]

# Beyond this value of 2*t*max|x|**2 the dominating coefficients
# 2*z**(2n+1)/(2n+1)! leave double range near their peak (~e**z).
_Z_LIMIT = 650.0

_STOP_ABS = 1e-16


@dataclass(frozen=True)
class BernsteinFn:
    """Triple (a, b, mu) with mu a finite atomic measure on (0, inf)."""

    a: float
    b: float
    mu: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        a = float(self.a)
        b = float(self.b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise NonFiniteError(f"a, b must be finite, got ({a}, {b})")
        if a < 0 or b < 0:
            raise ValueError(f"a, b must be >= 0, got ({a}, {b})")
        atoms = []
        for t, w in self.mu:
            t = float(t)
            w = float(w)
            if not (math.isfinite(t) and math.isfinite(w)):
                raise NonFiniteError(f"measure atom ({t}, {w}) is not finite")
            if t <= 0:
                raise ValueError(f"measure atom location must be > 0, got {t}")
            if w <= 0:
                raise ValueError(f"measure atom weight must be > 0, got {w}")
            atoms.append((t, w))
        atoms.sort()
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "mu", tuple(atoms))


class SeriesResult(NamedTuple):
    value: float
    truncation_bound: float
    n_terms: int


class IdentityCheck(NamedTuple):
    lhs: float
    rhs_partial: float
    remainder_bound: float


def eval_g(g: BernsteinFn, lam: float) -> float:
    """G(lam) for lam >= 0; nondecreasing, G(0) = a."""
    if not lam >= 0:
        raise NegativeArgumentError(f"lam must be >= 0, got {lam}")
    linear = [g.b * lam] if g.b else []  # 0 * inf is NaN
    return math.fsum([g.a] + linear + [w * (1.0 - math.exp(-t * lam)) for t, w in g.mu])


def eval_f(g: BernsteinFn, lam: float) -> float:
    """F(lam) = G(lam**2) for lam >= 0."""
    if not lam >= 0:
        raise NegativeArgumentError(f"lam must be >= 0, got {lam}")
    return eval_g(g, lam * lam)


def _f_block(g: BernsteinFn, lam: np.ndarray) -> np.ndarray:
    """F(lam) = G(lam**2) on an array of lam >= 0, the terms of G added in
    representation order (a, b*lam**2, then each measure atom)."""
    lam2 = lam * lam
    f = g.a + g.b * lam2 if g.b else np.full_like(lam2, g.a)  # 0 * inf is NaN
    for t, w in g.mu:
        f = f + w * (1.0 - np.exp(-t * lam2))
    return f


def bernstein_gap_exact(d: DiscreteDist, g: BernsteinFn) -> GapReport:
    """E F(|X+Y|) - E F(|X-Y|) >= 0: e_plus by the double sum on numpy pair
    blocks (:func:`expect_pair`), the gap by :func:`_signed_form` with table
    T(u, v) = F(u + v) - F(|u - v|) = 4b*u*v - sum_t omega_t * exp(-t(u-v)**2)
    * expm1(-4tuv) >= 0 (omega_t the weight of atom t), e_minus = e_plus - gap."""
    e_plus = expect_pair(d, lambda u, v: _f_block(g, np.abs(u + v)))
    keys, w = _signed_weights(d)
    with np.errstate(over="ignore"):  # inf in uv, d2 gives exp 0, expm1 -1
        uv, d2 = np.multiply.outer(keys, keys), np.subtract.outer(keys, keys) ** 2
        table = 4.0 * (g.b * uv) if g.b else np.zeros_like(uv)
        for t, omega in g.mu:
            table -= omega * np.exp(-t * d2) * np.expm1(-4.0 * (t * uv))
    gap = _signed_form(w, table, "Bernstein gap")
    return GapReport(alpha=None, e_plus=e_plus, e_minus=e_plus - gap, route="exact")


def elementary_gap_series(
    d: DiscreteDist, t: float, n_terms: int | None = None
) -> SeriesResult:
    """Series evaluation of the elementary gap for one measure atom t.

    Terms are c_n * S_n**2 with c_n = 2*(2t)**(2n+1)/(2n+1)! and S_n the
    odd damped moment E(X**(2n+1) e**(-t X**2)); every term is >= 0 so the
    partial sums are nondecreasing.

    If ``n_terms`` is None the stopping rule is used: stop once the
    dominating coefficient of the next term falls below 1e-16 and the
    coefficient ratio is below 1/2.  With ``n_terms`` given, the sum stops
    early once the coefficients underflow to 0.0, as every later term is
    then 0.0, and the result still reports ``n_terms``.
    ``truncation_bound`` is the tail of the dominating series (first
    omitted coefficient summed geometrically); it is a rigorous remainder
    bound because |S_n| <= max|x|**(2n+1).

    Raises
    ------
    NonFiniteError
        If 2*t*max|x|**2 is so large that the dominating coefficients
        leave floating range even after rescaling.
    """
    if not t > 0:
        raise ValueError(f"t must be > 0, got {t}")
    if n_terms is not None and n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    keys, w = _signed_weights(d)
    x_max = float(keys[-1])
    if x_max == 0.0:
        return SeriesResult(value=0.0, truncation_bound=0.0, n_terms=n_terms or 1)
    z = 2.0 * t * x_max * x_max
    if z > _Z_LIMIT:
        raise NonFiniteError(
            f"2*t*max|x|**2 = {z:g} exceeds {_Z_LIMIT:g}; series coefficients overflow"
        )
    # States w_a*(a/x_max)**(2n+1)*exp(-t*a**2) over the distinct |x| = a,
    # advanced multiplicatively; their fsum is the rescaled odd moment S_n.
    # Mirrored atoms meet in w_a first, so they cancel before any sum.
    rho = keys / x_max
    states = w * rho * np.array([math.exp(-t * a * a) for a in keys.tolist()])
    ratios2 = rho * rho
    coef = 2.0 * z  # c_0 = 2*z/1!
    terms = []
    n = 0
    while True:
        s_n = math.fsum(memoryview(states))
        terms.append(coef * s_n * s_n)
        n += 1
        next_coef = coef * z * z / ((2.0 * n) * (2.0 * n + 1.0))
        if n_terms is not None:
            if n >= n_terms or next_coef == 0.0:  # then every later term is 0.0
                break
        else:
            ratio = z * z / ((2.0 * n + 2.0) * (2.0 * n + 3.0))
            if ratio < 0.5 and next_coef < _STOP_ABS:  # by n = 900, since z <= _Z_LIMIT
                break
        coef = next_coef
        states *= ratios2
    ratio = z * z / ((2.0 * n + 2.0) * (2.0 * n + 3.0))
    bound = next_coef / (1.0 - ratio) if ratio < 1.0 else math.inf
    return SeriesResult(value=math.fsum(terms), truncation_bound=bound, n_terms=n_terms or n)


def series_identity_check(x: float, y: float, t: float, n_terms: int) -> IdentityCheck:
    """Pointwise check of the product expansion

        exp(-t|x-y|**2) - exp(-t|x+y|**2)
            = 2*exp(-t x**2 - t y**2) * sum_n (2 t x y)**(2n+1) / (2n+1)!.

    Each summand is evaluated with its exp(-t x**2 - t y**2) prefactor
    folded in via logarithms, so the summands themselves never overflow.
    All summands share the sign of x*y, so the remainder bound is the first
    omitted summand summed geometrically (infinite when the term ratio is
    still >= 1 at the cutoff).  Raises NonFiniteError for non-finite x or
    y, and when (x +- y)**2 or 2*t*x*y is not finite.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise NonFiniteError(f"x, y must be finite, got ({x}, {y})")
    if not t > 0:
        raise ValueError(f"t must be > 0, got {t}")
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    try:
        lhs = math.exp(-t * (x - y) ** 2) - math.exp(-t * (x + y) ** 2)
    except OverflowError:
        raise NonFiniteError(f"(x +- y)**2 overflows at ({x}, {y})") from None
    w = 2.0 * t * x * y
    if w == 0.0:
        return IdentityCheck(lhs=lhs, rhs_partial=0.0, remainder_bound=0.0)
    if not math.isfinite(w):
        raise NonFiniteError(f"2*t*x*y = {w} is not finite at ({x}, {y}, {t})")
    log_pref = math.log(2.0) - t * (x * x + y * y)
    log_w = math.log(abs(w))
    sign = 1.0 if w > 0 else -1.0

    def term(n: int) -> float:
        return sign * math.exp(log_pref + (2 * n + 1) * log_w - math.lgamma(2 * n + 2))

    # Term n+1 over term n is w**2/((2n+2)(2n+3)), so the terms rise to a
    # peak at most two below n = |w|/2 and fall after it.  Walk out from
    # there: every term past a 0.0 is 0.0 too, on the way up at once and on
    # the way down once the terms below are the smaller ones.  So the walk
    # evaluates about as many terms as are not 0.0: O(sqrt|w|), not O(|w|).
    top = min(int(abs(w) // 2), n_terms - 1)
    terms = []
    for n in range(top, -1, -1):
        terms.append(term(n))
        if terms[-1] == 0.0 and w * w >= (2.0 * n) * (2.0 * n + 1.0):
            break
    for n in range(top + 1, n_terms):
        terms.append(term(n))
        if terms[-1] == 0.0:
            break
    rhs_partial = math.fsum(terms)
    log_next = log_pref + (2 * n_terms + 1) * log_w - math.lgamma(2 * n_terms + 2)
    ratio = w * w / ((2.0 * n_terms + 2.0) * (2.0 * n_terms + 3.0))
    bound = math.exp(log_next) / (1.0 - ratio) if ratio < 1.0 else math.inf
    return IdentityCheck(lhs=lhs, rhs_partial=rhs_partial, remainder_bound=bound)


def bernstein_from_json(obj) -> BernsteinFn:
    """Parse ``{"a":..,"b":..,"mu":[{"t":..,"w":..},...]}``."""
    if not isinstance(obj, dict) or "a" not in obj or "b" not in obj:
        raise ValueError('Bernstein JSON must be an object with "a", "b" and optional "mu"')
    raw = obj.get("mu", [])
    if not isinstance(raw, list):
        raise ValueError('"mu" must be a list')
    mu = []
    for entry in raw:
        if not isinstance(entry, dict) or "t" not in entry or "w" not in entry:
            raise ValueError('each measure atom must be an object with "t" and "w"')
        mu.append((_json_number(entry, "t"), _json_number(entry, "w")))
    return BernsteinFn(a=_json_number(obj, "a"), b=_json_number(obj, "b"), mu=tuple(mu))


def bernstein_to_json(g: BernsteinFn) -> dict:
    return {"a": g.a, "b": g.b, "mu": [{"t": t, "w": w} for t, w in g.mu]}
