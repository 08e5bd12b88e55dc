"""Finite-atom Bernstein functions and the F(lam) = G(lam**2) gap machinery.

A Bernstein function here is

    G(lam) = a + b*lam + sum_i w_i * (1 - exp(-t_i * lam)),   a, b >= 0,

with a finite atomic measure (t_i > 0, w_i > 0), each measure term formed
as -w_i * expm1(-t_i * lam), which keeps its digits when t_i * lam is small
and w_i large.  The induced F(lam) = G(lam**2) satisfies
E F(|X-Y|) <= E F(|X+Y|) for i.i.d. X, Y.  The gap
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

from .dists import DiscreteDist, _json_number, _json_pairs, _pair_sum, _signed_weights
from .errors import InvalidInputError, NegativeArgumentError, NonFiniteError, _count, _finite, _pairs, _real
from .inequality import GapReport, _signed_form

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
        a, b = _finite("a", self.a), _finite("b", self.b)
        if a < 0 or b < 0:
            raise InvalidInputError(f"a, b must be >= 0, got ({a}, {b})")
        atoms = sorted(_pairs("measure atom", self.mu, "location", "weight"))
        for t, w in atoms:
            if t <= 0:
                raise InvalidInputError(f"measure atom location must be > 0, got {t}")
            if w <= 0:
                raise InvalidInputError(f"measure atom weight must be > 0, got {w}")
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
    """G(lam) for lam >= 0; nondecreasing, G(0) = a.  Raises
    NonFiniteError when G(lam) leaves double range at a finite lam, or
    a + sum(w) does at lam = inf with b = 0."""
    lam = _real("lam", lam)
    if not lam >= 0:
        raise NegativeArgumentError(f"lam must be >= 0, got {lam}")
    linear = [g.b * lam] if g.b else []  # 0 * inf is NaN
    try:
        value = math.fsum([g.a] + linear + [-w * math.expm1(-t * lam) for t, w in g.mu])
    except OverflowError:  # the sum, not a term, left double range
        raise NonFiniteError(f"G({lam!r}) leaves double range") from None
    if math.isinf(value) and math.isfinite(lam):  # the term b*lam did; G(inf) is inf for b > 0
        raise NonFiniteError(f"G({lam!r}) leaves double range")
    return value


def eval_f(g: BernsteinFn, lam: float) -> float:
    """F(lam) = G(lam**2) for lam >= 0.  Raises NonFiniteError when F(lam)
    leaves double range at a finite lam."""
    lam = _real("lam", lam)
    if not lam >= 0:
        raise NegativeArgumentError(f"lam must be >= 0, got {lam}")
    value = eval_g(g, lam * lam)
    if math.isinf(value) and math.isfinite(lam):  # lam * lam overflowed, and b > 0
        raise NonFiniteError(f"F({lam!r}) leaves double range")
    return value


def _f_block(g: BernsteinFn, lam2: np.ndarray, work: np.ndarray) -> np.ndarray:
    """F(lam) = G(lam**2) on an array of lam**2 >= 0, the terms of G added in
    representation order (a, b*lam**2, then each measure atom), as a new
    array; ``work`` is a scratch array of the same shape."""
    # 0 * inf is NaN
    f = np.add(g.a, np.multiply(g.b, lam2, out=work)) if g.b else np.full_like(lam2, g.a)
    for t, w in g.mu:
        e = np.expm1(np.multiply(-t, lam2, out=work), out=work)
        f -= np.multiply(w, e, out=e)
    return f


def bernstein_gap_exact(d: DiscreteDist, g: BernsteinFn) -> GapReport:
    """E F(|X+Y|) - E F(|X-Y|) >= 0: e_plus by the pair sum of the
    p_i*p_j*F(|x_i + x_j|) (:func:`dists._pair_sum`), the gap by
    :func:`_signed_form` on row blocks of T(u, v) = F(u + v) - F(|u - v|) =
    4b*u*v - sum_t omega_t * exp(-t(u-v)**2) * expm1(-4tuv) >= 0 (omega_t the
    weight of atom t), e_minus = e_plus - gap.  Each block allocates only
    the array it returns; its other temporaries are the walk's ``work``."""
    xs = np.array(d.values())

    def f_abs_sum(lo, hi, work):
        lam2 = np.add(xs[lo:hi, None], xs[lo:], out=work(0))
        return _f_block(g, np.multiply(lam2, lam2, out=lam2), work(1))  # |u+v|**2 is (u+v)**2

    e_plus, _ = _pair_sum(np.array(d.probs()), f_abs_sum, lambda i, j: f"F({xs[i]} + {xs[j]}) is not finite")
    keys, w = _signed_weights(d)

    def table(lo, hi, work):
        u, v = keys[lo:hi, None], keys[lo:]
        uv, d2, e, m = map(work, range(4))  # inf in uv, d2 gives exp 0, expm1 -1
        np.multiply(u, v, out=uv)
        np.subtract(u, v, out=d2)
        d2 *= d2
        t_uv = np.multiply(g.b, uv) if g.b else np.zeros_like(uv)
        t_uv *= 4.0
        for t, omega in g.mu:
            np.exp(np.multiply(-t, d2, out=e), out=e)
            np.expm1(np.multiply(-4.0, np.multiply(t, uv, out=m), out=m), out=m)
            e *= omega
            t_uv -= np.multiply(e, m, out=e)
        return t_uv

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
    t = _real("t", t)
    if not t > 0:
        raise InvalidInputError(f"t must be > 0, got {t}")
    if n_terms is not None:
        n_terms = _count("n_terms", n_terms, 1)
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

    With w = 2txy, the lhs is formed as
    sgn(w) * -exp(-t(|x|-|y|)**2) * expm1(-2|w|), the factorisation of
    :func:`bernstein_gap_exact`'s table, so it keeps its digits when the
    two exponentials are close.  Each summand is evaluated with its
    exp(-t x**2 - t y**2) prefactor folded in via logarithms, so the
    summands themselves never overflow; the exponent is formed as
    t(|x|-|y|)**2 + |w|, so neither x**2 nor y**2 is.  All summands share
    the sign of w, so the remainder bound is the first omitted summand
    summed geometrically (infinite when the term ratio is still >= 1 at
    the cutoff).  Raises NonFiniteError for non-finite x or y, and when
    (|x| - |y|)**2 or w is not finite; raises InvalidInputError when the
    walk would start past term 2**53, min(|w|/2, n_terms - 1).
    """
    x, y, t = _finite("x", x), _finite("y", y), _real("t", t)
    if not t > 0:
        raise InvalidInputError(f"t must be > 0, got {t}")
    n_terms = _count("n_terms", n_terms, 1)
    try:
        d2 = t * (abs(x) - abs(y)) ** 2
    except OverflowError:
        raise NonFiniteError(f"(|x| - |y|)**2 overflows at ({x}, {y})") from None
    w = 2.0 * t * x * y
    lhs = -math.exp(-d2) * math.expm1(-2.0 * abs(w))  # expm1(-0.0) is -0.0, so lhs is 0.0 at w = 0
    if w < 0.0:
        lhs = -lhs
    if w == 0.0:
        return IdentityCheck(lhs=lhs, rhs_partial=0.0, remainder_bound=0.0)
    if not math.isfinite(w):
        raise NonFiniteError(f"2*t*x*y = {w} is not finite at ({x}, {y}, {t})")
    log_pref = math.log(2.0) - d2 - abs(w)  # t(x**2 + y**2), with no square that can overflow
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
    if top >= 2**53:
        # Past 2**53 the float term index 2n+1 stops changing from one n
        # to the next, so the walk would never meet a 0.0.
        raise InvalidInputError(f"the series peak n = {top:.17g} is past 2**53; lower |2txy| or n_terms")
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
        raise InvalidInputError('Bernstein JSON must be an object with "a", "b" and optional "mu"')
    raw = obj.get("mu", [])
    if not isinstance(raw, list):
        raise InvalidInputError('"mu" must be a list')
    mu = _json_pairs(raw, "measure atom", "t", "w")
    return BernsteinFn(a=_json_number(obj, "a"), b=_json_number(obj, "b"), mu=mu)


def bernstein_to_json(g: BernsteinFn) -> dict:
    return {"a": g.a, "b": g.b, "mu": [{"t": t, "w": w} for t, w in g.mu]}
