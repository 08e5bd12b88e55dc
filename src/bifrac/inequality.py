"""The moment gap E|X+Y|**alpha - E|X-Y|**alpha for i.i.d. X, Y, by four
independent routes.

* exact     -- product double sum over a finite discrete law (any alpha > 0)
* tail      -- alpha = 1 only: 2 * integral of [P(X>r) - P(X<-r)]**2 dr,
               a finite sum over the distinct |x| whose integrand values
               are suffix sums of the signed weights w below
* variance  -- alpha in (0, 2]: the gap equals 2**alpha times the variance
               of the Gaussian functional built from the (1/2, alpha)
               kernel, the quadratic form w^T R w over the distinct |x|
               with w_a = P(X = a) - P(X = -a)
* mc        -- paired Monte Carlo estimate for arbitrary samplers

The tail and variance routes read the law only through w
(dists._signed_weights), so mirrored atoms cancel before any sum.  Every
E|X+-Y|**alpha goes through expect_pair and the variance form through
_signed_form, which sum their pair tables by dists._exact_sum: one correctly
rounded math.fsum.  Suffix sums of w are exact integer sums rounded once.

For alpha in (0, 2] the gap is nonnegative; the exact and variance routes
assert this up to a floating tolerance and raise InequalityViolationError
if it fails, since that indicates a defect rather than mathematics.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from ._rng import substream
from .dists import DiscreteDist, Sampler, _exact_sum, _signed_weights, expect_pair
from .errors import (
    InequalityViolationError,
    InsufficientSamplesError,
    NonFiniteError,
    OutOfDomainError,
)
from .kernel import BifParams, cov_matrix

__all__ = [
    "GapReport",
    "SupnormBound",
    "gap_exact",
    "gap_tail_integral",
    "gap_via_variance",
    "gap_mc",
    "supnorm_bound",
]

MC_CHUNK = 1 << 16

_NONNEG_TOL = 1e-12


@dataclass(frozen=True)
class GapReport:
    """The pair (E|X+Y|**alpha, E|X-Y|**alpha) and their gap.

    ``gap`` is always recomputed as ``e_plus - e_minus`` at construction,
    so that identity holds bit-exactly for every route.  ``alpha`` is None
    for reports produced by the Bernstein-function generalization.  ``n``
    and ``stderr`` are set only by the Monte Carlo route.
    """

    alpha: float | None
    e_plus: float
    e_minus: float
    route: str
    n: int | None = None
    stderr: float | None = None
    gap: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "gap", self.e_plus - self.e_minus)

    def as_json_dict(self) -> dict:
        out = {
            "alpha": self.alpha,
            "e_plus": self.e_plus,
            "e_minus": self.e_minus,
            "gap": self.gap,
            "route": self.route,
        }
        if self.route == "mc":
            out["n"] = self.n
            out["stderr"] = self.stderr
        return out


class SupnormBound(NamedTuple):
    m_lo: float
    m_hi: float
    lhs: float
    rhs: float


def _check_nonneg(value: float, scale: float, what: str) -> None:
    if value < -_NONNEG_TOL * scale:
        raise InequalityViolationError(
            f"{what} = {value!r} below -{_NONNEG_TOL:g} * scale (scale = {scale!r})"
        )


def _signed_form(w: np.ndarray, table: np.ndarray, what: str) -> float:
    """w^T table w, checked >= 0.  ``table`` is scaled in place to the terms
    w_i*table[i, j]*w_j, summed by :func:`_exact_sum` (one math.fsum); the
    tolerance scale is the numpy sum of their absolute values (no cancellation)."""
    table *= np.outer(w, w)
    value = _exact_sum([table.ravel()])
    _check_nonneg(value, float(np.abs(table, out=table).sum()), what)
    return value


def _in_range(d: DiscreteDist, alpha: float):
    """``(law, back)`` for moments of degree alpha, such as E|X+Y|**alpha.

    ``law`` is ``d`` and ``back`` the identity while (2*max|x|)**alpha, the
    largest |x_i +- x_j|**alpha, is finite.  Otherwise ``law`` is the law
    of X / 2**e with 2**e > 2*max|x| (exact unless an atom goes subnormal)
    and ``back`` multiplies a moment of it by 2**(e*alpha) through
    math.ldexp, so no pair overflows before its weight p_i*p_j applies.
    ``back`` raises NonFiniteError if the moment itself leaves double range.
    """
    x_max = max(map(abs, d.values()))
    if x_max == 0.0:  # every moment is 0; 0.0 ** alpha fails for alpha < 0
        return d, lambda m: m
    try:
        if math.isfinite((2.0 * x_max) ** alpha):
            return d, lambda m: m
    except OverflowError:
        pass
    e = math.frexp(x_max)[1] + 1
    whole, frac = divmod(e * alpha, 1.0)

    def back(m: float) -> float:
        try:
            return math.ldexp(m * 2.0**frac, int(whole))
        except OverflowError:
            raise NonFiniteError(f"moment {m!r} * 2**{e * alpha!r} is not finite") from None

    return DiscreteDist([(math.ldexp(x, -e), p) for x, p in d.atoms]), back


def gap_exact(d: DiscreteDist, alpha: float) -> GapReport:
    """Exact gap by the double sum over atom pairs.

    alpha may exceed 2, where the gap may be negative; the nonnegativity
    assertion applies only for alpha in (0, 2].  Laws whose pair powers
    would overflow are evaluated rescaled (see :func:`_in_range`); raises
    NonFiniteError if alpha or a moment is not finite.
    """
    if not math.isfinite(alpha):
        raise NonFiniteError(f"alpha must be finite, got {alpha}")
    if not alpha > 0:
        raise OutOfDomainError("alpha > 0")
    law, back = _in_range(d, alpha)
    e_plus = back(expect_pair(law, lambda u, v: np.abs(u + v) ** alpha))
    e_minus = back(expect_pair(law, lambda u, v: np.abs(u - v) ** alpha))
    report = GapReport(alpha=alpha, e_plus=e_plus, e_minus=e_minus, route="exact")
    if alpha <= 2:
        _check_nonneg(report.gap, e_plus + e_minus, "exact gap")
    return report


def gap_tail_integral(d: DiscreteDist) -> GapReport:
    """alpha = 1 gap from the squared tail functional.

    For a finite law the integrand [P(X>r) - P(X<-r)]**2 is piecewise
    constant with breakpoints at the distinct |x|, a_1 < ... < a_k: on
    [a_{j-1}, a_j) (a_0 = 0) the tail difference is the suffix sum
    T_j = sum_{i >= j} w_{a_i}.  The integral is the finite sum of interval
    length times T_j**2, each T_j the correctly rounded (math.fsum) value.
    """
    law, back = _in_range(d, 1.0)
    keys, w = _signed_weights(law)
    unit = 1 << 1074  # every double is an integer multiple of 2**-1074
    units = [n * unit // m for n, m in map(float.as_integer_ratio, w.tolist())]
    tails = np.array([t / unit for t in itertools.accumulate(reversed(units))][::-1])
    gap = back(2.0 * math.fsum(memoryview(np.diff(keys, prepend=0.0) * tails * tails)))
    e_plus = back(expect_pair(law, lambda u, v: np.abs(u + v)))
    return GapReport(alpha=1.0, e_plus=e_plus, e_minus=e_plus - gap, route="tail")


def gap_via_variance(d: DiscreteDist, alpha: float) -> GapReport:
    """Gap reconstructed as 2**alpha times the variance of the kernel
    functional sum_a w_a * B_a for the (1/2, alpha) process.

    Here a runs over the distinct |x_i| and w_a = P(X = a) - P(X = -a), so
    the variance is the quadratic form w^T R w with R the kernel matrix on
    those points; it must be nonnegative, which is exactly why the gap is.
    """
    if not 0 < alpha <= 2:
        raise OutOfDomainError("0 < alpha <= 2")
    law, back = _in_range(d, alpha)
    keys, w = _signed_weights(law)
    var = _signed_form(w, cov_matrix(BifParams(0.5, alpha), keys), "Var of kernel functional")
    gap = back(2.0**alpha * var)
    e_plus = back(expect_pair(law, lambda u, v: np.abs(u + v) ** alpha))
    return GapReport(alpha=alpha, e_plus=e_plus, e_minus=e_plus - gap, route="variance")


def _mc_chunk(s: Sampler, alpha: float, seed: int, chunk: int, size: int, work):
    """``(sum ap, sum am, sum dv, sum (dv - mean dv)**2)`` over one chunk of
    pairs, with ap = |x+y|**alpha, am = |x-y|**alpha and dv = ap - am.

    ``work`` is three float64 arrays of at least ``size`` values, owned by
    the calling worker.  x and y land in the first two: a sampler that
    ``fills`` draws into them, and any other sampler's array of ``size``
    values is copied in (it is only read, so it may be cached, shared or
    read-only).  am is written over y and ap, then dv, into the third; the
    mask of zero lanes below overwrites x, which is not read after x - y.

    numpy's AVX-512 pow takes a slow path on each lane that is exactly 0,
    and |x - y| is 0 with probability sum p**2 for a discrete law (at least
    1/2 for two atoms).  Where more than 1/32 of the lanes are 0, they are
    set to 1.0 before the power and back to 0.0 after it: pow(1, alpha) is
    exactly 1, and adding or subtracting 0 keeps the other lanes' bits.

    Overflow is not warned about here but reported by gap_mc; the errstate is
    set in this function because pool threads do not inherit the caller's.
    """
    x, y, ap = (w[:size] for w in work)
    for stream, buf in enumerate((x, y)):
        rng = substream(seed, stream, chunk)
        if s.fills:
            s.draw(rng, size, out=buf)
        else:
            drawn = s.draw(rng, size)
            if np.shape(drawn) != (size,):
                raise ValueError(f"draw(rng, {size}) returned shape {np.shape(drawn)}, not ({size},)")
            if np.iscomplexobj(drawn):
                raise ValueError(f"draw(rng, {size}) returned complex values, not real ones")
            np.copyto(buf, drawn)
    am, zero = y, x.view(np.bool_)[:size]  # x - y is written over y; x is not read after it
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(x, y, out=ap)
        np.subtract(x, y, out=am)
        for a in (ap, am):
            np.abs(a, out=a)
            zero = np.equal(a, 0, out=zero)
            some = np.count_nonzero(zero) > size >> 5
            if some:
                a += zero
            a **= alpha  # the dispatch of ``a ** alpha``, scalar fast paths included
            if some:
                a -= zero
        sum_p, sum_m = float(np.sum(ap)), float(np.sum(am))
        dv = np.subtract(ap, am, out=ap)
        sum_d = float(np.sum(dv))
        dv -= sum_d / size
        return sum_p, sum_m, sum_d, float(np.sum(np.square(dv, out=dv)))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one (``taskset`` and cgroup cpusets shrink it), else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def gap_mc(s: Sampler, alpha: float, n: int, seed: int, workers: int = 1) -> GapReport:
    """Paired Monte Carlo estimate of the gap.

    Both means are taken over the same n pairs (X_k, Y_k), drawn from two
    independent substreams of ``seed``; ``stderr`` is the sample standard
    error of the per-pair difference.  Work is split into fixed-size
    chunks reduced in index order, so the estimate does not depend on
    ``workers`` (>= 1; threads are capped at the chunks and at the CPUs
    this process may run on).
    Raises NonFiniteError if a sum of |X+-Y|**alpha or the variance of the
    difference is not finite.
    """
    if not 0 < alpha <= 2:
        raise OutOfDomainError("0 < alpha <= 2")
    if n < 2:
        raise InsufficientSamplesError(f"need n >= 2 pairs, got {n}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if s.moment_hint is not None and alpha > s.moment_hint:
        raise ValueError(
            f"sampler only asserts finite moments up to order {s.moment_hint}, got alpha={alpha}"
        )
    sizes = [min(MC_CHUNK, n - start) for start in range(0, n, MC_CHUNK)]
    threads = min(workers, len(sizes), _usable_cpus())
    # One workspace per worker for all of its chunks, so no chunk allocates
    # (and page-faults in) arrays that grow with its size.  No more than
    # ``threads`` chunks run at once, and list.pop and list.append are atomic.
    spare = [[np.empty(sizes[0]) for _ in range(3)] for _ in range(threads)]

    def run(c: int):
        work = spare.pop()
        try:
            return _mc_chunk(s, alpha, seed, c, sizes[c], work)
        finally:
            spare.append(work)

    if threads > 1:
        # Imported here: most processes never start a pool.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(run, range(len(sizes))))
    else:
        partials = list(map(run, range(len(sizes))))
    try:
        sum_p, sum_m, sum_d, within = (math.fsum(column) for column in zip(*partials))
        # Squared deviations within the chunks plus between them (Chan et al.).
        between = math.fsum((c[2] - m * sum_d / n) ** 2 / m for c, m in zip(partials, sizes))
    except (OverflowError, ValueError):  # past double range, or a sum of inf and -inf
        raise NonFiniteError("Monte Carlo sums leave double range") from None
    var = (within + between) / (n - 1)
    if not all(map(math.isfinite, (sum_p, sum_m, var))):
        raise NonFiniteError(
            f"Monte Carlo sums are not finite: sum |X+Y|**alpha = {sum_p!r}, "
            f"sum |X-Y|**alpha = {sum_m!r}, variance = {var!r}"
        )
    return GapReport(
        alpha=alpha,
        e_plus=sum_p / n,
        e_minus=sum_m / n,
        route="mc",
        n=n,
        stderr=math.sqrt(var / n),
    )


def _gap_mc_law(d: DiscreteDist, alpha: float, n: int, seed: int, workers: int = 1) -> GapReport:
    """:func:`gap_mc` on draws from ``d``, or from the rescaled law of
    :func:`_in_range` where pair powers of ``d`` would overflow, with both
    moments and ``stderr`` mapped back.  A law that _in_range leaves
    unchanged gives gap_mc's report bit for bit."""
    law, back = _in_range(d, alpha)
    r = gap_mc(law.sampler(), alpha, n, seed, workers=workers)
    return replace(r, e_plus=back(r.e_plus), e_minus=back(r.e_minus), stderr=back(r.stderr))


def supnorm_bound(d: DiscreteDist) -> SupnormBound:
    """Endpoint form of the gap inequality: the essential sup of |X-Y| is
    m_hi - m_lo, that of |X+Y| is 2*max(|m_hi|, |m_lo|), and the first
    never exceeds the second (equality iff the support endpoints mirror).
    """
    xs = d.values()
    m_lo = xs[0]
    m_hi = xs[-1]
    lhs = m_hi - m_lo
    rhs = 2.0 * max(abs(m_hi), abs(m_lo))
    if lhs > rhs:
        raise InequalityViolationError(f"sup-norm bound failed: {lhs!r} > {rhs!r}")
    return SupnormBound(m_lo=m_lo, m_hi=m_hi, lhs=lhs, rhs=rhs)
