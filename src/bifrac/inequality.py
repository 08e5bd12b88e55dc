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
* mc        -- paired Monte Carlo estimate for arbitrary samplers; a law
               of at most 256 atoms is counted per cell of atom pairs

The tail and variance routes read the law only through w
(dists._signed_weights), so mirrored atoms cancel before any sum.  Every
E|X+-Y|**alpha goes through expect_pair and the variance form through
_signed_form, each one dists._pair_sum: a walk over the row blocks of the
upper triangle of its pair table, with one correctly rounded math.fsum.
Suffix sums of w are exact integer sums rounded once.

For alpha in (0, 2] the gap is nonnegative; the exact and variance routes
assert this up to a floating tolerance and raise InequalityViolationError
if it fails, since that indicates a defect rather than mathematics.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field, replace
from threading import Lock, Thread
from typing import NamedTuple

import numpy as np

from ._rng import substream
from .dists import (
    DiscreteDist,
    Sampler,
    _exact_sum,
    _pair_sum,
    _real_values,
    _signed_weights,
    expect_pair,
)
from .errors import (
    InequalityViolationError,
    InsufficientSamplesError,
    InvalidInputError,
    NonFiniteError,
    OutOfDomainError,
    _count,
    _finite,
    _real,
)

# Values per chunk of gap_mc, and the most cells (atom pairs) of a law whose
# mc pairs are counted per cell.
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
        for name in ("e_plus", "e_minus"):  # real numbers, else InvalidInputError
            object.__setattr__(self, name, _real(name, getattr(self, name)))
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


def _signed_form(w: np.ndarray, block, what: str) -> float:
    """w^T R w, checked >= 0, for the symmetric R of which ``block(lo, hi,
    work)`` returns rows lo:hi, columns lo: (see :func:`dists._pair_sum`),
    which sums the terms R_ij*(w_i*w_j) (one math.fsum); the tolerance
    scale is the numpy sum of their absolute values (no cancellation)."""
    value, scale = _pair_sum(w, block, lambda i, j: f"{what} term ({i}, {j}) is not finite")
    _check_nonneg(value, scale, what)
    return value


def _abs_pow(s: np.ndarray, alpha: float) -> np.ndarray:
    """|s|**alpha by libm ``pow``, written over the new array s, so a pair
    block allocates one array (see ``dists.PAIR_BLOCK``); pow(x, 1) is x."""
    np.abs(s, out=s)
    return s if alpha == 1.0 else np.float_power(s, alpha, out=s)


def _in_range(d: DiscreteDist, alpha: float):
    """``(law, back)`` for moments of degree alpha, such as E|X+Y|**alpha.

    ``law`` is ``d`` and ``back`` the identity while (2*max|x|)**alpha, the
    largest |x_i +- x_j|**alpha, is finite.  Otherwise ``law`` is the law
    of X / 2**e with 2**e > 2*max|x| (exact unless an atom goes subnormal)
    and ``back`` multiplies a moment of it by 2**(e*alpha) through
    math.ldexp, so no pair overflows before its weight p_i*p_j applies.
    ``back`` raises NonFiniteError if the moment itself leaves double range,
    and this function does at once if e*alpha does.
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
    if not math.isfinite(e * alpha):
        raise NonFiniteError(f"moments of degree {alpha!r} leave double range at max|x| {x_max!r}")
    whole, frac = divmod(e * alpha, 1.0)

    def back(m: float) -> float:
        try:
            return math.ldexp(m * 2.0**frac, int(whole))
        except OverflowError:
            raise NonFiniteError(f"moment {m!r} * 2**{e * alpha!r} is not finite") from None

    return d.scaled(2.0**-e), back


def gap_exact(d: DiscreteDist, alpha: float) -> GapReport:
    """Exact gap by the double sum over atom pairs.

    alpha may exceed 2, where the gap may be negative; the nonnegativity
    assertion applies only for alpha in (0, 2].  Laws whose pair powers
    would overflow are evaluated rescaled (see :func:`_in_range`); raises
    NonFiniteError if alpha or a moment is not finite.
    """
    alpha = _finite("alpha", alpha)
    if not alpha > 0:
        raise OutOfDomainError("alpha > 0")
    law, back = _in_range(d, alpha)
    e_plus = back(expect_pair(law, lambda u, v: _abs_pow(u + v, alpha)))
    e_minus = back(expect_pair(law, lambda u, v: _abs_pow(u - v, alpha)))
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
    e_plus = back(expect_pair(law, lambda u, v: _abs_pow(u + v, 1.0)))
    return GapReport(alpha=1.0, e_plus=e_plus, e_minus=e_plus - gap, route="tail")


def gap_via_variance(d: DiscreteDist, alpha: float) -> GapReport:
    """Gap reconstructed as 2**alpha times the variance of the kernel
    functional sum_a w_a * B_a for the (1/2, alpha) process.

    Here a runs over the distinct |x_i| and w_a = P(X = a) - P(X = -a), so
    the variance is the quadratic form w^T R w with R the kernel matrix on
    those points; it must be nonnegative, which is exactly why the gap is.
    """
    # Imported here: of the routes, only this one evaluates the kernel.
    from .kernel import BifParams, _cov_rows

    alpha = _real("alpha", alpha)
    if not 0 < alpha <= 2:
        raise OutOfDomainError("0 < alpha <= 2")
    law, back = _in_range(d, alpha)
    keys, w = _signed_weights(law)
    var = _signed_form(w, _cov_rows(BifParams(0.5, alpha), keys), "Var of kernel functional")
    gap = back(2.0**alpha * var)
    e_plus = back(expect_pair(law, lambda u, v: _abs_pow(u + v, alpha)))
    return GapReport(alpha=alpha, e_plus=e_plus, e_minus=e_plus - gap, route="variance")


def _mc_chunk(s: Sampler, alpha: float, seed: int, chunk: int, size: int, work):
    """``(sum ap, sum am, sum dv, sum (dv - mean dv)**2)`` over one chunk of
    pairs, with ap = |x+y|**alpha, am = |x-y|**alpha and dv = ap - am.

    ``work`` is three float64 arrays of at least ``size`` values, owned by
    the calling worker.  x and y land in the first two: a sampler that
    ``fills`` draws into them and must return the buffer it was given
    (InvalidInputError otherwise, as its values may be elsewhere), and any
    other sampler's array of ``size`` values is copied in (it is only read,
    so it may be cached, shared or read-only).  am is written over y and
    ap, then dv, into the third; the mask of zero lanes below overwrites x,
    which is not read after x - y.

    numpy's AVX-512 pow takes a slow path on each lane that is exactly 0,
    and |x - y| is 0 with probability sum p**2 for a discrete law (at least
    1/2 for two atoms).  Where more than 1/32 of the lanes are 0, they are
    set to 1.0 before the power and back to 0.0 after it: pow(1, alpha) is
    exactly 1, and adding or subtracting 0 keeps the other lanes' bits.

    Overflow is not warned about here but reported by gap_mc; the errstate is
    set in this function because helper threads do not inherit the caller's.
    """
    x, y, ap = (w[:size] for w in work)
    for stream, buf in enumerate((x, y)):
        rng = substream(seed, stream, chunk)
        if s.fills:
            if s.draw(rng, size, out=buf) is not buf:
                raise InvalidInputError(f"draw(rng, {size}, out=buf) returned another array than buf")
        else:
            drawn = _real_values(f"draw(rng, {size})", s.draw(rng, size))
            if drawn.shape != (size,):
                raise InvalidInputError(f"draw(rng, {size}) returned shape {drawn.shape}, not ({size},)")
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


def _mc_checked(alpha, n, seed, workers) -> float:
    """alpha as a float, once gap_mc's arguments are checked, in its order."""
    alpha = _real("alpha", alpha)
    if not 0 < alpha <= 2:
        raise OutOfDomainError("0 < alpha <= 2")
    if _count("n", n, 0) < 2:
        raise InsufficientSamplesError(f"need n >= 2 pairs, got {n}")
    _count("seed", seed, 0)
    _count("workers", workers, 1)
    return alpha


def _run_chunks(n: int, workers: int, make_work, run) -> list:
    """Runs ``run(c, size, work)`` once for each chunk c of the n pairs
    (MC_CHUNK each, the last one ``size`` = what is left) and returns the
    workspaces the threads made with ``make_work()``.

    Threads, the calling one among them, are capped at ``workers``, at the
    chunks and at the CPUs this process may run on.  Each takes the next
    chunk index when it is done with one, so one chunk per thread is in
    flight, and keeps one workspace for all of its chunks, so no chunk
    allocates (and page-faults in) arrays that grow with its size; it is
    made with the thread's first chunk, so a failed allocation fails that
    chunk.  Once a chunk raises, no further chunk starts, and the exception
    of the lowest failing chunk is raised, whatever the worker count.
    """
    chunks = -(-n // MC_CHUNK)
    threads = min(workers, chunks, _usable_cpus())
    errors, works = {}, []  # errors by chunk index
    todo = iter(range(chunks))
    lock = Lock()

    def drain() -> None:
        # Every chunk below a failed one was taken before it.
        nonlocal todo
        work = None
        while True:
            with lock:
                c = next(todo, None)
            if c is None:
                return
            try:
                if work is None:
                    works.append(work := make_work())
                run(c, min(MC_CHUNK, n - c * MC_CHUNK), work)
            except BaseException as exc:
                with lock:
                    errors[c], todo = exc, iter(())
                return

    helpers = [Thread(target=drain) for _ in range(threads - 1)]
    try:
        for t in helpers:
            t.start()
        drain()  # the calling thread is a worker too
        for t in helpers:
            t.join()
    finally:  # after an interrupt, the helpers take no further chunk
        with lock:
            todo = iter(())
    if errors:
        raise errors[min(errors)]
    return works


def _mc_report(alpha: float, n: int, sums) -> GapReport:
    """The mc report of n pairs from ``sums()``: the sums of |X+Y|**alpha
    and of |X-Y|**alpha, and the variance of their difference.  Raises
    NonFiniteError if ``sums`` raises OverflowError or ValueError (a sum
    past double range, or one of inf and -inf) or returns a value that is
    not finite."""
    try:
        sum_p, sum_m, var = sums()
    except (OverflowError, ValueError):
        raise NonFiniteError("Monte Carlo sums leave double range") from None
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


def gap_mc(s: Sampler, alpha: float, n: int, seed: int, workers: int = 1) -> GapReport:
    """Paired Monte Carlo estimate of the gap.

    Both means are taken over the same n pairs (X_k, Y_k), drawn from two
    independent substreams of ``seed``; ``stderr`` is the sample standard
    error of the per-pair difference.  Work is split into fixed-size
    chunks reduced in index order, so the estimate does not depend on
    ``workers`` (>= 1; see :func:`_run_chunks`).  What grows with n is one
    four-float partial per chunk (about 250 bytes), kept for the reduction.
    Raises NonFiniteError if a sum of |X+-Y|**alpha or the variance of the
    difference is not finite.
    """
    alpha = _mc_checked(alpha, n, seed, workers)
    if s.moment_hint is not None and alpha > _real("moment_hint", s.moment_hint):
        raise InvalidInputError(
            f"sampler only asserts finite moments up to order {s.moment_hint}, got alpha={alpha}"
        )
    done = {}  # by chunk index

    def run(c: int, size: int, work) -> None:
        done[c] = _mc_chunk(s, alpha, seed, c, size, work)

    _run_chunks(n, workers, lambda: [np.empty(min(MC_CHUNK, n)) for _ in range(3)], run)
    partials = [done[c] for c in range(len(done))]

    def sums():
        sum_p, sum_m, sum_d, within = (math.fsum(column) for column in zip(*partials))
        # Squared deviations within the chunks plus between them (Chan et al.).
        sizes = (min(MC_CHUNK, n - c * MC_CHUNK) for c in range(len(partials)))
        between = math.fsum((p[2] - m * sum_d / n) ** 2 / m for p, m in zip(partials, sizes))
        return sum_p, sum_m, (within + between) / (n - 1)

    return _mc_report(alpha, n, sums)


def _gap_mc_counted(law: DiscreteDist, alpha: float, n: int, seed: int, workers: int) -> GapReport:
    """:func:`gap_mc`'s report on ``law.sampler()``, arguments checked,
    for a law of k atoms with k*k <= MC_CHUNK, whose |x_i +- x_j|**alpha
    are finite.

    Each chunk draws the atom indices of gap_mc's x and y (the same
    substreams and guide table) and counts its pairs per cell (i, j) into
    its thread's k*k table of int64.  The counts are exact, so they do not
    depend on the worker count.  |x_i +- x_j|**alpha is then formed once per
    cell that holds a pair, by libm ``pow`` (:func:`_abs_pow`), so unlike
    gap_mc's it does not depend on numpy's SIMD kernels; the sums are the
    dists._exact_sum of N_ij times those values, and the variance is the
    two-pass sum of N_ij * (dv_ij - mean)**2 over n - 1.
    """
    from ._guide import guide_draw

    xs = np.array(law.values())
    k = len(xs)
    draw_index = guide_draw(law.probs(), np.arange(k))

    def run(c: int, size: int, work) -> None:
        i, j, counts = work
        i = draw_index(substream(seed, 0, c), size, i[:size])
        i *= k
        i += draw_index(substream(seed, 1, c), size, j[:size])
        counts += np.bincount(i, minlength=k * k)

    def workspace():
        m = min(MC_CHUNK, n)
        return np.empty(m, np.intp), np.empty(m, np.intp), np.zeros(k * k, np.int64)

    counts = sum(work[2] for work in _run_chunks(n, workers, workspace, run))
    cell = np.flatnonzero(counts)
    weight = counts[cell].astype(np.float64)  # exact below 2**53 pairs
    x, y = xs[cell // k], xs[cell % k]
    ap, am = _abs_pow(x + y, alpha), _abs_pow(x - y, alpha)
    dv = ap - am

    def sums():
        with np.errstate(over="ignore", invalid="ignore"):
            sum_p, sum_m, sum_d = (_exact_sum([weight * f]) for f in (ap, am, dv))
            dev = dv - sum_d / n
            return sum_p, sum_m, _exact_sum([weight * dev * dev]) / (n - 1)

    return _mc_report(alpha, n, sums)


def _gap_mc_law(d: DiscreteDist, alpha: float, n: int, seed: int, workers: int = 1) -> GapReport:
    """:func:`gap_mc` on draws from ``d``, or from the rescaled law of
    :func:`_in_range` where pair powers of ``d`` would overflow, with both
    moments and ``stderr`` mapped back.  A law of k atoms with k*k <=
    MC_CHUNK is counted per cell by :func:`_gap_mc_counted`, within a few
    ulps of gap_mc's report; a larger one gives gap_mc's report bit for bit
    where _in_range leaves it unchanged."""
    alpha = _mc_checked(alpha, n, seed, workers)
    law, back = _in_range(d, alpha)
    if len(law) ** 2 <= MC_CHUNK:
        r = _gap_mc_counted(law, alpha, n, seed, workers)
    else:
        r = gap_mc(law.sampler(), alpha, n, seed, workers=workers)
    return replace(r, e_plus=back(r.e_plus), e_minus=back(r.e_minus), stderr=back(r.stderr))


def supnorm_bound(d: DiscreteDist) -> SupnormBound:
    """Endpoint form of the gap inequality: the essential sup of |X-Y| is
    m_hi - m_lo, that of |X+Y| is 2*max(|m_hi|, |m_lo|), and the first
    never exceeds the second (equality iff the support endpoints mirror).
    Raises NonFiniteError when 2*max|x| leaves double range; when it does
    not, m_hi - m_lo, which is at most 2*max|x|, does not either.
    """
    xs = d.values()
    m_lo = xs[0]
    m_hi = xs[-1]
    lhs = m_hi - m_lo
    rhs = 2.0 * max(abs(m_hi), abs(m_lo))
    if math.isinf(rhs):
        raise NonFiniteError(f"sup-norm bound: 2*max|x| leaves double range on [{m_lo!r}, {m_hi!r}]")
    if lhs > rhs:
        raise InequalityViolationError(f"sup-norm bound failed: {lhs!r} > {rhs!r}")
    return SupnormBound(m_lo=m_lo, m_hi=m_hi, lhs=lhs, rhs=rhs)
