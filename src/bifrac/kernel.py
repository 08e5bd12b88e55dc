"""Bifractional Brownian motion covariance kernel.

The process indexed by ``(H, K)`` is a centered Gaussian process on t >= 0
with covariance

    R(t, s) = 2**(-K) * ((t**(2H) + s**(2H))**K - |t - s|**(2HK)).

It exists (the kernel is positive semi-definite) on the parameter domain

    D = {0 < H <= 1,  0 < K <= 2,  H*K <= 1},

and K = 1 reduces it to fractional Brownian motion with Hurst index H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dists import _array_count, _block_ufuncs, _row_blocks
from .errors import (
    InvalidInputError,
    NegativeTimeError,
    NonFiniteError,
    OutOfDomainError,
    _finite,
    _real,
)


@dataclass(frozen=True)
class BifParams:
    """The (H, K) pair indexing a bifractional Brownian motion.

    Direct construction only enforces the structural constraints H > 0,
    K > 0 (the covariance formula needs positive exponents).  Use
    :func:`validate_params` to additionally enforce the existence domain
    ``D``; direct construction is the deliberate bypass used to evaluate
    the kernel outside ``D``, e.g. to exhibit non-PSD matrices.
    """

    H: float
    K: float

    def __post_init__(self):
        object.__setattr__(self, "H", _finite("H", self.H))
        object.__setattr__(self, "K", _finite("K", self.K))
        if not self.H > 0:
            raise OutOfDomainError("H > 0")
        if not self.K > 0:
            raise OutOfDomainError("K > 0")

    @property
    def failed_bound(self) -> str | None:
        """The first upper bound of ``D`` that (H, K) breaks, checked in the
        order H <= 1, K <= 2, H*K <= 1; None inside ``D``."""
        if not self.H <= 1:
            return "H <= 1"
        if not self.K <= 2:
            return "K <= 2"
        if not self.H * self.K <= 1:
            return "H*K <= 1"
        return None

    @property
    def in_domain(self) -> bool:
        return self.failed_bound is None


def validate_params(H: float, K: float) -> BifParams:
    """Return BifParams iff (H, K) lies in the existence domain D.

    Raises
    ------
    NonFiniteError
        For NaN or infinite inputs.
    OutOfDomainError
        Naming the first violated bound among H > 0, K > 0 (checked by
        :class:`BifParams`), then H <= 1, K <= 2, H*K <= 1
        (:attr:`BifParams.failed_bound`).
    """
    p = BifParams(H, K)
    if p.failed_bound is not None:
        raise OutOfDomainError(p.failed_bound)
    return p


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing grid of nonnegative times."""

    points: tuple[float, ...]

    def __post_init__(self):
        pts = _check_times(self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise InvalidInputError("grid must be nonempty")
        for a, b in zip(pts, pts[1:]):
            if not b > a:
                raise InvalidInputError(f"grid must be strictly increasing, got {a} then {b}")

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> float:
        return self.points[i]

    @classmethod
    def regular(cls, start: float, step: float, count: int) -> "TimeGrid":
        """Grid start + i*step for i = 0..count-1 (index multiplication,
        never repeated addition).  Raises InvalidInputError for a count
        past numpy's largest array before it builds any point."""
        start, step = _finite("start", start), _finite("step", step)
        count = _array_count("count", count, 1)
        return cls(tuple(start + i * step for i in range(count)))


def cov(p: BifParams, t: float, s: float) -> float:
    """Covariance R(t, s) of the process indexed by ``p`` at times t, s >= 0.

    The arguments are ordered (t >= s) before evaluation so symmetry holds
    bit-exactly, and the zero branches are explicit: cov(t, 0) = 0 and the
    |t-s| term vanishes exactly on the diagonal.  Raises NonFiniteError if
    a power leaves floating range.  :func:`cov_matrix` matches it bit for bit.
    """
    t, s = _check_times((t, s))
    if s > t:
        t, s = s, t
    if s == 0.0:
        # (t**(2H))**K and t**(2HK) cancel exactly in the reals; return the
        # exact zero rather than their floating difference.
        return 0.0
    H = p.H
    K = p.K
    two_h = 2.0 * H
    diff = t - s
    try:
        sum_term = (t ** two_h + s ** two_h) ** K
        gap_term = 0.0 if diff == 0.0 else diff ** (two_h * K)
        value = 2.0 ** (-K) * (sum_term - gap_term)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NonFiniteError(f"cov overflowed at ({t}, {s}) for (H, K) = ({H}, {K})")
    return value


def cov_matrix(p: BifParams, times) -> np.ndarray:
    """The matrix [cov(p, t_i, t_j)], equal to the scalar kernel bit for bit.

    Built by :func:`_cov_rows` on a ``dists._row_blocks`` walk, each block
    written into its rows from the diagonal rightwards and mirrored into its
    columns.  Raises NonFiniteError if an entry leaves floating range.
    """
    ts = np.array(_check_times(times), dtype=np.float64)
    rows, entries = _cov_rows(p, ts), np.empty((len(ts), len(ts)), dtype=np.float64)
    for lo, hi, work in _row_blocks(len(ts)):
        with _block_ufuncs(), np.errstate(all="ignore"):
            block = rows(lo, hi, work)
            if not np.isfinite(block).all():
                raise NonFiniteError(f"cov overflowed on the grid for (H, K) = ({p.H}, {p.K})")
            entries[lo:hi, lo:] = block
            entries[lo:, lo:hi] = block.T
    return entries


def _cov_rows(p: BifParams, ts: np.ndarray):
    """The evaluator ``rows(lo, hi, work)`` of rows lo:hi, columns lo: of the
    kernel matrix on the float64 times ``ts`` (checked by the caller), a new
    array, for a ``dists._row_blocks`` walk.

    Each t_i**(2H) is computed once.  Entries keep the operation order of
    :func:`cov` (t + s and |t - s| are exact under argument swap, so the
    matrix is symmetric bit for bit) and its exact zeros at t = 0.  Powers
    go through ``np.float_power``, which calls libm ``pow`` as ``**`` on
    Python floats does; ``np.power`` may run a vectorized pow that differs
    in the last bit, which would break the equality.  Overflow gives inf,
    not an error.  A block is the one new array a call allocates, and
    ``work(0)`` its scratch (see ``dists.PAIR_BLOCK``).
    """
    K = p.K
    two_hk = 2.0 * p.H * K
    c = 2.0 ** (-K)
    with np.errstate(over="ignore"):
        pw = np.float_power(ts, 2.0 * p.H)

    def rows(lo: int, hi: int, work) -> np.ndarray:
        block = pw[lo:hi, None] + pw[lo:]
        np.float_power(block, K, out=block)
        gap = np.subtract(ts[lo:], ts[lo:hi, None], out=work(0))
        block -= np.float_power(np.abs(gap, out=gap), two_hk, out=gap)
        block *= c
        block[ts[lo:hi] == 0.0] = block[:, ts[lo:] == 0.0] = 0.0
        return block

    return rows


def _check_times(ts) -> tuple[float, ...]:
    """The times ``ts`` as floats, each finite and >= 0.  Raises
    InvalidInputError if ``ts`` is not iterable."""
    try:
        ts = iter(ts)
    except TypeError:
        raise InvalidInputError("times must be a sequence of numbers") from None
    ts = tuple(_finite("time", t) for t in ts)
    for t in ts:
        if t < 0:
            raise NegativeTimeError(f"times must be >= 0, got {t}")
    return ts


def signed_identity_lhs(u: float, v: float, alpha: float) -> float:
    """|u+v|**alpha - |u-v|**alpha for real u, v and 0 < alpha <= 2.

    For all real u, v this equals 2**alpha * cov((1/2, alpha), |u|, |v|)
    * sign(u) * sign(v), which is the bridge between the moment gap and the
    kernel with H = 1/2, K = alpha.  Raises NonFiniteError if a power
    leaves double range.
    """
    u, v, alpha = _finite("u", u), _finite("v", v), _real("alpha", alpha)
    if not 0 < alpha <= 2:
        raise OutOfDomainError("0 < alpha <= 2")
    try:
        value = abs(u + v) ** alpha - abs(u - v) ** alpha
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NonFiniteError(f"|u +- v|**alpha leaves double range at ({u}, {v}, {alpha})")
    return value
