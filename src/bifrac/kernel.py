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

from .errors import (
    NegativeTimeError,
    NonFiniteError,
    OutOfDomainError,
)

__all__ = [
    "BifParams",
    "TimeGrid",
    "validate_params",
    "cov",
    "cov_matrix",
    "signed_identity_lhs",
    "sgn",
]


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
        if not (math.isfinite(self.H) and math.isfinite(self.K)):
            raise NonFiniteError(f"H, K must be finite, got ({self.H}, {self.K})")
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
    p = BifParams(float(H), float(K))
    if p.failed_bound is not None:
        raise OutOfDomainError(p.failed_bound)
    return p


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing grid of nonnegative times."""

    points: tuple[float, ...]

    def __post_init__(self):
        pts = tuple(float(t) for t in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("grid must be nonempty")
        _check_times(pts)
        for a, b in zip(pts, pts[1:]):
            if not b > a:
                raise ValueError(f"grid must be strictly increasing, got {a} then {b}")

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> float:
        return self.points[i]

    @classmethod
    def regular(cls, start: float, step: float, count: int) -> "TimeGrid":
        """Grid start + i*step for i = 0..count-1 (index multiplication,
        never repeated addition)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return cls(tuple(start + i * step for i in range(count)))


def cov(p: BifParams, t: float, s: float) -> float:
    """Covariance R(t, s) of the process indexed by ``p`` at times t, s >= 0.

    The arguments are ordered (t >= s) before evaluation so symmetry holds
    bit-exactly, and the zero branches are explicit: cov(t, 0) = 0 and the
    |t-s| term vanishes exactly on the diagonal.  Raises NonFiniteError if
    a power leaves floating range.  :func:`cov_matrix` matches it bit for bit.
    """
    _check_times((t, s))
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

    Each t_i**(2H) is computed once; row i is computed from the diagonal
    rightwards and mirrored into its column.  Entries keep the operation
    order of :func:`cov` (t + s and |t - s| are exact under argument swap)
    and its exact zeros at t = 0.  Powers go through ``np.float_power``,
    which calls libm ``pow`` as ``**`` on Python floats does; ``np.power``
    may run a vectorized pow that differs in the last bit, which would
    break the equality.  Raises NonFiniteError if an entry leaves floating
    range.
    """
    ts = [float(t) for t in times]
    _check_times(ts)
    ts = np.array(ts, dtype=np.float64)
    K = p.K
    two_h = 2.0 * p.H
    two_hk = two_h * K
    c = 2.0 ** (-K)
    n = len(ts)
    entries = np.zeros((n, n), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        pw = np.float_power(ts, two_h)
        for i in np.flatnonzero(ts):
            entries[i, i:] = entries[i:, i] = c * (
                np.float_power(pw[i] + pw[i:], K) - np.float_power(np.abs(ts[i:] - ts[i]), two_hk)
            )
    zero = ts == 0.0
    entries[zero] = entries[:, zero] = 0.0
    if not np.isfinite(entries).all():
        raise NonFiniteError(f"cov overflowed on the grid for (H, K) = ({p.H}, {K})")
    return entries


def _check_times(ts) -> None:
    for t in ts:
        if not math.isfinite(t):
            raise NonFiniteError(f"times must be finite, got {t}")
        if t < 0:
            raise NegativeTimeError(f"times must be >= 0, got {t}")


def sgn(x: float) -> float:
    """Sign of x with sgn(0) = 0."""
    if x > 0:
        return 1.0
    if x < 0:
        return -1.0
    return 0.0


def signed_identity_lhs(u: float, v: float, alpha: float) -> float:
    """|u+v|**alpha - |u-v|**alpha for real u, v and 0 < alpha <= 2.

    For all real u, v this equals 2**alpha * cov((1/2, alpha), |u|, |v|)
    * sgn(u) * sgn(v), which is the bridge between the moment gap and the
    kernel with H = 1/2, K = alpha.
    """
    if not (math.isfinite(u) and math.isfinite(v)):
        raise NonFiniteError(f"u, v must be finite, got ({u}, {v})")
    if not 0 < alpha <= 2:
        raise OutOfDomainError("0 < alpha <= 2")
    return abs(u + v) ** alpha - abs(u - v) ** alpha
