"""Covariance matrices on time grids, PSD verdicts, and Gaussian path sampling.

Sampling draws centered Gaussian vectors with the kernel covariance via a
Cholesky factor.  Randomness comes from numpy's counter-based Philox bit
generator keyed through ``SeedSequence(seed, spawn_key=(stream, chunk))``;
normal variates use ``Generator.standard_normal``.  Paths are produced in
fixed-size row chunks, each chunk from its own substream, so a batch is a
deterministic function of (params, grid, m, seed) no matter how chunks are
scheduled across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._rng import substream
from .errors import NotPSDError, NumericalFailureError, OutOfDomainError
from .kernel import BifParams, TimeGrid, cov_matrix

__all__ = [
    "CovMatrix",
    "PsdVerdict",
    "PathBatch",
    "build_cov_matrix",
    "check_psd",
    "cholesky_factor",
    "sample_paths",
]

# Rows per sampling chunk; fixed so results do not depend on worker count.
CHUNK_ROWS = 4096

_JITTERS = (0.0, 1e-12, 1e-10)


@dataclass(frozen=True)
class PsdVerdict:
    is_psd: bool
    min_eig: float


@dataclass
class CovMatrix:
    """Symmetric matrix of kernel evaluations over a grid.

    ``psd_verdict`` is None (undetermined) until :func:`check_psd` runs.
    """

    params: BifParams
    grid: TimeGrid
    entries: np.ndarray
    psd_verdict: PsdVerdict | None = field(default=None)

    @property
    def scale(self) -> float:
        """Matrix scale: the largest diagonal entry."""
        return float(np.max(np.diag(self.entries)))


@dataclass(frozen=True)
class PathBatch:
    """m sampled paths over a grid; rows are realizations, columns times."""

    grid: TimeGrid
    paths: np.ndarray
    seed: int

    def to_csv(self, path: str) -> None:
        """Write header ``t_0,...,t_{n-1}`` then one row per path, floats
        rendered with 17 significant digits."""
        n = len(self.grid)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(f"t_{i}" for i in range(n)) + "\n")
            for row in self.paths:
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def build_cov_matrix(p: BifParams, grid: TimeGrid) -> CovMatrix:
    """Matrix of cov(p, t_i, t_j), exactly symmetric and equal to the
    scalar kernel bit for bit (see :func:`bifrac.kernel.cov_matrix`)."""
    return CovMatrix(params=p, grid=grid, entries=cov_matrix(p, grid.points))


def check_psd(m: CovMatrix, tol: float = 1e-8) -> PsdVerdict:
    """Decide positive semi-definiteness by symmetric eigendecomposition.

    PSD iff the smallest eigenvalue is >= -tol * scale, with scale the
    largest diagonal entry.  The verdict is stored back on the matrix and
    carries the computed minimum eigenvalue either way.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    try:
        eigs = np.linalg.eigvalsh(m.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigenvalue computation failed: {exc}") from exc
    min_eig = float(eigs[0])
    verdict = PsdVerdict(is_psd=min_eig >= -tol * m.scale, min_eig=min_eig)
    m.psd_verdict = verdict
    return verdict


def _factor(a: np.ndarray, scale: float) -> np.ndarray:
    """Cholesky with the jitter ladder 0, 1e-12*scale, 1e-10*scale."""
    for jitter in _JITTERS:
        try:
            return np.linalg.cholesky(a + (jitter * scale) * np.eye(len(a)))
        except np.linalg.LinAlgError:
            continue
    raise NotPSDError(
        f"covariance factorization failed after jitter up to {_JITTERS[-1]:g}*scale"
    )


def cholesky_factor(m: CovMatrix) -> np.ndarray:
    """Full-size lower factor L with L @ L.T ~= entries.

    Coordinates at t = 0 are pinned to zero (the process starts at 0 almost
    surely), so their rows and columns of L are zero and only the
    complementary submatrix is factorized.
    """
    n = len(m.grid)
    nonzero = [i for i in range(n) if m.grid[i] != 0.0]
    full = np.zeros((n, n), dtype=np.float64)
    if nonzero:
        sub = m.entries[np.ix_(nonzero, nonzero)]
        l_sub = _factor(sub, m.scale)
        full[np.ix_(nonzero, nonzero)] = l_sub
    return full


def sample_paths(p: BifParams, grid: TimeGrid, m: int, seed: int) -> PathBatch:
    """Draw m independent centered Gaussian paths with the kernel covariance.

    Parameters
    ----------
    p : BifParams
        Must lie in the existence domain; sampling refuses forced
        out-of-domain parameters.
    grid : TimeGrid
    m : int
        Number of paths, >= 1.
    seed : int
        Every value of (p, grid, m, seed) maps to one fixed batch.
    """
    if not p.in_domain:
        raise OutOfDomainError("H*K <= 1", "sampling requires (H, K) in the existence domain")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    matrix = build_cov_matrix(p, grid)
    n = len(grid)
    nonzero = [i for i in range(n) if grid[i] != 0.0]
    paths = np.zeros((m, n), dtype=np.float64)
    if nonzero:
        sub = matrix.entries[np.ix_(nonzero, nonzero)]
        l_sub = _factor(sub, matrix.scale)
        k = len(nonzero)
        for chunk, start in enumerate(range(0, m, CHUNK_ROWS)):
            rows = min(CHUNK_ROWS, m - start)
            z = substream(seed, 0, chunk).standard_normal((rows, k))
            paths[start : start + rows, nonzero] = z @ l_sub.T
    return PathBatch(grid=grid, paths=paths, seed=seed)
