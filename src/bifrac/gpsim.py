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

from dataclasses import dataclass

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
    """Symmetric matrix of kernel evaluations over a grid.  It carries no
    PSD verdict: :func:`check_psd` returns one."""

    params: BifParams
    grid: TimeGrid
    entries: np.ndarray

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
        header = ",".join(f"t_{i}" for i in range(len(self.grid)))
        with open(path, "w", newline="") as fh:
            np.savetxt(fh, self.paths, fmt="%.17g", delimiter=",", header=header, comments="")


def build_cov_matrix(p: BifParams, grid: TimeGrid) -> CovMatrix:
    """Matrix of cov(p, t_i, t_j), exactly symmetric and equal to the
    scalar kernel bit for bit (see :func:`bifrac.kernel.cov_matrix`)."""
    return CovMatrix(params=p, grid=grid, entries=cov_matrix(p, grid.points))


def check_psd(m: CovMatrix, tol: float = 1e-8) -> PsdVerdict:
    """Decide positive semi-definiteness by symmetric eigendecomposition.

    PSD iff the smallest eigenvalue is >= -tol * scale, with scale the
    largest diagonal entry.  The returned verdict carries the computed
    minimum eigenvalue either way; the matrix is not modified.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    try:
        eigs = np.linalg.eigvalsh(m.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigenvalue computation failed: {exc}") from exc
    min_eig = float(eigs[0])
    return PsdVerdict(is_psd=min_eig >= -tol * m.scale, min_eig=min_eig)


def _factor(m: CovMatrix) -> tuple[list[int], np.ndarray]:
    """Lower Cholesky factor of the t != 0 block of ``m``.

    Coordinates at t = 0 are pinned to zero (the process starts at 0 almost
    surely), so only the submatrix of the other coordinates is factorized,
    with the jitter ladder 0, 1e-12*scale, 1e-10*scale.  Returns ``(nonzero,
    l_sub)``: the indices of the t != 0 coordinates and the factor of their
    submatrix.
    """
    nonzero = [i for i, t in enumerate(m.grid.points) if t != 0.0]
    # Advanced indexing copies, so the jitter is added to sub in place.
    sub = m.entries[np.ix_(nonzero, nonzero)]
    diag = sub.diagonal().copy()
    for jitter in _JITTERS:
        np.fill_diagonal(sub, diag + jitter * m.scale)
        try:
            return nonzero, np.linalg.cholesky(sub)
        except np.linalg.LinAlgError:
            continue
    raise NotPSDError(
        f"covariance factorization failed after jitter up to {_JITTERS[-1]:g}*scale"
    )


def cholesky_factor(m: CovMatrix) -> np.ndarray:
    """Full-size lower factor L with L @ L.T ~= entries; the rows and
    columns of the t = 0 coordinates are zero (see :func:`_factor`)."""
    nonzero, l_sub = _factor(m)
    full = np.zeros(m.entries.shape)
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
        raise OutOfDomainError(p.failed_bound, "sampling requires (H, K) in the existence domain")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    nonzero, l_sub = _factor(build_cov_matrix(p, grid))
    paths = np.zeros((m, len(grid)), dtype=np.float64)
    for chunk, start in enumerate(range(0, m, CHUNK_ROWS)):
        rows = min(CHUNK_ROWS, m - start)
        z = substream(seed, 0, chunk).standard_normal((rows, len(nonzero)))
        paths[start : start + rows, nonzero] = z @ l_sub.T
    return PathBatch(grid=grid, paths=paths, seed=seed)
