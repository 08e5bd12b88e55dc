"""Covariance matrices on time grids, PSD verdicts, and Gaussian path sampling.

Sampling draws centered Gaussian vectors with the kernel covariance via a
Cholesky factor.  Randomness comes from numpy's SFC64 bit generator
keyed through ``SeedSequence(seed, spawn_key=(stream, chunk))``;
normal variates use ``Generator.standard_normal``.  Paths are drawn in
fixed-size row chunks, in order, each chunk from its own substream, so a
batch is a deterministic function of (params, grid, m, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from ._rng import substream
from .dists import _real_values
from .errors import (
    InvalidInputError,
    NonFiniteError,
    NotPSDError,
    NumericalFailureError,
    OutOfDomainError,
    _count,
    _real,
)
from .kernel import BifParams, TimeGrid, cov_matrix

# Rows per sampling chunk; fixed, so a batch depends only on its arguments.
CHUNK_ROWS = 4096

_JITTERS = (0.0, 1e-12, 1e-10)


@dataclass(frozen=True)
class PsdVerdict:
    is_psd: bool
    min_eig: float


@dataclass
class CovMatrix:
    """Symmetric matrix of kernel evaluations over a grid.  It carries no
    PSD verdict: :func:`check_psd` returns one.  ``entries`` is kept as an
    array of real numbers with one row and column per grid point, or
    InvalidInputError is raised (see ``dists._real_values``), and
    NonFiniteError if an entry is NaN or infinite."""

    params: BifParams
    grid: TimeGrid
    entries: np.ndarray

    def __post_init__(self) -> None:
        self.entries = _real_values("entries", self.entries)
        if self.entries.shape != (n := len(self.grid), n):
            raise InvalidInputError(f"entries must be {n} by {n}, got shape {self.entries.shape}")
        if not np.isfinite(self.entries).all():
            raise NonFiniteError("entries must be finite")

    @property
    def scale(self) -> float:
        """Matrix scale: the largest diagonal entry."""
        return float(np.max(np.diag(self.entries)))


@dataclass(frozen=True)
class PathBatch:
    """m sampled paths over a grid; rows are realizations, columns times.
    Raises InvalidInputError unless ``paths`` is an array of real numbers
    (bool, integer or float) with one column per grid point."""

    grid: TimeGrid
    paths: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        shape = _real_values("paths", self.paths).shape
        if len(shape) != 2 or shape[1] != len(self.grid):
            raise InvalidInputError(
                f"paths must be 2-D with one column per grid point ({len(self.grid)}), "
                f"got shape {shape}"
            )

    def to_csv(self, path: str) -> None:
        """Write header ``t_0,...,t_{n-1}`` then one row per path.

        Each value is written as ``'%.17g' % v``, the bytes ``np.savetxt``
        with ``fmt="%.17g"`` writes, but formatted in numpy, a block of whole
        rows at a time.  For 1e-99 <= |v| < 1e99, E = floor(log10|v|) is
        exact, and y = |v| * 10**(16 - E) in [1e16, 1e17) is an exact Dekker
        product with a double-double power of ten: the computed y is within
        2**-47 of the true one, and y rounded half-even gives the 17 digits.
        A row is formatted by ``'%.17g' %`` one value at a time instead if it
        holds a value whose y lies within 2**-40 of a half-integer (an exact
        tie, or too close to call), a nonzero value outside that range
        (subnormals among them), or a NaN or infinity.
        """
        header = ",".join(f"t_{i}" for i in range(len(self.grid)))
        with open(path, "wb") as fh:
            fh.write(header.encode())
            for rows in _csv_blocks(np.asarray(self.paths, dtype=np.float64)):
                fh.write(rows)
            fh.write(b"\n")


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
    tol = _real("tol", tol)
    if not tol > 0:
        raise InvalidInputError(f"tol must be > 0, got {tol}")
    try:
        eigs = np.linalg.eigvalsh(m.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigenvalue computation failed: {exc}") from exc
    min_eig = float(eigs[0])
    return PsdVerdict(is_psd=min_eig >= -tol * m.scale, min_eig=min_eig)


def _factor(m: CovMatrix) -> tuple[int, np.ndarray]:
    """Lower Cholesky factor of ``m`` without its t = 0 coordinate.

    A grid is increasing and nonnegative, so only its first point can be
    t = 0; that coordinate is pinned to zero (the process starts at 0 almost
    surely), and the block after it is factorized, with the jitter ladder 0,
    1e-12*scale, 1e-10*scale.  Returns ``(z, l)``: z = 1 if the grid starts
    at 0, else 0, and l the factor of ``entries[z:, z:]``.
    """
    z = int(m.grid[0] == 0.0)
    sub = m.entries[z:, z:].copy()  # the jitter is added to sub in place
    diag = sub.diagonal().copy()
    for jitter in _JITTERS:
        np.fill_diagonal(sub, diag + jitter * m.scale)
        try:
            return z, np.linalg.cholesky(sub)
        except np.linalg.LinAlgError:
            continue
    if not sub.any():  # every rung fails on 0 (say, an underflowed block), which is PSD
        return z, np.zeros_like(sub)
    raise NotPSDError(f"covariance factorization failed after jitter up to {_JITTERS[-1]:g}*scale")


def cholesky_factor(m: CovMatrix) -> np.ndarray:
    """Full-size lower factor L with L @ L.T ~= entries; the row and column
    of a t = 0 coordinate are zero (see :func:`_factor`)."""
    z, l = _factor(m)
    full = np.zeros(m.entries.shape)
    full[z:, z:] = l
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
        >= 0.  Every value of (p, grid, m, seed) maps to one fixed batch.
    """
    if not p.in_domain:
        raise OutOfDomainError(p.failed_bound, "sampling requires (H, K) in the existence domain")
    m, seed = _count("m", m, 1), _count("seed", seed, 0)
    z, l = _factor(build_cov_matrix(p, grid))
    try:
        paths = np.zeros((m, len(grid)), dtype=np.float64)
    except ValueError:  # past numpy's largest array; short of it, MemoryError
        raise InvalidInputError(f"m paths of {len(grid)} points exceed the largest array") from None
    for chunk, start in enumerate(range(0, m, CHUNK_ROWS)):
        rows = paths[start : start + CHUNK_ROWS, z:]
        rows[:] = substream(seed, 0, chunk).standard_normal(rows.shape) @ l.T
    return PathBatch(grid=grid, paths=paths, seed=seed)


# -- CSV text -----------------------------------------------------------------
# '%.17g' % v for whole arrays (see PathBatch.to_csv).  Each value becomes a
# 24-byte slot of three little-endian words, in which NUL bytes are unused:
#   word 0     the separator before the value (',', or '\n' in column 0),
#              the sign, "0." and up to three zeros for -4 <= E < 0, d0
#              (byte 7 for -4 <= E < 0, else byte 6) and a point at byte 7
#              for E = 0 and the e-form
#   words 1-2  d1..d16, trailing zeros cut
# For 1 <= E <= 15, d1..dE move one byte left and the point takes dE's
# place; the e-form moves d0 onwards four bytes left and ends with "e+XX".
# A block's text is its slots' bytes with the NULs deleted.

_CSV_BLOCK = 1 << 14  # values per block, rounded down to whole rows
_LOW, _HIGH = 1e-99, 1e99  # |v| range of the numpy path: two-digit exponents
_E0 = -101  # first decimal exponent of the tables; the last is -_E0
_NEAR_HALF = 0.5 - 2.0**-40
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitting constant


def _pow10(k: int) -> tuple[float, float]:
    """10**k as hi + lo: hi correctly rounded, lo the rest correctly rounded."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den
    p, q = hi.as_integer_ratio()
    return hi, (num * q - p * den) / (den * q)


@cache
def _csv_tables():
    """Lookup tables of the CSV writer, built on first use."""
    exps = range(_E0, 1 - _E0)
    # By E - _E0: 10**(16 - E) as hi, hi's Veltkamp halves and lo; the least
    # double >= 10**E.
    scale, least = [], []
    for e in exps:
        hi, lo = _pow10(16 - e)
        m, x = math.frexp(hi)
        top = m * _SPLIT - (m * _SPLIT - m)
        scale.append((hi, math.ldexp(top, x), math.ldexp(m - top, x), lo))
        hi, lo = _pow10(e)
        least.append(math.nextafter(hi, math.inf) if lo > 0 else hi)
    # By E - _E0 + len(exps) * (sign + 2 * any digit after d0 is shown):
    # word 0 without d0.  By E - _E0: d0's bit offset in word 0, and how many
    # digits after d0 the fixed form shows at least.
    head = []
    for frac in (False, True):
        for sign in (b"\0", b"-"):
            for e in exps:
                lead = b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b""
                dot = b"." if frac and (e == 0 or not -4 <= e <= 16) else b"\0"
                head.append(int.from_bytes(b"," + sign + lead.ljust(5, b"\0") + dot, "little"))
    lift = [56 if -4 <= e < 0 else 48 for e in exps]
    whole = [e if 0 <= e <= 16 else 0 for e in exps]
    # By i in 0..9999: its four ASCII digits as a word, its trailing zeros.
    i = np.arange(10000)
    quad = sum(((i // 10**j % 10 + 48) << 8 * (3 - j)).astype(np.uint64) for j in range(4))
    zeros = sum(i % 10**j == 0 for j in range(1, 5))
    # By j in 0..16, for words 1 and 2: the bytes < j, and a point at byte j.
    below = [[(2 ** (8 * j) - 1) >> 64 * w & 2**64 - 1 for j in range(17)] for w in (0, 1)]
    point = [[(46 << 8 * j) >> 64 * w & 2**64 - 1 for j in range(17)] for w in (0, 1)]
    tables = (
        np.array(scale).T.copy(),
        np.array(least),
        np.array(head, np.uint64),
        np.array(lift, np.uint64),
        np.array(whole),
        quad,
        zeros,
        np.array(below, np.uint64),
        np.array(point, np.uint64),
    )
    for t in tables:
        t.setflags(write=False)  # shared by every call
    return tables


def _digits17(a: np.ndarray, e10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """round(a * 10**(16 - e10)) as int64, and where it is too close to a tie
    to call (see PathBatch.to_csv)."""
    hi, hh, hl, lo = (t.take(e10 - _E0) for t in _csv_tables()[0])
    p = a * hi  # >= 2**53, so an integer
    ah = a * _SPLIT
    ah -= ah - a
    al = a - ah
    # Dekker: err = a * hi - p exactly; plus a * lo.
    err = ah * hh
    err -= p
    err += ah * hl
    err += al * hh
    err += al * hl
    err += a * lo
    r = np.rint(err)
    n = p.astype(np.int64)
    n += r.astype(np.int64)
    err -= r
    return n, np.abs(err, out=err) > _NEAR_HALF


def _csv_text(block: np.ndarray) -> bytes:
    """'%.17g' text of the rows of a C-contiguous 2-D float64 block, each
    row preceded (not followed) by a newline."""
    _, least, head, lift, whole, quad, zeros, below, point = _csv_tables()
    rows = len(block)
    v = block.ravel()
    a = np.abs(v)
    zero = a == 0.0
    fast = (a >= _LOW) & (a < _HIGH)
    a[~fast] = 1.0
    # E = floor(log10 a): log10 is off by at most one near powers of ten.
    e10 = np.floor(np.log10(a)).astype(np.int64)
    e10 -= a < least.take(e10 - _E0)
    e10 += a >= least.take(e10 + 1 - _E0)
    n, near_half = _digits17(a, e10)
    up = n == 10**17  # rounded up to 10**(E + 1)
    n[up] = 10**16
    e10 += up
    n[zero] = 0
    e10[zero] = 0
    # n = d0 g1 g2 g3 g4, the g in four digits each.
    d0 = n // 10**16
    n -= d0 * 10**16
    hi8 = n // 10**8
    lo8 = n - hi8 * 10**8
    g1 = hi8 // 10**4
    g3 = lo8 // 10**4
    g2 = hi8 - g1 * 10**4
    g4 = lo8 - g3 * 10**4
    tz = zeros.take(g4)
    more = np.flatnonzero(g4 == 0)
    if more.size:
        z1, z2, z3 = (zeros.take(g[more]) for g in (g1, g2, g3))
        tz[more] += z3 + (z3 == 4) * (z2 + (z2 == 4) * z1)
    # Digits after d0 shown: trailing zeros are cut, but not from the
    # integer part of the fixed form.
    ie = e10 - _E0
    shown = np.maximum(16 - tz, whole.take(ie))
    slot = np.empty((v.size, 3), "<u8")
    w0 = head.take(ie + len(least) * (np.signbit(v) + 2 * (shown > 0)))
    w0 |= (d0.astype(np.uint64) + 48) << lift.take(ie)
    slot[:, 0] = w0
    slot[:, 1] = (quad.take(g1) | quad.take(g2) << 32) & below[0].take(shown)
    slot[:, 2] = (quad.take(g3) | quad.take(g4) << 32) & below[1].take(shown)
    mid = np.flatnonzero((e10 > 0) & (shown > e10))
    if mid.size:
        e = e10[mid]
        w = slot[mid]
        lo1 = w[:, 1] & below[0].take(e)
        lo2 = w[:, 2] & below[1].take(e)
        w[:, 0] |= lo1 << 56
        w[:, 1] = w[:, 1] ^ lo1 | lo1 >> 8 | lo2 << 56 | point[0].take(e - 1)
        w[:, 2] = w[:, 2] ^ lo2 | lo2 >> 8 | point[1].take(e - 1)
        slot[mid] = w
    sci = np.flatnonzero((e10 < -4) | (e10 > 16))
    if sci.size:
        e = e10[sci]
        mag = np.abs(e)
        tail = 101 | np.where(e < 0, 45, 43) << 8 | (mag // 10 + 48) << 16 | (mag % 10 + 48) << 24
        w0, w1, w2 = slot[sci].T
        slot[sci, 0] = w0 & 0xFFFF | w0 >> 48 << 16 | w1 << 32
        slot[sci, 1] = w1 >> 32 | w2 << 32
        slot[sci, 2] = w2 >> 32 | tail.astype(np.uint64) << 32
    slot = slot.reshape(rows, -1)
    slot[:, 0] ^= ord(",") ^ ord("\n")
    # Rows the numpy path cannot vouch for are formatted one value at a time.
    slow = np.flatnonzero((~(fast | zero) | near_half).reshape(rows, -1).any(axis=1))
    parts, start = [], 0
    for r in slow.tolist():
        parts.append(slot[start:r].tobytes().translate(None, b"\0"))
        parts.append(("\n" + ",".join("%.17g" % x for x in block[r].tolist())).encode())
        start = r + 1
    parts.append(slot[start:].tobytes().translate(None, b"\0"))
    return b"".join(parts)


def _csv_blocks(values: np.ndarray):
    """Yield the CSV text of a 2-D float64 array, a block of at most
    ``_CSV_BLOCK`` values (but at least one row) at a time, each row preceded
    by a newline: the caller ends the last row."""
    step = max(1, _CSV_BLOCK // values.shape[1])
    for start in range(0, len(values), step):
        yield _csv_text(np.ascontiguousarray(values[start : start + step]))
