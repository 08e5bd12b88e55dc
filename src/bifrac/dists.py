"""Finite discrete probability laws and seedable samplers.

DiscreteDist is the exact-computation workhorse: expectations are weighted
sums taken with ``math.fsum``, which is correctly rounded and independent of
summation order, so every result is reproducible to the bit.  Every pair
sum, expect_pair's E g(X, Y) among them, is one _pair_sum: a walk over the
row blocks of its table's upper triangle (_row_blocks), whose evaluator
writes its temporaries into the walk's ``work`` scratch.

DiscreteDist.sampler draws through the guide table of bifrac._guide, which
returns the same stream as ``Generator.choice(xs, size, p=ps)``; the counted
mc route draws the atom indices of that stream from the same table code.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InvalidInputError, NonFiniteError, _count, _finite, _pairs

_SUM_TOL = 1e-12

# Values per row block of a _row_blocks walk and per chunk in _exact_sum:
# 64 KB temporaries, below glibc's mmap threshold.  glibc keeps 128 KB free
# on top of the heap and, at its default trim threshold, gives back the rest
# when it is freed, so a block that allocated more than that would fault its
# pages in again.  A block therefore allocates at most one new block-sized
# array: the rest go to the walk's ``work`` scratch, made once per walk, and
# numpy's ufunc buffers, which hold a broadcast operand such as a block's
# (r, 1) or (1, c) half and are as large as the block by default, are set to
# UFUNC_BUFFER values (_block_ufuncs).
PAIR_BLOCK = 1 << 13
UFUNC_BUFFER = 1 << 10

# Values per chunk of inequality.gap_mc, the most cells (atom pairs) of a law
# whose mc pairs are counted per cell, and the largest draw whose bucket
# indices a guide-table draw (bifrac._guide) keeps as a thread's scratch
# (512 KB); a larger draw uses a temporary array.
MC_CHUNK = 1 << 16


class DiscreteDist:
    """Finite atomic law.  Atoms are (value, probability) pairs, canonically
    sorted ascending by value, duplicates merged, probabilities scaled so
    their ``math.fsum`` is exactly 1.0."""

    __slots__ = ("atoms", "_xs", "_ps")

    def __init__(self, atoms: Sequence[tuple[float, float]]):
        merged: dict[float, float] = {}
        for x, p in _pairs("atom", atoms, "value", "probability"):
            merged[x] = merged.get(x, 0.0) + p
        if not merged:
            raise InvalidInputError("distribution needs at least one atom")
        xs = sorted(merged)
        ps = [merged[x] for x in xs]
        for p in ps:
            # Above 1 + _SUM_TOL the sum check fails anyway; the bound keeps
            # math.fsum from overflowing.
            if not 0 < p <= 1 + _SUM_TOL:
                raise InvalidInputError(f"atom probabilities must be in (0, 1], got {p}")
        total = math.fsum(ps)
        if abs(total - 1.0) > _SUM_TOL:
            raise InvalidInputError(f"probabilities must sum to 1 within {_SUM_TOL}, got {total!r}")
        if total != 1.0:
            ps = [p / total for p in ps]
        # Fixpoint cleanup: nudge the heaviest atom until the sum is exactly
        # 1.0, so reconstruction from .atoms is a no-op.
        for _ in range(32):
            total = math.fsum(ps)
            if total == 1.0:
                break
            k = max(range(len(ps)), key=ps.__getitem__)
            ps[k] += 1.0 - total
        self._xs, self._ps = tuple(xs), tuple(ps)
        self.atoms: tuple[tuple[float, float], ...] = tuple(zip(xs, ps))

    def __len__(self) -> int:
        return len(self.atoms)

    def __repr__(self) -> str:
        inner = ", ".join(f"({x:g}, {p:g})" for x, p in self.atoms)
        return f"DiscreteDist([{inner}])"

    def __eq__(self, other) -> bool:
        return isinstance(other, DiscreteDist) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def values(self) -> tuple[float, ...]:
        return self._xs

    def probs(self) -> tuple[float, ...]:
        return self._ps

    def scaled(self, c: float) -> "DiscreteDist":
        """The law of c*X."""
        return DiscreteDist([(c * x, p) for x, p in self.atoms])

    def sampler(self) -> "Sampler":
        """Sampler whose draws equal ``rng.choice(xs, size, p=ps)`` bit for
        bit, through the guide table of :mod:`bifrac._guide`."""
        from ._guide import guide_draw  # only the mc route samples a law

        xs = np.array(self._xs, dtype=np.float64)
        return Sampler(draw=guide_draw(self._ps, xs), moment_hint=math.inf, fills=True)


@dataclass(frozen=True)
class Sampler:
    """Vectorized draw from an arbitrary law.

    ``draw(rng, size)`` must be a deterministic function of the generator
    state; all randomness flows through the explicit ``rng`` argument.
    ``moment_hint`` is the largest order alpha for which E|X|**alpha is
    known finite (math.inf when all moments exist).

    ``fills`` says that ``draw(rng, size, out=a)`` is also accepted: it
    writes the values ``draw(rng, size)`` returns into ``a``, a writeable
    C-contiguous float64 array of ``size`` values, and returns ``a`` itself
    (the samplers here raise InvalidInputError for any other); each thread
    may draw into its own ``a`` at the same time.  gap_mc keeps x and y in
    such buffers, one pair per worker, and raises InvalidInputError when a
    draw into one returns any other array.  Any other sampler's
    ``draw(rng, size)`` must return ``size`` real values of shape
    ``(size,)``; gap_mc copies them into the buffers as float64 (so
    longdouble draws lose their extra precision), never writes to the
    returned array, and raises InvalidInputError for values that are not
    real numbers (bool, integer or float), a ragged sequence included, and
    for any other shape.
    """

    draw: Callable[..., np.ndarray]
    moment_hint: float | None = None
    fills: bool = False


def _draw_size(size, out, dtype=np.float64) -> int:
    """``size`` as an int >= 0 (:func:`errors._count`) that an array of
    8-byte values may have.  Raises InvalidInputError unless it is, and
    unless ``out`` is None or a writeable C-contiguous array of ``size``
    values of ``dtype``, as a draw into it requires."""
    size = _count("size", size, 0)
    if size > np.iinfo(np.intp).max // 8:
        raise InvalidInputError("size exceeds the largest array")
    if out is not None and not (
        isinstance(out, np.ndarray)
        and out.dtype == dtype
        and out.shape == (size,)
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise InvalidInputError(f"out must be a writeable C-contiguous {np.dtype(dtype)} array of {size} values")
    return size


def normal_sampler() -> Sampler:
    """Standard normal sampler (all moments finite)."""
    return Sampler(
        draw=lambda rng, size, out=None: rng.standard_normal(_draw_size(size, out), out=out),
        moment_hint=math.inf,
        fills=True,
    )


def expect(d: DiscreteDist, f: Callable[[float], float]) -> float:
    """The math.fsum of p_i * float(f(x_i)); f is called once per atom.
    Raises InvalidInputError at the first f(x_i) that is not a real number
    and NonFiniteError at the first that is NaN, infinite or an int past
    double range."""
    return math.fsum(p * _finite(f"f({x})", f(x)) for x, p in d.atoms)


def expect_pair(d: DiscreteDist, g: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> float:
    """E g(X, Y) for independent copies X, Y: the math.fsum of
    p_i * p_j * g(x_i, x_j) over all atom pairs, by :func:`_pair_sum`.

    ``g`` gets numpy blocks of the x_i by x_j table, ``u`` of shape (r, 1)
    and ``v`` of shape (1, c), and returns values that broadcast to (r, c);
    g(u, v) must equal g(v, u) bit for bit.  Raises NonFiniteError at the
    first pair where g is NaN or infinite, and, naming no pair, when g
    raises OverflowError or the total leaves double range; raises
    InvalidInputError at the first block whose values are not real numbers
    (bool, integer or float), a ragged sequence included, or do not
    broadcast to (r, c).  A g that allocates at most one new block-sized
    array keeps the blocks' pages in the heap (see PAIR_BLOCK).
    """
    xs = np.array(d.values())

    def block(lo: int, hi: int, work) -> np.ndarray:
        t = _real_values("g(u, v)", g(xs[lo:hi, None], xs[None, lo:]))
        shape = (hi - lo, len(xs) - lo)
        try:
            if np.broadcast_shapes(t.shape, shape) == shape:
                return t
        except ValueError:
            pass
        raise InvalidInputError(f"g(u, v): values of shape {t.shape} do not broadcast to the block's {shape}")

    # Since 0 <= p_i * p_j <= 1, a term is finite exactly when g is.
    total, _ = _pair_sum(np.array(d.probs()), block, lambda i, j: f"g({xs[i]}, {xs[j]}) is not finite")
    return total


def _real_values(what: str, a) -> np.ndarray:
    """``np.asarray(a)``.  Raises InvalidInputError, naming ``what``, if
    ``a`` is a ragged sequence or its dtype is not bool, integer or float:
    the one check on arrays that come from caller code."""
    try:
        arr = np.asarray(a)
    except ValueError:
        raise InvalidInputError(f"{what}: a ragged sequence is not an array of real numbers") from None
    if arr.dtype.kind not in "biuf":
        raise InvalidInputError(f"{what}: {arr.dtype} values are not real numbers")
    return arr


@contextlib.contextmanager
def _block_ufuncs():
    """numpy ufuncs with buffers of UFUNC_BUFFER values, for a block's
    arithmetic (see PAIR_BLOCK); numpy 1.x's errstate does not restore the
    buffer size, so it is restored here."""
    old = np.setbufsize(UFUNC_BUFFER)
    try:
        yield
    finally:
        np.setbufsize(old)


def _row_blocks(k: int):
    """``(lo, hi, work)`` for the row blocks of the upper triangle of a k by
    k table: rows lo:hi, columns lo:, about PAIR_BLOCK values each.
    ``work(i)`` is the i-th float64 scratch array of the block's shape,
    made once per walk and reused from block to block (see PAIR_BLOCK)."""
    bufs: list[np.ndarray] = []

    def work(i: int, lo: int, hi: int) -> np.ndarray:
        bufs.extend(np.empty(max(PAIR_BLOCK, k)) for _ in range(len(bufs), i + 1))
        return bufs[i][: (hi - lo) * (k - lo)].reshape(hi - lo, k - lo)

    hi = 0
    while hi < k:
        lo, hi = hi, min(k, hi + max(1, PAIR_BLOCK // (k - hi)))
        yield lo, hi, functools.partial(work, lo=lo, hi=hi)


def _pair_sum(a: np.ndarray, block: Callable[..., np.ndarray], bad: Callable[..., str]):
    """``(total, scale)`` over the symmetric k by k table of terms
    (a_i * a_j) * t_ij: their math.fsum, bit for bit, and the numpy sum of
    their absolute values.  ``block(lo, hi, work)`` returns t on the rows
    lo:hi, columns lo: of a :func:`_row_blocks` walk, as values that
    broadcast to that shape and are not a ``work`` array; it runs under
    :func:`_block_ufuncs` with numpy errors ignored.  Raises
    NonFiniteError(bad(i, j)) at the first non-finite term in row-major
    order, and NonFiniteError naming no pair when ``block`` raises
    OverflowError or the terms are finite but their total, or fsum's
    running sum of them, leaves double range.  The block's own
    square is summed as it is.  The columns right of it are doubled, as
    they also stand for their mirror images below the block; only they rely
    on the table's symmetry, and twice such a term is exact and finite
    (callers weigh t_ij, i != j, by at most 1/4)."""
    scale = 0.0

    def terms():
        nonlocal scale
        for lo, hi, work in _row_blocks(len(a)):
            with _block_ufuncs(), np.errstate(all="ignore"):
                t = block(lo, hi, work)
                t = np.multiply(np.multiply(a[lo:hi, None], a[lo:], out=work(0)), t, out=work(0))
                t[:, hi - lo :] *= 2.0
                # np.abs(t) is the block's one new array, in the memory the
                # evaluator's block left.  A finite sum shows every term finite.
                scale += (s := float(np.abs(t).sum()))
                if not math.isfinite(s) and (at := np.argwhere(~np.isfinite(t))).size:
                    raise NonFiniteError(bad(*(lo + at[0])))
            yield t.ravel()

    try:
        return _exact_sum(terms()), scale
    except OverflowError:  # from fsum, or from a caller's block that raised it
        raise NonFiniteError("a pair term or the sum of the pair terms leaves double range") from None


def _exact_sum(blocks: Iterable[np.ndarray]) -> float:
    """``math.fsum`` of the concatenated 1-D float64 blocks, bit for bit.

    Each x in a chunk of at most PAIR_BLOCK values is h + l, h its 27 leading
    significant bits.  With biased exponent e (read 1 for 0), h is a multiple
    of 2**(e-1049) below 2**(e-1022) and l one of 2**(e-1075) below
    2**(e-1049), so per-e sums of up to 2**26 of them are exact and one fsum
    rounds their total.  fsum's overflow check depends on order, so from the
    first chunk with inf, NaN or |x| >= 2**960 on, values pass as they are."""
    def parts():
        chunks = (x for b in blocks for x in np.split(b, range(PAIR_BLOCK, b.size, PAIR_BLOCK)))
        es, hs = np.empty(PAIR_BLOCK, np.int64), np.empty(PAIR_BLOCK)
        for x in chunks:
            e, h = es[: x.size], hs[: x.size]
            np.right_shift(x.view(np.int64), 52, out=e)
            e &= 0x7FF
            if e.max(initial=0) >= 1023 + 960:
                yield x
                yield from chunks
                return
            np.bitwise_and(x.view(np.int64), -(1 << 26), out=h.view(np.int64))
            hsum = np.bincount(e, weights=h)
            lsum = np.bincount(e, weights=np.subtract(x, h, out=h))
            yield from (hsum[hsum != 0], lsum[lsum != 0])

    return math.fsum(itertools.chain.from_iterable(map(memoryview, parts())))


def _signed_weights(d: DiscreteDist) -> tuple[np.ndarray, np.ndarray]:
    """``(keys, w)``: the distinct |x| ascending and w_a = P(X = a) - P(X = -a)
    on them (0 at a = 0).  The gap of a law depends on it only through w."""
    xs = np.array(d.values())
    keys, where = np.unique(np.abs(xs), return_inverse=True)
    return keys, np.bincount(where, weights=np.array(d.probs()) * np.sign(xs))


def dist_from_json(obj) -> DiscreteDist:
    """Parse ``{"atoms":[{"x":..,"p":..},...]}``.

    Rejects values that are not JSON numbers and duplicate x here;
    DiscreteDist rejects nonpositive p and |sum(p) - 1| > 1e-12.
    """
    if not isinstance(obj, dict) or "atoms" not in obj:
        raise InvalidInputError('distribution JSON must be an object with an "atoms" list')
    raw = obj["atoms"]
    if not isinstance(raw, list) or not raw:
        raise InvalidInputError('"atoms" must be a nonempty list')
    pairs = _json_pairs(raw, "atom", "x", "p")
    xs = sorted(x for x, _ in pairs)
    if dup := [b for a, b in zip(xs, xs[1:]) if a == b]:
        raise InvalidInputError(f"duplicate atom value {dup[0]!r}")
    return DiscreteDist(pairs)


def _json_pairs(raw: list, name: str, first: str, second: str) -> list[tuple[float, float]]:
    """The ``(entry[first], entry[second])`` of the entries of ``raw`` by
    :func:`_json_number`.  Raises InvalidInputError unless every entry is an
    object with both keys."""
    if not all(isinstance(e, dict) and first in e and second in e for e in raw):
        raise InvalidInputError(f'each {name} must be an object with "{first}" and "{second}"')
    return [(_json_number(e, first), _json_number(e, second)) for e in raw]


def _json_number(obj: dict, key: str) -> float:
    """``obj[key]`` as a float if it is a JSON number; strings, booleans,
    null and containers raise InvalidInputError, and numbers past double
    range NonFiniteError."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInputError(f'"{key}" must be a JSON number, got {value!r}')
    return _finite(f'"{key}"', value)


def dist_to_json(d: DiscreteDist) -> dict:
    return {"atoms": [{"x": x, "p": p} for x, p in d.atoms]}
