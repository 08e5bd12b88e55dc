"""Finite discrete probability laws and seedable samplers.

DiscreteDist is the exact-computation workhorse: expectations are weighted
sums taken with ``math.fsum``, which is correctly rounded and independent of
summation order, so every result is reproducible to the bit.  expect_pair,
the pair primitive of the exact gap routes, sums pair blocks by _exact_sum.

DiscreteDist.sampler draws through a guide table (Chen & Asau 1974;
Devroye 1986, section III.2.4) built once per sampler: one table of atom
values over G buckets of [0, 1), NaN in the buckets that hold a CDF
breakpoint.  G is a power of two, so scaling the uniforms and the CDF by G is
exact.  On the 64-bit generators (Philox, PCG64, SFC64) it takes the bucket
from the top bits of the raw words a uniform is made of; a draw in a NaN
bucket is resolved against the one breakpoint inside it, or, where the
bucket holds several, by a search of the whole CDF.  It reads the same
uniforms and returns the same stream as ``Generator.choice(xs, size, p=ps)``.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NonFiniteError

__all__ = [
    "DiscreteDist",
    "Sampler",
    "expect",
    "expect_pair",
    "dist_from_json",
    "dist_to_json",
    "normal_sampler",
]

_SUM_TOL = 1e-12

# Pairs per block of the x_i by x_j table in expect_pair (at least one row),
# so its memory does not grow with k**2; values per chunk in _exact_sum.
PAIR_BLOCK = 1 << 15

# Largest bucket count of the guide table in DiscreteDist.sampler (8 MB of
# float64 values and 8 MB of bucket starts), so its memory stops growing
# with k past 2**15 atoms.
GUIDE_BUCKETS_MAX = 1 << 20


def _top53_words() -> tuple[type, ...]:
    """Bit generators whose ``random()`` is ``(w >> 11) * 2**-53`` for one
    word w of ``random_raw`` (test_dists.py pins it), so a draw may read the
    words.  A function, since ``import bifrac`` does not load numpy.random."""
    return (np.random.Philox, np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64)


class DiscreteDist:
    """Finite atomic law.  Atoms are (value, probability) pairs, canonically
    sorted ascending by value, duplicates merged, probabilities scaled so
    their ``math.fsum`` is exactly 1.0."""

    __slots__ = ("atoms", "_xs", "_ps")

    def __init__(self, atoms: Sequence[tuple[float, float]]):
        merged: dict[float, float] = {}
        for x, p in atoms:
            x = float(x)
            p = float(p)
            if not math.isfinite(x):
                raise NonFiniteError(f"atom value {x} is not finite")
            if not math.isfinite(p):
                raise NonFiniteError(f"atom probability {p} is not finite")
            merged[x] = merged.get(x, 0.0) + p
        if not merged:
            raise ValueError("distribution needs at least one atom")
        xs = sorted(merged)
        ps = [merged[x] for x in xs]
        for p in ps:
            if p <= 0:
                raise ValueError(f"atom probabilities must be > 0, got {p}")
        total = math.fsum(ps)
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities must sum to 1 within {_SUM_TOL}, got {total!r}")
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
        """Sampler whose draws equal ``rng.choice(xs, size, p=ps)`` bit for bit.

        Like ``Generator.choice``, a draw is ``cdf.searchsorted(u, "right")``
        for u = ``rng.random(size)``, with the CDF normalized the same way.
        Bucket b of a guide table holds the u in [b/G, (b+1)/G); where no CDF
        breakpoint falls inside it, every such u draws the same atom, whose
        value the table holds.  The other buckets (at most k of the G) hold
        NaN, which no atom is, and only their draws (hits) are resolved.  G
        is the least power of two >= 32k, capped at GUIDE_BUCKETS_MAX; as a
        power of two it scales u and the CDF exactly, so ``u * G`` is compared
        with ``cdf * G`` with every comparison unchanged.

        On the generators of ``_top53_words()``, u is ``(w >> 11) * 2**-53``
        for one 64-bit word w, so the draw reads the words of
        ``bit_generator.random_raw`` instead, a new array per draw since it
        has no ``out=``: the bucket is ``w >> (64 - g)`` for G = 2**g, and
        ``u * G = (w >> 11) * (G / 2**53)`` is formed only for the hits.
        Other generators (MT19937 makes u of two 32-bit words) draw u.

        Bucket b holds the breakpoints start[b] <= i < start[b + 1], start[b]
        the index of the first ``cdf > b/G``.  A hit in a bucket with one
        breakpoint draws atom ``start[b] + (cdf[start[b]] <= u)``; only the
        hits in buckets with more are searched in the whole CDF.
        """
        xs = np.array(self.values(), dtype=np.float64)
        cdf = np.array(self.probs(), dtype=np.float64).cumsum()
        cdf /= cdf[-1]
        buckets = min(1 << (32 * len(cdf) - 1).bit_length(), GUIDE_BUCKETS_MAX)
        shift = 64 - (buckets.bit_length() - 1)
        start = cdf.searchsorted(np.arange(buckets + 1) / buckets, side="right")
        # start[b] <= k - 1 for b < G, since cdf[-1] == 1.0 > b/G.
        vals = np.where(start[1:] == start[:-1], xs[start[:-1]], np.nan)
        cdf *= buckets
        top53 = _top53_words()
        scratch = threading.local()  # bucket scratch of this thread's draws into out

        def draw(rng: np.random.Generator, size: int, out: np.ndarray | None = None) -> np.ndarray:
            if out is None:
                b, out = np.empty(size, np.intp), np.empty(size)
            else:
                if len(getattr(scratch, "b", ())) < size:
                    scratch.b = np.empty(size, np.intp)
                b = scratch.b[:size]
            if type(rng.bit_generator) in top53:
                words, u = rng.bit_generator.random_raw(size), None  # no out=: a new array
                np.right_shift(words, shift, out=b.view(np.uint64))
            else:
                u = rng.random(size)
                u *= buckets
                np.copyto(b, u, casting="unsafe")  # as u.astype(np.intp)
            # b < G always; mode="raise" would buffer out.
            np.take(vals, b, out=out, mode="clip")
            j = np.flatnonzero(np.isnan(out))
            hit = b[j]
            ug = (words[j] >> 11) * (buckets / 2**53) if u is None else u[j]  # u * G, exactly
            lo = start[hit]
            at = lo + (cdf[lo] <= ug)
            many = start[hit + 1] - lo > 1
            if many.any():
                at[many] = cdf.searchsorted(ug[many], side="right")
            out[j] = xs[at]
            return out

        return Sampler(draw=draw, moment_hint=math.inf, fills=True)


@dataclass(frozen=True)
class Sampler:
    """Vectorized draw from an arbitrary law.

    ``draw(rng, size)`` must be a deterministic function of the generator
    state; all randomness flows through the explicit ``rng`` argument.
    ``moment_hint`` is the largest order alpha for which E|X|**alpha is
    known finite (math.inf when all moments exist).

    ``fills`` says that ``draw(rng, size, out=a)`` is also accepted: it
    writes the values ``draw(rng, size)`` returns into ``a``, a C-contiguous
    float64 array of ``size`` values, and returns ``a``; each thread may
    draw into its own ``a`` at the same time.  gap_mc keeps x and y in such
    buffers, one pair per worker.  Any other sampler's ``draw(rng, size)``
    must return ``size`` real values of shape ``(size,)``; gap_mc copies them
    into the buffers as float64 (so longdouble draws lose their extra
    precision), never writes to the returned array, and raises ValueError
    for any other shape or for complex values.
    """

    draw: Callable[..., np.ndarray]
    moment_hint: float | None = None
    fills: bool = False


def normal_sampler() -> Sampler:
    """Standard normal sampler (all moments finite)."""
    return Sampler(
        draw=lambda rng, size, out=None: rng.standard_normal(size, out=out),
        moment_hint=math.inf,
        fills=True,
    )


def expect(d: DiscreteDist, f: Callable[[float], float]) -> float:
    """The math.fsum of p_i * f(x_i); f is called once per atom."""
    terms = []
    for x, p in d.atoms:
        fx = f(x)
        if not math.isfinite(fx):
            raise NonFiniteError(f"f({x}) = {fx}")
        terms.append(p * fx)
    return math.fsum(terms)


def expect_pair(d: DiscreteDist, g: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> float:
    """E g(X, Y) for independent copies X, Y: the math.fsum of
    p_i * p_j * g(x_i, x_j) over all atom pairs, by :func:`_exact_sum`.

    ``g`` gets numpy row blocks of the x_i by x_j table, ``u`` of shape
    (r, 1) and ``v`` of shape (1, k) with r*k about PAIR_BLOCK, and returns
    values that broadcast to (r, k).  Raises NonFiniteError at the first
    pair where g is NaN or infinite.
    """
    xs = np.array(d.values())
    ps = np.array(d.probs())
    k = len(xs)
    rows = max(1, PAIR_BLOCK // k)

    def blocks():
        for lo in range(0, k, rows):
            hi = lo + rows
            # Since 0 <= p_i * p_j <= 1, a term is finite exactly when g is.
            with np.errstate(all="ignore"):
                terms = ps[lo:hi, None] * ps[None, :] * g(xs[lo:hi, None], xs[None, :])
            bad = ~np.isfinite(terms)
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise NonFiniteError(f"g({xs[lo + i]}, {xs[j]}) is not finite")
            yield terms.ravel()

    return _exact_sum(blocks())


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
        for x in chunks:
            e = x.view(np.int64) >> 52 & 0x7FF
            if e.max(initial=0) >= 1023 + 960:
                yield x
                yield from chunks
                return
            h = (x.view(np.int64) & -(1 << 26)).view(np.float64)
            hs, ls = np.bincount(e, weights=h), np.bincount(e, weights=x - h)
            yield from (hs[hs != 0], ls[ls != 0])

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
        raise ValueError('distribution JSON must be an object with an "atoms" list')
    raw = obj["atoms"]
    if not isinstance(raw, list) or not raw:
        raise ValueError('"atoms" must be a nonempty list')
    pairs = []
    seen = set()
    for entry in raw:
        if not isinstance(entry, dict) or "x" not in entry or "p" not in entry:
            raise ValueError('each atom must be an object with "x" and "p"')
        x = _json_number(entry, "x")
        p = _json_number(entry, "p")
        if x in seen:
            raise ValueError(f"duplicate atom value {x!r}")
        seen.add(x)
        pairs.append((x, p))
    return DiscreteDist(pairs)


def _json_number(obj: dict, key: str) -> float:
    """``obj[key]`` as a float if it is a JSON number; strings, booleans,
    null and containers raise ValueError."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f'"{key}" must be a JSON number, got {value!r}')
    return float(value)


def dist_to_json(d: DiscreteDist) -> dict:
    return {"atoms": [{"x": x, "p": p} for x, p in d.atoms]}
