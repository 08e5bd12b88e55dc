"""The guide table (Chen & Asau 1974; Devroye 1986, section III.2.4) behind
DiscreteDist.sampler and the counted mc route.  Only the mc route samples a
law, so this module loads there alone, and no other command compiles it.

A draw equals ``rng.choice(payload, size, p=ps)`` bit for bit, where the
payload is a law's ascending float64 atom values or its atom indices
``np.arange(k)``.  Like ``Generator.choice``, it is ``payload[i]`` for i =
``cdf.searchsorted(u, "right")``, u = ``rng.random(size)``, with the CDF
normalized the same way.  Bucket b of the one table holds the u in
[b/G, (b+1)/G); where no CDF breakpoint falls inside it, every such u draws
the same atom, whose payload the table holds.  The other buckets (at most k
of the G) hold a value below ``payload[0]`` (-inf for values, -1 for
indices), and only their draws (hits) are resolved.  G is the least power
of two >= 32k, capped at GUIDE_BUCKETS_MAX; as a power of two it scales u
and the CDF exactly, so ``u * G`` is compared with ``cdf * G`` with every
comparison unchanged.

On the generators of ``_TOP53``, u is ``(w >> 11) * 2**-53`` for one 64-bit
word w, so the draw reads the words of ``bit_generator.random_raw`` instead,
a new array per draw since it has no ``out=``: the bucket is ``w >> (64 -
g)`` for G = 2**g, resolved in the array the draw returns, and ``u * G =
(w >> 11) * (G / 2**53)`` is formed only for the hits.  Other generators
(MT19937 makes u of two 32-bit words) draw through ``rng.choice`` itself,
copied into ``out`` when one is given.

Bucket b holds the breakpoints start[b] <= i < start[b + 1], start[b] the
index of the first ``cdf > b/G``.  A hit in a bucket with one breakpoint
draws atom ``start[b] + (cdf[start[b]] <= u)``; only the hits in buckets
with more are searched in the whole CDF.
"""

from __future__ import annotations

import numpy as np

from .dists import _draw_size

# Largest bucket count (8 MB each of the table and the bucket starts), so
# the table stops growing with k past 2**15 atoms.
GUIDE_BUCKETS_MAX = 1 << 20

# Bit generators whose ``random()`` is ``(w >> 11) * 2**-53`` for one word w
# of ``random_raw`` (test_dists.py pins it), so a draw may read the words.
_TOP53 = (np.random.Philox, np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64)


def guide_draw(ps, payload: np.ndarray):
    """``draw(rng, size, out=None)`` on one guide table of the law of
    probabilities ``ps`` whose atoms are the ascending ``payload``, float64
    values or intp indices: 8-byte values, since a draw writes its bucket
    indices into the array it returns.  ``out``, when given, is written and
    returned; ``rng``, ``size`` and ``out`` are checked by
    :func:`dists._draw_size` with the payload's dtype."""
    ps = np.array(ps, dtype=np.float64)
    cdf = ps.cumsum()
    cdf /= cdf[-1]
    buckets = min(1 << (32 * len(cdf) - 1).bit_length(), GUIDE_BUCKETS_MAX)
    shift = 64 - (buckets.bit_length() - 1)
    start = cdf.searchsorted(np.arange(buckets + 1) / buckets, side="right")
    # start[b] <= k - 1 for b < G, since cdf[-1] == 1.0 > b/G.
    below = -1 if payload.dtype.kind == "i" else -np.inf
    table = np.where(start[1:] == start[:-1], payload[start[:-1]], below)
    cdf *= buckets

    def draw(rng: np.random.Generator, size: int, out: np.ndarray | None = None) -> np.ndarray:
        size = _draw_size(rng, size, out, payload.dtype)
        if type(rng.bit_generator) not in _TOP53:
            drawn = rng.choice(payload, size, p=ps)
            if out is None:
                return drawn
            np.copyto(out, drawn)
            return out
        if out is None:
            out = np.empty(size, payload.dtype)
        words = rng.bit_generator.random_raw(size)  # no out=: a new array
        np.right_shift(words, shift, out=out.view(np.uint64))
        # take reads bucket i before it writes out[i] over it, and copies only
        # an out that overlaps the table.  Buckets are < G, so clip changes
        # none; mode="raise" would buffer out.
        np.take(table, out.view(np.intp), out=out, mode="clip")
        j = np.flatnonzero(out < payload[0])
        hit = words[j]
        ug = (hit >> 11) * (buckets / 2**53)  # u * G, exactly
        hit = (hit >> shift).view(np.intp)  # < G; intp indexes without a copy
        lo = start[hit]
        at = lo + (cdf[lo] <= ug)
        many = start[hit + 1] - lo > 1
        if many.any():
            at[many] = cdf.searchsorted(ug[many], side="right")
        out[j] = payload[at]
        return out

    return draw
