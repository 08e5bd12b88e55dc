"""Deterministic substream derivation used by every randomized routine.

One substream per (seed, stream, chunk) triple: an SFC64 generator keyed
through ``SeedSequence(entropy=seed, spawn_key=(stream, chunk))``.
Estimates assembled from fixed-size chunks are therefore independent of
how the chunks are scheduled across workers.
"""

from __future__ import annotations

import numpy as np


def substream(seed: int, stream: int, chunk: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, chunk))
    return np.random.Generator(np.random.SFC64(ss))
