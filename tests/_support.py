"""Shared corpus generators for the randomized sweeps."""

from __future__ import annotations

import json

import numpy as np

from bifrac import BernsteinFn, DiscreteDist


def random_dist(rng, max_atoms=10, lo=-50.0, hi=50.0, min_atoms=1) -> DiscreteDist:
    n = int(rng.integers(min_atoms, max_atoms + 1))
    xs = np.unique(rng.uniform(lo, hi, size=n))
    ps = rng.random(len(xs))
    ps = ps / ps.sum()
    return DiscreteDist(list(zip(xs.tolist(), ps.tolist())))


def symmetric_dist(rng, max_pairs=5, hi=50.0) -> DiscreteDist:
    """Law with mirrored atoms and mirrored masses, so X+Y and X-Y are
    equidistributed."""
    k = int(rng.integers(1, max_pairs + 1))
    xs = np.unique(rng.uniform(0.1, hi, size=k))
    ps = rng.random(len(xs))
    atoms = [(float(s * x), float(p)) for x, p in zip(xs, ps) for s in (1.0, -1.0)]
    total = sum(p for _, p in atoms)
    return DiscreteDist([(x, p / total) for x, p in atoms])


def mirrored_support_dist(rng, max_atoms=6, hi=50.0) -> DiscreteDist:
    """Support endpoints mirror (min = -max) but masses are arbitrary."""
    m = float(rng.uniform(1.0, hi))
    n = int(rng.integers(0, max_atoms - 1))
    inner = rng.uniform(-m, m, size=n).tolist()
    xs = np.unique(np.array([-m, m] + inner))
    ps = rng.random(len(xs))
    ps = ps / ps.sum()
    return DiscreteDist(list(zip(xs.tolist(), ps.tolist())))


def random_bernstein(rng, max_mu_atoms=5) -> BernsteinFn:
    a = float(rng.uniform(0.0, 2.0))
    b = float(rng.uniform(0.0, 2.0))
    k = int(rng.integers(0, max_mu_atoms + 1))
    mu = tuple(
        (float(rng.uniform(1e-3, 5.0)), float(rng.uniform(1e-3, 3.0))) for _ in range(k)
    )
    return BernsteinFn(a=a, b=b, mu=mu)


def random_domain_params(rng) -> tuple[float, float]:
    """Uniform-ish draw from {0 < H <= 1, 0 < K <= 2, H*K <= 1}."""
    while True:
        h = float(rng.uniform(0.0, 1.0))
        k = float(rng.uniform(0.0, 2.0))
        if h > 0.01 and k > 0.01 and h * k <= 1.0:
            return h, k


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text: str):
    """``json.loads`` that also rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)
