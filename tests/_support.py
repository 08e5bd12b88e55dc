"""Shared corpus generators for the randomized sweeps, and a runner for
checks on numpy's kernels without AVX-512."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np

from bifrac import BernsteinFn, DiscreteDist, Sampler


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


def gauss_gap(mu: float, sigma: float, alpha: float) -> tuple[float, float]:
    """``(e_minus, gap)`` for X, Y i.i.d. N(mu, sigma**2) and alpha > 0, in
    closed form.

    X - Y is N(0, 2 sigma**2), so e_minus = c = 2**alpha sigma**alpha
    Gamma((alpha+1)/2) / sqrt(pi).  X + Y is N(2 mu, 2 sigma**2), and by
    Kummer's transformation e_plus = c e**-z 1F1(a; 1/2; z) with
    z = mu**2 / sigma**2 and a = (1+alpha)/2.  Subtracting c = c e**-z e**z
    term by term, gap = c e**-z sum_{n>=1} z**n/n! ((a)_n/(1/2)_n - 1),
    whose terms are all positive, so the sum does not cancel.
    """
    z = (mu / sigma) ** 2
    a = (1.0 + alpha) / 2.0
    c = 2.0**alpha * sigma**alpha * math.gamma(a) / math.sqrt(math.pi)
    power = ratio = 1.0  # z**n/n! and (a)_n/(1/2)_n
    terms = []
    n = 0
    while True:
        n += 1
        power *= z / n
        ratio *= (a + n - 1) / (n - 0.5)
        terms.append(power * (ratio - 1.0))
        # Past n > z the terms fall at least geometrically.
        if n > 2 * z + 10 and terms[-1] <= 1e-18 * terms[0]:
            break
    return c, c * math.exp(-z) * math.fsum(terms)


def exponential_sampler() -> Sampler:
    """Exp(1) sampler.  For X, Y i.i.d. Exp(1), X + Y is Gamma(2, 1) and
    X - Y is Laplace(0, 1), so E|X+Y|**alpha = Gamma(2+alpha),
    E|X-Y|**alpha = Gamma(1+alpha) and the gap is alpha Gamma(1+alpha)."""
    return Sampler(
        draw=lambda rng, size, out=None: rng.standard_exponential(size, out=out),
        moment_hint=math.inf,
        fills=True,
    )


def positive_stable_sampler(beta: float) -> Sampler:
    """Positive beta-stable sampler, 0 < beta < 1, for the law with
    E exp(-s X) = exp(-s**beta), drawn by Kanter's formula from
    U ~ U(0, pi) and E ~ Exp(1):
    X = sin(beta U) / sin(U)**(1/beta) * (sin((1-beta) U) / E)**((1-beta)/beta).
    E|X|**alpha is finite only for alpha < beta, so ``moment_hint`` is the
    double below beta.  Each draw is a new array (no ``fills``), which
    gap_mc copies in."""

    def draw(rng, size):
        u = rng.uniform(0.0, math.pi, size)
        e = rng.standard_exponential(size)
        head = np.sin(beta * u) / np.sin(u) ** (1.0 / beta)
        return head * (np.sin((1.0 - beta) * u) / e) ** ((1.0 - beta) / beta)

    return Sampler(draw=draw, moment_hint=math.nextafter(beta, 0.0))


def positive_stable_moments(beta: float, alpha: float) -> tuple[float, float]:
    """``(E|X+Y|**alpha, E|X-Y|**alpha)`` for X, Y i.i.d. as drawn by
    :func:`positive_stable_sampler` and alpha < beta.  X + Y has the law of
    2**(1/beta) X, and X - Y is symmetric beta-stable with scale
    (2 cos(pi beta / 2))**(1/beta); the fractional moments are Zolotarev's
    ("One-dimensional stable distributions", 1986)."""
    tail = math.gamma(1.0 - alpha / beta)
    e_plus = 2.0 ** (alpha / beta) * tail / math.gamma(1.0 - alpha)
    e_minus = (
        (2.0 * math.cos(math.pi * beta / 2.0)) ** (alpha / beta) * 2.0**alpha * math.gamma((1.0 + alpha) / 2.0)
        * tail / (math.sqrt(math.pi) * math.gamma(1.0 - alpha / 2.0))
    )
    return e_plus, e_minus


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


def golden_input(name: str):
    """The parsed golden input file ``golden/<name>.json``."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", f"{name}.json")) as fh:
        return json.load(fh)


# numpy CPU features whose kernels a check turns off, so that numpy's SIMD
# loops take their AVX2 or baseline paths.
AVX512_FEATURES = "X86_V4 AVX512_ICL AVX512_SPR"


def has_avx512() -> bool:
    """Whether this CPU runs numpy's X86_V4 (AVX-512) kernels."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("X86_V4"))


def run_without_avx512(code: str) -> subprocess.CompletedProcess:
    """``python -c code tests_dir`` with AVX512_FEATURES disabled, where
    tests_dir is this directory (for ``sys.path``)."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=AVX512_FEATURES)
    tests = os.path.dirname(os.path.abspath(__file__))
    return subprocess.run([sys.executable, "-c", code, tests], capture_output=True, text=True, env=env)
