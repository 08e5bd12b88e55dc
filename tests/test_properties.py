"""Property-based checks on hard inputs (Hypothesis).

Laws are multi-scale (|x| from 1e-6 to 1e6), Cauchy-tailed or
near-symmetric (mirrored atoms whose masses differ by ~1e-6 relative), each
optionally with an atom at 0.  Examples are derandomized and capped so the
suite stays fast and every run checks the same inputs.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bifrac import (
    BifParams,
    DiscreteDist,
    cov,
    cov_matrix,
    gap_exact,
    gap_tail_integral,
    gap_via_variance,
)

REL_TOL = 1e-12


def _settings(n):
    return settings(max_examples=n, deadline=None, derandomize=True, database=None)


weights = st.floats(0.05, 1.05)


@st.composite
def hard_laws(draw, max_atoms=24):
    family = draw(st.sampled_from(("multiscale", "cauchy", "near_symmetric")))
    k = draw(st.integers(1, max_atoms))
    if family == "multiscale":
        exps = draw(st.lists(st.floats(-6.0, 6.0), min_size=k, max_size=k))
        signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=k, max_size=k))
        xs = [s * 10.0**e for s, e in zip(signs, exps)]
        ws = draw(st.lists(weights, min_size=k, max_size=k))
    elif family == "cauchy":
        us = draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=k, max_size=k))
        xs = [math.tan(math.pi * (u - 0.5)) for u in us]
        ws = draw(st.lists(weights, min_size=k, max_size=k))
    else:
        half = max(1, k // 2)
        mags = draw(st.lists(st.floats(-2.0, 2.0), min_size=half, max_size=half))
        eps = draw(st.lists(st.floats(-1e-6, 1e-6), min_size=half, max_size=half))
        base = draw(st.lists(weights, min_size=half, max_size=half))
        xs = [s * 10.0**m for m in mags for s in (1.0, -1.0)]
        ws = [w * f for w, e in zip(base, eps) for f in (1.0 + e, 1.0)]
    if draw(st.booleans()):
        xs.append(0.0)
        ws.append(draw(weights))
    total = math.fsum(ws)
    return DiscreteDist([(x, w / total) for x, w in zip(xs, ws)])


alphas = st.floats(0.05, 2.0)


@_settings(60)
@given(hard_laws(), alphas)
def test_exact_and_variance_routes_agree(d, alpha):
    exact = gap_exact(d, alpha)
    var = gap_via_variance(d, alpha)
    scale = exact.e_plus + exact.e_minus
    assert var.e_plus == exact.e_plus
    assert abs(var.gap - exact.gap) <= REL_TOL * scale


@_settings(60)
@given(hard_laws())
def test_exact_and_tail_routes_agree(d):
    exact = gap_exact(d, 1.0)
    tail = gap_tail_integral(d)
    assert tail.e_plus == exact.e_plus
    assert abs(tail.gap - exact.gap) <= REL_TOL * (exact.e_plus + exact.e_minus)


@_settings(40)
@given(hard_laws(), alphas, st.sampled_from((-3.0, -1e-3, 0.5, 2.0, 1e3)))
def test_gap_homogeneity(d, alpha, c):
    base = gap_exact(d, alpha)
    scaled = gap_exact(d.scaled(c), alpha)
    factor = abs(c) ** alpha
    assert abs(scaled.gap - factor * base.gap) <= REL_TOL * factor * (base.e_plus + base.e_minus)


@st.composite
def time_lists(draw):
    """Distinct nonnegative times in any order, sometimes including t = 0."""
    ts = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=30, unique=True))
    if draw(st.booleans()):
        ts.insert(draw(st.integers(0, len(ts))), 0.0)
    return ts


@_settings(100)
@given(time_lists(), st.floats(0.01, 1.0), st.floats(0.01, 2.0))
def test_cov_matrix_equals_scalar_cov_bitwise(ts, H, K):
    p = BifParams(H, K)
    reference = np.array([[cov(p, t, s) for s in ts] for t in ts])
    assert np.array_equal(cov_matrix(p, ts), reference)
