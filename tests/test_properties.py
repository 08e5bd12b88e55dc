"""Property-based checks on hard inputs (Hypothesis).

Laws are multi-scale (|x| from 1e-6 to 1e6), Cauchy-tailed or
near-symmetric (mirrored atoms whose masses differ by ~1e-6 relative, with
|x| from 1e-2 to 1e2, or from 1e-6 to 1e6 for mirrored multi-scale laws),
each optionally with an atom at 0.  Examples are derandomized and capped so
the suite stays fast and every run checks the same inputs.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bifrac import (
    BernsteinFn,
    BifParams,
    DiscreteDist,
    bernstein_gap_exact,
    cov,
    cov_matrix,
    elementary_gap_series,
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
    family = draw(
        st.sampled_from(("multiscale", "cauchy", "near_symmetric", "mirrored_multiscale"))
    )
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
        span = 2.0 if family == "near_symmetric" else 6.0
        half = max(1, k // 2)
        mags = draw(st.lists(st.floats(-span, span), min_size=half, max_size=half))
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


def exact_gap(d, alpha):
    """The gap in rational arithmetic on the float atoms: the pair sum of
    p_i p_j (|x_i + x_j| - |x_i - x_j|) at alpha = 1, 4 (E X)**2 at alpha = 2."""
    atoms = [(Fraction(x), Fraction(p)) for x, p in d.atoms]
    if alpha == 2.0:
        return 4 * sum(p * x for x, p in atoms) ** 2
    return sum(p * q * (abs(x + y) - abs(x - y)) for x, p in atoms for y, q in atoms)


@_settings(60)
@given(hard_laws(), st.sampled_from((1.0, 2.0)))
def test_routes_match_exact_rational_gap(d, alpha):
    oracle = exact_gap(d, alpha)
    reports = [gap_exact(d, alpha), gap_via_variance(d, alpha)]
    if alpha == 1.0:
        reports.append(gap_tail_integral(d))
    for r in reports:
        assert abs(Fraction(r.gap) - oracle) <= 4 * math.ulp(r.e_plus), r.route


@_settings(40)
@given(hard_laws(), alphas, st.sampled_from((-3.0, -1e-3, 0.5, 2.0, 1e3)))
def test_gap_homogeneity(d, alpha, c):
    base = gap_exact(d, alpha)
    scaled = gap_exact(d.scaled(c), alpha)
    factor = abs(c) ** alpha
    assert abs(scaled.gap - factor * base.gap) <= REL_TOL * factor * (base.e_plus + base.e_minus)


@st.composite
def bounded_laws(draw):
    """Hard laws rescaled to max|x| <= 10, so that with every t <= 3 the
    series argument 2*t*max|x|**2 stays <= 600, inside its 650 limit."""
    d = draw(hard_laws())
    x_max = max(abs(x) for x in d.values())
    return d.scaled(draw(st.floats(0.01, 10.0)) / x_max) if x_max > 0 else d


bernstein_fns = st.builds(
    lambda a, b, mu: BernsteinFn(a, b, tuple(mu)),
    st.floats(0.0, 2.0),
    st.floats(0.0, 2.0),
    st.lists(st.tuples(st.floats(1e-3, 3.0), st.floats(1e-3, 3.0)), max_size=4),
)


@_settings(60)
@given(bounded_laws(), bernstein_fns)
def test_bernstein_gap_matches_series(d, g):
    # gap = b * (alpha = 2 gap) + sum_i w_i * (elementary gap at t_i); the
    # constant a contributes nothing.
    exact = bernstein_gap_exact(d, g)
    series = [elementary_gap_series(d, t) for t, _ in g.mu]
    predicted = math.fsum(
        [g.b * gap_exact(d, 2.0).gap] + [w * s.value for (_, w), s in zip(g.mu, series)]
    )
    truncation = math.fsum(w * s.truncation_bound for (_, w), s in zip(g.mu, series))
    assert abs(exact.gap - predicted) <= REL_TOL * (exact.e_plus + exact.e_minus) + truncation


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
