"""Property-based checks on hard inputs (Hypothesis).

Laws are multi-scale (|x| from 1e-6 to 1e6), Cauchy-tailed or
near-symmetric (mirrored atoms whose masses differ by ~1e-6 relative, with
|x| from 1e-2 to 1e2, or from 1e-6 to 1e6 for mirrored multi-scale laws),
each optionally with an atom at 0.  Examples are derandomized and capped so
the suite stays fast and every run checks the same inputs.
"""

import ast
import itertools
import math
import pathlib
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifrac import (
    BernsteinFn,
    BifParams,
    DiscreteDist,
    bernstein_from_json,
    bernstein_gap_exact,
    cov,
    cov_matrix,
    dist_from_json,
    elementary_gap_series,
    gap_exact,
    gap_tail_integral,
    gap_via_variance,
)
from bifrac import dists
from bifrac.bernstein import _f_block
from bifrac.dists import PAIR_BLOCK, _exact_sum, _signed_weights, expect_pair
from bifrac.errors import NonFiniteError
from bifrac.inequality import _in_range, _signed_form
from bifrac.kernel import _cov_rows

from _support import golden_input

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


@_settings(60)
@given(hard_laws())
def test_tail_suffix_sums_match_per_suffix_fsum(d):
    # The route before its suffix sums became exact integer sums: one
    # math.fsum per suffix of w, which is correctly rounded as well.
    law, back = _in_range(d, 1.0)
    keys, w = _signed_weights(law)
    tails = np.array([math.fsum(w[j:].tolist()) for j in range(len(w))])
    gap = back(2.0 * math.fsum((np.diff(keys, prepend=0.0) * tails * tails).tolist()))
    r = gap_tail_integral(d)
    assert r.e_minus.hex() == (r.e_plus - gap).hex()


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


def _fsum_outcome(summer, blocks):
    """The bits of the sum, "nan", or the type of the exception raised."""
    try:
        value = summer(blocks)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return "nan" if math.isnan(value) else value.hex()


def _reference_fsum(blocks):
    return math.fsum(itertools.chain.from_iterable(b.tolist() for b in blocks))


DBL_MAX = sys.float_info.max
doubles = st.one_of(
    st.floats(),  # the full range with subnormals, +-0, NaN and +-inf
    st.floats(-sys.float_info.min, sys.float_info.min),
    st.floats(DBL_MAX * (1.0 - 2.0**-10), DBL_MAX).flatmap(lambda x: st.sampled_from((x, -x))),
    st.floats(-1e6, 1e6),
)


@st.composite
def float_blocks(draw):
    blocks = draw(st.lists(st.lists(doubles, max_size=12), max_size=5))
    if draw(st.booleans()):  # mirrored pairs that cancel exactly
        flat = [x for b in blocks for x in b]
        order = draw(st.permutations(range(len(flat))))
        blocks.append([-flat[i] for i in order])
    return [np.array(b, dtype=np.float64) for b in blocks]


@_settings(400)
@given(float_blocks())
def test_exact_sum_is_fsum(blocks):
    assert _fsum_outcome(_exact_sum, blocks) == _fsum_outcome(_reference_fsum, blocks)


@pytest.mark.parametrize(
    "values, outcome",
    [
        ([1e308, -8.9e307, 1e308], (1.1100000000000001e308).hex()),
        ([1.7e308, 1.7e308], OverflowError),
        ([math.inf, -math.inf], ValueError),
    ],
)
def test_exact_sum_edge_cases(values, outcome):
    blocks = [np.array(values)]
    assert _fsum_outcome(_exact_sum, blocks) == _fsum_outcome(_reference_fsum, blocks) == outcome


@pytest.mark.parametrize("big", [[], [1e308, -8.9e307, 1e308], [1.7e308, 1.7e308], [math.nan]])
def test_exact_sum_splits_long_blocks(big):
    # Bin sums are exact only over at most 2**26 values, so a block longer
    # than the chunk is summed chunk by chunk; from the chunk holding ``big``
    # on, every value goes to fsum in order.
    assert PAIR_BLOCK <= 2**26
    rng = np.random.default_rng(3)
    x = rng.standard_normal(3 * PAIR_BLOCK + 7) * 10.0 ** rng.integers(-300, 300, 3 * PAIR_BLOCK + 7)
    blocks = [np.concatenate([x, big, -x[::-1] * (1.0 + 1e-15)])]
    assert _fsum_outcome(_exact_sum, blocks) == _fsum_outcome(_reference_fsum, blocks)


# Pair functions g(u, v) equal to g(v, u) bit for bit, as expect_pair needs.
_SYMMETRIC_GS = {
    "abs_sum": lambda a: lambda u, v: np.abs(u + v) ** a,
    "abs_diff": lambda a: lambda u, v: np.abs(u - v) ** a,
    "product": lambda a: lambda u, v: u * v,
    "scalar": lambda a: lambda u, v: 1.0,
}


def _table_outcome(d, g):
    """The math.fsum of the whole k by k table in row-major order, as
    _fsum_outcome gives it, or the message naming its first non-finite pair,
    or, where that fsum overflows, the walk's message for a total past
    double range."""
    xs, ps = np.array(d.values()), np.array(d.probs())
    with np.errstate(all="ignore"):
        table = ps[:, None] * ps[None, :] * g(xs[:, None], xs[None, :])
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        i, j = bad[0]
        return f"g({xs[i]}, {xs[j]}) is not finite"
    outcome = _fsum_outcome(_reference_fsum, [table.ravel()])
    return "a pair term or the sum of the pair terms leaves double range" if outcome is OverflowError else outcome


def _walk_outcome(d, g, block):
    """expect_pair's outcome with ``block`` values per pair block."""
    with mock.patch.object(dists, "PAIR_BLOCK", block):
        try:
            return _fsum_outcome(lambda _: expect_pair(d, g), None)
        except NonFiniteError as exc:
            return str(exc)


@_settings(200)
@given(
    hard_laws(max_atoms=40),
    st.sampled_from(sorted(_SYMMETRIC_GS)),
    alphas,
    st.sampled_from((1, 5, 7, 64, PAIR_BLOCK)),
)
def test_pair_walk_is_full_table_fsum(d, g_name, alpha, block):
    # Blocks of 1 to 64 values cut even small laws into several row blocks
    # whose row counts do not divide k.
    g = _SYMMETRIC_GS[g_name](alpha)
    assert _walk_outcome(d, g, block) == _table_outcome(d, g)


_BIG = DiscreteDist([(1.3e154, 0.3), (-1.1e154, 0.25), (0.9e154, 0.25), (-1.25e154, 0.2)])
_ZERO = DiscreteDist([(-2.0, 0.2), (-1.0, 0.3), (0.0, 0.1), (1.0, 0.15), (3.0, 0.25)])


def _uniform(k):
    return DiscreteDist([(float(x), 1 / k) for x in range(k)])


@pytest.mark.parametrize(
    "d, g",
    [
        # Terms of 2**960 and more go to fsum as they are, where overflow
        # depends on the order.
        (_BIG, lambda u, v: u * v),
        (_BIG, lambda u, v: np.where(u == v, DBL_MAX, -DBL_MAX)),
        # DBL_MAX times the p_i*p_j, whose rounded sum exceeds 1 for some k:
        # those overflow in either order.
        *((_uniform(k), lambda u, v: DBL_MAX) for k in (3, 5, 7, 10, 23)),
        # inf and NaN: the first non-finite pair of the row-major table.
        (_ZERO, lambda u, v: 1.0 / (u * v)),
        (_ZERO, lambda u, v: -1.0 / (u + v - 2.0)),
        (_ZERO, lambda u, v: np.sqrt(u * v)),
        # One atom, and a scalar g.
        (DiscreteDist([(2.5, 1.0)]), lambda u, v: np.abs(u + v) ** 0.7),
        (_ZERO, lambda u, v: 1.0),
    ],
)
@pytest.mark.parametrize("block", [1, 7, PAIR_BLOCK])
def test_pair_walk_edge_cases(d, g, block):
    assert _walk_outcome(d, g, block) == _table_outcome(d, g)


@pytest.mark.parametrize(
    "d, g",
    [
        (_uniform(300), BernsteinFn(0.5, 1.0, ((0.3, 2.0), (4.0, 0.5)))),
        (dist_from_json(golden_input("nearsym")), bernstein_from_json(golden_input("nearsym_g"))),
    ],
    ids=["uniform300", "nearsym"],
)
def test_pair_walk_takes_any_block_size(d, g):
    # With 2**16 values a block, a 300-atom walk's first block has 218 rows
    # and the 120-atom walk one block of 120: squares larger than any block
    # of the default size holds.  The sums keep their bits.
    def routes():
        return [repr(r) for r in (gap_exact(d, 0.7), gap_via_variance(d, 0.7), bernstein_gap_exact(d, g))]

    default = routes()
    assert _walk_outcome(d, np.maximum, 1 << 16) == _table_outcome(d, np.maximum)
    with mock.patch.object(dists, "PAIR_BLOCK", 1 << 16):
        assert routes() == default


@_settings(60)
@given(hard_laws(max_atoms=40), alphas, st.sampled_from((1, 7, PAIR_BLOCK)))
def test_signed_form_walk_is_full_table_fsum(d, alpha, block):
    # The variance route's form is the fsum of the full w_i*R_ij*w_j table.
    law, _ = _in_range(d, alpha)
    keys, w = _signed_weights(law)
    p = BifParams(0.5, alpha)
    table = cov_matrix(p, keys) * np.outer(w, w)
    with mock.patch.object(dists, "PAIR_BLOCK", block):
        assert _signed_form(w, _cov_rows(p, keys), "form") == math.fsum(table.ravel().tolist())


@_settings(60)
@given(hard_laws(max_atoms=40), st.sampled_from((1, 7, 64)))
def test_bernstein_e_plus_walk_is_full_table_fsum(d, block):
    # e_plus is the fsum of the full p_i*p_j*F(|x_i + x_j|) table.
    g = BernsteinFn(0.5, 1.0, ((0.3, 2.0), (4.0, 0.5)))
    xs, ps = np.array(d.values()), np.array(d.probs())
    lam = xs[:, None] + xs[None, :]
    table = ps[:, None] * ps[None, :] * _f_block(g, lam * lam, np.empty_like(lam))
    with mock.patch.object(dists, "PAIR_BLOCK", block):
        assert bernstein_gap_exact(d, g).e_plus == math.fsum(table.ravel().tolist())


@pytest.mark.parametrize(
    "walk",
    [
        lambda: expect_pair(DiscreteDist([(1.0, 0.5), (2.0, 0.5)]), lambda u, v: 1.0 / (u * v - 4.0)),
        lambda: _signed_form(
            np.array([0.5, -0.5]), lambda lo, hi, work: np.array([[1.0, 2.0], [2.0, np.inf]])[lo:hi, lo:], "form"
        ),
        lambda: cov_matrix(BifParams(1.0, 1.0), [0.0, 1e300]),
    ],
    ids=["expect_pair", "signed_form", "cov_matrix"],
)
def test_walk_error_keeps_numpy_state(walk):
    # Row 0 of each table is finite and row 1 is not, so with one row per
    # block the walk raises in its second block.
    with np.errstate(over="raise", invalid="warn"), mock.patch.object(dists, "PAIR_BLOCK", 1):
        before = np.getbufsize(), np.geterr()
        with pytest.raises(NonFiniteError):
            walk()
        assert (np.getbufsize(), np.geterr()) == before


def test_no_yield_under_numpy_state():
    # A generator suspended in such a with leaves its numpy state to the
    # consumer, and to the caller if it is abandoned.  The check above cannot
    # see it where CPython closes the generator as the raising frame unwinds.
    for path in pathlib.Path(dists.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.With) and any(
                any(name in ast.unparse(item.context_expr) for name in ("_block_ufuncs", "errstate"))
                for item in node.items
            ):
                assert not any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(node)), (
                    f"{path.name}:{node.lineno}"
                )
