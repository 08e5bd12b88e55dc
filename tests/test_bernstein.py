import math

import numpy as np
import pytest

from bifrac import (
    BernsteinFn,
    DiscreteDist,
    NonFiniteError,
    bernstein_from_json,
    bernstein_gap_exact,
    bernstein_to_json,
    elementary_gap_series,
    eval_f,
    eval_g,
    expect_pair,
    gap_exact,
    series_identity_check,
)
from bifrac.errors import NegativeArgumentError

from _support import random_bernstein, random_dist, symmetric_dist

D01 = DiscreteDist([(0.0, 0.5), (1.0, 0.5)])


def elementary_direct(d, t):
    """Oracle: the elementary gap as an explicit double sum."""
    return expect_pair(d, lambda u, v: np.exp(-t * (u - v) ** 2) - np.exp(-t * (u + v) ** 2))


def elementary_scale(d, t):
    return expect_pair(d, lambda u, v: np.exp(-t * (u - v) ** 2) + np.exp(-t * (u + v) ** 2))


class TestBernsteinFn:
    def test_validation(self):
        with pytest.raises(ValueError):
            BernsteinFn(a=-1.0, b=0.0)
        with pytest.raises(ValueError):
            BernsteinFn(a=0.0, b=-0.1)
        with pytest.raises(ValueError):
            BernsteinFn(a=0.0, b=0.0, mu=((0.0, 1.0),))
        with pytest.raises(ValueError):
            BernsteinFn(a=0.0, b=0.0, mu=((1.0, 0.0),))
        with pytest.raises(NonFiniteError):
            BernsteinFn(a=math.nan, b=0.0)

    def test_measure_canonicalized(self):
        g = BernsteinFn(a=0.0, b=0.0, mu=((2.0, 1.0), (0.5, 3.0)))
        assert g.mu == ((0.5, 3.0), (2.0, 1.0))

    def test_json_round_trip(self):
        g = BernsteinFn(a=0.25, b=1.5, mu=((0.5, 1.0), (2.0, 0.125)))
        assert bernstein_from_json(bernstein_to_json(g)) == g

    def test_json_rejects_malformed(self):
        with pytest.raises(ValueError):
            bernstein_from_json({"a": 1.0})
        with pytest.raises(ValueError):
            bernstein_from_json({"a": 1.0, "b": 0.0, "mu": [{"t": 1.0}]})
        with pytest.raises(ValueError):
            bernstein_from_json({"a": -1.0, "b": 0.0, "mu": []})

    @pytest.mark.parametrize("bad", ["1.5", True, None, [1.0], {"v": 1.0}])
    def test_json_rejects_non_numbers(self, bad):
        with pytest.raises(ValueError):
            bernstein_from_json({"a": bad, "b": 0.0})
        with pytest.raises(ValueError):
            bernstein_from_json({"a": 0.0, "b": bad})
        with pytest.raises(ValueError):
            bernstein_from_json({"a": 0.0, "b": 0.0, "mu": [{"t": bad, "w": 1.0}]})
        with pytest.raises(ValueError):
            bernstein_from_json({"a": 0.0, "b": 0.0, "mu": [{"t": 1.0, "w": bad}]})

    def test_json_accepts_integers(self):
        g = bernstein_from_json({"a": 0, "b": 1, "mu": [{"t": 2, "w": 3}]})
        assert g == BernsteinFn(a=0.0, b=1.0, mu=((2.0, 3.0),))


class TestEvalG:
    def test_value_at_zero_is_a(self):
        g = BernsteinFn(a=1.0, b=2.0, mu=((1.0, 3.0),))
        assert eval_g(g, 0.0) == 1.0

    def test_example_value(self):
        # oracle: direct arithmetic 1 + 2 + 3*(1 - e^-1)
        g = BernsteinFn(a=1.0, b=2.0, mu=((1.0, 3.0),))
        assert eval_g(g, 1.0) == pytest.approx(3.0 + 3.0 * (1.0 - math.exp(-1.0)), rel=1e-15)

    def test_identity_function(self):
        g = BernsteinFn(a=0.0, b=1.0)
        for lam in (0.0, 0.5, 7.0):
            assert eval_g(g, lam) == lam

    def test_negative_rejected(self):
        with pytest.raises(NegativeArgumentError):
            eval_g(BernsteinFn(a=0.0, b=1.0), -0.5)

    def test_nondecreasing(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            g = random_bernstein(rng)
            lams = np.sort(rng.uniform(0.0, 20.0, size=10))
            vals = [eval_g(g, float(l)) for l in lams]
            assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestEvalF:
    def test_square(self):
        assert eval_f(BernsteinFn(a=0.0, b=1.0), 3.0) == 9.0

    def test_elementary_atom(self):
        t = 0.7
        g = BernsteinFn(a=0.0, b=0.0, mu=((t, 1.0),))
        for lam in (0.0, 1.0, 2.5):
            assert eval_f(g, lam) == pytest.approx(1.0 - math.exp(-t * lam * lam), rel=1e-15)

    def test_zero_is_a(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            g = random_bernstein(rng)
            assert eval_f(g, 0.0) == g.a

    def test_negative_rejected(self):
        with pytest.raises(NegativeArgumentError):
            eval_f(BernsteinFn(a=0.0, b=1.0), -1.0)


class TestBernsteinGap:
    def test_square_matches_alpha_two(self):
        # F = lam^2 reproduces the alpha = 2 gap 4 (E X)^2 = 1
        r = bernstein_gap_exact(D01, BernsteinFn(a=0.0, b=1.0))
        assert r.gap == gap_exact(D01, 2.0).gap == 1.0
        assert r.alpha is None

    def test_constant_zero_gap(self):
        r = bernstein_gap_exact(D01, BernsteinFn(a=1.5, b=0.0))
        assert r.gap == 0.0

    def test_degenerate_law_single_measure_atom(self):
        # oracle: direct arithmetic (1 - e^-2) - (1 - e^0)
        g = BernsteinFn(a=0.0, b=0.0, mu=((0.5, 1.0),))
        r = bernstein_gap_exact(DiscreteDist([(1.0, 1.0)]), g)
        assert r.gap == pytest.approx(1.0 - math.exp(-2.0), rel=1e-15)

    def test_nonnegativity_corpus(self):
        rng = np.random.default_rng(42)
        for _ in range(150):
            d = random_dist(rng, max_atoms=8, lo=-3.0, hi=3.0)
            g = random_bernstein(rng)
            r = bernstein_gap_exact(d, g)
            assert r.gap >= -1e-10 * (r.e_plus + r.e_minus)

    def test_matches_scalar_eval_f(self):
        # F is evaluated on numpy pair blocks; eval_f is the scalar reference
        rng = np.random.default_rng(44)
        for _ in range(50):
            d = random_dist(rng, max_atoms=8, lo=-3.0, hi=3.0)
            g = random_bernstein(rng)
            r = bernstein_gap_exact(d, g)
            e_plus = math.fsum(
                p1 * p2 * eval_f(g, abs(x1 + x2)) for x1, p1 in d.atoms for x2, p2 in d.atoms
            )
            e_minus = math.fsum(
                p1 * p2 * eval_f(g, abs(x1 - x2)) for x1, p1 in d.atoms for x2, p2 in d.atoms
            )
            tol = 1e-14 * (e_plus + e_minus)
            assert abs(r.e_plus - e_plus) <= tol and abs(r.e_minus - e_minus) <= tol

    def test_decomposition_linearity(self):
        # gap(G) = b * alpha2-gap + sum_i w_i * elementary gap at t_i
        rng = np.random.default_rng(43)
        for _ in range(50):
            d = random_dist(rng, max_atoms=8, lo=-3.0, hi=3.0)
            g = random_bernstein(rng)
            r = bernstein_gap_exact(d, g)
            parts = g.b * gap_exact(d, 2.0).gap if g.b else 0.0
            parts += math.fsum(w * elementary_gap_series(d, t).value for t, w in g.mu)
            assert abs(r.gap - parts) <= 1e-10 * max(r.e_plus + r.e_minus, 1.0)


class TestElementarySeries:
    def test_degenerate_closed_form(self):
        # oracle: direct evaluation e^{-t*0} - e^{-t*4} = 1 - e^{-4t},
        # equivalently 2 e^{-2t} sinh(2t)
        d = DiscreteDist([(1.0, 1.0)])
        for t in (0.1, 0.5, 1.0, 3.0):
            res = elementary_gap_series(d, t)
            closed = 1.0 - math.exp(-4.0 * t)
            assert closed == pytest.approx(2.0 * math.exp(-2.0 * t) * math.sinh(2.0 * t), rel=1e-14)
            assert res.value == pytest.approx(closed, rel=1e-13)

    def test_symmetric_law_identically_zero(self):
        # dyadic masses make the mirrored law exact, so every odd damped
        # moment cancels to exactly zero
        rng = np.random.default_rng(44)
        for k in (1, 2, 4, 8):
            xs = np.unique(rng.uniform(0.1, 3.0, size=k))
            p = 1.0 / (2 * len(xs))
            d = DiscreteDist([(s * float(x), p) for x in xs for s in (1.0, -1.0)])
            res = elementary_gap_series(d, 1.0)
            assert res.value == 0.0

    def test_symmetric_law_near_zero_after_renormalization(self):
        # random symmetric laws go through renormalization, which may nudge
        # one atom by ~1 ulp; the series must still be numerically zero
        rng = np.random.default_rng(48)
        for _ in range(20):
            d = symmetric_dist(rng, hi=3.0)
            res = elementary_gap_series(d, 1.0)
            assert abs(res.value) <= 1e-28

    def test_matches_direct_double_sum(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            d = random_dist(rng, max_atoms=8, lo=-3.0, hi=3.0)
            t = float(rng.uniform(0.01, 5.0))
            res = elementary_gap_series(d, t)
            direct = elementary_direct(d, t)
            scale = elementary_scale(d, t)
            # fp-roundoff allowance on top of the truncation bound: both
            # routes carry ~eps-level noise of their own
            assert abs(res.value - direct) <= res.truncation_bound + 1e-13 * scale
            assert abs(res.value - direct) <= 1e-10 * scale

    def test_partial_sums_nondecreasing(self):
        d = DiscreteDist([(-2.0, 0.25), (0.5, 0.5), (3.0, 0.25)])
        t = 0.8
        vals = [elementary_gap_series(d, t, n_terms=k).value for k in range(1, 16)]
        assert all(v >= 0.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_truncation_bound_decreases_with_terms(self):
        d = DiscreteDist([(1.0, 0.5), (2.0, 0.5)])
        b_small = elementary_gap_series(d, 0.5, n_terms=3).truncation_bound
        b_large = elementary_gap_series(d, 0.5, n_terms=12).truncation_bound
        assert b_large < b_small

    def test_explicit_n_terms_partial(self):
        # first term alone: 2*(2t)*[E(X e^{-tX^2})]^2, oracle by direct arithmetic
        d = D01
        t = 0.3
        m0 = 0.5 * 1.0 * math.exp(-t)  # only the x=1 atom contributes
        first = 2.0 * (2.0 * t) * m0 * m0
        res = elementary_gap_series(d, t, n_terms=1)
        assert res.value == pytest.approx(first, rel=1e-14)
        assert res.n_terms == 1

    def test_zero_law(self):
        res = elementary_gap_series(DiscreteDist([(0.0, 1.0)]), 2.0)
        assert res.value == 0.0 and res.truncation_bound == 0.0

    def test_overflow_guard(self):
        d = DiscreteDist([(50.0, 1.0)])
        with pytest.raises(NonFiniteError):
            elementary_gap_series(d, 5.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            elementary_gap_series(D01, 0.0)
        with pytest.raises(ValueError):
            elementary_gap_series(D01, 1.0, n_terms=0)

    def test_moderately_large_values_ok(self):
        # z = 2 t max|x|^2 up to ~600 stays in range; check against direct
        d = DiscreteDist([(-17.0, 0.3), (4.0, 0.4), (16.5, 0.3)])
        t = 1.0  # z = 578
        res = elementary_gap_series(d, t)
        direct = elementary_direct(d, t)
        scale = elementary_scale(d, t)
        assert abs(res.value - direct) <= max(res.truncation_bound, 1e-11 * scale)


class TestSeriesIdentityCheck:
    def test_zero_argument(self):
        res = series_identity_check(0.0, 4.0, 1.0, 5)
        assert res.lhs == 0.0 and res.rhs_partial == 0.0 and res.remainder_bound == 0.0

    def test_unit_point(self):
        # oracle: lhs = 1 - e^-2, closed form 2 e^-1 sinh(1)
        res = series_identity_check(1.0, 1.0, 0.5, 30)
        assert res.lhs == pytest.approx(1.0 - math.exp(-2.0), rel=1e-15)
        assert res.lhs == pytest.approx(2.0 * math.exp(-1.0) * math.sinh(1.0), rel=1e-14)
        assert abs(res.lhs - res.rhs_partial) <= res.remainder_bound + 1e-15

    def test_opposite_signs_negative(self):
        res = series_identity_check(1.0, -1.0, 1.0, 30)
        assert res.lhs == pytest.approx(math.exp(-4.0) - 1.0, rel=1e-15)
        assert res.rhs_partial < 0.0
        assert abs(res.lhs - res.rhs_partial) <= res.remainder_bound + 1e-15

    def test_random_points_within_bound(self):
        rng = np.random.default_rng(46)
        for _ in range(200):
            x, y = rng.uniform(-4.0, 4.0, size=2)
            t = float(rng.uniform(0.01, 3.0))
            n = int(rng.integers(5, 60))
            res = series_identity_check(float(x), float(y), t, n)
            assert abs(res.lhs - res.rhs_partial) <= res.remainder_bound + 1e-14

    def test_short_partial_has_large_bound(self):
        res = series_identity_check(2.0, 2.0, 1.0, 1)
        assert res.remainder_bound > abs(res.lhs - res.rhs_partial) * 0.99
        full = series_identity_check(2.0, 2.0, 1.0, 60)
        assert abs(full.lhs - full.rhs_partial) <= full.remainder_bound + 1e-14

    def test_extreme_magnitudes_no_overflow(self):
        # both sides ~1 while the raw prefactor e^{-900} underflows alone
        res = series_identity_check(30.0, 30.0, 0.5, 2000)
        assert res.lhs == 1.0
        assert res.rhs_partial == pytest.approx(1.0, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            series_identity_check(1.0, 1.0, 0.0, 5)
        with pytest.raises(ValueError):
            series_identity_check(1.0, 1.0, 1.0, 0)


class TestPowerFunctionsStillCovered:
    def test_fractional_alpha_reasserts_nonnegativity(self):
        # lam^alpha for 0 < alpha < 1 belongs to the admissible family; the
        # power-route gap must stay nonnegative on the same corpus.
        rng = np.random.default_rng(47)
        for _ in range(100):
            d = random_dist(rng)
            a = float(rng.uniform(0.01, 0.99))
            r = gap_exact(d, a)
            assert r.gap >= -1e-10 * (r.e_plus + r.e_minus)
