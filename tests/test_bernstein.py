import math
from collections import Counter

import numpy as np
import pytest

import bifrac.bernstein
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


class CountingMath:
    """The ``math`` module with its calls to exp and fsum counted."""

    def __init__(self):
        self.calls = Counter()

    def __getattr__(self, name):
        f = getattr(math, name)
        if name not in ("exp", "fsum"):
            return f

        def counted(*args):
            self.calls[name] += 1
            return f(*args)

        return counted


def elementary_direct(d, t):
    """Oracle: the elementary gap as an explicit double sum."""
    return expect_pair(d, lambda u, v: np.exp(-t * (u - v) ** 2) - np.exp(-t * (u + v) ** 2))


def elementary_scale(d, t):
    return expect_pair(d, lambda u, v: np.exp(-t * (u - v) ** 2) + np.exp(-t * (u + v) ** 2))


def series_per_atom(d, t, n_terms=None):
    """Reference: the elementary series with one state per atom,
    p*sgn(x)*(|x|/x_max)**(2n+1)*exp(-t*x**2), so mirrored atoms meet only
    inside each fsum.  Same coefficients and stopping rule as the library."""
    x_max = max(abs(x) for x in d.values())
    z = 2.0 * t * x_max * x_max
    rhos = [abs(x) / x_max for x in d.values()]
    states = [p * math.copysign(r, x) * math.exp(-t * x * x) for (x, p), r in zip(d.atoms, rhos)]
    ratios2 = [r * r for r in rhos]
    coef, terms, n = 2.0 * z, [], 0
    while True:
        s_n = math.fsum(states)
        terms.append(coef * s_n * s_n)
        n += 1
        next_coef = coef * z * z / ((2.0 * n) * (2.0 * n + 1.0))
        ratio = z * z / ((2.0 * n + 2.0) * (2.0 * n + 3.0))
        if n == n_terms or (n_terms is None and ratio < 0.5 and next_coef < 1e-16):
            break
        coef = next_coef
        states = [s * r2 for s, r2 in zip(states, ratios2)]
    bound = next_coef / (1.0 - ratio) if ratio < 1.0 else math.inf
    return math.fsum(terms), bound, n


def identity_rhs_from_zero(x, y, t, n_terms):
    """Reference: series_identity_check's rhs_partial by the loop from n = 0,
    the same per-term formula, ending at the first 0.0 once the term ratio
    is below 1/2.  It walks the terms that underflow before the peak too."""
    w = 2.0 * t * x * y
    log_pref = math.log(2.0) - t * (x * x + y * y)
    log_w = math.log(abs(w))
    sign = 1.0 if w > 0 else -1.0
    terms = []
    for n in range(n_terms):
        log_term = log_pref + (2 * n + 1) * log_w - math.lgamma(2 * n + 2)
        terms.append(sign * math.exp(log_term))
        if terms[-1] == 0.0 and w * w / ((2.0 * n + 2.0) * (2.0 * n + 3.0)) < 0.5:
            break
    return math.fsum(terms)


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

    def test_nan_rejected(self):
        with pytest.raises(NegativeArgumentError):
            eval_g(BernsteinFn(a=0.0, b=1.0), math.nan)

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

    def test_nan_rejected(self):
        with pytest.raises(NegativeArgumentError):
            eval_f(BernsteinFn(a=0.0, b=1.0), math.nan)

    def test_no_linear_term_at_overflowing_lam(self):
        # lam**2 overflows; with b = 0 there is no 0 * inf, so F = a + w
        g = BernsteinFn(a=0.5, b=0.0, mu=((0.7, 1.2),))
        assert eval_f(g, 1e200) == 1.7
        assert eval_g(g, math.inf) == 1.7


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

    def test_one_pair_pass(self, monkeypatch):
        calls = []

        def counted(d, g):
            calls.append(g)
            return expect_pair(d, g)

        monkeypatch.setattr(bifrac.bernstein, "expect_pair", counted)
        d = DiscreteDist([(-2.0, 0.2), (-1.0, 0.3), (0.0, 0.1), (1.0, 0.15), (3.0, 0.25)])
        bernstein_gap_exact(d, BernsteinFn(a=0.5, b=1.0, mu=((0.3, 2.0), (4.0, 0.5))))
        assert len(calls) == 1

    @pytest.mark.parametrize("delta", [1e-3, 1e-7, 1e-10])
    @pytest.mark.parametrize("t", [0.05, 0.5])
    @pytest.mark.parametrize("a", [0.3, 1.0, 3.0])
    def test_mirrored_pair_form_without_cancellation(self, monkeypatch, a, t, delta):
        # oracle: for {(-a, q), (a, p)} the form is w**2 * T(a, a) with
        # w = p - q and T(a, a) = -omega * expm1(-4ta**2)
        forms = []

        def recorded(*args):
            forms.append(form(*args))
            return forms[-1]

        form = bifrac.bernstein._signed_form
        monkeypatch.setattr(bifrac.bernstein, "_signed_form", recorded)
        omega = 1.3
        d = DiscreteDist([(-a, 0.5 - delta), (a, 0.5 + delta)])
        q, p = d.probs()
        bernstein_gap_exact(d, BernsteinFn(a=0.0, b=0.0, mu=((t, omega),)))
        closed = -omega * (p - q) ** 2 * math.expm1(-4.0 * t * a * a)
        assert forms == [pytest.approx(closed, rel=1e-13, abs=0.0)]

    def test_beyond_series_range(self):
        # 2*t*max|x|**2 = 50000 makes the series raise; exp(-t(a-b)**2)
        # underflows to 0 off the diagonal and expm1 is -1 on it
        d = DiscreteDist([(-50.0, 0.25), (50.0, 0.5), (100.0, 0.25)])
        with pytest.raises(NonFiniteError):
            elementary_gap_series(d, 5.0)
        r = bernstein_gap_exact(d, BernsteinFn(a=0.0, b=0.0, mu=((5.0, 1.0),)))
        assert r.gap == pytest.approx(0.25**2 + 0.25**2, rel=1e-15)

    def test_huge_atoms_with_b_zero(self):
        # (2e199)**2 overflows, but F <= a + sum(omega) is bounded
        d = DiscreteDist([(3e200, 0.3), (-1e199, 0.3), (1.0, 0.4)])
        g = BernsteinFn(a=0.5, b=0.0, mu=((0.7, 1.2), (1e-3, 0.4)))
        r = bernstein_gap_exact(d, g)
        e_plus = math.fsum(
            p1 * p2 * eval_f(g, abs(x1 + x2)) for x1, p1 in d.atoms for x2, p2 in d.atoms
        )
        e_minus = math.fsum(
            p1 * p2 * eval_f(g, abs(x1 - x2)) for x1, p1 in d.atoms for x2, p2 in d.atoms
        )
        assert r.e_plus == e_plus
        assert r.e_minus == pytest.approx(e_minus, rel=1e-15)

    def test_measure_atom_t_past_quarter_dbl_max(self):
        # -4*t overflows to -inf, but the zero atom's row has uv = 0, where
        # the table must be 0, not NaN: F(|X+-Y|) is 1 - exp(-t*l**2) with
        # l**2 in {0, 1, 4}, so the gap is P(X = Y = 1) = 1/4.
        r = bernstein_gap_exact(D01, BernsteinFn(a=0.0, b=0.0, mu=((1e308, 1.0),)))
        assert (r.e_plus, r.e_minus, r.gap) == (0.75, 0.5, 0.25)

    def test_b_past_quarter_dbl_max(self):
        # 4*b overflows to inf, but b*uv is about 1e8; the law is symmetric,
        # so its signed weights and the gap are 0.
        d = DiscreteDist([(-1e-150, 0.5), (1e-150, 0.5)])
        r = bernstein_gap_exact(d, BernsteinFn(a=0.0, b=1e308))
        assert r.gap == 0.0
        assert r.e_plus == pytest.approx(2e8, rel=1e-15)

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

    def test_matches_per_atom_states_bitwise_without_mirrored_atoms(self):
        # with no pair x, -x each state is one atom's, as in the reference
        rng = np.random.default_rng(49)
        for i in range(200):
            d = random_dist(rng, max_atoms=12, lo=-3.0, hi=3.0)
            if i % 2:
                d = DiscreteDist([(x, 0.75 * p) for x, p in d.atoms] + [(0.0, 0.25)])
            assert not {x for x in d.values() if x} & {-x for x in d.values()}
            t = float(rng.uniform(0.01, 5.0))
            n_terms = None if i % 3 else int(rng.integers(1, 20))
            assert tuple(elementary_gap_series(d, t, n_terms)) == series_per_atom(d, t, n_terms)

    @pytest.mark.parametrize("delta", [1e-3, 1e-7, 1e-10])
    def test_mirrored_pair_without_cancellation(self, delta):
        # oracle: for {(-a, q), (a, p)} the gap is (p - q)**2 * (1 - e**(-4ta**2))
        for a, t in ((1.0, 0.5), (0.3, 2.0), (4.0, 0.1)):
            d = DiscreteDist([(-a, 0.5 - delta), (a, 0.5 + delta)])
            q, p = d.probs()
            closed = -((p - q) ** 2) * math.expm1(-4.0 * t * a * a)
            assert elementary_gap_series(d, t).value == pytest.approx(closed, rel=1e-13, abs=0.0)

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

    def test_stops_once_coefficients_underflow(self, monkeypatch):
        # Past about 150 terms every coefficient is 0.0, so 10**6 requested
        # terms cost about 150 fsums and give the same value and bound 0.
        d = DiscreteDist([(-2.0, 0.25), (0.5, 0.5), (3.0, 0.25)])
        short = elementary_gap_series(d, 0.8, n_terms=1000)
        counting = CountingMath()
        monkeypatch.setattr(bifrac.bernstein, "math", counting)
        res = elementary_gap_series(d, 0.8, n_terms=10**6)
        assert counting.calls["fsum"] < 1000
        assert res == (short.value, 0.0, 10**6)
        assert short.truncation_bound == 0.0

    def test_zero_law(self):
        res = elementary_gap_series(DiscreteDist([(0.0, 1.0)]), 2.0)
        assert res.value == 0.0 and res.truncation_bound == 0.0

    def test_stopping_rule_ends_near_the_z_limit(self):
        # At z = 2*t*max|x|**2 just under _Z_LIMIT the automatic rule stops
        # by n = 900, so it needs no cap on the term count.
        t = math.nextafter(bifrac.bernstein._Z_LIMIT / 2.0, 0.0)
        for d in (DiscreteDist([(1.0, 1.0)]), DiscreteDist([(-1.0, 0.25), (0.5, 0.25), (1.0, 0.5)])):
            res = elementary_gap_series(d, t)
            assert res.n_terms < 1000
            assert math.isfinite(res.value) and res.truncation_bound < 1e-16

    def test_overflow_guard(self):
        d = DiscreteDist([(50.0, 1.0)])
        with pytest.raises(NonFiniteError):
            elementary_gap_series(d, 5.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            elementary_gap_series(D01, 0.0)
        with pytest.raises(ValueError):
            elementary_gap_series(D01, 1.0, n_terms=0)

    def test_nan_t_rejected(self):
        with pytest.raises(ValueError):
            elementary_gap_series(D01, math.nan)

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

    @pytest.mark.parametrize("x,y,t", [(1.0, 1.0, 0.5), (-1.0, 1.0, 0.5), (30.0, 30.0, 1.0)])
    def test_stops_at_first_zero_past_the_peak(self, monkeypatch, x, y, t):
        # At (30, 30, 1) the first terms underflow too, before the peak near
        # n = 900; past n = 1300 each term is under half the last.
        short = series_identity_check(x, y, t, 5000)
        counting = CountingMath()
        monkeypatch.setattr(bifrac.bernstein, "math", counting)
        res = series_identity_check(x, y, t, 10**6)
        assert counting.calls["exp"] < 5000
        assert res == (short.lhs, short.rhs_partial, 0.0)
        assert short.remainder_bound == 0.0

    @pytest.mark.parametrize(
        "x,y,t,n_terms",
        [
            (1000.0, 1000.0, 0.5, 10**9),  # peak near n = 5e5
            (-1000.0, 1000.0, 0.5, 10**9),
            (1000.0, 1000.0, 0.5, 1000),  # the cutoff is below the peak
            # w = 2.4: the walk starts at n = 1, one falling step past the
            # peak, where the term is 0.0 and the term at n = 0 is 5e-324.
            (27.325073026762688, 0.04391571063047837, 1.0, 10),
        ],
    )
    def test_peak_walk_matches_loop_from_zero(self, x, y, t, n_terms):
        res = series_identity_check(x, y, t, n_terms)
        assert res.rhs_partial == identity_rhs_from_zero(x, y, t, n_terms)

    def test_peak_walk_matches_loop_from_zero_at_random_points(self):
        rng = np.random.default_rng(52)
        for _ in range(500):
            x, y = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-3.0, 1.7, 2)
            t = 10.0 ** float(rng.uniform(-3.0, 0.5))
            n = int(rng.choice([1, 2, 3, 10, 200, 10**9, int(rng.integers(1, 3000))]))
            res = series_identity_check(float(x), float(y), t, n)
            assert res.rhs_partial == identity_rhs_from_zero(float(x), float(y), t, n), (x, y, t, n)

    def test_work_grows_with_the_root_of_w(self, monkeypatch):
        # w = 9e6: about 38*sqrt(w) = 115,000 terms around the peak are not
        # 0.0, while the loop from n = 0 evaluates about 4.6 million.
        counting = CountingMath()
        monkeypatch.setattr(bifrac.bernstein, "math", counting)
        res = series_identity_check(3000.0, 3000.0, 0.5, 10**9)
        assert counting.calls["exp"] < 150_000
        assert res.rhs_partial == pytest.approx(1.0, rel=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            series_identity_check(1.0, 1.0, 0.0, 5)
        with pytest.raises(ValueError):
            series_identity_check(1.0, 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            series_identity_check(1.0, 1.0, math.nan, 5)

    @pytest.mark.parametrize("x,y", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 0.0)])
    def test_nonfinite_point_rejected(self, x, y):
        with pytest.raises(NonFiniteError):
            series_identity_check(x, y, 1.0, 3)

    @pytest.mark.parametrize(
        "x,y,t", [(1e200, 1e200, 1.0), (1e200, -1e200, 1.0), (1e10, 1e10, 1e300), (1.0, 2.0, math.inf)]
    )
    def test_overflow_raises_nonfinite(self, x, y, t):
        # (x +- y)**2 or 2*t*x*y leaves double range
        with pytest.raises(NonFiniteError):
            series_identity_check(x, y, t, 3)


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
