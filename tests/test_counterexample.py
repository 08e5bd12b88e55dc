import math
from fractions import Fraction

import numpy as np
import pytest

from bifrac import (
    CounterFamily,
    DegenerateFamilyError,
    NonFiniteError,
    OutOfDomainError,
    SearchExhaustedError,
    closed_form_violation,
    family_dist,
    find_violation,
    gap_exact,
    lower_bound_chain,
    violation_exact,
)
from bifrac import counterexample as cx


def exact_terms(alpha: int, c: float, M: float) -> tuple[Fraction, Fraction, Fraction]:
    """The three terms 2pq[(M+1)^a - (M-1)^a], 2^a M^a q^2 and 2^a p^2 of
    the closed form, in rational arithmetic at the given float inputs."""
    c, M = Fraction(c), Fraction(M)
    q = c / M
    p = 1 - q
    diff = (M + 1) ** alpha - (M - 1) ** alpha
    return 2 * p * q * diff, 2**alpha * M**alpha * q * q, 2**alpha * p * p


class TestCounterFamily:
    def test_derived_masses(self):
        f = CounterFamily(alpha=3.0, c=0.5, M=100.0)
        assert f.q == 0.5 / 100.0
        assert f.p == 1.0 - 0.5 / 100.0
        assert f.p + f.q == 1.0

    def test_validation(self):
        with pytest.raises(OutOfDomainError):
            CounterFamily(alpha=2.0, c=0.5, M=10.0)
        with pytest.raises(OutOfDomainError):
            CounterFamily(alpha=3.0, c=0.0, M=10.0)
        with pytest.raises(OutOfDomainError):
            CounterFamily(alpha=3.0, c=0.5, M=0.9)  # M >= 1 required
        with pytest.raises(OutOfDomainError):
            CounterFamily(alpha=3.0, c=5.0, M=2.0)  # M >= c required

    def test_threshold(self):
        f = CounterFamily(alpha=3.0, c=0.5, M=100.0)
        assert f.threshold == 2.0 ** (2.0 - 3.0) * 3.0 == 1.5
        assert f.below_threshold
        assert not CounterFamily(alpha=3.0, c=2.0, M=100.0).below_threshold
        # above threshold the leading coefficient goes negative at p ~ 1:
        # 4*1*3*2 - 2^3*4 = -8
        assert 4.0 * 1.0 * 3.0 * 2.0 - 2.0**3 * 2.0**2 == -8.0


class TestFamilyDist:
    def test_two_atoms(self):
        d = family_dist(CounterFamily(alpha=3.0, c=0.5, M=100.0))
        assert d.values() == (-100.0, 1.0)
        assert d.probs() == (0.5 / 100.0, 1.0 - 0.5 / 100.0)

    def test_example_alpha_25(self):
        d = family_dist(CounterFamily(alpha=2.5, c=1.0, M=10.0))
        assert d.values() == (-10.0, 1.0)
        assert d.probs() == (0.1, 0.9)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateFamilyError):
            family_dist(CounterFamily(alpha=3.0, c=1.0, M=1.0))


class TestViolationExact:
    def test_reference_point_positive(self):
        # closed form at (3, 0.5, 100); oracle: the double-sum route below
        v = violation_exact(CounterFamily(alpha=3.0, c=0.5, M=100.0))
        assert 380.0 < v < 400.0

    def test_matches_double_sum(self):
        f = CounterFamily(alpha=3.0, c=0.5, M=100.0)
        r = gap_exact(family_dist(f), 3.0)
        scale = r.e_plus + r.e_minus
        assert abs(violation_exact(f) - (-r.gap)) <= 1e-10 * scale

    def test_cross_check_alpha_25(self):
        f = CounterFamily(alpha=2.5, c=1.0, M=2.0)
        r = gap_exact(family_dist(f), 2.5)
        scale = r.e_plus + r.e_minus
        assert abs(violation_exact(f) - (-r.gap)) <= 1e-10 * scale

    def test_random_families_match_double_sum(self):
        rng = np.random.default_rng(50)
        for _ in range(500):
            alpha = float(rng.uniform(2.0 + 1e-6, 8.0))
            c = float(rng.uniform(0.05, 3.0))
            M = float(rng.uniform(max(c, 1.0), 1e4))
            f = CounterFamily(alpha=alpha, c=c, M=M)
            if f.q == 1.0:
                continue
            r = gap_exact(family_dist(f), alpha)
            scale = r.e_plus + r.e_minus
            assert abs(violation_exact(f) - (-r.gap)) <= 1e-10 * scale

    def test_large_m_series_branch(self):
        # at large M, where (M+1)^3 - (M-1)^3 = 6 M^2 + 2 cancels in floats
        for M in (2.0e4, 1.0e5, 1.0e6):
            f = CounterFamily(alpha=3.0, c=0.5, M=M)
            q = f.q
            p = f.p
            oracle = 2.0 * p * q * (6.0 * M * M + 2.0) - 8.0 * M**3 * q * q - 8.0 * p * p
            assert violation_exact(f) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("alpha", [3, 4, 5, 7])
    def test_matches_rational_arithmetic(self, alpha):
        for c in (0.05, 0.3, 1.0):
            for M in (1.0, 2.0, 100.0, 1000.0, 9999.0, 10001.0, 1e6, 1e9):
                a, b, d = exact_terms(alpha, c, M)
                scale = abs(a) + b + d
                err = abs(Fraction(closed_form_violation(float(alpha), c, M)) - (a - b - d))
                assert err <= Fraction(1e-14) * scale, (c, M, float(err / scale))

    @pytest.mark.parametrize(
        "alpha,c,M",
        [(math.inf, 0.5, 2.0), (math.nan, 0.5, 2.0), (3.0, math.nan, 2.0), (3.0, 0.5, math.inf)],
    )
    def test_non_finite_arguments_rejected(self, alpha, c, M):
        # alpha = inf gave NaN.
        with pytest.raises(NonFiniteError):
            closed_form_violation(alpha, c, M)

    def test_alpha_at_most_two_never_violates(self):
        # the same family can never produce a positive violation for
        # alpha <= 2 (cross-module regression with the exact gap route)
        rng = np.random.default_rng(51)
        for _ in range(100):
            alpha = float(rng.uniform(0.05, 2.0))
            c = float(rng.uniform(0.05, 2.0))
            M = float(rng.uniform(max(c, 1.0) + 1e-9, 1e3))
            v = closed_form_violation(alpha, c, M)
            d = gap_exact(
                family_dist(CounterFamily(alpha=3.0, c=c, M=M)), alpha
            )  # same two-point law
            scale = d.e_plus + d.e_minus
            assert v <= 1e-12 * scale
            assert abs(v - (-d.gap)) <= 1e-10 * scale

    def test_monotone_blow_up(self):
        vals = [
            violation_exact(CounterFamily(alpha=3.0, c=0.5, M=float(M)))
            for M in (10, 100, 1000, 10000)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[0] > 0  # already positive at M = 10 for this (alpha, c)


class TestLowerBoundChain:
    def test_reference_numbers(self):
        # oracle arithmetic: bound2 = 100*(4*0.995*3*0.5 - 8*0.25) - 8*0.995^2
        f = CounterFamily(alpha=3.0, c=0.5, M=100.0)
        chain = lower_bound_chain(f)
        p = f.p
        expected_b2 = 100.0 * (4.0 * p * 3.0 * 0.5 - 8.0 * 0.25) - 8.0 * p * p
        assert chain.bound2 == pytest.approx(expected_b2, rel=1e-14)
        assert 389.0 < chain.bound2 < 389.2
        assert chain.exact >= chain.bound1

    def test_bounds_agree_and_lower_bound_holds(self):
        rng = np.random.default_rng(52)
        for _ in range(300):
            alpha = float(rng.uniform(2.0 + 1e-6, 10.0))
            c = float(rng.uniform(0.05, 3.0))
            M = float(rng.uniform(max(c, 1.0), 1e3))
            f = CounterFamily(alpha=alpha, c=c, M=M)
            chain = lower_bound_chain(f)
            scale = (
                4.0 * f.p * f.q * alpha * M ** (alpha - 1.0)
                + 2.0**alpha * M**alpha * f.q**2
                + 2.0**alpha * f.p**2
            )
            assert chain.exact >= chain.bound1 - 1e-10 * scale
            assert abs(chain.bound1 - chain.bound2) <= 1e-12 * scale


class TestFindViolation:
    @pytest.mark.parametrize("alpha", [2.1, 2.5, 3.0, 5.0, 10.0])
    def test_returns_positive_violation(self, alpha):
        f = find_violation(alpha)
        assert f.alpha == alpha
        assert f.c == 2.0 ** (1.0 - alpha) * alpha
        assert f.below_threshold
        assert violation_exact(f) > 0.0

    @pytest.mark.parametrize("alpha", range(3, 41))
    def test_first_doubling_with_positive_rational_violation(self, alpha):
        c = 2.0 ** (1.0 - alpha) * alpha
        M = 2.0 * max(c, 1.0)
        a, b, d = exact_terms(alpha, c, M)
        while a - b - d <= 0:
            M *= 2.0
            a, b, d = exact_terms(alpha, c, M)
        assert find_violation(float(alpha)).M == M

    def test_alpha_boundary_rejected(self):
        with pytest.raises(OutOfDomainError):
            find_violation(2.0)
        with pytest.raises(OutOfDomainError):
            find_violation(41.0)

    def test_search_exhaustion(self, monkeypatch):
        monkeypatch.setattr(cx, "M_CAP", 4.0)
        with pytest.raises(SearchExhaustedError):
            find_violation(2.01)

    def test_large_alpha_stays_finite(self):
        f = find_violation(40.0)
        assert math.isfinite(violation_exact(f))
        assert violation_exact(f) > 0.0
