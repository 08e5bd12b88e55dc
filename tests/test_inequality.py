import math

import numpy as np
import pytest

import bifrac.inequality
from bifrac import (
    BifParams,
    DiscreteDist,
    InequalityViolationError,
    InsufficientSamplesError,
    NonFiniteError,
    OutOfDomainError,
    Sampler,
    cov,
    cov_matrix,
    expect,
    expect_pair,
    gap_exact,
    gap_mc,
    gap_tail_integral,
    gap_via_variance,
    supnorm_bound,
)
from bifrac._rng import substream
from bifrac.inequality import MC_CHUNK, _mc_chunk

from _support import mirrored_support_dist, random_dist, symmetric_dist

ALPHAS = (0.1, 0.5, 1.0, 1.3, 1.7, 2.0)

D01 = DiscreteDist([(0.0, 0.5), (1.0, 0.5)])
DPM = DiscreteDist([(-1.0, 0.5), (1.0, 0.5)])


def pair_oracle(d, g):
    """Independent double-sum oracle: exact fsum over enumerated pairs."""
    return math.fsum(p1 * p2 * g(x1, x2) for x1, p1 in d.atoms for x2, p2 in d.atoms)


class TestGapExact:
    def test_symmetric_law_zero(self):
        r = gap_exact(DPM, 1.0)
        assert r.gap == 0.0

    def test_half_half(self):
        # oracle: fsum over the four pairs
        e_plus = pair_oracle(D01, lambda u, v: abs(u + v))
        e_minus = pair_oracle(D01, lambda u, v: abs(u - v))
        assert (e_plus, e_minus) == (1.0, 0.5)
        r = gap_exact(D01, 1.0)
        assert (r.e_plus, r.e_minus, r.gap) == (1.0, 0.5, 0.5)

    def test_alpha_two_closed_form(self):
        # E(X+Y)^2 - E(X-Y)^2 = 4 (E X)^2; oracle double sum gives 1.5 - 0.5
        r = gap_exact(D01, 2.0)
        assert r.e_plus == pair_oracle(D01, lambda u, v: (u + v) ** 2) == 1.5
        assert r.gap == 1.0 == 4.0 * expect(D01, lambda x: x) ** 2

    def test_matches_expect_pair_bitwise(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            d = random_dist(rng)
            a = float(rng.uniform(0.05, 2.0))
            r = gap_exact(d, a)
            assert r.e_plus == expect_pair(d, lambda u, v: abs(u + v) ** a)
            assert r.e_minus == expect_pair(d, lambda u, v: abs(u - v) ** a)

    def test_gap_is_difference_bit_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            r = gap_exact(random_dist(rng), float(rng.uniform(0.05, 3.0)))
            assert r.gap == r.e_plus - r.e_minus

    def test_alpha_above_two_allowed_no_assertion(self):
        # two-point law with a heavy far atom violates for alpha = 3
        d = DiscreteDist([(-100.0, 0.005), (1.0, 0.995)])
        r = gap_exact(d, 3.0)
        assert r.gap < 0

    def test_alpha_validation(self):
        with pytest.raises(OutOfDomainError):
            gap_exact(D01, 0.0)

    def test_nonnegativity_sweep(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            d = random_dist(rng)
            for a in ALPHAS:
                r = gap_exact(d, a)
                assert r.gap >= -1e-10 * (r.e_plus + r.e_minus)

    def test_symmetric_laws_equality_case(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            d = symmetric_dist(rng)
            for a in ALPHAS:
                r = gap_exact(d, a)
                assert abs(r.gap) <= 1e-12 * (r.e_plus + r.e_minus)

    def test_scale_covariance(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            d = random_dist(rng, lo=-5.0, hi=5.0)
            a = float(rng.uniform(0.1, 2.0))
            base = gap_exact(d, a).gap
            for c in (2.5, -3.0, 0.125):
                scaled = gap_exact(d.scaled(c), a).gap
                assert scaled == pytest.approx(abs(c) ** a * base, rel=1e-12, abs=1e-300)


class TestGapTailIntegral:
    def test_half_half(self):
        # oracle: single interval [0, 1) with squared tail 0.25
        r = gap_tail_integral(D01)
        assert r.gap == 2.0 * 0.25
        assert r.alpha == 1.0 and r.route == "tail"

    def test_symmetric_zero(self):
        assert gap_tail_integral(DPM).gap == 0.0

    def test_degenerate_atom(self):
        # oracle: gap_exact at alpha=1 gives (2c)^1 - 0
        c = 1.75
        d = DiscreteDist([(c, 1.0)])
        r = gap_tail_integral(d)
        assert r.gap == 2.0 * c
        assert r.gap == gap_exact(d, 1.0).gap

    def test_point_mass_at_zero(self):
        # the only distinct |x| is 0, so the integral has no interval
        r = gap_tail_integral(DiscreteDist([(0.0, 1.0)]))
        assert r.gap == 0.0 and r.e_plus == 0.0

    def test_reflection_invariant_bitwise(self):
        # X -> -X flips every signed weight; the squared tails do not move
        rng = np.random.default_rng(36)
        for _ in range(100):
            d = random_dist(rng)
            assert gap_tail_integral(d.scaled(-1.0)).gap == gap_tail_integral(d).gap

    def test_agrees_with_exact_route(self):
        rng = np.random.default_rng(35)
        for _ in range(300):
            d = random_dist(rng)
            r_tail = gap_tail_integral(d)
            r_exact = gap_exact(d, 1.0)
            scale = r_exact.e_plus + r_exact.e_minus
            assert abs(r_tail.gap - r_exact.gap) <= 1e-12 * scale


class TestGapViaVariance:
    def test_half_half(self):
        # only the (1, 1) pair survives sgn(0) = 0; Var = 0.25, gap = 0.5
        r = gap_via_variance(D01, 1.0)
        assert r.gap == pytest.approx(0.5, rel=1e-15)
        assert r.gap / 2.0 == pytest.approx(0.25, rel=1e-15)

    def test_symmetric_signs_cancel(self):
        r = gap_via_variance(DPM, 1.0)
        assert abs(r.gap) <= 1e-15

    def test_degenerate_law(self):
        # Var = cov((1/2, a), |c|, |c|) = |c|^a, gap = (2|c|)^a
        for c, a in ((3.0, 1.5), (-2.0, 0.7), (0.5, 2.0)):
            d = DiscreteDist([(c, 1.0)])
            r = gap_via_variance(d, a)
            assert r.gap == pytest.approx((2.0 * abs(c)) ** a, rel=1e-13)
            assert r.gap == pytest.approx(gap_exact(d, a).gap, rel=1e-13)

    def test_alpha_validation(self):
        with pytest.raises(OutOfDomainError):
            gap_via_variance(D01, 2.5)
        with pytest.raises(OutOfDomainError):
            gap_via_variance(D01, 0.0)

    def test_agrees_with_exact_route(self):
        rng = np.random.default_rng(36)
        for _ in range(200):
            d = random_dist(rng)
            for a in ALPHAS:
                r_var = gap_via_variance(d, a)
                r_exact = gap_exact(d, a)
                scale = r_exact.e_plus + r_exact.e_minus
                assert abs(r_var.gap - r_exact.gap) <= 1e-10 * scale

    def test_matches_per_pair_double_sum_bitwise(self):
        # With distinct |x| every term R_ab * (w_a * w_b) equals the per-pair
        # term (p_i * p_j) * (cov(|x_i|, |x_j|) * sgn * sgn) of the double sum
        # kept here as the reference, so the variance is bit-identical.
        rng = np.random.default_rng(38)
        for _ in range(50):
            d = random_dist(rng, max_atoms=30)
            a = float(rng.uniform(0.05, 2.0))
            p = BifParams(0.5, a)
            var = math.fsum(
                p1 * p2 * (cov(p, abs(x1), abs(x2)) * (np.sign(x1) * np.sign(x2)))
                for x1, p1 in d.atoms
                for x2, p2 in d.atoms
            )
            r = gap_via_variance(d, a)
            assert r.e_minus == r.e_plus - 2.0**a * var

    def test_one_pair_pass_and_no_lookup(self, monkeypatch):
        calls = []

        def counted(d, g):
            calls.append(g)
            return expect_pair(d, g)

        def refuse(*args, **kwargs):
            raise AssertionError("np.searchsorted called")

        monkeypatch.setattr(bifrac.inequality, "expect_pair", counted)
        monkeypatch.setattr(np, "searchsorted", refuse)
        d = DiscreteDist([(-2.0, 0.2), (-1.0, 0.3), (0.0, 0.1), (1.0, 0.15), (3.0, 0.25)])
        r = gap_via_variance(d, 1.3)
        assert len(calls) == 1
        assert abs(r.gap - gap_exact(d, 1.3).gap) <= 1e-15


class TestNonnegativityChecks:
    def test_signed_form_raises_on_negative_form(self):
        # w^T T w = -2 for w = (1, -1) and T = [[0, 1], [1, 0]]
        table = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InequalityViolationError):
            bifrac.inequality._signed_form(np.array([1.0, -1.0]), table, "form")

    def test_variance_route_raises_on_negated_kernel(self, monkeypatch):
        monkeypatch.setattr(bifrac.inequality, "cov_matrix", lambda p, ts: -cov_matrix(p, ts))
        with pytest.raises(InequalityViolationError):
            gap_via_variance(D01, 1.0)


class TestOverflowBeforeWeighting:
    # E|X+Y|**2 = 2e298 + 2e288 is representable though (2e154)**2 is not.
    LAW = DiscreteDist([(1e154, 1e-10), (0.0, 1 - 1e-10)])

    @pytest.mark.parametrize("route", [gap_exact, gap_via_variance])
    def test_moments_finite(self, route):
        r = route(self.LAW, 2.0)
        assert r.e_plus == pytest.approx(2e298 + 2e288, rel=1e-12)
        assert r.e_minus == pytest.approx(2e298 - 2e288, rel=1e-12)
        assert abs(r.gap - 4e288) <= 1e-12 * (r.e_plus + r.e_minus)

    def test_tail_route_e_plus(self):
        # at alpha = 1, |x_i + x_j| = 2e308 overflows; E|X+Y| = 2e298
        d = DiscreteDist([(1e308, 1e-10), (0.0, 1 - 1e-10)])
        r = gap_tail_integral(d)
        assert r.e_plus == pytest.approx(2e298, rel=1e-12)
        assert abs(r.gap - gap_exact(d, 1.0).gap) <= 1e-12 * (r.e_plus + r.e_minus)

    def test_fractional_exponent(self):
        # e * alpha is not an integer: the fractional power of 2 is kept
        d = DiscreteDist([(1e250, 1e-100), (-3e249, 1e-100), (1.0, 1 - 2e-100)])
        small = d.scaled(2.0**-600)
        for a in (1.3, 1.45, 1.6):
            r, s = gap_exact(d, a), gap_exact(small, a)
            for big, ref in ((r.e_plus, s.e_plus), (r.e_minus, s.e_minus)):
                assert big == pytest.approx(ref * 2.0 ** (600 * a), rel=1e-12)
            v = gap_via_variance(d, a)
            assert abs(v.gap - r.gap) <= 1e-12 * (r.e_plus + r.e_minus)

    @pytest.mark.parametrize("route", [gap_exact, gap_via_variance])
    def test_unrepresentable_moment_raises(self, route):
        # E|X+Y|**2 is about 9.5e320, outside double range
        with pytest.raises(NonFiniteError):
            route(DiscreteDist([(1e160, 0.5), (2e160, 0.5)]), 2.0)


class TestGapMc:
    def test_degenerate_exact(self):
        one = Sampler(draw=lambda rng, size: np.ones(size), moment_hint=math.inf)
        r = gap_mc(one, 1.0, 100, seed=0)
        assert r.gap == 2.0 and r.stderr == 0.0
        assert r.n == 100 and r.route == "mc"

    def test_stderr_of_low_variance_difference(self):
        # d = |X+Y| - |X-Y| varies by about 1e-8 around a mean of about 1; its
        # variance is checked against numpy's two-pass variance of the draws.
        d = DiscreteDist([(1.0, 0.5), (1.0 + 1e-8, 0.5)])
        s, n = d.sampler(), 200_000
        diffs = []
        for c, start in enumerate(range(0, n, MC_CHUNK)):
            size = min(MC_CHUNK, n - start)
            x, y = s.draw(substream(7, 0, c), size), s.draw(substream(7, 1, c), size)
            diffs.append(np.abs(x + y) - np.abs(x - y))
        reference = math.sqrt(np.var(np.concatenate(diffs), ddof=1) / n)
        r = gap_mc(s, 1.0, n, seed=7)
        assert r.stderr == pytest.approx(reference, rel=1e-6)
        assert r == gap_mc(s, 1.0, n, seed=7, workers=2)

    def test_symmetric_law_near_zero(self):
        from bifrac import normal_sampler

        r = gap_mc(normal_sampler(), 1.0, 10**6, seed=44)
        assert abs(r.gap) <= 4 * r.stderr

    def test_matches_exact_value(self):
        r = gap_mc(D01.sampler(), 1.0, 10**6, seed=45)
        assert abs(r.gap - 0.5) <= 4 * r.stderr

    def test_consistency_rate(self):
        # >= 95% of 100 seeds land within 4 stderr of the exact gap at n = 1e6.
        true_gap = gap_exact(D01, 1.0).gap
        s = D01.sampler()
        hits = 0
        for seed in range(100):
            r = gap_mc(s, 1.0, 10**6, seed=seed)
            if abs(r.gap - true_gap) <= 4 * r.stderr:
                hits += 1
        assert hits >= 95

    def test_worker_count_invariance(self):
        s = D01.sampler()
        r1 = gap_mc(s, 1.3, 200_000, seed=46, workers=1)
        r4 = gap_mc(s, 1.3, 200_000, seed=46, workers=4)
        assert (r1.e_plus, r1.e_minus, r1.stderr) == (r4.e_plus, r4.e_minus, r4.stderr)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_large_law_matches_choice_stream(self, workers):
        # A 1000-atom law over three full chunks and a partial one: the
        # report equals the one drawn through rng.choice.
        rng = np.random.default_rng(47)
        xs = np.sort(rng.uniform(-5.0, 5.0, size=1000))
        ws = 10.0 ** rng.uniform(-12.0, 0.0, size=1000)
        d = DiscreteDist(list(zip(xs.tolist(), (ws / math.fsum(ws)).tolist())))
        vals, probs = np.array(d.values()), np.array(d.probs())
        ref = Sampler(draw=lambda g, size: g.choice(vals, size=size, p=probs), moment_hint=math.inf)
        n = 3 * bifrac.inequality.MC_CHUNK + 777
        assert gap_mc(d.sampler(), 1.3, n, seed=48, workers=workers) == gap_mc(ref, 1.3, n, seed=48)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "atoms",
        [
            [(-1.5e308, 0.5), (1.6e308, 0.5)],  # x + y and x - y overflow
            [(-8e307, 0.5), (9e307, 0.5)],  # each pair is finite, a chunk's sum is not
            [(1e303, 0.5), (1.5e303, 0.5)],  # the chunk sums are finite, their total is not
        ],
    )
    def test_sums_past_double_range_raise(self, atoms, workers):
        # Two chunks, so workers=2 runs them in pool threads; a RuntimeWarning
        # there would surface as an error (see filterwarnings) instead.
        d = DiscreteDist(atoms)
        with pytest.raises(NonFiniteError):
            gap_mc(d.sampler(), 1.0, MC_CHUNK + 1000, seed=1, workers=workers)
        assert math.isfinite(gap_exact(d, 1.0).gap)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sampler_output_is_not_written(self, workers):
        # The same draws served read-only, as one cached array for both
        # streams, and as fresh copies: the reports agree and the cache holds.
        n = MC_CHUNK + 1000
        law = DiscreteDist([(-2.0, 0.25), (0.5, 0.5), (3.0, 0.25)])
        base = law.sampler().draw(substream(3, 0, 0), n)
        kept = base.copy()
        cached = {size: base[:size] for size in (MC_CHUNK, n - MC_CHUNK)}
        read_only = {size: a.view() for size, a in cached.items()}
        for a in read_only.values():
            a.setflags(write=False)
        reports = [
            gap_mc(Sampler(draw=draw, moment_hint=math.inf), 1.3, n, seed=2, workers=workers)
            for draw in (
                lambda rng, size: read_only[size],
                lambda rng, size: cached[size],
                lambda rng, size: cached[size].copy(),
            )
        ]
        assert reports[0] == reports[1] == reports[2]
        assert np.array_equal(base, kept)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.3, 2.0])
    @pytest.mark.parametrize("size", [MC_CHUNK, 777])
    @pytest.mark.parametrize(
        "sampler",
        [
            DiscreteDist([(-1.0, 0.3), (2.5, 0.7)]).sampler(),
            DiscreteDist([(-1.5, 0.2), (0.0, 0.5), (1.0, 0.3)]).sampler(),
            DiscreteDist(
                [(x, 1 / 700) for x in np.unique(np.random.default_rng(49).standard_cauchy(700)).tolist()]
            ).sampler(),
            Sampler(draw=lambda rng, size: rng.integers(-3, 4, size), moment_hint=math.inf),
        ],
        ids=["two_atoms", "atom_at_zero", "cauchy_700", "int_draws"],
    )
    def test_chunk_matches_reference_formula(self, sampler, size, alpha):
        # The chunk sums from the same draws, by the plain array formula.
        x, y = sampler.draw(substream(5, 0, 3), size), sampler.draw(substream(5, 1, 3), size)
        ap, am = np.abs(x + y) ** alpha, np.abs(x - y) ** alpha
        dv = ap - am
        sum_d = float(np.sum(dv))
        dv -= sum_d / size
        want = (float(np.sum(ap)), float(np.sum(am)), sum_d, float(np.sum(dv * dv)))
        assert _mc_chunk(sampler, alpha, 5, 3, size) == want

    def test_integer_draws(self):
        # Integer draws are summed as floats, whether alpha is an int or not.
        s = Sampler(draw=lambda rng, size: rng.integers(-3, 4, size), moment_hint=math.inf)
        assert gap_mc(s, 2, 1000, seed=1) == gap_mc(s, 2.0, 1000, seed=1)

    def test_rejects_workers_below_one(self):
        for workers in (0, -2):
            with pytest.raises(ValueError):
                gap_mc(D01.sampler(), 1.0, 100, seed=0, workers=workers)

    @pytest.mark.parametrize(
        "workers,cpus,chunks,threads",
        [(10**6, 3, 4, [3]), (8, 16, 2, [2]), (4, 2, 4, [2]), (4, None, 4, []), (1, 8, 4, [])],
    )
    def test_thread_count_clamped(self, monkeypatch, workers, cpus, chunks, threads):
        # The pool is replaced by a serial stand-in that records its size,
        # so no thread is started.
        from bifrac import inequality

        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return list(map(fn, items))

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(inequality.os, "cpu_count", lambda: cpus)
        n = chunks * inequality.MC_CHUNK
        r = gap_mc(D01.sampler(), 1.0, n, seed=9, workers=workers)
        assert started == threads
        assert r == gap_mc(D01.sampler(), 1.0, n, seed=9, workers=1)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            gap_mc(D01.sampler(), 1.0, 1, seed=0)

    def test_moment_hint_enforced(self):
        s = Sampler(draw=lambda rng, size: rng.standard_normal(size), moment_hint=1.0)
        with pytest.raises(ValueError):
            gap_mc(s, 1.5, 100, seed=0)


class TestSupnormBound:
    def test_asymmetric(self):
        # oracle: support enumeration of {-3, 1}
        b = supnorm_bound(DiscreteDist([(-3.0, 0.5), (1.0, 0.5)]))
        assert b == (-3.0, 1.0, 4.0, 6.0)
        assert b.lhs < b.rhs

    def test_degenerate(self):
        b = supnorm_bound(DiscreteDist([(2.5, 1.0)]))
        assert (b.lhs, b.rhs) == (0.0, 5.0)

    def test_symmetric_support_equality(self):
        b = supnorm_bound(DiscreteDist([(-5.0, 0.5), (5.0, 0.5)]))
        assert b.lhs == b.rhs == 10.0

    def test_property_sweep(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            d = random_dist(rng)
            b = supnorm_bound(d)
            assert b.lhs <= b.rhs
            if b.m_lo == -b.m_hi:
                assert b.lhs == b.rhs
            else:
                assert b.lhs < b.rhs
        for _ in range(100):
            d = mirrored_support_dist(rng)
            b = supnorm_bound(d)
            assert b.lhs == b.rhs


class TestGapReportJson:
    def test_exact_fields(self):
        out = gap_exact(D01, 1.0).as_json_dict()
        assert out == {"alpha": 1.0, "e_plus": 1.0, "e_minus": 0.5, "gap": 0.5, "route": "exact"}

    def test_mc_fields(self):
        r = gap_mc(D01.sampler(), 1.0, 1000, seed=1)
        out = r.as_json_dict()
        assert set(out) == {"alpha", "e_plus", "e_minus", "gap", "route", "n", "stderr"}
        assert out["n"] == 1000
