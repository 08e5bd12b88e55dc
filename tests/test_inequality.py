import json
import math
import subprocess
import sys

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
    normal_sampler,
    supnorm_bound,
)
from bifrac._rng import substream
from bifrac.inequality import MC_CHUNK, _gap_mc_law, _mc_chunk

from _support import (
    gauss_gap,
    has_avx512,
    mirrored_support_dist,
    random_dist,
    run_without_avx512,
    symmetric_dist,
)

ALPHAS = (0.1, 0.5, 1.0, 1.3, 1.7, 2.0)

D01 = DiscreteDist([(0.0, 0.5), (1.0, 0.5)])
DPM = DiscreteDist([(-1.0, 0.5), (1.0, 0.5)])


# Samplers for the _mc_chunk checks.  |x - y| is 0 in 38-58% of the lanes
# of the first three laws, and |x + y| in half of the mirrored law's.
_CHUNK_SAMPLERS = {
    "two_atoms": DiscreteDist([(-1.0, 0.3), (2.5, 0.7)]).sampler(),
    "mirrored": DPM.sampler(),
    "atom_at_zero": DiscreteDist([(-1.5, 0.2), (0.0, 0.5), (1.0, 0.3)]).sampler(),
    "cauchy_700": DiscreteDist(
        [(x, 1 / 700) for x in np.unique(np.random.default_rng(49).standard_cauchy(700)).tolist()]
    ).sampler(),
    "int_draws": Sampler(draw=lambda rng, size: rng.integers(-3, 4, size), moment_hint=math.inf),
    "float32_draws": Sampler(
        draw=lambda rng, size: rng.standard_normal(size, dtype=np.float32), moment_hint=math.inf
    ),
}

# 0.5 and 2.0 take numpy's sqrt and square fast paths for a ** alpha.
_CHUNK_ALPHAS = (0.3, 0.5, 1.0, 1.3, 2.0)


def _chunk_sums(name, size, alpha):
    work = [np.full(MC_CHUNK, np.nan) for _ in range(3)]
    return _mc_chunk(_CHUNK_SAMPLERS[name], alpha, 5, 3, size, work)


def _chunk_reference(name, size, alpha):
    """_mc_chunk's sums from the same draws as float64, by the plain array
    formula."""
    sampler = _CHUNK_SAMPLERS[name]
    x, y = (sampler.draw(substream(5, i, 3), size).astype(np.float64) for i in (0, 1))
    ap, am = np.abs(x + y) ** alpha, np.abs(x - y) ** alpha
    dv = ap - am
    sum_d = float(np.sum(dv))
    dv -= sum_d / size
    return float(np.sum(ap)), float(np.sum(am)), sum_d, float(np.sum(dv * dv))


_ZERO_LANE_CHECK = """
import sys
sys.path[:0] = [sys.argv[1]]
from test_inequality import MC_CHUNK, _CHUNK_ALPHAS, _chunk_reference, _chunk_sums
for name in ("two_atoms", "mirrored", "atom_at_zero"):
    for alpha in _CHUNK_ALPHAS:
        for size in (MC_CHUNK, 777):
            assert _chunk_sums(name, size, alpha) == _chunk_reference(name, size, alpha), (name, alpha)
print("ok")
"""


# Minor page faults of gap_mc over 32 chunks minus those over 4, per sampler.
_FAULT_CHECK = """
import json, math, resource, sys
import numpy as np
from bifrac import DiscreteDist, Sampler, gap_mc
from bifrac._rng import substream
from bifrac.inequality import MC_CHUNK
workers = int(sys.argv[1])
rng = np.random.default_rng(50)
d = DiscreteDist([(x, 1 / 127) for x in rng.uniform(-5.0, 5.0, 127).tolist()])
cached = d.sampler().draw(substream(1, 0, 0), MC_CHUNK)
cached.setflags(write=False)
samplers = {
    "fills": d.sampler(),
    "cached": Sampler(draw=lambda rng, size: cached[:size], moment_hint=math.inf),
}
extra = {}
for name, s in samplers.items():
    gap_mc(s, 1.3, 4 * MC_CHUNK, seed=1, workers=workers)  # lazy imports and first buffers
    faults = []
    for chunks in (4, 32):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        gap_mc(s, 1.3, chunks * MC_CHUNK, seed=1, workers=workers)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    extra[name] = faults[1] - faults[0]
print(json.dumps(extra))
"""


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

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "d", [DiscreteDist([(0.1, 0.5), (0.2, 0.5)]), D01], ids=["small_atoms", "atom_at_zero"]
    )
    def test_non_finite_alpha_rejected(self, d, alpha):
        # At alpha = inf the small atoms' moments came out 0 and D01's
        # rescaling failed on a NaN exponent.
        with pytest.raises(NonFiniteError):
            gap_exact(d, alpha)

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
    def test_law_in_range_is_drawn_as_given(self, workers):
        d = DiscreteDist([(-2.0, 0.25), (0.5, 0.5), (3.0, 0.25)])
        n = MC_CHUNK + 1000
        assert _gap_mc_law(d, 1.3, n, 5, workers) == gap_mc(d.sampler(), 1.3, n, seed=5)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_law_past_double_range_is_drawn_rescaled(self, workers):
        # Pairs of ``big`` overflow; _in_range scales it by 2**-1025, which
        # gives ``small``, and maps alpha = 1 moments back exactly.
        small = DiscreteDist([(-0.375, 0.5), (0.4, 0.5)])
        big = DiscreteDist([(math.ldexp(x, 1025), p) for x, p in small.atoms])
        n = MC_CHUNK + 1000
        r, ref = _gap_mc_law(big, 1.0, n, 5, workers), gap_mc(small.sampler(), 1.0, n, seed=5)
        assert (r.e_plus, r.e_minus, r.stderr) == tuple(
            math.ldexp(v, 1025) for v in (ref.e_plus, ref.e_minus, ref.stderr)
        )
        assert abs(r.gap - gap_exact(big, 1.0).gap) <= 4 * r.stderr

    def test_law_alpha_checked_before_rescaling(self):
        with pytest.raises(OutOfDomainError):
            _gap_mc_law(DiscreteDist([(0.0, 1.0)]), -1.0, 100, 1)

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

    @pytest.mark.parametrize("alpha", _CHUNK_ALPHAS)
    @pytest.mark.parametrize("size", [MC_CHUNK, 777])
    @pytest.mark.parametrize("name", list(_CHUNK_SAMPLERS))
    def test_chunk_matches_reference_formula(self, name, size, alpha):
        assert _chunk_sums(name, size, alpha) == _chunk_reference(name, size, alpha)

    @pytest.mark.skipif(not has_avx512(), reason="needs a CPU with numpy's X86_V4 kernels")
    def test_zero_lanes_without_avx512_kernels(self):
        # The zero lanes are set aside for the AVX-512 pow; without it the
        # chunk sums must still be the plain formula's.
        r = run_without_avx512(_ZERO_LANE_CHECK)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "ok"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunks_fault_in_no_new_memory(self, workers):
        # Each worker keeps its buffers for all of its chunks, so 28 more
        # chunks add no page faults that grow with the chunk count (about
        # 250 per chunk if each one allocated its arrays anew).  This holds
        # for a sampler that fills them and for one that returns a cached,
        # read-only array, which is copied in.  A fresh interpreter counts
        # them: after other tests, glibc may hand a freed array's pages to
        # the next one without a fault, which hides per-chunk arrays.
        r = subprocess.run(
            [sys.executable, "-c", _FAULT_CHECK, str(workers)], capture_output=True, text=True
        )
        assert r.returncode == 0, r.stderr
        extra = json.loads(r.stdout)
        assert all(v < 1000 for v in extra.values()), extra

    def test_integer_draws(self):
        # Integer draws are summed as floats, whether alpha is an int or not.
        s = Sampler(draw=lambda rng, size: rng.integers(-3, 4, size), moment_hint=math.inf)
        assert gap_mc(s, 2, 1000, seed=1) == gap_mc(s, 2.0, 1000, seed=1)

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng, size: rng.standard_normal(),  # one value, not size of them
            lambda rng, size: rng.standard_normal(1),
            lambda rng, size: rng.standard_normal(size - 1),
            lambda rng, size: rng.standard_normal((1, size)),
        ],
        ids=["scalar", "one", "short", "row"],
    )
    def test_rejects_draws_not_of_shape_size(self, draw):
        # numpy would broadcast the first two over the chunk.
        with pytest.raises(ValueError, match="shape"):
            gap_mc(Sampler(draw=draw, moment_hint=math.inf), 1.0, 1000, seed=1)

    def test_rejects_complex_draws(self):
        s = Sampler(draw=lambda rng, size: rng.standard_normal(size) + 0j, moment_hint=math.inf)
        with pytest.raises(ValueError, match="complex"):
            gap_mc(s, 1.0, 1000, seed=1)

    def test_rejects_workers_below_one(self):
        for workers in (0, -2):
            with pytest.raises(ValueError):
                gap_mc(D01.sampler(), 1.0, 100, seed=0, workers=workers)

    @pytest.mark.parametrize(
        "workers,cpus,chunks,threads",
        [(10**6, 3, 4, [3]), (8, 16, 2, [2]), (4, 2, 4, [2]), (4, None, 4, []), (1, 8, 4, [])],
    )
    def test_thread_count_clamped(self, monkeypatch, workers, cpus, chunks, threads):
        # Without an affinity call the cap is os.cpu_count().
        from bifrac import inequality

        monkeypatch.delattr(inequality.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(inequality.os, "cpu_count", lambda: cpus)
        assert self._threads_started(monkeypatch, workers, chunks) == threads

    @pytest.mark.parametrize("workers,affinity,threads", [(4, {0}, []), (4, {0, 5}, [2])])
    def test_thread_count_follows_affinity(self, monkeypatch, workers, affinity, threads):
        # The affinity set caps the threads below os.cpu_count(), as under
        # `taskset -c 0`.
        from bifrac import inequality

        monkeypatch.setattr(inequality.os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(inequality.os, "cpu_count", lambda: 8)
        assert self._threads_started(monkeypatch, workers, 4) == threads

    @staticmethod
    def _threads_started(monkeypatch, workers, chunks):
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
        n = chunks * inequality.MC_CHUNK
        r = gap_mc(D01.sampler(), 1.0, n, seed=9, workers=workers)
        assert r == gap_mc(D01.sampler(), 1.0, n, seed=9, workers=1)
        return started

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            gap_mc(D01.sampler(), 1.0, 1, seed=0)

    def test_moment_hint_enforced(self):
        s = Sampler(draw=lambda rng, size: rng.standard_normal(size), moment_hint=1.0)
        with pytest.raises(ValueError):
            gap_mc(s, 1.5, 100, seed=0)


def _normal(mu, sigma):
    """N(mu, sigma**2), drawn through normal_sampler into gap_mc's buffers."""
    standard = normal_sampler()

    def draw(rng, size, out=None):
        out = standard.draw(rng, size, out=out)
        out *= sigma
        out += mu
        return out

    return Sampler(draw=draw, moment_hint=math.inf, fills=True)


def _gauss_stderr(mu, sigma, alpha, n):
    """Standard error of the mean of dv = |X+Y|**alpha - |X-Y|**alpha over n
    pairs.  X+Y and X-Y are uncorrelated jointly normal, so independent, and
    Var dv = E|X+Y|**(2 alpha) + E|X-Y|**(2 alpha)
             - 2 E|X+Y|**alpha E|X-Y|**alpha - gap**2."""
    e_minus, gap = gauss_gap(mu, sigma, alpha)
    e2_minus, gap2 = gauss_gap(mu, sigma, 2 * alpha)
    var = 2 * e2_minus + gap2 - 2 * (e_minus + gap) * e_minus - gap**2
    return math.sqrt(var / n)


class TestGaussianOracle:
    """gap_mc on N(mu, sigma**2) against the closed form of gauss_gap."""

    CASES = [(0.3, 1.0, 0.2), (1.0, 2.0, 0.7), (-1.5, 0.5, 1.0), (2.0, 1.0, 1.5), (0.5, 3.0, 2.0)]

    def test_consistency_rate(self):
        # >= 95% of 100 (case, seed) runs land within 4 stderr of the
        # closed form, and each stderr is near its closed form.
        n, hits = 100_000, 0
        for mu, sigma, alpha in self.CASES:
            e_minus, gap = gauss_gap(mu, sigma, alpha)
            for seed in range(20):
                r = gap_mc(_normal(mu, sigma), alpha, n, seed=seed, workers=2)
                assert r.stderr == pytest.approx(_gauss_stderr(mu, sigma, alpha, n), rel=0.05)
                hits += abs(r.gap - gap) <= 4 * r.stderr
        assert hits >= 95

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.8])
    def test_near_symmetric(self, alpha):
        # mu / sigma = 1e-3: the gap (about alpha * 1e-6 * e_minus) is far
        # below the noise, and stderr must be the spread of dv about its own
        # mean, as the closed form gives it.
        mu, sigma, n = 2e-3, 2.0, 10**6
        e_minus, gap = gauss_gap(mu, sigma, alpha)
        assert 0 < gap < 1e-5 * e_minus
        r = gap_mc(_normal(mu, sigma), alpha, n, seed=51, workers=2)
        assert r.e_minus == pytest.approx(e_minus, rel=0.01)
        assert abs(r.gap - gap) <= 4 * r.stderr
        assert r.stderr == pytest.approx(_gauss_stderr(mu, sigma, alpha, n), rel=0.01)

    @pytest.mark.parametrize("mu,sigma", [(0.5, 1.0), (-3.0, 0.25), (1e-3, 1.0)])
    def test_alpha_two_gap_is_four_mean_squared(self, mu, sigma):
        # E|X+Y|**2 - E|X-Y|**2 = 4 E[XY] = 4 mu**2.
        e_minus, gap = gauss_gap(mu, sigma, 2.0)
        assert e_minus == pytest.approx(2 * sigma**2, rel=1e-14)
        assert gap == pytest.approx(4 * mu**2, rel=1e-14)
        r = gap_mc(_normal(mu, sigma), 2.0, 200_000, seed=52)
        assert abs(r.gap - 4 * mu**2) <= 4 * r.stderr


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
