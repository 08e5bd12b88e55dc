import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bifrac import (
    DiscreteDist,
    NonFiniteError,
    dist_from_json,
    dist_to_json,
    expect,
    expect_pair,
    normal_sampler,
)
from bifrac._rng import substream

from _support import random_dist


class TestConstruction:
    def test_canonical_order_and_merge(self):
        d = DiscreteDist([(2.0, 0.25), (-1.0, 0.5), (2.0, 0.25)])
        assert d.values() == (-1.0, 2.0)
        assert d.probs() == (0.5, 0.5)

    def test_rejects_nonpositive_prob(self):
        with pytest.raises(ValueError):
            DiscreteDist([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError):
            DiscreteDist([(0.0, -0.5), (1.0, 1.5)])

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            DiscreteDist([(0.0, 0.5), (1.0, 0.6)])

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteError):
            DiscreteDist([(math.nan, 1.0)])
        with pytest.raises(NonFiniteError):
            DiscreteDist([(0.0, math.inf)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DiscreteDist([])

    def test_accepts_tolerated_total_and_renormalizes(self):
        d = DiscreteDist([(0.0, 0.5 + 4e-13), (1.0, 0.5)])
        assert math.fsum(d.probs()) == 1.0

    def test_renormalization_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            d1 = random_dist(rng)
            d2 = DiscreteDist(d1.atoms)
            assert d1.atoms == d2.atoms

    def test_renormalization_idempotent_adversarial(self):
        for n in (2, 3, 7, 10, 40):
            d1 = DiscreteDist([(float(i), 1.0 / n) for i in range(n)])
            d2 = DiscreteDist(d1.atoms)
            assert d1.atoms == d2.atoms


class TestExpect:
    def test_identity(self):
        d = DiscreteDist([(0.0, 0.5), (1.0, 0.5)])
        assert expect(d, lambda x: x) == 0.5

    def test_degenerate_abs_power(self):
        d = DiscreteDist([(-2.5, 1.0)])
        assert expect(d, lambda x: abs(x) ** 1.7) == abs(-2.5) ** 1.7

    def test_odd_symmetry(self):
        d = DiscreteDist([(-1.0, 0.5), (1.0, 0.5)])
        assert expect(d, lambda x: x**3) == 0.0

    def test_nonfinite_raises(self):
        d = DiscreteDist([(0.0, 0.5), (1.0, 0.5)])
        with pytest.raises(NonFiniteError):
            expect(d, lambda x: math.inf)


class TestExpectPair:
    def test_abs_sum(self):
        d = DiscreteDist([(0.0, 0.5), (1.0, 0.5)])
        # oracle: fsum over the 4 explicit pairs
        oracle = math.fsum(
            p1 * p2 * abs(x1 + x2) for x1, p1 in d.atoms for x2, p2 in d.atoms
        )
        assert oracle == 1.0
        assert expect_pair(d, lambda u, v: abs(u + v)) == oracle

    def test_abs_diff(self):
        d = DiscreteDist([(0.0, 0.5), (1.0, 0.5)])
        oracle = math.fsum(
            p1 * p2 * abs(x1 - x2) for x1, p1 in d.atoms for x2, p2 in d.atoms
        )
        assert oracle == 0.5
        assert expect_pair(d, lambda u, v: abs(u - v)) == oracle

    def test_total_mass(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = random_dist(rng)
            assert abs(expect_pair(d, lambda u, v: 1.0) - 1.0) < 1e-14

    def test_product_distribution_oracle(self):
        # expect_pair must agree with the expectation over the explicitly
        # enumerated product law, summed independently by fsum.
        rng = np.random.default_rng(9)
        for _ in range(200):
            d = random_dist(rng)
            for g in (
                lambda u, v: abs(u + v) ** 1.3,
                lambda u, v: abs(u - v),
                lambda u, v: u * v,
            ):
                product_atoms = [
                    (p1 * p2, g(x1, x2)) for x1, p1 in d.atoms for x2, p2 in d.atoms
                ]
                oracle = math.fsum(w * val for w, val in product_atoms)
                scale = math.fsum(abs(w * val) for w, val in product_atoms)
                assert abs(expect_pair(d, g) - oracle) <= 1e-14 * max(scale, 1.0)


def _sampled_law(k: int, shape: str, seed: int) -> DiscreteDist:
    """A law of k atoms: masses even, spread over 1e-300 .. 1, or one heavy
    atom beside k - 1 light ones of relative mass 1e-12."""
    rng = np.random.default_rng(seed)
    xs = np.arange(k) - 0.5 * k + rng.uniform(-0.25, 0.25, size=k)
    if shape == "even":
        ws = 0.05 + rng.random(k)
    elif shape == "spread":
        ws = 10.0 ** rng.uniform(-300.0, 0.0, size=k)
        ws[rng.integers(k)] = 1.0
    else:
        ws = np.full(k, 1e-12)
        ws[rng.integers(k)] = 1.0
    return DiscreteDist(list(zip(xs.tolist(), (ws / math.fsum(ws)).tolist())))


class TestSamplers:
    def test_discrete_sampler_deterministic(self):
        d = DiscreteDist([(-1.0, 0.25), (0.0, 0.25), (3.0, 0.5)])
        s = d.sampler()
        draws1 = s.draw(np.random.Generator(np.random.Philox(5)), 1000)
        draws2 = s.draw(np.random.Generator(np.random.Philox(5)), 1000)
        assert np.array_equal(draws1, draws2)
        assert set(np.unique(draws1)) <= {-1.0, 0.0, 3.0}

    def test_discrete_sampler_frequencies(self):
        d = DiscreteDist([(0.0, 0.25), (1.0, 0.75)])
        s = d.sampler()
        draws = s.draw(np.random.Generator(np.random.Philox(6)), 100_000)
        assert abs(draws.mean() - 0.75) < 0.01

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.builds(_sampled_law, st.integers(1, 1000), st.sampled_from(("even", "spread", "heavy")),
                  st.integers(0, 2**32 - 1)),
        st.integers(0, 2**32 - 1),
        st.integers(0, 1),
        st.integers(0, 100),
        st.sampled_from((0, 1, 3392, 65_536)),
    )
    @example(_sampled_law(1, "even", 0), 17, 0, 0, 65_536)
    @example(_sampled_law(1000, "spread", 1), 23, 1, 3, 65_536)
    @example(_sampled_law(600, "heavy", 2), 5, 0, 1, 3392)
    @example(_sampled_law(2, "spread", 3), 0, 1, 2, 1)
    @example(_sampled_law(300, "even", 4), 9, 0, 0, 0)
    @example(_sampled_law(40_000, "even", 5), 3, 1, 0, 65_536)
    def test_discrete_sampler_matches_choice(self, d, seed, stream, chunk, size):
        # rng.choice is the reference: the guide table must return its stream.
        xs, ps = np.array(d.values()), np.array(d.probs())
        got = d.sampler().draw(substream(seed, stream, chunk), size)
        want = substream(seed, stream, chunk).choice(xs, size=size, p=ps)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_normal_sampler(self):
        s = normal_sampler()
        assert s.moment_hint == math.inf
        draws = s.draw(np.random.Generator(np.random.Philox(7)), 100_000)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.std() - 1.0) < 0.02


class TestJson:
    def test_round_trip(self):
        d = DiscreteDist([(-3.0, 0.125), (0.5, 0.875)])
        assert dist_from_json(dist_to_json(d)) == d

    def test_round_trip_through_text(self):
        d = DiscreteDist([(-3.0, 0.125), (0.5, 0.875)])
        assert dist_from_json(json.loads(json.dumps(dist_to_json(d)))) == d

    def test_rejects_duplicate_x(self):
        with pytest.raises(ValueError):
            dist_from_json({"atoms": [{"x": 1.0, "p": 0.5}, {"x": 1.0, "p": 0.5}]})

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            dist_from_json({"atoms": [{"x": 0.0, "p": 0.0}, {"x": 1.0, "p": 1.0}]})

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            dist_from_json({"atoms": [{"x": 0.0, "p": 0.5}, {"x": 1.0, "p": 0.5 + 1e-9}]})

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            dist_from_json({"nope": []})
        with pytest.raises(ValueError):
            dist_from_json({"atoms": []})
        with pytest.raises(ValueError):
            dist_from_json({"atoms": [{"x": 1.0}]})

    @pytest.mark.parametrize("bad", ["1.5", "1", True, False, None, [1.0], {"v": 1.0}])
    def test_rejects_non_numbers(self, bad):
        with pytest.raises(ValueError):
            dist_from_json({"atoms": [{"x": bad, "p": 1.0}]})
        with pytest.raises(ValueError):
            dist_from_json({"atoms": [{"x": 1.0, "p": bad}]})

    def test_accepts_integers(self):
        assert dist_from_json({"atoms": [{"x": -2, "p": 1}]}) == DiscreteDist([(-2.0, 1.0)])
