import concurrent.futures
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bifrac import (
    DiscreteDist,
    InvalidInputError,
    NonFiniteError,
    dist_from_json,
    dist_to_json,
    expect,
    expect_pair,
    normal_sampler,
)
from bifrac._guide import guide_draw
from bifrac._rng import substream
from bifrac.dists import _pair_sum
from bifrac.inequality import MC_CHUNK

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

    def test_accepts_rows_of_an_array_and_lists(self):
        # Mappings and sets are refused as atoms; other pairs are not.
        d = DiscreteDist([(0.0, 0.5), (1.0, 0.5)])
        assert DiscreteDist(np.array([[0.0, 0.5], [1.0, 0.5]])) == d
        assert DiscreteDist([[0.0, 0.5], [1.0, 0.5]]) == d

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

    def test_float32_values_weighted_as_float64(self):
        # p * float(f(x)), not p * np.float32(...), which numpy rounds to
        # float32 (NEP 50): the latter sums to 0.5666666775941849.
        d = DiscreteDist([(1, 0.3), (2, 0.7)])
        assert expect(d, lambda x: np.float32(x / 3)) == 0.5666666835546493


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

    def test_total_past_double_range_raises(self):
        # Each term 0.04 * DBL_MAX is finite; their total is not.
        d = DiscreteDist([(float(x), 0.2) for x in range(5)])
        with pytest.raises(NonFiniteError):
            expect_pair(d, lambda u, v: np.full(np.broadcast_shapes(u.shape, v.shape), sys.float_info.max))

    def test_g_overflow_raises_nonfinite(self):
        # An OverflowError of g is a pair term past double range.
        d = DiscreteDist([(0.0, 0.5), (1.0, 0.5)])
        with pytest.raises(NonFiniteError, match="a pair term or the sum"):
            expect_pair(d, lambda u, v: u + v + 10.0**400)

    def test_pair_sum_tolerance_scale(self):
        # scale sums |a_i a_j t_ij| over the whole table, starting from 0.
        def pair_sum(a, t):
            return _pair_sum(np.array(a), lambda lo, hi, work: t[lo:hi, lo:], lambda i, j: "not finite")

        assert pair_sum([0.5, 0.5], np.full((2, 2), -1.0)) == (-1.0, 1.0)
        a = np.array([0.25, 0.5, 0.25])
        t = np.array([[1.0, -2.0, 3.0], [-2.0, 5.0, -1.0], [3.0, -1.0, -4.0]])
        terms = (a[:, None] * a * t).ravel()
        assert pair_sum(a, t) == (math.fsum(terms), math.fsum(np.abs(terms))) == (0.6875, 2.6875)


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


def _clustered_law() -> DiscreteDist:
    """10 atoms of mass 1, each followed by 4 of mass 1e-7, normalized: the
    guide buckets at the 10 heavy breakpoints each hold 5 breakpoints."""
    ws = [1.0 if i % 5 == 0 else 1e-7 for i in range(50)]
    total = math.fsum(ws)
    return DiscreteDist([(float(i), w / total) for i, w in enumerate(ws)])


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
    @example(_clustered_law(), 31, 0, 4, 65_536)
    def test_discrete_sampler_matches_choice(self, d, seed, stream, chunk, size):
        # rng.choice is the reference: the guide table must return its stream.
        xs, ps = np.array(d.values()), np.array(d.probs())
        got = d.sampler().draw(substream(seed, stream, chunk), size)
        want = substream(seed, stream, chunk).choice(xs, size=size, p=ps)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        # The atom indices the counted mc route draws are those of the values.
        index_draw = guide_draw(d.probs(), np.arange(len(d)))
        at = index_draw(substream(seed, stream, chunk), size, np.empty(size, np.intp))
        assert np.array_equal(np.take(xs, at), got)

    @pytest.mark.parametrize(
        "bits",
        [np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.MT19937, np.random.Philox],
    )
    def test_discrete_sampler_matches_choice_on_other_generators(self, bits):
        # Raw 64-bit words where they make the uniforms, the uniforms
        # themselves on MT19937; either way choice's stream of the payload,
        # into out or not.  One guide_draw serves the atom values (the
        # sampler's) and the atom indices.  The last law's smallest atom is
        # -DBL_MAX, so only -inf marks a bucket to resolve below it.
        laws = (
            _sampled_law(300, "spread", 6),
            _clustered_law(),
            DiscreteDist([(-1.7976931348623157e308, 0.3), (0.0, 0.2), (5.0, 0.5)]),
        )
        for d in laws:
            xs, ps = np.array(d.values()), np.array(d.probs())
            for payload in (xs, np.arange(len(xs))):
                want = np.random.Generator(bits(8)).choice(payload, size=20_000, p=ps)
                draw = guide_draw(d.probs(), payload)
                got = draw(np.random.Generator(bits(8)), 20_000)
                out = np.empty(20_000, payload.dtype)
                assert draw(np.random.Generator(bits(8)), 20_000, out) is out
                assert got.dtype == want.dtype and np.array_equal(got, want) and np.array_equal(out, want)
            assert np.array_equal(np.take(xs, got), d.sampler().draw(np.random.Generator(bits(8)), 20_000))

    @pytest.mark.parametrize(
        "args",
        [
            (-1,), (1.5,), ("3",), (None,), (10**30,), (2**60,),
            (3, np.empty(5)), (3, np.empty(3, np.float32)), (3, np.empty(3, np.int32)),
            (3, np.empty(6)[::2]), (3, np.empty((3, 1))), (3, [0.0] * 3),
            (3, np.broadcast_to(np.empty(3), 3)),  # read-only
            # An rng that is not a Generator, made from the bit generator.
            (np.random.RandomState, 3), (lambda bits: None, 3), (lambda bits: bits, 3),
        ],
    )
    @pytest.mark.parametrize("bits", [np.random.SFC64, np.random.MT19937])
    @pytest.mark.parametrize("kind", ["law", "index", "normal"])
    def test_draw_rejects_bad_size_or_out(self, kind, bits, args):
        # A size that is not an int >= 0 or is past numpy's largest array
        # of 8-byte values (2**60), or an out that is not a writeable
        # C-contiguous float64 (for indices, intp) array of size values;
        # float32 and int32 are the wrong dtype for each.  A RandomState,
        # None or a bare bit generator is not a Generator.
        d = DiscreteDist([(-1.0, 0.25), (2.0, 0.75)])
        draw = {
            "law": d.sampler().draw,
            "index": guide_draw(d.probs(), np.arange(2)),
            "normal": normal_sampler().draw,
        }[kind]
        rng = np.random.Generator(bits(1))
        if callable(args[0]):
            rng, args = args[0](bits(1)), args[1:]
        with pytest.raises(InvalidInputError):
            draw(rng, *args)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 1), st.integers(0, 100))
    def test_substream_uniforms_are_top_53_bits(self, seed, stream, chunk):
        # The guide table reads the raw words in place of random(); if numpy
        # changed how it makes a double, this fails instead of the mc stream
        # moving.
        words = substream(seed, stream, chunk).bit_generator.random_raw(3000)
        want = substream(seed, stream, chunk).random(3000)
        assert np.array_equal(((words >> 11) * 2**-53).view(np.uint64), want.view(np.uint64))

    def test_normal_sampler(self):
        s = normal_sampler()
        assert s.moment_hint == math.inf
        draws = s.draw(np.random.Generator(np.random.Philox(7)), 100_000)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.std() - 1.0) < 0.02


_FILLING_LAWS = {
    "two_atoms": DiscreteDist([(-1.0, 0.3), (2.5, 0.7)]),
    "atom_at_zero": DiscreteDist([(-1.5, 0.2), (0.0, 0.5), (1.0, 0.3)]),
    "cauchy_700": DiscreteDist(
        [(x, 1 / 700) for x in np.unique(np.random.default_rng(49).standard_cauchy(700)).tolist()]
    ),
    "normal": None,
}


class TestDrawInto:
    """Samplers that ``fills``: a draw into ``out`` is the plain draw."""

    @staticmethod
    def _sampler(name):
        d = _FILLING_LAWS[name]
        s = normal_sampler() if d is None else d.sampler()
        assert s.fills
        return s

    @pytest.mark.parametrize("size", [1, 777, MC_CHUNK])
    @pytest.mark.parametrize("name", list(_FILLING_LAWS))
    def test_fill_is_the_plain_draw(self, name, size):
        s = self._sampler(name)
        out = np.full(size, np.nan)
        got = s.draw(substream(11, 1, 2), size, out=out)
        assert got is out
        want = s.draw(substream(11, 1, 2), size)
        assert want.dtype == out.dtype and np.array_equal(out, want)
        d = _FILLING_LAWS[name]
        if d is not None:
            choice = substream(11, 1, 2).choice(np.array(d.values()), size=size, p=np.array(d.probs()))
            assert np.array_equal(out, choice)

    @pytest.mark.parametrize("into", [False, True])
    @pytest.mark.parametrize("bits", [np.random.SFC64, np.random.MT19937])
    @pytest.mark.parametrize("name", list(_FILLING_LAWS))
    def test_size_zero_on_a_fresh_thread(self, name, bits, into):
        # A thread's first draw is of no values: it returns an empty array.
        s = self._sampler(name)
        out = np.empty(0) if into else None
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            got = pool.submit(s.draw, np.random.Generator(bits(3)), 0, out=out).result()
        assert got.shape == (0,) and got.dtype == np.float64
        if into:
            assert got is out

    def test_a_thread_holds_nothing_after_its_draws(self):
        # A draw resolves its buckets in the array it returns, so a fresh
        # thread's draws leave nothing held, and a draw into out allocates
        # its raw words (MC_CHUNK * 8 bytes) and little more; bucket indices
        # of its own would take as much again.
        s = DiscreteDist([(-1.0, 0.25), (2.0, 0.75)]).sampler()
        rng = np.random.Generator(np.random.SFC64(5))
        out = np.empty(MC_CHUNK)

        def draws():
            tracemalloc.start()
            try:
                s.draw(rng, MC_CHUNK, out=out)
                s.draw(rng, 10**6)
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                s.draw(rng, MC_CHUNK, out=out)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return held, peak

        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            held, peak = pool.submit(draws).result()
        assert held < 4096
        assert peak < 1.25 * MC_CHUNK * 8

    @pytest.mark.parametrize("bits", [np.random.SFC64, np.random.MT19937])
    @pytest.mark.parametrize("payload", ["values", "indices"])
    @pytest.mark.parametrize("name", ["two_atoms", "cauchy_700"])
    def test_fill_into_a_prefix_of_a_workspace(self, name, payload, bits):
        # The mc routes draw into work[:size] of a longer workspace: the
        # draw is rng.choice's, and the rest of work is left as it was.
        d = _FILLING_LAWS[name]
        xs, ps = np.array(d.values()), np.array(d.probs())
        payload = xs if payload == "values" else np.arange(len(xs))
        draw = guide_draw(d.probs(), payload)
        for size in (0, 777, MC_CHUNK - 1):
            work = np.full(MC_CHUNK, -7, payload.dtype)
            out = work[:size]
            assert draw(np.random.Generator(bits(4)), size, out) is out
            assert np.array_equal(out, np.random.Generator(bits(4)).choice(payload, size, p=ps))
            assert (work[size:] == -7).all()

    @pytest.mark.parametrize("name", list(_FILLING_LAWS))
    def test_threads_fill_as_one_after_the_other(self, name):
        # Two threads fill from one sampler at once, each through its own
        # buffers, with a short switch interval so they interleave; every
        # fill must equal the same draw made alone.
        s = self._sampler(name)
        sizes = [1, 777, MC_CHUNK] * 4
        want = [s.draw(substream(12, t, c), size) for t in range(2) for c, size in enumerate(sizes)]
        got = [[], []]
        start = threading.Barrier(2, timeout=30)

        def fill(t):
            start.wait()
            for c, size in enumerate(sizes):
                got[t].append(s.draw(substream(12, t, c), size, out=np.full(size, np.nan)).copy())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill, args=(t,)) for t in range(2)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert [len(g) for g in got] == [len(sizes)] * 2
        assert all(map(np.array_equal, got[0] + got[1], want))


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
