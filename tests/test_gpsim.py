import io
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifrac import (
    BifParams,
    CovMatrix,
    NotPSDError,
    OutOfDomainError,
    PathBatch,
    TimeGrid,
    build_cov_matrix,
    check_psd,
    cholesky_factor,
    cov,
    sample_paths,
    validate_params,
)

from bifrac import gpsim
from bifrac._rng import substream
from _support import has_avx512, random_domain_params, run_without_avx512


class TestBuildCovMatrix:
    def test_brownian_min_matrix(self):
        m = build_cov_matrix(validate_params(0.5, 1.0), TimeGrid((1.0, 2.0, 3.0)))
        assert np.array_equal(m.entries, [[1, 1, 1], [1, 2, 2], [1, 2, 3]])

    def test_zero_grid(self):
        m = build_cov_matrix(validate_params(0.5, 1.0), TimeGrid((0.0,)))
        assert np.array_equal(m.entries, [[0.0]])

    def test_entries_from_scalar_kernel(self):
        # oracle: scalar cov calls
        p = validate_params(0.5, 0.5)
        m = build_cov_matrix(p, TimeGrid((1.0, 4.0)))
        off = 2.0**-0.5 * (5.0**0.5 - 3.0**0.5)
        assert m.entries[0, 1] == pytest.approx(off, rel=1e-15)
        assert m.entries[0, 0] == cov(p, 1.0, 1.0)
        assert m.entries[1, 1] == cov(p, 4.0, 4.0)
        assert m.entries[1, 1] == pytest.approx(2.0, rel=1e-15)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            h, k = random_domain_params(rng)
            pts = np.sort(rng.uniform(0.0, 100.0, size=8))
            m = build_cov_matrix(validate_params(h, k), TimeGrid(tuple(pts)))
            assert np.array_equal(m.entries, m.entries.T)


class TestCheckPsd:
    def test_rank_one_gram(self):
        m = CovMatrix(
            params=validate_params(0.5, 1.0),
            grid=TimeGrid((1.0, 2.0)),
            entries=np.array([[1.0, 1.0], [1.0, 1.0]]),
        )
        v = check_psd(m)
        assert v.is_psd

    def test_forced_hk_above_one_not_psd(self):
        # (H, K) = (1, 2): hand evaluation of the kernel gives
        # [[1, 6], [6, 16]] on {1, 2}, with determinant -20.
        m = build_cov_matrix(BifParams(1.0, 2.0), TimeGrid((1.0, 2.0)))
        assert np.array_equal(m.entries, [[1.0, 6.0], [6.0, 16.0]])
        v = check_psd(m)
        assert not v.is_psd
        assert v.min_eig < 0
        eigs = np.linalg.eigvalsh(m.entries)
        assert eigs[0] * eigs[1] == pytest.approx(-20.0, rel=1e-12)

    def test_random_domain_sweep_is_psd(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            h, k = random_domain_params(rng)
            n = int(rng.integers(2, 33))
            pts = np.unique(rng.uniform(1e-3, 100.0, size=n))
            m = build_cov_matrix(validate_params(h, k), TimeGrid(tuple(pts)))
            v = check_psd(m, tol=1e-8)
            assert v.is_psd
            assert v.min_eig >= -1e-8 * m.scale

    def test_tol_must_be_positive(self):
        m = build_cov_matrix(validate_params(0.5, 1.0), TimeGrid((1.0,)))
        with pytest.raises(ValueError):
            check_psd(m, tol=0.0)
        with pytest.raises(ValueError):
            check_psd(m, tol=math.nan)


def _fbm_defect(p: BifParams, ts: np.ndarray) -> np.ndarray:
    """C = 2**-K * (u**K + v**K - (u + v)**K) on the times ts, u = t**(2H)."""
    u = np.float_power(ts, 2.0 * p.H)
    uk = np.float_power(u, p.K)
    return 2.0**-p.K * (uk[:, None] + uk[None, :] - np.float_power(u[:, None] + u[None, :], p.K))


@st.composite
def _oracle_grids(draw):
    """Regular grids from t = 0, and multi-scale grids (t from 1e-6 to 1e3)
    with or without t = 0."""
    n = draw(st.integers(2, 60))
    if draw(st.booleans()):
        step = draw(st.floats(1e-3, 10.0))
        return TimeGrid.regular(0.0, step, n)
    exps = draw(st.lists(st.floats(-6.0, 3.0), min_size=n, max_size=n))
    pts = sorted(set(10.0**e for e in exps))
    return TimeGrid(tuple([0.0] * draw(st.booleans()) + pts))


# In-domain (H, K) with K away from 1, where C vanishes and its sign flips.
_oracle_params = st.tuples(
    st.floats(0.05, 1.0), st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 2.0))
).filter(lambda hk: hk[0] * hk[1] <= 1.0).map(lambda hk: validate_params(*hk))


class TestFbmDecomposition:
    """R_{H,K} + C = 2**(1-K) * R_{HK,1}, the fBm covariance of Hurst index
    HK, with C PSD for K < 1 (Lei & Nualart 2009) and -C PSD for K > 1
    (Bardina & Es-Sebaiy 2011): a PSD certificate that does not come from
    eigvalsh."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_oracle_params, _oracle_grids())
    def test_identity_and_sign_of_c(self, p, grid):
        ts = np.array(grid.points)
        r = build_cov_matrix(p, grid)
        fbm = build_cov_matrix(BifParams(p.H * p.K, 1.0), grid).entries
        c = _fbm_defect(p, ts)
        # Every term is at most a few times the largest diagonal entry of R.
        assert np.abs(r.entries + c - 2.0 ** (1.0 - p.K) * fbm).max() <= 8 * 2.0**-52 * r.scale
        signed = CovMatrix(p, grid, c if p.K < 1 else -c)
        assert check_psd(signed).is_psd
        if p.K > 1:  # R is the sum of two covariances
            assert check_psd(r).is_psd


class TestCholeskyFactor:
    def test_reconstruction(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            h, k = random_domain_params(rng)
            pts = np.unique(rng.uniform(1e-3, 50.0, size=12))
            m = build_cov_matrix(validate_params(h, k), TimeGrid(tuple(pts)))
            L = cholesky_factor(m)
            assert np.max(np.abs(L @ L.T - m.entries)) <= 1e-8 * m.scale

    def test_reconstruction_near_singular(self):
        # Nearly duplicated points make the matrix close to singular; it
        # still factors at the first rung (no jitter).
        p = validate_params(0.5, 1.0)
        m = build_cov_matrix(p, TimeGrid((1.0, 1.0 + 1e-12, 2.0)))
        L = cholesky_factor(m)
        assert np.max(np.abs(L @ L.T - m.entries)) <= 1e-8 * m.scale

    @pytest.mark.parametrize("delta,jitter", [(1e-13, 1e-12), (1e-11, 1e-10)])
    def test_jitter_rung(self, delta, jitter):
        # [[1, 1], [1, 1 - delta]] is indefinite; the ladder factors it at
        # the first rung whose jitter outweighs delta.
        entries = np.array([[1.0, 1.0], [1.0, 1.0 - delta]])
        m = CovMatrix(
            params=validate_params(0.5, 1.0), grid=TimeGrid((1.0, 2.0)), entries=entries.copy()
        )
        L = cholesky_factor(m)
        assert np.array_equal(L, np.linalg.cholesky(entries + jitter * m.scale * np.eye(2)))
        assert np.array_equal(m.entries, entries)

    def test_past_last_rung_raises(self):
        entries = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-9]])
        m = CovMatrix(
            params=validate_params(0.5, 1.0), grid=TimeGrid((1.0, 2.0)), entries=entries.copy()
        )
        with pytest.raises(NotPSDError):
            cholesky_factor(m)
        assert np.array_equal(m.entries, entries)

    def test_zero_rows_for_time_zero(self):
        m = build_cov_matrix(validate_params(0.5, 1.0), TimeGrid((0.0, 1.0)))
        L = cholesky_factor(m)
        assert L[0, 0] == 0.0 and L[0, 1] == 0.0 and L[1, 0] == 0.0
        assert L[1, 1] == 1.0

    def test_indefinite_raises(self):
        m = CovMatrix(
            params=BifParams(1.0, 2.0),
            grid=TimeGrid((1.0, 2.0)),
            entries=np.array([[1.0, 6.0], [6.0, 16.0]]),
        )
        with pytest.raises(NotPSDError):
            cholesky_factor(m)

    def test_underflowed_matrix_factors_to_zero(self):
        # cov = t*s underflows to 0 on this grid: the zero matrix is PSD and
        # its factor is zero, though every rung of the ladder fails on it.
        m = build_cov_matrix(validate_params(1.0, 1.0), TimeGrid.regular(1e-300, 1e-300, 4))
        assert not m.entries.any()
        assert cholesky_factor(m).tobytes() == np.zeros((4, 4)).tobytes()


class TestSamplePaths:
    def test_deterministic(self):
        p = validate_params(0.5, 1.0)
        g = TimeGrid((0.0, 1.0, 2.0))
        b1 = sample_paths(p, g, 7, seed=11)
        b2 = sample_paths(p, g, 7, seed=11)
        assert np.array_equal(b1.paths, b2.paths)
        b3 = sample_paths(p, g, 7, seed=12)
        assert not np.array_equal(b1.paths, b3.paths)

    def test_underflowed_covariance_gives_zero_paths(self):
        b = sample_paths(validate_params(1.0, 1.0), TimeGrid.regular(1e-300, 1e-300, 4), 3, seed=1)
        assert b.paths.tobytes() == np.zeros((3, 4)).tobytes()

    def test_all_zero_grid(self):
        b = sample_paths(validate_params(0.5, 1.0), TimeGrid((0.0,)), 3, seed=1)
        assert np.array_equal(b.paths, np.zeros((3, 1)))

    def test_zero_time_column_exact_zero(self):
        b = sample_paths(validate_params(0.7, 1.0), TimeGrid((0.0, 0.5, 1.0)), 100, seed=3)
        assert np.all(b.paths[:, 0] == 0.0)
        assert not np.all(b.paths[:, 1] == 0.0)

    def test_out_of_domain_refused(self):
        with pytest.raises(OutOfDomainError):
            sample_paths(BifParams(1.0, 2.0), TimeGrid((1.0, 2.0)), 10, seed=0)

    def test_brownian_unit_variance(self):
        b = sample_paths(validate_params(0.5, 1.0), TimeGrid((1.0,)), 100_000, seed=5)
        x = b.paths[:, 0]
        var = x.var(ddof=1)
        # standard error of the sample variance, estimated from the sample
        se = np.std((x - x.mean()) ** 2, ddof=1) / np.sqrt(len(x))
        assert abs(var - 1.0) <= 4 * se

    def test_diagonal_variance_law(self):
        # Var B_t = t**(2HK); here 2**0.8.
        p = validate_params(0.5, 0.8)
        b = sample_paths(p, TimeGrid((2.0,)), 100_000, seed=6)
        x = b.paths[:, 0]
        var = x.var(ddof=1)
        se = np.std((x - x.mean()) ** 2, ddof=1) / np.sqrt(len(x))
        assert abs(var - 2.0**0.8) <= 4 * se

    def test_empirical_covariance_matches_kernel(self):
        p = validate_params(0.5, 0.8)
        g = TimeGrid((0.5, 1.0, 3.0))
        b = sample_paths(p, g, 100_000, seed=7)
        for i in range(3):
            for j in range(i, 3):
                prod = (b.paths[:, i] - b.paths[:, i].mean()) * (
                    b.paths[:, j] - b.paths[:, j].mean()
                )
                emp = prod.mean()
                se = prod.std(ddof=1) / np.sqrt(len(prod))
                assert abs(emp - cov(p, g[i], g[j])) <= 4 * se

    def test_m_validation(self):
        with pytest.raises(ValueError):
            sample_paths(validate_params(0.5, 1.0), TimeGrid((1.0,)), 0, seed=0)

    def test_chunking_consistent_with_single_block(self):
        # A batch spanning several chunks must start with the one-chunk batch.
        from bifrac import gpsim

        p = validate_params(0.5, 1.0)
        g = TimeGrid((1.0, 2.0))
        big = sample_paths(p, g, gpsim.CHUNK_ROWS + 10, seed=9)
        small = sample_paths(p, g, 5, seed=9)
        assert np.array_equal(big.paths[:5], small.paths)


def _index_list_factor(m):
    """The factor by an index list of the t != 0 coordinates, as ``np.ix_``
    copies; the reference for the leading-offset slices of ``_factor``."""
    nonzero = [i for i, t in enumerate(m.grid.points) if t != 0.0]
    sub = m.entries[np.ix_(nonzero, nonzero)]
    diag = sub.diagonal().copy()
    for jitter in gpsim._JITTERS:
        np.fill_diagonal(sub, diag + jitter * m.scale)
        try:
            return nonzero, np.linalg.cholesky(sub)
        except np.linalg.LinAlgError:
            continue
    raise AssertionError("reference factorization failed")


class TestLeadingZeroOffset:
    """The t = 0 coordinate can only be the first, so the factor and the
    draws fill ``[z:, z:]`` and ``[rows, z:]`` slices; they must equal the
    index-list construction bit for bit."""

    P = validate_params(0.35, 1.4)
    GRIDS = {
        "from-zero": TimeGrid.regular(0.0, 0.25, 30),
        "from-step": TimeGrid.regular(0.25, 0.25, 30),
        "zero-only": TimeGrid((0.0,)),
    }

    @pytest.mark.parametrize("name", GRIDS)
    def test_cholesky_factor(self, name):
        m = build_cov_matrix(self.P, self.GRIDS[name])
        nonzero, l_sub = _index_list_factor(m)
        full = np.zeros(m.entries.shape)
        full[np.ix_(nonzero, nonzero)] = l_sub
        assert cholesky_factor(m).tobytes() == full.tobytes()
        assert gpsim._factor(m)[0] == int(name != "from-step")

    @pytest.mark.parametrize("name", ["from-zero", "from-step"])
    @pytest.mark.parametrize("m", [1, gpsim.CHUNK_ROWS + 1])
    def test_sample_paths(self, name, m):
        grid = self.GRIDS[name]
        nonzero, l_sub = _index_list_factor(build_cov_matrix(self.P, grid))
        paths = np.zeros((m, len(grid)))
        for chunk, start in enumerate(range(0, m, gpsim.CHUNK_ROWS)):
            rows = min(gpsim.CHUNK_ROWS, m - start)
            z = substream(13, 0, chunk).standard_normal((rows, len(nonzero)))
            paths[start : start + rows, nonzero] = z @ l_sub.T
        assert sample_paths(self.P, grid, m, seed=13).paths.tobytes() == paths.tobytes()


def _written(arr) -> bytes:
    """The bytes ``PathBatch.to_csv`` writes for the 2-D array ``arr``."""
    arr = np.asarray(arr, dtype=np.float64)
    grid = TimeGrid(tuple(float(i + 1) for i in range(arr.shape[1])))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "paths.csv")
        PathBatch(grid=grid, paths=arr, seed=0).to_csv(out)
        with open(out, "rb") as fh:
            return fh.read()


def _reference(arr) -> bytes:
    """Header and one ``'%.17g' %`` per value, joined by commas and newlines."""
    arr = np.asarray(arr, dtype=np.float64)
    lines = [",".join(f"t_{i}" for i in range(arr.shape[1]))]
    lines += [",".join("%.17g" % v for v in row) for row in arr.tolist()]
    return "".join(line + "\n" for line in lines).encode()


def _from_bits(sign, exponent, mantissa) -> np.ndarray:
    """Doubles assembled from their fields, with no numpy arithmetic on
    floats (whose last bit could depend on the SIMD dispatch)."""
    bits = (
        np.asarray(sign, dtype=np.uint64) << np.uint64(63)
        | np.asarray(exponent, dtype=np.uint64) << np.uint64(52)
        | np.asarray(mantissa, dtype=np.uint64)
    )
    return bits.view(np.float64)


def _powers_of_ten_and_neighbours() -> list[float]:
    out = []
    for k in range(-330, 309):
        p = float(f"1e{k}")
        out += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    return out


def _ties() -> list[float]:
    """Doubles whose 17-digit rounding is an exact tie: odd / 2**(k + 1)
    with k = 16 - E, so that v * 10**k = odd * 5**k / 2 is a half-integer."""
    rng = np.random.default_rng(11)
    out = [1.0000076293945312]  # 131073 / 2**17
    for e in range(-8, 17):
        # odd in [10**e, 10**(e + 1)) * 2**(k + 1), below 2**53; for e < -6,
        # 10**k is inexact in double precision.
        k = 16 - e
        lo = math.ceil(10.0**e * 2 ** (k + 1))
        hi = min(math.ceil(10.0 ** (e + 1) * 2 ** (k + 1)), 2**53)
        for _ in range(5 if lo < hi else 0):
            odd = int(rng.integers(lo, hi)) | 1
            if odd < hi:
                out.append(odd / 2 ** (k + 1))
    return out


def _near_ties() -> list[float]:
    """Doubles v = m * 2**s whose y = v * 10**-j lies 1 / (2 * 5**j) < 2**-47
    from a half-integer: m * 2**(s - j) = (5**j +- 1) / 2 modulo 5**j.  The
    computed y may fall on either side of the tie."""
    out = []
    for j in (20, 21, 22):
        for s in range(j, j + 60):
            for t in ((5**j - 1) // 2, (5**j + 1) // 2):
                m = t * pow(2 ** (s - j), -1, 5**j) % 5**j
                m += ((2**52 - m) // 5**j + 1) * 5**j
                v = math.ldexp(m, s)
                if m < 2**53 and 1e16 <= v * 10.0**-j < 1e17:
                    out.append(v)
    return out


EDGES = [
    0.0, -0.0, 1e16, 1e17, 99999999999999984.0, 123456789012345678.0,
    1e-99, math.nextafter(1e-99, 0.0), 1e99, math.nextafter(1e99, 0.0),
    math.nextafter(1e99, math.inf), 9.9999999999999999e98, 5e-324,
    2.2250738585072014e-308, math.nextafter(2.2250738585072014e-308, 0.0),
    1.7976931348623157e308, math.nan, math.inf, -math.inf, 0.5, 100.5, 1 / 3,
]


_SIMD_CHECK = """
import sys
import numpy as np
sys.path[:0] = [sys.argv[1]]
from test_gpsim import _from_bits, _powers_of_ten_and_neighbours, _reference, _ties, _written
rng = np.random.default_rng(7)
n = 60000
wide = _from_bits(rng.integers(0, 2, n), rng.integers(1023 - 340, 1023 + 340, n),
                  rng.integers(0, 2**52, n, dtype=np.uint64))
fixed = np.array(_powers_of_ten_and_neighbours() + _ties())
for arr in (wide.reshape(-1, 6), np.resize(fixed, len(fixed) // 4 * 4).reshape(-1, 4)):
    assert _written(arr) == _reference(arr)
print("ok")
"""


class TestCsvExport:
    def test_format_and_round_trip(self, tmp_path):
        b = sample_paths(validate_params(0.5, 1.0), TimeGrid((0.0, 1.0, 2.0)), 4, seed=13)
        out = tmp_path / "paths.csv"
        b.to_csv(str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "t_0,t_1,t_2"
        assert len(lines) == 5
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(parsed, b.paths)

    @pytest.mark.parametrize(
        "paths",
        [
            [[-0.0, 5e-324, 1e16], [1 / 3, -1.5, 1.7976931348623157e308]],
            [[-0.0], [5e-324], [1 / 3]],
        ],
        ids=["extremes", "one_column"],
    )
    def test_bytes_match_reference_writer(self, tmp_path, paths):
        # Reference: one format(v, ".17g") per value, joined by commas.
        arr = np.array(paths, dtype=np.float64)
        grid = TimeGrid(tuple(float(i + 1) for i in range(arr.shape[1])))
        out = tmp_path / "paths.csv"
        PathBatch(grid=grid, paths=arr, seed=0).to_csv(str(out))
        header = ",".join(f"t_{i}" for i in range(arr.shape[1]))
        rows = [",".join(format(v, ".17g") for v in row) for row in arr]
        assert out.read_bytes() == "".join(line + "\n" for line in [header, *rows]).encode()

    def test_paths_must_match_grid(self):
        grid = TimeGrid((1.0, 2.0, 3.0))
        for paths in (np.zeros((4, 2)), np.zeros(3), np.zeros((2, 3, 1))):
            with pytest.raises(ValueError, match="one column per grid point"):
                PathBatch(grid=grid, paths=paths, seed=0)
        PathBatch(grid=grid, paths=np.zeros((0, 3)), seed=0)

    @pytest.mark.parametrize(
        "values",
        [_powers_of_ten_and_neighbours(), _ties(), EDGES],
        ids=["powers_of_ten", "ties", "edges"],
    )
    def test_fixed_values(self, values):
        col = np.array(values + [-v for v in values]).reshape(-1, 1)
        assert _written(col) == _reference(col)
        rows = np.resize(col, (len(col) // 7 + 1) * 7).reshape(-1, 7)
        assert _written(rows) == _reference(rows)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 300), (300, 1), (5000, 7)])
    def test_shapes(self, shape):
        # (5000, 7) spans three blocks, the last one partial.
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 20, shape)
        assert _written(arr) == _reference(arr)

    def test_near_ties_take_the_fallback(self):
        values = _near_ties()
        assert len(values) >= 4
        a = np.array(values)
        e10 = np.floor(np.log10(a)).astype(np.int64)
        for v, e in zip(values, e10.tolist()):
            y = Fraction(v) * Fraction(10) ** (16 - e)
            assert abs(y - math.floor(y) - Fraction(1, 2)) < Fraction(1, 2**47)
        assert gpsim._digits17(a, e10)[1].all()
        arr = np.array(values).reshape(-1, 1)
        assert _written(arr) == _reference(arr)

    @pytest.mark.parametrize("shift", [-0.5, 0.5])
    def test_exponent_estimate_may_be_off_by_one(self, monkeypatch, shift):
        # log10 only estimates E: an estimate one too low or too high for
        # about half the values must not change a byte.
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
        arr = np.random.default_rng(3).standard_normal((200, 5)) * 10.0 ** np.arange(-6, 19, 5)
        assert _written(arr) == _reference(arr)

    def test_slow_rows_keep_their_place(self):
        # Rows with a NaN, an infinity, a subnormal and an exact tie in the
        # middle of a batch of several blocks.
        cols = 9
        rows = 3 * (gpsim._CSV_BLOCK // cols) + 5
        arr = np.random.default_rng(2).standard_normal((rows, cols))
        for r, v in ((1, math.nan), (rows // 2, math.inf), (rows // 2 + 1, 5e-324),
                     (rows - 2, 1.0000076293945312)):
            arr[r, r % cols] = v
        assert _written(arr) == _reference(arr)

    def test_sample_matches_savetxt(self, tmp_path):
        # About 1e6 values from t = 0, the shape of the bench's CSV command;
        # np.savetxt is the writer to_csv replaced.
        grid = TimeGrid.regular(0.0, 0.01, 239)
        batch = sample_paths(validate_params(0.55, 1.2), grid, 4184, seed=61)
        out = tmp_path / "paths.csv"
        batch.to_csv(str(out))
        ref = io.StringIO()
        header = ",".join(f"t_{i}" for i in range(len(grid)))
        np.savetxt(ref, batch.paths, fmt="%.17g", delimiter=",", header=header, comments="")
        assert out.read_bytes() == ref.getvalue().encode()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda cols: st.lists(
                st.lists(
                    st.one_of(
                        st.floats(),
                        st.tuples(
                            st.integers(0, 1),
                            st.one_of(st.integers(1023 - 340, 1023 + 340), st.integers(0, 2046)),
                            st.integers(0, 2**52 - 1),
                        ).map(lambda f: float(_from_bits(*f))),
                    ),
                    min_size=cols,
                    max_size=cols,
                ),
                min_size=1,
                max_size=6,
            )
        )
    )
    def test_random_values(self, rows):
        assert _written(rows) == _reference(rows)

    def test_tables_wait_for_first_use(self):
        code = "import bifrac.gpsim as g; print(g._csv_tables.cache_info().currsize)"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "0"

    @pytest.mark.skipif(not has_avx512(), reason="needs a CPU with numpy's X86_V4 kernels")
    def test_same_without_avx512_kernels(self):
        # numpy's log10 (which only estimates E) takes another SIMD kernel here.
        r = run_without_avx512(_SIMD_CHECK)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "ok"
