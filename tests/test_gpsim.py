import numpy as np
import pytest

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

from _support import random_domain_params


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


class TestSamplePaths:
    def test_deterministic(self):
        p = validate_params(0.5, 1.0)
        g = TimeGrid((0.0, 1.0, 2.0))
        b1 = sample_paths(p, g, 7, seed=11)
        b2 = sample_paths(p, g, 7, seed=11)
        assert np.array_equal(b1.paths, b2.paths)
        b3 = sample_paths(p, g, 7, seed=12)
        assert not np.array_equal(b1.paths, b3.paths)

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

