import math

import numpy as np
import pytest

from bifrac import (
    BifParams,
    NegativeTimeError,
    NonFiniteError,
    OutOfDomainError,
    TimeGrid,
    cov,
    cov_matrix,
    sample_paths,
    sgn,
    signed_identity_lhs,
    validate_params,
)


class TestValidateParams:
    def test_brownian_case_valid(self):
        p = validate_params(0.5, 1.0)
        assert (p.H, p.K) == (0.5, 1.0)
        assert p.in_domain

    def test_hk_product_rejected(self):
        with pytest.raises(OutOfDomainError) as exc:
            validate_params(1.0, 2.0)
        assert exc.value.constraint == "H*K <= 1"

    def test_extended_k_boundary_valid(self):
        assert validate_params(0.5, 2.0).in_domain

    @pytest.mark.parametrize(
        "H,K,constraint",
        [
            (0.0, 1.0, "H > 0"),
            (-0.5, 1.0, "H > 0"),
            (1.5, 0.5, "H <= 1"),
            (0.5, 0.0, "K > 0"),
            (0.5, 2.5, "K <= 2"),
            (1.0, 2.0, "H*K <= 1"),
            # Two bounds broken: H > 0 and K > 0 are checked first.
            (2.0, -1.0, "K > 0"),
        ],
    )
    def test_each_bound_reported(self, H, K, constraint):
        with pytest.raises(OutOfDomainError) as exc:
            validate_params(H, K)
        assert exc.value.constraint == constraint
        if H > 0 and K > 0:  # otherwise BifParams itself refuses (H, K)
            with pytest.raises(OutOfDomainError) as exc:
                sample_paths(BifParams(H, K), TimeGrid((1.0, 2.0)), 2, seed=0)
            assert exc.value.constraint == constraint

    @pytest.mark.parametrize("H,K", [(math.nan, 1.0), (0.5, math.inf), (-math.inf, 1.0)])
    def test_nonfinite_rejected(self, H, K):
        with pytest.raises(NonFiniteError):
            validate_params(H, K)

    def test_direct_construction_bypasses_domain_only(self):
        # The forced path still refuses structurally broken parameters.
        assert not BifParams(1.0, 2.0).in_domain
        with pytest.raises(OutOfDomainError):
            BifParams(0.0, 1.0)
        with pytest.raises(NonFiniteError):
            BifParams(math.nan, 1.0)


class TestCov:
    def test_brownian_is_min(self):
        p = validate_params(0.5, 1.0)
        assert cov(p, 1.0, 2.0) == 1.0

    def test_diagonal_brownian(self):
        # oracle: 0.5 * (3 + 3 - 0)
        assert cov(validate_params(0.5, 1.0), 3.0, 3.0) == 3.0

    def test_half_half_diagonal(self):
        # oracle: direct arithmetic 2**-0.5 * ((1 + 1)**0.5 - 0)
        expected = 2.0**-0.5 * (1.0 + 1.0) ** 0.5
        assert cov(validate_params(0.5, 0.5), 1.0, 1.0) == pytest.approx(expected, rel=1e-15)

    def test_negative_time_rejected(self):
        p = validate_params(0.5, 1.0)
        with pytest.raises(NegativeTimeError):
            cov(p, -1.0, 2.0)
        with pytest.raises(NegativeTimeError):
            cov(p, 1.0, -2.0)

    def test_nonfinite_time_rejected(self):
        with pytest.raises(NonFiniteError):
            cov(validate_params(0.5, 1.0), math.inf, 1.0)

    def test_symmetry_bit_exact(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            h = rng.uniform(0.05, 1.0)
            k = min(rng.uniform(0.05, 2.0), 1.0 / h)
            p = validate_params(h, k)
            t, s = rng.uniform(0.0, 100.0, size=2)
            assert cov(p, t, s) == cov(p, s, t)

    def test_diagonal_law(self):
        rng = np.random.default_rng(102)
        for _ in range(50):
            h = rng.uniform(0.05, 1.0)
            k = min(rng.uniform(0.05, 2.0), 1.0 / h)
            p = validate_params(h, k)
            for t in [0.0, 1e-6, 0.5, 1.0, 7.3, 100.0, 1000.0]:
                target = t ** (2.0 * h * k) if t > 0 else 0.0
                assert abs(cov(p, t, t) - target) <= 1e-12 * max(1.0, target)

    def test_zero_anchoring_exact(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            h = rng.uniform(0.05, 1.0)
            k = min(rng.uniform(0.05, 2.0), 1.0 / h)
            p = validate_params(h, k)
            assert cov(p, rng.uniform(0, 1000), 0.0) == 0.0
        assert cov(validate_params(0.5, 1.0), 0.0, 0.0) == 0.0

    def test_overflow_raises_nonfinite(self):
        # t**(2H) leaves double range at t = 1e200 with H = 1
        with pytest.raises(NonFiniteError):
            cov(validate_params(1.0, 1.0), 1e200, 1e200)
        # t**(2H) + s**(2H) overflows to inf without a pow overflow
        with pytest.raises(NonFiniteError):
            cov(validate_params(0.5, 1.0), 1e308, 1.5e308)

    def test_matrix_overflow_raises_nonfinite(self):
        with pytest.raises(NonFiniteError):
            cov_matrix(validate_params(1.0, 1.0), [1.0, 1e200])
        with pytest.raises(NonFiniteError):
            cov_matrix(validate_params(0.5, 1.0), [1e308, 1.5e308])

    def test_matrix_rejects_bad_times(self):
        with pytest.raises(NegativeTimeError):
            cov_matrix(validate_params(0.5, 1.0), [1.0, -1.0])
        with pytest.raises(NonFiniteError):
            cov_matrix(validate_params(0.5, 1.0), [0.0, math.nan])

    def test_fbm_reduction_at_k1(self):
        rng = np.random.default_rng(104)
        for _ in range(200):
            h = rng.uniform(0.05, 1.0)
            p = validate_params(h, 1.0)
            t, s = rng.uniform(0.0, 100.0, size=2)
            fbm = 0.5 * (t ** (2 * h) + s ** (2 * h) - abs(t - s) ** (2 * h))
            scale = 0.5 * (t ** (2 * h) + s ** (2 * h) + abs(t - s) ** (2 * h))
            assert abs(cov(p, t, s) - fbm) <= 1e-14 * max(scale, 1.0)


def _scalar_table(p, ts):
    return np.array([[cov(p, t, s) for s in ts] for t in ts])


def _py_pow(x, e):
    try:
        return x**e
    except OverflowError:
        return math.inf


class TestCovMatrix:
    """``cov_matrix`` against the scalar ``cov`` table, compared by their
    bytes so that a last-bit difference or a -0.0 fails."""

    _UNSORTED = [3.0, 0.1, 1e-3, 250.0, 0.5, 7.0, 2.0, 7.5, 0.3, 1e-2, 1e4, 1.9, 5.0, 1e-5, 0.7, 3.3]

    @pytest.mark.parametrize(
        "ts",
        [
            _UNSORTED[:8] + [0.0] + _UNSORTED[8:],
            _UNSORTED + [0.0],
            _UNSORTED[:8] + [0.0] + _UNSORTED[8:] + [0.0],
        ],
        ids=["zero_in_middle", "zero_at_end", "two_zeros"],
    )
    @pytest.mark.parametrize("H,K", [(0.35, 1.7), (0.6, 1.1), (0.25, 0.7)])
    def test_zero_times_give_zero_rows_and_columns(self, ts, H, K):
        # Rows before a zero time write into its row through their columns,
        # where (t**(2H))**K - t**(2HK) is often a last-bit residue, so the
        # zero row must be cleared as well as the zero column.
        p = validate_params(H, K)
        m = cov_matrix(p, ts)
        zero = np.array(ts) == 0.0
        assert np.all(m[zero] == 0.0) and np.all(m[:, zero] == 0.0)
        assert not np.signbit(m).any()
        assert m.tobytes() == _scalar_table(p, ts).tobytes()

    @pytest.mark.parametrize(
        "grid",
        [
            TimeGrid.regular(0.0, 0.01, 400).points,
            TimeGrid.regular(0.01, 0.01, 400).points,
            (0.0, *np.logspace(-6.0, 6.0, 399).tolist()),
        ],
        ids=["regular_from_zero", "regular_from_step", "multiscale_with_zero"],
    )
    @pytest.mark.parametrize("H,K", [(0.5, 1.0), (0.35, 1.7), (1.0, 1.0), (0.6, 1.1)])
    def test_large_grid_equals_scalar_cov_bitwise(self, grid, H, K):
        p = validate_params(H, K)
        assert cov_matrix(p, grid).tobytes() == _scalar_table(p, grid).tobytes()

    def test_float_power_is_python_pow(self):
        rng = np.random.default_rng(107)
        bases = np.concatenate(
            [[0.0, 1.0], 10.0 ** rng.uniform(-300.0, 300.0, 4000), rng.uniform(0.0, 10.0, 4000)]
        )
        exponents = sorted(
            {e for H in (0.05, 0.2, 0.35, 0.5, 0.6, 0.75, 1.0)
             for K in (0.3, 0.5, 1.0, 1.1, 1.7, 2.0)
             for e in (2.0 * H, K, 2.0 * H * K)}
        )
        for e in exponents:
            with np.errstate(over="ignore"):
                got = np.float_power(bases, e)
            want = np.array([_py_pow(x, e) for x in bases.tolist()])
            bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
            assert bad.size == 0, (
                f"np.float_power(x, {e!r}) differs from x ** {e!r} at {bad.size} bases, "
                f"first x = {bases[bad[0]]!r}; cov_matrix equals cov bit for bit only "
                "while np.float_power calls libm pow as Python's ** does"
            )


class TestSignedIdentity:
    def test_same_sign(self):
        # oracle: |2| - |0|
        assert signed_identity_lhs(1.0, 1.0, 1.0) == 2.0

    def test_opposite_sign(self):
        # oracle: |0| - |-2|
        assert signed_identity_lhs(1.0, -1.0, 1.0) == -2.0

    def test_zero_argument(self):
        assert signed_identity_lhs(0.0, 5.0, 2.0) == 0.0

    def test_alpha_out_of_range(self):
        with pytest.raises(OutOfDomainError):
            signed_identity_lhs(1.0, 1.0, 2.5)
        with pytest.raises(OutOfDomainError):
            signed_identity_lhs(1.0, 1.0, 0.0)

    def test_sgn_convention(self):
        assert sgn(0.0) == 0.0
        assert sgn(3.5) == 1.0
        assert sgn(-0.1) == -1.0

    def test_identity_bridge(self):
        # |u+v|^a - |u-v|^a == 2^a * R_{1/2,a}(|u|,|v|) * sgn(u) * sgn(v)
        rng = np.random.default_rng(105)
        for _ in range(500):
            u = rng.uniform(-20.0, 20.0)
            v = rng.uniform(-20.0, 20.0)
            a = rng.uniform(1e-3, 2.0)
            lhs = signed_identity_lhs(u, v, a)
            rhs = 2.0**a * cov(validate_params(0.5, a), abs(u), abs(v)) * sgn(u) * sgn(v)
            scale = abs(u + v) ** a + abs(u - v) ** a
            assert abs(lhs - rhs) <= 1e-10 * max(scale, 1.0)
        # zero arguments vanish on both sides
        assert signed_identity_lhs(0.0, 3.0, 1.5) == 0.0
        assert cov(validate_params(0.5, 1.5), 0.0, 3.0) * sgn(0.0) == 0.0


class TestTimeGrid:
    def test_valid(self):
        g = TimeGrid((0.0, 0.5, 2.0))
        assert len(g) == 3 and g[1] == 0.5

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            TimeGrid((0.0, 2.0, 1.0))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            TimeGrid((1.0, 1.0))

    @pytest.mark.parametrize(
        "pts,error",
        [
            ((-1.0, 0.0), NegativeTimeError),
            ((0.0, -1.0), NegativeTimeError),
            ((math.nan,), NonFiniteError),
            ((0.0, math.inf), NonFiniteError),
        ],
    )
    def test_rejects_points_cov_rejects(self, pts, error):
        with pytest.raises(error):
            TimeGrid(pts)

    def test_rejects_negative(self):
        with pytest.raises(NegativeTimeError):
            TimeGrid((-1.0, 2.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimeGrid(())

    def test_regular_uses_index_multiplication(self):
        g = TimeGrid.regular(0.0, 0.1, 5)
        assert g.points == tuple(0.0 + i * 0.1 for i in range(5))
