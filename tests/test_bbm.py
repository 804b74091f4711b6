import numpy as np
import pytest

from ndflab import (
    BbmParams,
    EuclideanPower,
    bbm_cov_matrix,
    bbm_covariance,
    bbm_sample_paths,
    empirical_covariance,
    kernel_bbm_identity_gap,
    kernel_kpsi,
    psd_check,
)
from ndflab.bbm import GridPath, _cov, paths_to_csv


class TestParams:
    def test_valid_domain(self):
        BbmParams(0.5, 1.0)
        BbmParams(1.0, 1.0)  # HK = 1 boundary
        BbmParams(0.5, 2.0)  # K = 2 boundary
        BbmParams(0.6, 1.5)

    @pytest.mark.parametrize("h,k", [(0.0, 1.0), (1.1, 0.5), (0.5, 0.0), (0.5, 2.1), (0.9, 1.5)])
    def test_invalid_domain(self, h, k):
        with pytest.raises(ValueError):
            BbmParams(h, k)


class TestCovariance:
    def test_zero_time(self):
        assert bbm_covariance(BbmParams(0.7, 1.2), 3.0, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_brownian_case(self):
        assert bbm_covariance(BbmParams(0.5, 1.0), 2.0, 3.0) == pytest.approx(2.0)

    def test_diagonal_variance(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            h = rng.uniform(0.05, 1.0)
            k = rng.uniform(0.05, min(2.0, 1.0 / h))
            t = rng.uniform(0.0, 5.0)
            assert bbm_covariance(BbmParams(h, k), t, t) == pytest.approx(
                t ** (2 * h * k), rel=1e-12
            )

    def test_matrix_values(self):
        grid = [1.0, 2.0, 3.0]
        mat = bbm_cov_matrix(BbmParams(0.5, 1.0), grid)
        expected = np.minimum.outer(grid, grid)
        np.testing.assert_allclose(mat, expected, rtol=1e-12)

    def test_matrix_is_the_covariance_and_exactly_symmetric(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            h = rng.uniform(0.05, 1.0)
            params = BbmParams(h, rng.uniform(0.05, min(2.0, 1.0 / h)))
            g = np.unique(np.concatenate([[0.0], rng.uniform(0.0, 5.0, size=int(rng.integers(1, 60)))]))
            mat = bbm_cov_matrix(params, g)
            assert np.array_equal(mat, _cov(params, g[:, None], g[None, :]))
            assert np.array_equal(mat, mat.T)

    def test_single_point(self):
        mat = bbm_cov_matrix(BbmParams(0.8, 0.6), [2.0])
        assert mat[0, 0] == pytest.approx(2.0 ** (2 * 0.8 * 0.6))

    def test_grid_with_zero(self):
        mat = bbm_cov_matrix(BbmParams(0.5, 1.0), [0.0, 1.0])
        assert mat[0, 0] == 0.0 and mat[0, 1] == pytest.approx(0.0, abs=1e-14)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            bbm_cov_matrix(BbmParams(0.5, 1.0), [2.0, 1.0])

    def test_psd_battery(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            h = rng.uniform(0.05, 1.0)
            k = rng.uniform(0.05, min(2.0, 1.0 / h))
            grid = np.sort(rng.uniform(0.01, 5.0, size=int(rng.integers(2, 31))))
            grid = np.unique(grid)
            mat = bbm_cov_matrix(BbmParams(h, k), grid)
            res = psd_check(mat, tol=1e-9 * max(1.0, np.abs(mat).max()))
            assert res.psd


class TestSampling:
    def test_determinism(self):
        params = BbmParams(0.5, 0.5)
        grid = [0.5, 1.0, 1.5]
        a = bbm_sample_paths(params, grid, 10, seed=7)
        b = bbm_sample_paths(params, grid, 10, seed=7)
        np.testing.assert_array_equal(a.values, b.values)

    def test_zero_at_origin(self):
        paths = bbm_sample_paths(BbmParams(0.5, 1.0), [0.0, 1.0, 2.0], 20, seed=1)
        np.testing.assert_array_equal(paths.values[:, 0], 0.0)

    def test_brownian_empirical_covariance(self):
        grid = np.array([0.5, 1.0, 1.5])
        paths = bbm_sample_paths(BbmParams(0.5, 1.0), grid, 100_000, seed=2)
        emp = empirical_covariance(paths)
        target = np.minimum.outer(grid, grid)
        v = paths.values
        for i in range(3):
            for j in range(3):
                prod = v[:, i] * v[:, j]
                stderr = prod.std(ddof=1) / np.sqrt(prod.size)
                assert abs(emp[i, j] - target[i, j]) <= 5 * stderr

    def test_empirical_covariance_edge_cases(self):
        zero = GridPath(grid=np.array([1.0, 2.0]), values=np.zeros((5, 2)), seed=0)
        np.testing.assert_array_equal(empirical_covariance(zero), 0.0)
        twin = GridPath(grid=np.array([1.0, 2.0]), values=np.tile([1.0, 3.0], (2, 1)), seed=0)
        assert np.linalg.matrix_rank(empirical_covariance(twin) + 1e-30) <= 1
        with pytest.raises(ValueError):
            empirical_covariance(GridPath(np.array([1.0]), np.zeros((1, 1)), 0))


class TestKernelIdentity:
    def test_zero_argument(self):
        assert kernel_bbm_identity_gap(1.0, 0.0, 3.0) == 0.0
        assert kernel_bbm_identity_gap(1.0, 3.0, 0.0) == 0.0

    def test_alpha_2(self):
        assert kernel_bbm_identity_gap(2.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_mixed_signs(self):
        assert kernel_bbm_identity_gap(1.0, 2.0, -3.0) == pytest.approx(0.0, abs=1e-13)

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            kernel_bbm_identity_gap(2.5, 1.0, 1.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_grid(self, alpha):
        xs = np.linspace(-5.0, 5.0, 50)
        for xi in xs:
            for eta in xs:
                gap = kernel_bbm_identity_gap(alpha, xi, eta)
                assert gap <= 1e-12 * (1.0 + abs(xi) + abs(eta)) ** alpha

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_matches_kernel_kpsi(self, alpha):
        psi = EuclideanPower(alpha, 1)
        params = BbmParams(0.5, alpha)
        rng = np.random.default_rng(43)
        for _ in range(100):
            xi, eta = rng.uniform(-5.0, 5.0, size=2)
            lhs = 2.0**alpha * np.sign(xi * eta) * bbm_covariance(params, abs(xi), abs(eta))
            assert lhs == pytest.approx(
                kernel_kpsi(psi, xi, eta), abs=1e-12 * (1 + abs(xi) + abs(eta)) ** alpha
            )


def test_paths_csv_layout():
    paths = bbm_sample_paths(BbmParams(0.5, 1.0), [1.0, 2.0], 3, seed=5)
    lines = paths_to_csv(paths).strip().split("\n")
    assert lines[0] == "1,2"
    assert len(lines) == 4
