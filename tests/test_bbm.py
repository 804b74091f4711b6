import tracemalloc
import warnings

import numpy as np
import pytest

from ndflab import (
    BbmParams,
    EuclideanPower,
    bbm_cov_matrix,
    bbm_covariance,
    bbm_sample_paths,
    empirical_covariance,
    gram_matrix,
    kernel_kpsi,
    psd_check,
)
from ndflab import bbm
from ndflab.bbm import _cov, _psd_root, paths_to_csv


def _traced_peak(fn, *args):
    """(result, tracemalloc peak in bytes) of one call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def root_routes(monkeypatch):
    """The routes ("cholesky" or "eigh") of the roots taken during the test, in order."""
    routes = []

    def spy(build):
        root, route, clipped = _psd_root(build)
        routes.append(route)
        return root, route, clipped

    monkeypatch.setattr(bbm, "_psd_root", spy)
    return routes


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
        # grids longer than one block of rows: the in-place build matches across block edges
        for n in (65, 200, 801):
            for with_zero in (False, True):
                h = rng.uniform(0.05, 1.0)
                params = BbmParams(h, rng.uniform(0.05, min(2.0, 1.0 / h)))
                g = np.sort(rng.uniform(0.0, 5.0, size=n - with_zero))
                g = np.concatenate([[0.0], g]) if with_zero else g
                assert g.size == n and np.all(np.diff(g) > 0)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grid_times_are_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any arithmetic on the times
            for grid in ([bad], [0.0, 1.0, bad]):
                with pytest.raises(ValueError, match="grid times must be finite"):
                    bbm_cov_matrix(BbmParams(0.5, 1.0), grid)
                with pytest.raises(ValueError, match="grid times must be finite"):
                    bbm_sample_paths(BbmParams(0.5, 1.0), grid, 2, seed=0)

    def test_matrix_is_built_in_one_array(self):
        grid = np.linspace(0.0, 2.0, 801)[1:]
        cov, peak = _traced_peak(bbm_cov_matrix, BbmParams(0.55, 1.2), grid)
        assert peak < cov.nbytes + 2**20

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
        assert a.shape == (10, 3)
        np.testing.assert_array_equal(a, b)

    def test_zero_at_origin(self, root_routes):
        # R(0, .) = 0: column 0 is exactly 0 through the Cholesky root and through eigh's
        for params, route in [(BbmParams(0.5, 1.0), ["cholesky"]),
                              (BbmParams(0.5, 2.0), ["eigh"])]:
            root_routes.clear()
            paths = bbm_sample_paths(params, [0.0, 1.0, 2.0], 20, seed=1)
            assert root_routes == route
            np.testing.assert_array_equal(paths[:, 0], 0.0)
            assert np.all(paths[:, 1:] != 0.0)

    def test_rank_one_covariance_samples_through_eigh(self, root_routes):
        # H = 1/2, K = 2 gives R(t, s) = t s: Cholesky breaks down, and each path
        # is one normal times the grid
        grid = np.linspace(0.1, 3.0, 30)
        paths = bbm_sample_paths(BbmParams(0.5, 2.0), grid, 50, seed=4)
        assert root_routes == ["eigh"]
        slope = paths @ grid / (grid @ grid)
        # the clipped and the tiny positive eigenvalues leave a remainder of order sqrt(eps)
        assert np.abs(paths - np.outer(slope, grid)).max() <= 1e-6 * np.abs(paths).max()

    def test_indefinite_covariance_raises(self):
        with pytest.raises(ValueError, match="covariance indefinite"):
            _psd_root(lambda: np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_paths_hold_the_root_and_the_paths(self):
        bbm_sample_paths(BbmParams(0.5, 1.0), [1.0], 1, seed=0)  # the first draw imports numpy.random (1 MB)
        grid = np.linspace(0.0, 2.0, 801)[1:]
        paths, peak = _traced_peak(bbm_sample_paths, BbmParams(0.55, 1.2), grid, 1000, 7)
        assert peak < grid.size**2 * 8 + paths.nbytes + 2**20

    def test_brownian_empirical_covariance(self):
        grid = np.array([0.5, 1.0, 1.5])
        paths = bbm_sample_paths(BbmParams(0.5, 1.0), grid, 100_000, seed=2)
        emp = empirical_covariance(paths)
        target = np.minimum.outer(grid, grid)
        for i in range(3):
            for j in range(3):
                prod = paths[:, i] * paths[:, j]
                stderr = prod.std(ddof=1) / np.sqrt(prod.size)
                assert abs(emp[i, j] - target[i, j]) <= 5 * stderr

    def test_empirical_covariance_through_cholesky_in_draw_blocks(self, root_routes, monkeypatch):
        params = BbmParams(0.6, 1.3)
        grid = np.linspace(0.1, 2.0, 40)
        paths = bbm_sample_paths(params, grid, 20_000, seed=3)  # 120 rows per draw block
        assert root_routes == ["cholesky"]
        emp = empirical_covariance(paths)
        target = bbm_cov_matrix(params, grid)
        # the standard error of each entry from the products of the (mean-zero) paths
        sq = paths**2
        stderr = np.sqrt((sq.T @ sq / len(paths) - (paths.T @ paths / len(paths)) ** 2) / len(paths))
        assert np.max(np.abs(emp - target) / stderr) <= 5.0
        # a grid longer than one draw block: one row per block, the same normals row by row
        monkeypatch.setattr(bbm, "_DRAW_BLOCK", 16)
        head = bbm_sample_paths(params, grid, 100, seed=3)
        np.testing.assert_allclose(head, paths[:100], rtol=0, atol=1e-13 * np.abs(paths).max())

    def test_empirical_covariance_edge_cases(self):
        np.testing.assert_array_equal(empirical_covariance(np.zeros((5, 2))), 0.0)
        twin = np.tile([1.0, 3.0], (2, 1))
        assert np.linalg.matrix_rank(empirical_covariance(twin) + 1e-30) <= 1
        with pytest.raises(ValueError):
            empirical_covariance(np.zeros((1, 1)))


class TestRoot:
    def test_root_reproduces_the_covariance_over_the_sampling_range(self):
        # h, K and the horizon T as the sampling workload draws them, on its 800-point grid
        rng = np.random.default_rng(44)
        eps = np.finfo(float).eps
        for _ in range(6):
            h = rng.uniform(0.3, 0.8)
            params = BbmParams(h, rng.uniform(0.5, min(1.5, 1.0 / h)))
            grid = np.exp(rng.uniform(np.log(0.5), np.log(5.0))) * np.arange(1, 801) / 800
            root, route, clipped = _psd_root(lambda: bbm_cov_matrix(params, grid))
            cov = bbm_cov_matrix(params, grid)
            assert (route, clipped) == ("cholesky", 0)
            assert np.abs(root @ root.T - cov).max() <= len(grid) * eps * np.abs(cov).max()

    def test_a_grid_longer_than_one_block_factors_blockwise(self, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(len(a)) or cholesky(a))
        params, grid = BbmParams(0.6, 1.3), np.linspace(0.01, 2.0, 2 * bbm._ROOT_BLOCK + 45)
        root, route, _ = _psd_root(lambda: bbm_cov_matrix(params, grid))
        assert route == "cholesky"
        assert calls == [bbm._ROOT_BLOCK, bbm._ROOT_BLOCK, 45]
        assert np.array_equal(np.tril(root), root)
        full = cholesky(bbm_cov_matrix(params, grid))
        assert np.abs(root - full).max() <= 1e-8 * np.abs(full).max()

    def test_hk_1_falls_back_to_eigh_on_the_unmodified_covariance(self, monkeypatch):
        seen = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(a.copy()) or eigh(a))
        params, grid = BbmParams(0.5, 2.0), np.linspace(0.1, 3.0, 300)  # R(t, s) = t s
        root, route, clipped = _psd_root(lambda: bbm_cov_matrix(params, grid))
        assert route == "eigh" and 0 < clipped < len(grid)
        assert len(seen) == 1 and np.array_equal(seen[0], bbm_cov_matrix(params, grid))

    def test_a_grid_from_0_samples_its_later_times_as_the_grid_without_0(self):
        params, grid = BbmParams(0.7, 1.1), np.linspace(0.0, 2.0, 301)
        paths = bbm_sample_paths(params, grid, 40, seed=9)
        np.testing.assert_array_equal(paths[:, 0], 0.0)
        np.testing.assert_array_equal(paths[:, 1:], bbm_sample_paths(params, grid[1:], 40, seed=9))


class TestKernelIdentity:
    """2^alpha sgn(xi) sgn(eta) R^{1/2,alpha}(|xi|, |eta|) = |xi+eta|^alpha - |xi-eta|^alpha."""

    @staticmethod
    def _gap(alpha, xi, eta):
        lhs = 2.0**alpha * np.sign(xi * eta) * bbm_covariance(BbmParams(0.5, alpha), abs(xi), abs(eta))
        return abs(lhs - kernel_kpsi(EuclideanPower(alpha, 1), xi, eta))

    def test_zero_argument(self):
        # sgn(0) = 0 on the left, |eta|^alpha - |eta|^alpha = 0 on the right
        assert self._gap(1.0, 0.0, 3.0) == 0.0
        assert self._gap(1.0, 3.0, 0.0) == 0.0

    def test_alpha_2(self):
        lhs = 2.0**2 * bbm_covariance(BbmParams(0.5, 2.0), 1.0, 1.0)
        assert lhs == pytest.approx(kernel_kpsi(EuclideanPower(2.0, 1), 1.0, 1.0), abs=1e-14)

    def test_mixed_signs(self):
        for xi, eta in [(2.0, -3.0), (-2.0, 3.0), (-2.0, -3.0)]:
            assert self._gap(1.0, xi, eta) == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_grid(self, alpha):
        # on times t, s >= 0 the signs drop: 2^K R^{1/2,K} is the Gram matrix of |x|^K
        t = np.linspace(0.0, 5.0, 51)[1:]
        cov = 2.0**alpha * bbm_cov_matrix(BbmParams(0.5, alpha), t)
        gram = gram_matrix(EuclideanPower(alpha, 1), t)
        assert np.max(np.abs(cov - gram)) <= 1e-12 * np.max(np.abs(gram))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_matches_kernel_kpsi(self, alpha):
        psi = EuclideanPower(alpha, 1)
        params = BbmParams(0.5, alpha)
        rng = np.random.default_rng(43)
        for xi, eta in [(0.0, 0.0), *rng.uniform(-5.0, 5.0, size=(100, 2))]:
            lhs = 2.0**alpha * np.sign(xi * eta) * bbm_covariance(params, abs(xi), abs(eta))
            assert lhs == pytest.approx(
                kernel_kpsi(psi, xi, eta), abs=1e-12 * (1 + abs(xi) + abs(eta)) ** alpha
            )


def test_paths_csv_layout():
    paths = bbm_sample_paths(BbmParams(0.5, 1.0), [1.0, 2.0], 3, seed=5)
    lines = paths_to_csv([1.0, 2.0], paths).strip().split("\n")
    assert lines[0] == "1,2"
    assert len(lines) == 4


def test_paths_csv_matches_the_template_on_a_large_matrix():
    grid = np.linspace(0.0, 2.0, 801)[1:]
    paths = bbm_sample_paths(BbmParams(0.6, 0.9), grid, 100, seed=7)
    line = ",".join(["%.17g"] * 800) + "\n"  # the per-row template used before the vectorised formatter
    assert paths_to_csv(grid, paths) == "".join(line % tuple(row.tolist()) for row in (grid, *paths))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_grid_is_rejected():
    with pytest.raises(ValueError, match="covariance matrix has non-finite entries"):
        bbm_cov_matrix(BbmParams(1.0, 1.0), [1e-200, 1.0, 1e200])
