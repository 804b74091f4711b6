import tracemalloc

import numpy as np
import pytest

from ndflab import (
    ConicSum,
    DiscreteDistribution,
    EuclideanPower,
    FromTriplet,
    LevyTriplet,
    Log1p,
    RawAbsPower,
    Subordinated,
    gram_matrix,
    kernel_kpsi,
    psd_check,
    variance_identity,
)
from ndflab.kernels import gram_to_csv
from randgen import random_distribution, random_ndf_spec, random_triplet_spec

ABS1 = EuclideanPower(1.0, 1)


def sine_decomposition_check(psi, xi, eta):
    """(direct, decomposed) values of the kernel for a triplet-built psi.

    direct is :func:`kernel_kpsi`, psi(xi+eta) - psi(xi-eta), and
    decomposed = 2 <Q xi, eta> + 2 sum_k sin<xi, u_k> sin<eta, u_k> m_k
    must equal it.  The right side is a route of its own: one sine per
    point and atom, no pair point formed, so it is the oracle of the pair
    engine's half-angle form as well.
    """
    if not isinstance(psi, FromTriplet):
        raise TypeError("sine decomposition needs an explicit Levy triplet")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    t = psi.triplet
    decomposed = 2.0 * float(xi @ t.q @ eta)
    for u, m in t.atoms:
        decomposed += 2.0 * m * np.sin(xi @ u) * np.sin(eta @ u)
    return kernel_kpsi(psi, xi, eta), float(decomposed)


class TestGramMatrix:
    def test_single_point(self):
        mat = gram_matrix(ABS1, [[2.0]])
        assert mat.shape == (1, 1)
        assert mat[0, 0] == pytest.approx(4.0)

    def test_origin_gives_zero_row(self):
        mat = gram_matrix(ABS1, [[3.0], [0.0]])
        np.testing.assert_allclose(mat[1], 0.0, atol=1e-15)
        np.testing.assert_allclose(mat[:, 1], 0.0, atol=1e-15)

    def test_two_point_values(self):
        # K(1,1)=|2|, K(-10,-10)=|20|, K(1,-10)=|9|-|11| = -2
        mat = gram_matrix(ABS1, [[1.0], [-10.0]])
        np.testing.assert_allclose(mat, [[2.0, -2.0], [-2.0, 20.0]])
        for i, x in enumerate([1.0, -10.0]):
            for j, y in enumerate([1.0, -10.0]):
                assert mat[i, j] == pytest.approx(kernel_kpsi(ABS1, x, y))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gram_matrix(ABS1, [[1.0, 2.0]])


class TestPsdCheck:
    def test_zero_matrix(self):
        res = psd_check(np.zeros((3, 3)))
        assert res.psd and res.min_eigenvalue == 0.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            psd_check(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_cnd_grams_are_psd_battery(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            dim = int(rng.integers(1, 4))
            psi = random_ndf_spec(rng, dim)
            pts = rng.normal(scale=2.0, size=(int(rng.integers(2, 51)), dim))
            assert psd_check(gram_matrix(psi, pts)).psd

    def test_cubic_probe_is_not_psd(self):
        mat = gram_matrix(RawAbsPower(3.0), [[1.0], [-10.0]])
        res = psd_check(mat)
        assert not res.psd
        assert res.min_eigenvalue < 0.0
        # the two-point weights (0.9, 0.1) witness the negative quadratic form
        w = np.array([0.9, 0.1])
        assert w @ mat @ w == pytest.approx(-21.88, abs=1e-9)


class TestSineDecomposition:
    def test_orthogonal_quadratic(self):
        psi = FromTriplet(LevyTriplet(q=2.0 * np.eye(2)))
        direct, decomposed = sine_decomposition_check(psi, [1.0, 0.0], [0.0, 1.0])
        assert direct == pytest.approx(0.0, abs=1e-14)
        assert decomposed == pytest.approx(0.0, abs=1e-14)

    def test_single_atom(self):
        psi = FromTriplet(LevyTriplet(q=np.zeros((1, 1)), atoms=(([1.0], 1.0),)))
        direct, decomposed = sine_decomposition_check(psi, np.pi / 2, np.pi / 2)
        assert decomposed == pytest.approx(2.0)
        assert direct == pytest.approx(2.0)

    def test_rejects_non_triplet(self):
        with pytest.raises(TypeError):
            sine_decomposition_check(ABS1, 1.0, 2.0)

    def test_random_battery(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            psi = random_triplet_spec(rng, dim)
            for _ in range(10):
                xi, eta = rng.normal(scale=2.0, size=(2, dim))
                direct, decomposed = sine_decomposition_check(psi, xi, eta)
                assert abs(direct - decomposed) <= 1e-12 * (1.0 + abs(direct))


    def test_gram_of_a_triplet_is_the_decomposition(self):
        # the pair engine's half-angle form against the oracle's sines, at
        # scales up to 1e4 where the arguments themselves round by ~eps * 1e4
        rng = np.random.default_rng(34)
        eps = np.finfo(float).eps
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            psi = random_triplet_spec(rng, dim)
            pts = rng.normal(scale=10.0 ** rng.uniform(-2.0, 4.0), size=(int(rng.integers(1, 20)), dim))
            mat = gram_matrix(psi, pts)
            for i, j in zip(*np.triu_indices(len(pts))):
                _, decomposed = sine_decomposition_check(psi, pts[i], pts[j])
                size = np.abs(pts[i]) + np.abs(pts[j])
                scale = sum(m * (1.0 + size @ np.abs(u)) for u, m in psi.triplet.atoms)
                scale += psi.eval_many(np.stack([pts[i] + pts[j], pts[i] - pts[j]])).sum()
                assert abs(mat[i, j] - decomposed) <= 16.0 * eps * scale


class TestVarianceIdentity:
    def test_point_mass(self):
        p = DiscreteDistribution(np.array([[3.0]]), np.array([1.0]))
        quad, gap = variance_identity(ABS1, p)[:2]
        assert quad == pytest.approx(6.0)
        assert gap == pytest.approx(6.0)

    def test_bernoulli(self):
        p = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        quad, gap = variance_identity(ABS1, p)[:2]
        assert quad == pytest.approx(0.5)
        assert gap == pytest.approx(0.5)

    def test_symmetric_law(self):
        p = DiscreteDistribution(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
        quad, gap = variance_identity(ABS1, p)[:2]
        assert abs(quad) <= 1e-12 and abs(gap) <= 1e-12

    def test_random_battery(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            psi = random_ndf_spec(rng, dim)
            p = random_distribution(rng, dim)
            quad, gap = variance_identity(psi, p)[:2]
            assert abs(quad - gap) <= 1e-10 * max(1.0, abs(gap))
            assert quad >= -1e-10

    def test_weighted_form_consistency(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            dim = int(rng.integers(1, 4))
            psi = random_ndf_spec(rng, dim)
            pts = rng.normal(size=(10, dim))
            mat = gram_matrix(psi, pts)
            w = rng.uniform(0.0, 1.0, size=10)
            w /= w.sum()
            tol = psd_check(mat).tol
            assert w @ mat @ w >= -max(tol, 1e-10)


def test_gram_csv_format():
    csv = gram_to_csv(np.array([[1.0, -2.0], [-2.0, 4.0]]))
    lines = csv.strip().split("\n")
    assert lines[0] == "0,1"
    assert lines[1].split(",")[0] == "1"
    assert len(lines) == 3


def template_csv(rows) -> str:
    """The per-row %.17g template the CSV writers used before the vectorised formatter."""
    line = ",".join(["%.17g"] * len(rows[0])) + "\n"
    return "".join(line % tuple(row.tolist()) for row in rows)


def test_gram_csv_matches_the_template_on_a_large_matrix():
    rng = np.random.default_rng(12)
    triplet = FromTriplet(LevyTriplet(np.eye(2), ((np.array([0.5, -1.5]), 0.8), (np.array([2.0, 0.3]), 1.2))))
    psi = ConicSum(((0.7, EuclideanPower(1.3, 2)), (1.1, Subordinated(Log1p(), triplet))))
    mat = gram_matrix(psi, rng.normal(scale=3.0, size=(600, 2)))
    assert gram_to_csv(mat) == ",".join(map(str, range(600))) + "\n" + template_csv(mat)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gram_of_overflowing_points_is_rejected():
    with pytest.raises(ValueError, match="Gram matrix has non-finite entries"):
        gram_matrix(EuclideanPower(2.0, 1), [[1e160], [1.0]])


def _traced_peak(fn, *args):
    """(result, tracemalloc peak in bytes) of one call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_variance_identity_memory_is_bounded_by_the_tile():
    # the P and M tiles are reduced as they come; the two k x k arrays
    # (61 MB) it built before are gone
    rng = np.random.default_rng(5)
    w = rng.uniform(0.05, 1.0, size=2000)
    law = DiscreteDistribution(rng.normal(size=(2000, 2)), w / w.sum())
    assert _traced_peak(variance_identity, EuclideanPower(1.0, 2), law)[1] < 4 * 2**20


def test_gram_and_psd_check_hold_one_matrix_sized_array_each():
    # gram_matrix fills its result from the tiles; psd_check's one temporary
    # is the asymmetry |A - A'| (eigvalsh copies outside tracemalloc's view)
    pts = np.random.default_rng(6).normal(size=(1000, 2))
    mat, peak = _traced_peak(gram_matrix, EuclideanPower(1.0, 2), pts)
    assert peak < mat.nbytes + 4 * 2**20
    assert _traced_peak(psd_check, mat)[1] < mat.nbytes + 4 * 2**20
