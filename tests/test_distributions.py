import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ndflab import (
    CounterexampleParams,
    DiscreteDistribution,
    EnumerationLimitError,
    EuclideanPower,
    Power,
    RawAbsPower,
    Subordinated,
    convolution_power,
    counterexample_distribution,
    counterexample_gap_closed_form,
    counterexample_search,
    ess_bounds_check,
    exact_expectation,
    exact_gap,
    gram_matrix,
    tail_integral,
    variance_identity,
)
from ndflab.fields import decode, encode
from ndflab import distributions
from ndflab.distributions import DISTRIBUTION, _pair_tiles
from randgen import random_distribution, random_ndf_spec, random_sign_pattern, random_triplet_spec

ABS1 = EuclideanPower(1.0, 1)


def bernoulli_half():
    return DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))


def two_point_enumeration(alpha, atoms, weights, sign):
    """Literal double-loop oracle for E |x_i + sign*x_j|^alpha."""
    total = 0.0
    for x, px in zip(atoms, weights):
        for y, py in zip(atoms, weights):
            total += px * py * abs(x + sign * y) ** alpha
    return total


class TestExactExpectation:
    def test_point_mass_difference_is_zero(self):
        p = DiscreteDistribution(np.array([[3.0]]), np.array([1.0]))
        assert exact_expectation(ABS1, p)[1] == 0.0

    def test_symmetric_two_point(self):
        p = DiscreteDistribution(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
        assert exact_expectation(ABS1, p) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_bernoulli(self):
        p = bernoulli_half()
        assert exact_expectation(ABS1, p) == (pytest.approx(1.0), pytest.approx(0.5))


class TestExactGap:
    def test_symmetric_law_gap_zero(self):
        p = DiscreteDistribution(np.array([[-2.0], [2.0]]), np.array([0.5, 0.5]))
        assert abs(exact_gap(ABS1, p)) <= 1e-12

    def test_bernoulli_gap(self):
        assert exact_gap(ABS1, bernoulli_half()) == pytest.approx(0.5)

    def test_point_mass_gap_is_psi_2x(self):
        p = DiscreteDistribution(np.array([[3.0]]), np.array([1.0]))
        assert exact_gap(ABS1, p) == pytest.approx(6.0)


class TestSignedSum:
    """A pattern with m plus and m minus signs is the pair check on the m-fold sum."""

    def test_pair_pattern_reduces_to_exact_gap(self):
        p = bernoulli_half()
        assert convolution_power(p, 1) is p
        gap2 = exact_gap(ABS1, convolution_power(p, 1))
        assert gap2 == pytest.approx(exact_gap(ABS1, p), abs=1e-12)

    def test_bernoulli_four_variables(self):
        gap = exact_gap(ABS1, convolution_power(bernoulli_half(), 2))
        assert gap == pytest.approx(2.0 - 0.75)

    def test_symmetric_law_zero(self):
        p = DiscreteDistribution(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
        assert abs(exact_gap(ABS1, convolution_power(p, 2))) <= 1e-10

    def test_enumeration_guard(self):
        # 40 generic atoms: the 4-fold sum has C(43, 4) = 123410 atoms, whose
        # squared support blows the 10^7 pair-term budget
        rng = np.random.default_rng(0)
        w = rng.uniform(0.05, 1.0, size=40)
        p = DiscreteDistribution(rng.normal(size=(40, 1)), w / w.sum())
        assert convolution_power(p, 2).n_atoms == 40 * 41 // 2
        with pytest.raises(EnumerationLimitError):
            exact_gap(ABS1, convolution_power(p, 4))

    def test_cusp_case_matches_exact_rationals(self):
        # |x|^0.1 magnifies any leftover ulp of x1 + x2 - x1 - x2 at the cusp;
        # the pinned value comes from signed sums formed in exact rationals
        p = DiscreteDistribution(np.array([[0.1], [0.2], [0.7]]), np.array([0.25, 0.25, 0.5]))
        psi = EuclideanPower(0.1, 1)
        e_plus, e_signed = fraction_signed_sum_expectations(psi, p, (1, 1, -1, -1))
        for gap in (exact_gap(psi, convolution_power(p, 2)), e_plus - e_signed):
            assert gap == pytest.approx(0.32099480338887626, rel=1e-15, abs=0.0)

    def test_random_battery(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            dim = int(rng.integers(1, 3))
            psi = random_ndf_spec(rng, dim, depth=2)
            p = random_distribution(rng, dim, max_atoms=5)
            pattern = random_sign_pattern(rng, int(rng.integers(1, 4)))
            assert exact_gap(psi, convolution_power(p, len(pattern) // 2)) >= -1e-10


class TestCounterexample:
    def test_distribution(self):
        law = counterexample_distribution(CounterexampleParams(3.0, 1.0, 10.0))
        np.testing.assert_allclose(np.sort(law.atoms[:, 0]), [-10.0, 1.0])
        np.testing.assert_allclose(np.sort(law.weights), [0.1, 0.9])

    def test_degenerate_boundary(self):
        law = counterexample_distribution(CounterexampleParams(3.0, 5.0, 5.0))
        assert law.n_atoms == 1
        assert law.atoms[0, 0] == -5.0

    def test_weights_arithmetic(self):
        law = counterexample_distribution(CounterexampleParams(2.5, 0.5, 2.0))
        np.testing.assert_allclose(np.sort(law.weights), [0.25, 0.75])

    def test_gap_closed_form_positive_case(self):
        params = CounterexampleParams(3.0, 1.0, 10.0)
        gap = counterexample_gap_closed_form(params)
        assert gap == pytest.approx(21.88, abs=1e-10)
        # independent 4-term oracle
        law = counterexample_distribution(params)
        diff = two_point_enumeration(3.0, law.atoms[:, 0], law.weights, -1)
        tot = two_point_enumeration(3.0, law.atoms[:, 0], law.weights, +1)
        assert gap == pytest.approx(diff - tot, rel=1e-9)

    def test_alpha_2_identity(self):
        # E|X+Y|^2 - E|X-Y|^2 = 4 (EX)^2, so the gap is -4 (p - c)^2
        for c, m in [(1.0, 10.0), (0.5, 4.0), (2.0, 7.0)]:
            params = CounterexampleParams(2.0 + 1e-12, c, m)
            gap = counterexample_gap_closed_form(params)
            assert gap == pytest.approx(-4.0 * (params.p - c) ** 2, rel=1e-6, abs=1e-9)

    def test_alpha_1_stays_negative(self):
        params = CounterexampleParams(3.0, 1.0, 10.0)
        law = counterexample_distribution(params)
        assert exact_gap(ABS1, law) >= 0.0  # Theorem-1 regime

    def test_closed_form_requires_m_at_least_1(self):
        with pytest.raises(ValueError):
            counterexample_gap_closed_form(CounterexampleParams(3.0, 0.5, 0.75))

    def test_closed_form_vs_oracle_grid(self):
        alphas = np.linspace(2.1, 4.0, 20)
        cs = np.linspace(0.2, 3.0, 20)
        ms = np.linspace(1.0, 40.0, 20)
        for alpha in alphas:
            for c in cs:
                for m in ms:
                    if m < c:
                        continue
                    params = CounterexampleParams(alpha, c, m)
                    law = counterexample_distribution(params)
                    oracle = -exact_gap(RawAbsPower(alpha), law)
                    assert counterexample_gap_closed_form(params) == pytest.approx(
                        oracle, rel=1e-9, abs=1e-9
                    )

    def test_search_finds_violation(self):
        m = counterexample_search(3.0, 1.0, np.arange(2.0, 101.0, 2.0))
        assert m is not None and m <= 10.0

    def test_search_may_return_none(self):
        assert counterexample_search(3.0, 10.0, np.arange(10.0, 20.0)) is None

    def test_search_near_alpha_2(self):
        # as alpha -> 2 the violating region pinches down to c near 1 (= p in
        # the large-M limit); c far from 1 would need astronomically large M
        assert counterexample_search(2.0001, 1.0, np.arange(1.0, 10001.0)) is not None
        assert counterexample_search(2.0001, 0.01, np.arange(1.0, 10001.0)) is None

    def test_search_input_validation(self):
        with pytest.raises(ValueError):
            counterexample_search(3.0, 1.0, [])
        with pytest.raises(ValueError):
            counterexample_search(3.0, 1.0, [5.0, 4.0])
        with pytest.raises(ValueError):
            counterexample_search(3.0, 2.0, [1.0, 5.0])


def _tail_integral_loop(dist):
    """The reference: a loop over the pieces between breaks, reading the integrand at each midpoint."""
    x, w = dist.atoms[:, 0], dist.weights
    edges = np.concatenate([[0.0], np.unique(np.abs(x))])
    rhs = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi == lo:
            continue
        r = 0.5 * (lo + hi)  # integrand constant on (lo, hi)
        g = w[x > r].sum() - w[x < -r].sum()
        rhs += (hi - lo) * g * g
    return float(2.0 * rhs)


# small integers give ties in |x| and atoms at 0; floats give distinct breaks
TAIL_ATOMS = st.one_of(st.lists(st.integers(-6, 6).map(float), min_size=1, max_size=20),
                       st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=20))


class TestTailIdentity:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(values=TAIL_ATOMS, raw=st.lists(st.floats(0.01, 1.0), min_size=20, max_size=20),
           scale=st.sampled_from([1e-3, 1.0, 7.5, 1e5]))
    def test_sorted_pass_matches_the_loop(self, values, raw, scale):
        w = np.array(raw[:len(values)])
        law = DiscreteDistribution(np.array(values)[:, None] * scale, w / w.sum())
        size = float(np.max(np.abs(law.atoms)))
        bound = 4 * law.n_atoms * np.finfo(float).eps * size
        assert abs(tail_integral(law) - _tail_integral_loop(law)) <= bound

    def test_symmetric(self):
        p = DiscreteDistribution(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
        lhs, rhs = exact_gap(RawAbsPower(1.0), p), tail_integral(p)
        assert lhs == pytest.approx(0.0, abs=1e-14)
        assert rhs == pytest.approx(0.0, abs=1e-14)

    def test_point_mass(self):
        p = DiscreteDistribution(np.array([[1.0]]), np.array([1.0]))
        assert (exact_gap(RawAbsPower(1.0), p), tail_integral(p)) == (pytest.approx(2.0), pytest.approx(2.0))

    def test_bernoulli(self):
        for prob in (0.2, 0.5, 0.9):
            p = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([1 - prob, prob]))
            lhs, rhs = exact_gap(RawAbsPower(1.0), p), tail_integral(p)
            assert lhs == pytest.approx(2 * prob**2, abs=1e-14)
            assert rhs == pytest.approx(2 * prob**2, abs=1e-14)

    def test_random_battery(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            p = random_distribution(rng, 1)
            lhs, rhs = exact_gap(RawAbsPower(1.0), p), tail_integral(p)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
            assert rhs >= -1e-14

    def test_requires_dim_1(self):
        p = DiscreteDistribution(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            tail_integral(p)


class TestEssBounds:
    def test_examples(self):
        p = DiscreteDistribution(np.array([[1.0], [-10.0]]), np.array([0.9, 0.1]))
        assert ess_bounds_check(p) == (11.0, 20.0)
        point = DiscreteDistribution(np.array([[5.0]]), np.array([1.0]))
        assert ess_bounds_check(point) == (0.0, 10.0)
        sym = DiscreteDistribution(np.array([[-3.0], [3.0]]), np.array([0.5, 0.5]))
        assert ess_bounds_check(sym) == (6.0, 6.0)

    def test_random_battery(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            diff_sup, sum_sup = ess_bounds_check(random_distribution(rng, 1))
            assert diff_sup <= sum_sup


class TestDistributionType:
    def test_atom_dedup_merges_weights(self):
        p = DiscreteDistribution(
            np.array([[1.0], [1.0 + 1e-13], [2.0]]), np.array([0.3, 0.3, 0.4])
        )
        assert p.n_atoms == 2
        assert p.weights[np.argmin(np.abs(p.atoms[:, 0] - 1.0))] == pytest.approx(0.6)

    def test_merge_tolerance_scales_with_the_atoms(self):
        # atoms spaced below 1e-12 are distinct when that is the law's own scale
        p = DiscreteDistribution(np.array([[0.0], [5e-13], [9e-13]]), np.array([0.3, 0.3, 0.4]))
        assert p.n_atoms == 3
        assert exact_gap(ABS1, p) == pytest.approx(6.18e-13, rel=1e-9)
        # lattice sums at a large step differ by more than 1e-12 in their last bits
        for step in (3e4 + 0.3, 1000.1, 0.3):
            law = DiscreteDistribution(np.arange(-3.0, 4.0)[:, None] * step, np.full(7, 1 / 7))
            assert convolution_power(law, 4).n_atoms == 25

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([1.2, -0.2]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([bad, 0.5]))

    def test_json_round_trip(self):
        rng = np.random.default_rng(24)
        p = random_distribution(rng, 2)
        q = decode(DISTRIBUTION, encode(DISTRIBUTION, p))
        np.testing.assert_array_equal(p.atoms, q.atoms)
        np.testing.assert_array_equal(p.weights, q.weights)


class TestTheoremBatteries:
    def test_theorem1_battery(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            psi = random_ndf_spec(rng, dim)
            p = random_distribution(rng, dim)
            assert exact_gap(psi, p) >= -1e-10

    def test_corollary_battery(self):
        rng = np.random.default_rng(26)
        for alpha in (0.5, 1.0, 1.5, 2.0):
            for _ in range(50):
                dim = int(rng.integers(1, 4))
                psi = Subordinated(Power(alpha / 2.0), random_ndf_spec(rng, dim, depth=2))
                p = random_distribution(rng, dim)
                assert exact_gap(psi, p) >= -1e-10


# ---------------------------------------------------------------------------
# properties of the merge and of signed sums by convolution
# ---------------------------------------------------------------------------

# coordinates with exact duplicates and near-duplicates within the merge
# tolerance (1e-12 of the largest coordinate): 0, 1e-13 and 1.05e-12 form a
# chain whose ends are farther apart than 1e-12
_COORDS = st.sampled_from([-1.5, 0.0, 1e-13, 1.05e-12, 2.0, 2.0 + 4e-13, 7.25])


def _normalised(raw):
    w = np.asarray(raw, dtype=float)
    return w / w.sum()


def _canonical(law):
    """Atoms rounded past the merge tolerance and weights, in a fixed order.

    A merged atom sits at its run's first occurrence, which moves with the
    input order by less than the run's 1e-12-scale spread; rounding to 9
    digits removes that, and sorting removes the order of first appearance.
    """
    atoms, weights = np.round(law.atoms, 9), law.weights
    order = np.lexsort((np.round(weights, 12), *atoms.T[::-1]))
    return atoms[order], weights[order]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_merge_is_permutation_invariant(data):
    dim = data.draw(st.integers(1, 2))
    atoms = data.draw(st.lists(st.lists(_COORDS, min_size=dim, max_size=dim), min_size=1, max_size=10))
    w = _normalised(data.draw(st.lists(st.floats(0.05, 1.0), min_size=len(atoms), max_size=len(atoms))))
    perm = np.array(data.draw(st.permutations(range(len(atoms)))))
    p = DiscreteDistribution(np.array(atoms), w)
    q = DiscreteDistribution(np.array(atoms)[perm], w[perm])
    (p_atoms, p_weights), (q_atoms, q_weights) = _canonical(p), _canonical(q)
    np.testing.assert_array_equal(p_atoms, q_atoms)
    np.testing.assert_allclose(p_weights, q_weights, rtol=1e-12, atol=0.0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(dim=st.integers(1, 2), data=st.data())
def test_merge_keeps_law_without_coincident_atoms(dim, data):
    coord = st.floats(-1e3, 1e3, allow_nan=False)
    atoms = np.array(data.draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=1, max_size=12)))
    tol = 1e-12 * np.max(np.abs(atoms))
    assume(all(np.max(np.abs(a - b)) > tol for a, b in itertools.combinations(atoms, 2)))
    w = _normalised(data.draw(st.lists(st.floats(0.05, 1.0), min_size=len(atoms), max_size=len(atoms))))
    p = DiscreteDistribution(atoms, w)
    np.testing.assert_array_equal(p.atoms, atoms)
    np.testing.assert_array_equal(p.weights, w)


def fraction_signed_sum_expectations(psi, dist, signs):
    """Brute-force reference: (E psi(sum X_j), E psi(sum eps_j X_j)) over all
    k^(2m) outcomes, each signed sum formed exactly in rationals and rounded once,
    with the signs taken in their given order."""
    atoms = [[Fraction(c) for c in x] for x in dist.atoms.tolist()]
    probs, plus, signed = [], [], []
    for idx in itertools.product(range(dist.n_atoms), repeat=len(signs)):
        probs.append(math.prod(dist.weights[i] for i in idx))
        plus.append([float(sum(atoms[i][d] for i in idx)) for d in range(dist.dim)])
        signed.append([float(sum(s * atoms[i][d] for s, i in zip(signs, idx)))
                       for d in range(dist.dim)])
    probs = np.array(probs)
    return float(probs @ psi.eval_many(np.array(plus))), float(probs @ psi.eval_many(np.array(signed)))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    dim=st.integers(1, 2),
    alpha=st.floats(1.0, 2.0),
    half=st.integers(1, 2),
    data=st.data(),
)
def test_convolution_matches_exact_enumeration(dim, alpha, half, data):
    # alpha >= 1 keeps psi Lipschitz-like at 0, so the one extra rounding of
    # the convolution (and merging sums that differ by less than 1e-12 of
    # the largest sum) stays within the bound below
    coord = st.floats(-10.0, 10.0).filter(lambda c: c == 0.0 or abs(c) >= 1e-3)
    atoms = data.draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=1, max_size=4))
    w = _normalised(data.draw(st.lists(st.floats(0.05, 1.0), min_size=len(atoms), max_size=len(atoms))))
    signs = data.draw(st.permutations([1] * half + [-1] * half))
    p = DiscreteDistribution(np.array(atoms), w)
    psi = EuclideanPower(alpha, dim)
    e_plus, e_signed = fraction_signed_sum_expectations(psi, p, signs)
    gap = exact_gap(psi, convolution_power(p, half))
    assert abs(gap - (e_plus - e_signed)) <= 1e-12 * (e_plus + e_signed)


# ---------------------------------------------------------------------------
# the tiled pair engine
# ---------------------------------------------------------------------------


def _random_psi(spec_seed, dim, raw_alpha):
    """A random spec tree, or a RawAbsPower probe when raw_alpha is given."""
    if raw_alpha is not None:
        return RawAbsPower(raw_alpha, dim)
    return random_ndf_spec(np.random.default_rng(spec_seed), dim)


def _assembled(psi, x, sign):
    """The whole k x k pair array, put together from the engine's tiles and their mirrors."""
    k = x.shape[0]
    out = np.empty((k, k))
    for a, b, tile in _pair_tiles(psi, x, sign):
        out[a:, a:b] = tile.T
        out[a:b, a:] = tile
    return out


def _whole(psi, x, sign):
    """The k x k pair array psi(x_i + sign * x_j) from the pair method as one tile."""
    return psi.pair_values(x)(0, x.shape[0], sign)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    dim=st.integers(1, 3),
    k=st.integers(1, 300),
    sign=st.sampled_from([1.0, -1.0]),
    spec_seed=st.integers(0, 2**32 - 1),
    raw_alpha=st.none() | st.floats(0.1, 4.0),
    log_scale=st.floats(-3.0, 4.0),
)
@example(dim=2, k=300, sign=-1.0, spec_seed=3, raw_alpha=None, log_scale=0.0)
def test_pair_tiles_match_the_whole_array(dim, k, sign, spec_seed, raw_alpha, log_scale):
    # k above _PAIR_TILE ** 0.5 = 128 makes the engine run several row tiles
    psi = _random_psi(spec_seed, dim, raw_alpha)
    x = np.random.default_rng(spec_seed + k).normal(scale=10.0**log_scale, size=(k, dim))
    assert np.array_equal(_assembled(psi, x, sign), _whole(psi, x, sign))
    assert np.array_equal(gram_matrix(psi, x), _whole(psi, x, 1.0) - _whole(psi, x, -1.0))


def _random_law(seed, k, dim, log_scale):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.05, 1.0, size=k)
    return DiscreteDistribution(rng.normal(scale=10.0**log_scale, size=(k, dim)), w / w.sum())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 3),
    k=st.integers(1, 128),
    spec_seed=st.integers(0, 2**32 - 1),
    raw_alpha=st.none() | st.floats(0.1, 4.0),
    log_scale=st.floats(-3.0, 4.0),
)
def test_one_tile_sums_are_the_whole_array_forms(dim, k, spec_seed, raw_alpha, log_scale):
    # k <= 128 is one tile, as is every battery law: its sums keep the bits of w @ A @ w
    psi = _random_psi(spec_seed, dim, raw_alpha)
    law = _random_law(spec_seed + k, k, dim, log_scale)
    assert law.n_atoms == k
    w, x = law.weights, law.atoms
    plus, minus = _whole(psi, x, 1.0), _whole(psi, x, -1.0)
    e_plus, e_minus = float(w @ plus @ w), float(w @ minus @ w)
    assert exact_expectation(psi, law) == (e_plus, e_minus)
    assert variance_identity(psi, law) == (float(w @ (plus - minus) @ w), e_plus - e_minus, e_plus, e_minus)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 3),
    k=st.integers(1, 60),
    spec_seed=st.integers(0, 2**32 - 1),
    raw_alpha=st.none() | st.floats(0.1, 4.0),
    log_scale=st.floats(-3.0, 4.0),
)
@example(dim=2, k=60, spec_seed=7, raw_alpha=None, log_scale=1.0)
def test_multi_tile_sums_agree_with_the_whole_array_forms(dim, k, spec_seed, raw_alpha, log_scale):
    # 64 pairs per tile: one row per tile from k = 33 on, so the sums are
    # added tile by tile; the reference forms reduce the same pair values
    psi = _random_psi(spec_seed, dim, raw_alpha)
    law = _random_law(spec_seed + k, k, dim, log_scale)
    assert law.n_atoms == k
    w = law.weights
    with mock.patch.object(distributions, "_PAIR_TILE", 64):
        plus, minus = _assembled(psi, law.atoms, 1.0), _assembled(psi, law.atoms, -1.0)
        e_plus, e_minus = exact_expectation(psi, law)
        quad, gap, vi_plus, vi_minus = variance_identity(psi, law)
    kernel = plus - minus
    eps = np.finfo(float).eps
    for got, mat in ((e_plus, plus), (e_minus, minus), (vi_plus, plus), (vi_minus, minus), (quad, kernel)):
        assert abs(got - w @ mat @ w) <= 8.0 * eps * k * (w @ np.abs(mat) @ w)
    assert (vi_plus, vi_minus, gap) == (e_plus, e_minus, e_plus - e_minus)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    dim=st.integers(1, 3),
    k=st.integers(1, 40),
    sign=st.sampled_from([1.0, -1.0]),
    spec_seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-3.0, 6.0),
)
def test_triplet_pair_values_agree_with_eval_many_on_the_pair_points(dim, k, sign, spec_seed, log_scale):
    # Both sides round <x, u> in their own way: eval_many on the formed point
    # x_i + sign x_j, the half-angle form on x_i and x_j apiece; cos moves by
    # at most the argument's error, about eps * sum_l (|x_il| + |x_jl|) |u_l|
    # per atom.  The additions of the terms round at the size of psi itself,
    # which the quadratic part can dominate.  c = 16 was fixed from a
    # first-order count of these roundings in dimension 3, not fitted.
    rng = np.random.default_rng(spec_seed)
    psi = random_triplet_spec(rng, dim)
    x = rng.normal(scale=10.0**log_scale, size=(k, dim))
    direct = psi.eval_many((x[:, None] + sign * x[None]).reshape(-1, dim)).reshape(k, k)
    size = np.abs(x)[:, None] + np.abs(x)[None]  # |x_il| + |x_jl|
    scale = sum(m * (1.0 + size @ np.abs(u)) for u, m in psi.triplet.atoms) + np.abs(direct)
    assert np.all(np.abs(psi.pair_values(x)(0, k, sign) - direct) <= 16.0 * np.finfo(float).eps * scale)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    dim=st.integers(1, 3),
    k=st.integers(1, 40),
    sign=st.sampled_from([1.0, -1.0]),
    half_alpha=st.floats(0.0, 1.0, exclude_min=True) | st.just(1.0),
    raw=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-3.0, 6.0),
)
def test_euclidean_pair_values_agree_with_eval_many_on_the_pair_points(dim, k, sign, half_alpha, raw, seed,
                                                                         log_scale):
    # The tile adds the squared coordinate differences in column order, as
    # eval_many's einsum does in dimensions 1 and 2, so there the bits agree.
    # In dimension 3 the einsum adds (0 + 2) + 1: each order is within eps of
    # the exact sum of three squares, so the sums differ by at most 2 eps
    # relative, the power x**p (p = alpha / 2 <= 2) scales that by p, and it
    # rounds by an ulp on each side: 8 eps relative, fixed from this count.
    psi = RawAbsPower(4.0 * half_alpha, dim) if raw else EuclideanPower(2.0 * half_alpha, dim)
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=10.0**log_scale, size=(k, dim))
    x[rng.random((k, dim)) < 0.1] = -0.0
    x[rng.random(k) < 0.2] = x[0]  # repeated points: zero differences off the diagonal
    tile = psi.pair_values(x)(0, k, sign)
    direct = psi.eval_many((x[:, None] + sign * x[None]).reshape(-1, dim)).reshape(k, k)
    if dim < 3:
        assert np.array_equal(tile.view(np.int64), direct.view(np.int64))
    else:
        assert np.all(np.abs(tile - direct) <= 8.0 * np.finfo(float).eps * direct)
    assert np.array_equal(tile.view(np.int64), tile.T.view(np.int64))  # mirrored pairs, bit for bit
    if sign < 0:
        assert np.array_equal(np.diag(tile).view(np.int64), np.zeros(k, dtype=np.int64))  # exactly +0


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    dim=st.integers(1, 3),
    spec_seed=st.integers(0, 2**32 - 1),
    raw_alpha=st.none() | st.floats(0.1, 4.0),
    log_scale=st.floats(-3.0, 4.0),
)
def test_psi_is_even_bit_for_bit(dim, spec_seed, raw_alpha, log_scale):
    # the engine mirrors psi(x_i - x_j) into psi(x_j - x_i) on this assumption
    psi = _random_psi(spec_seed, dim, raw_alpha)
    v = np.random.default_rng(spec_seed).normal(scale=10.0**log_scale, size=(64, dim))
    assert np.array_equal(psi.eval_many(-v), psi.eval_many(v))


def test_exact_gap_memory_is_bounded_by_the_tile():
    # the sums are reduced tile by tile: no k x k array (30.5 MB) is made
    rng = np.random.default_rng(5)
    w = rng.uniform(0.05, 1.0, size=2000)
    law = DiscreteDistribution(rng.normal(size=(2000, 2)), w / w.sum())
    tracemalloc.start()
    try:
        exact_gap(EuclideanPower(1.0, 2), law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    dim=st.integers(1, 3),
    alpha=st.floats(0.1, 2.0),
    c=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3),
    data=st.data(),
)
def test_gap_is_homogeneous(dim, alpha, c, data):
    coord = st.floats(-10.0, 10.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-3)  # c * x stays normal
    atoms = np.array(data.draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=1, max_size=12)))
    w = _normalised(data.draw(st.lists(st.floats(0.05, 1.0), min_size=len(atoms), max_size=len(atoms))))
    law, scaled = DiscreteDistribution(atoms, w), DiscreteDistribution(c * atoms, w)
    assume(scaled.n_atoms == law.n_atoms)  # rounding c * x can move a pair across the merge tolerance
    psi = EuclideanPower(alpha, dim)
    e_plus, e_minus = exact_expectation(psi, scaled)
    # rounding c * x and the power costs a few eps per term, on top of the
    # k-term sums; 20000 random cases of this shape stayed below 3.6 * rounding
    rounding = np.finfo(float).eps * scaled.n_atoms * (e_plus + e_minus)
    assert abs(exact_gap(psi, scaled) - abs(c) ** alpha * exact_gap(psi, law)) <= 8.0 * rounding
