import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ndflab import (
    CounterexampleParams,
    DiscreteDistribution,
    EnumerationLimitError,
    EuclideanPower,
    Power,
    RawAbsPower,
    SignPattern,
    Subordinated,
    convolution_power,
    counterexample_distribution,
    counterexample_gap_closed_form,
    counterexample_search,
    ess_bounds_check,
    exact_expectation,
    exact_gap,
    exact_signed_sum_gap,
    tail_identity_check,
)
from ndflab.distributions import distribution_from_obj, distribution_to_obj
from randgen import random_distribution, random_ndf_spec, random_sign_pattern

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
        assert exact_expectation(ABS1, p, "difference") == 0.0

    def test_symmetric_two_point(self):
        p = DiscreteDistribution(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
        assert exact_expectation(ABS1, p, "difference") == pytest.approx(1.0)
        assert exact_expectation(ABS1, p, "sum") == pytest.approx(1.0)

    def test_bernoulli(self):
        p = bernoulli_half()
        assert exact_expectation(ABS1, p, "difference") == pytest.approx(0.5)
        assert exact_expectation(ABS1, p, "sum") == pytest.approx(1.0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            exact_expectation(ABS1, bernoulli_half(), "product")


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
    def test_pair_pattern_reduces_to_exact_gap(self):
        p = bernoulli_half()
        gap2 = exact_signed_sum_gap(ABS1, p, SignPattern((1, -1)))
        assert gap2 == pytest.approx(exact_gap(ABS1, p), abs=1e-12)

    def test_bernoulli_four_variables(self):
        gap = exact_signed_sum_gap(ABS1, bernoulli_half(), SignPattern((1, 1, -1, -1)))
        assert gap == pytest.approx(2.0 - 0.75)

    def test_symmetric_law_zero(self):
        p = DiscreteDistribution(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
        assert abs(exact_signed_sum_gap(ABS1, p, SignPattern((1, 1, -1, -1)))) <= 1e-10

    def test_enumeration_guard(self):
        # 40 generic atoms: the 4-fold sum has C(43, 4) = 123410 atoms, whose
        # squared support blows the 10^7 pair-term budget
        rng = np.random.default_rng(0)
        w = rng.uniform(0.05, 1.0, size=40)
        p = DiscreteDistribution(rng.normal(size=(40, 1)), w / w.sum())
        assert convolution_power(p, 2).n_atoms == 40 * 41 // 2
        with pytest.raises(EnumerationLimitError):
            exact_signed_sum_gap(ABS1, p, SignPattern((1,) * 4 + (-1,) * 4))

    def test_cusp_case_matches_exact_rationals(self):
        # |x|^0.1 magnifies any leftover ulp of x1 + x2 - x1 - x2 at the cusp;
        # the pinned value comes from signed sums formed in exact rationals
        p = DiscreteDistribution(np.array([[0.1], [0.2], [0.7]]), np.array([0.25, 0.25, 0.5]))
        psi, pattern = EuclideanPower(0.1, 1), SignPattern((1, 1, -1, -1))
        e_plus, e_signed = fraction_signed_sum_expectations(psi, p, pattern)
        for gap in (exact_signed_sum_gap(psi, p, pattern), e_plus - e_signed):
            assert gap == pytest.approx(0.32099480338887626, rel=1e-15, abs=0.0)

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            SignPattern((1, 1))
        with pytest.raises(ValueError):
            SignPattern((1, -1, 1))
        with pytest.raises(ValueError):
            SignPattern((1, 0))

    def test_random_battery(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            dim = int(rng.integers(1, 3))
            psi = random_ndf_spec(rng, dim, depth=2)
            p = random_distribution(rng, dim, max_atoms=5)
            pattern = random_sign_pattern(rng, int(rng.integers(1, 4)))
            assert exact_signed_sum_gap(psi, p, pattern) >= -1e-10


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


class TestTailIdentity:
    def test_symmetric(self):
        p = DiscreteDistribution(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
        lhs, rhs = tail_identity_check(p)
        assert lhs == pytest.approx(0.0, abs=1e-14)
        assert rhs == pytest.approx(0.0, abs=1e-14)

    def test_point_mass(self):
        p = DiscreteDistribution(np.array([[1.0]]), np.array([1.0]))
        assert tail_identity_check(p) == (pytest.approx(2.0), pytest.approx(2.0))

    def test_bernoulli(self):
        for prob in (0.2, 0.5, 0.9):
            p = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([1 - prob, prob]))
            lhs, rhs = tail_identity_check(p)
            assert lhs == pytest.approx(2 * prob**2, abs=1e-14)
            assert rhs == pytest.approx(2 * prob**2, abs=1e-14)

    def test_random_battery(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            p = random_distribution(rng, 1)
            lhs, rhs = tail_identity_check(p)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
            assert rhs >= -1e-14

    def test_requires_dim_1(self):
        p = DiscreteDistribution(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            tail_identity_check(p)


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
        q = distribution_from_obj(distribution_to_obj(p))
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


def fraction_signed_sum_expectations(psi, dist, pattern):
    """Brute-force reference: (E psi(sum X_j), E psi(sum eps_j X_j)) over all
    k^(2m) outcomes, each signed sum formed exactly in rationals and rounded once."""
    atoms = [[Fraction(c) for c in x] for x in dist.atoms.tolist()]
    probs, plus, signed = [], [], []
    for idx in itertools.product(range(dist.n_atoms), repeat=len(pattern)):
        probs.append(math.prod(dist.weights[i] for i in idx))
        plus.append([float(sum(atoms[i][d] for i in idx)) for d in range(dist.dim)])
        signed.append([float(sum(s * atoms[i][d] for s, i in zip(pattern.signs, idx)))
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
    pattern = SignPattern(tuple(signs))
    e_plus, e_signed = fraction_signed_sum_expectations(psi, p, pattern)
    gap = exact_signed_sum_gap(psi, p, pattern)
    assert abs(gap - (e_plus - e_signed)) <= 1e-12 * (e_plus + e_signed)
