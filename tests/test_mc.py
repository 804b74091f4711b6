import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ndflab import (
    CounterexampleParams,
    CounterexampleSampler,
    DiscreteDistribution,
    DiscreteSampler,
    EuclideanPower,
    GaussianIso,
    RawAbsPower,
    SignPattern,
    UniformBox,
    exact_expectation,
    exact_signed_sum_gap,
    mc_inequality_verdict,
    mc_pair_estimates,
    mc_signed_sum,
    sample,
)
from ndflab.cli import _exact_check
from ndflab.mc import (
    _CHUNK,
    CONSISTENT,
    INCONCLUSIVE,
    VIOLATION,
    parse_seed,
    sampler_from_obj,
    sampler_to_obj,
)
from randgen import random_distribution, random_ndf_spec

ABS1 = EuclideanPower(1.0, 1)
TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)


class TestSample:
    def test_point_mass(self):
        law = DiscreteDistribution(np.array([[2.0, -1.0]]), np.array([1.0]))
        draws = sample(DiscreteSampler(law), seed=0, count=5)
        np.testing.assert_array_equal(draws, np.tile([2.0, -1.0], (5, 1)))

    def test_determinism(self):
        spec = GaussianIso(2, 1.5, [0.0, 1.0])
        np.testing.assert_array_equal(sample(spec, 99, 1000), sample(spec, 99, 1000))

    def test_different_seeds_differ(self):
        spec = GaussianIso(1, 1.0, [0.0])
        assert not np.array_equal(sample(spec, 1, 100), sample(spec, 2, 100))

    def test_gaussian_mean_clt(self):
        draws = sample(GaussianIso(1, 1.0, [0.0]), seed=3, count=10**6)
        assert abs(draws.mean()) <= 4.0 / np.sqrt(10**6)

    def test_uniform_box_support(self):
        spec = UniformBox([0.0, -1.0], [2.0, 1.0])
        draws = sample(spec, 4, 10_000)
        assert np.all(draws >= [0.0, -1.0]) and np.all(draws <= [2.0, 1.0])

    def test_discrete_frequencies(self):
        law = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.25, 0.75]))
        draws = sample(DiscreteSampler(law), 5, 100_000)
        assert draws.mean() == pytest.approx(0.75, abs=0.01)

    def test_gaussian_sigma_must_be_finite_and_positive(self):
        for sigma in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                GaussianIso(1, sigma, [0.0])

    def test_counterexample_sampler(self):
        spec = CounterexampleSampler(CounterexampleParams(3.0, 1.0, 10.0))
        draws = sample(spec, 6, 10_000)
        assert set(np.unique(draws)) == {-10.0, 1.0}


class TestPairEstimates:
    def test_symmetric_spec_agreement(self):
        est_minus, est_plus = mc_pair_estimates(ABS1, GaussianIso(1, 1.0, [0.0]), 10**5, 7)
        combined = np.hypot(est_minus.stderr, est_plus.stderr)
        assert abs(est_minus.mean - est_plus.mean) <= 4 * combined

    def test_gaussian_reference_value(self):
        est_minus, est_plus = mc_pair_estimates(ABS1, GaussianIso(1, 1.0, [0.0]), 10**6, 8)
        assert abs(est_minus.mean - TWO_OVER_SQRT_PI) <= 4 * est_minus.stderr
        assert abs(est_plus.mean - TWO_OVER_SQRT_PI) <= 4 * est_plus.stderr

    def test_matches_exact_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            dim = int(rng.integers(1, 3))
            psi = random_ndf_spec(rng, dim, depth=2)
            law = random_distribution(rng, dim, max_atoms=6)
            est_minus, est_plus = mc_pair_estimates(psi, DiscreteSampler(law), 10**5, 9)
            assert abs(est_minus.mean - exact_expectation(psi, law, "difference")) <= 5 * max(
                est_minus.stderr, 1e-12
            )
            assert abs(est_plus.mean - exact_expectation(psi, law, "sum")) <= 5 * max(
                est_plus.stderr, 1e-12
            )

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            mc_pair_estimates(ABS1, GaussianIso(1, 1.0, [0.0]), 50, 0)


class TestVerdict:
    def test_cnd_never_violates(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            dim = int(rng.integers(1, 3))
            psi = random_ndf_spec(rng, dim, depth=2)
            spec = GaussianIso(dim, float(rng.uniform(0.5, 2.0)), rng.normal(size=dim))
            verdict = mc_inequality_verdict(psi, spec, 10**4, int(rng.integers(2**32)))
            assert verdict.kind in (CONSISTENT, INCONCLUSIVE)

    def test_counterexample_detected(self):
        probe = RawAbsPower(3.0)
        spec = CounterexampleSampler(CounterexampleParams(3.0, 1.0, 10.0))
        verdict = mc_inequality_verdict(probe, spec, 10**6, 11)
        assert verdict.kind == VIOLATION
        assert verdict.z_score > 5.0

    def test_degenerate_gap_is_consistent(self):
        law = DiscreteDistribution(np.array([[0.0]]), np.array([1.0]))
        verdict = mc_inequality_verdict(ABS1, DiscreteSampler(law), 1000, 12)
        assert verdict.kind == CONSISTENT
        assert verdict.z_score == 0.0


class TestSignedSum:
    def test_symmetric_spec(self):
        pattern = SignPattern((1, 1, -1, -1))
        est_signed, est_plus = mc_signed_sum(ABS1, GaussianIso(1, 1.0, [0.0]), pattern, 10**5, 13)
        combined = np.hypot(est_signed.stderr, est_plus.stderr)
        assert abs(est_signed.mean - est_plus.mean) <= 4 * combined

    def test_bernoulli_oracle(self):
        law = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        pattern = SignPattern((1, 1, -1, -1))
        est_signed, est_plus = mc_signed_sum(ABS1, DiscreteSampler(law), pattern, 10**5, 14)
        assert abs(est_signed.mean - 0.75) <= 4 * est_signed.stderr
        assert abs(est_plus.mean - 2.0) <= 4 * est_plus.stderr
        # the MC gap matches the exact enumeration
        exact = exact_signed_sum_gap(ABS1, law, pattern)
        combined = np.hypot(est_signed.stderr, est_plus.stderr)
        assert abs((est_plus.mean - est_signed.mean) - exact) <= 5 * combined

    def test_pair_pattern_matches_pair_estimates(self):
        spec = GaussianIso(1, 1.0, [0.5])
        est_signed, est_plus = mc_signed_sum(ABS1, spec, SignPattern((1, -1)), 10**5, 15)
        est_minus2, est_plus2 = mc_pair_estimates(ABS1, spec, 10**5, 16)
        assert abs(est_signed.mean - est_minus2.mean) <= 5 * np.hypot(
            est_signed.stderr, est_minus2.stderr
        )


class TestPlumbing:
    def test_parse_seed(self):
        assert parse_seed(7) == 7
        assert parse_seed("42") == 42
        assert parse_seed("0xFF") == 255
        with pytest.raises(ValueError):
            parse_seed(-1)
        with pytest.raises(ValueError):
            parse_seed("abc")
        with pytest.raises(ValueError):
            parse_seed(2**64)

    def test_sampler_json_round_trip(self):
        specs = [
            GaussianIso(2, 1.0, [0.0, 1.0]),
            UniformBox([0.0], [1.0]),
            CounterexampleSampler(CounterexampleParams(3.0, 1.0, 10.0)),
            DiscreteSampler(DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))),
        ]
        for spec in specs:
            clone = sampler_from_obj(sampler_to_obj(spec))
            np.testing.assert_array_equal(sample(spec, 3, 100), sample(clone, 3, 100))

    def test_estimate_stderr_definition(self):
        est_minus, _ = mc_pair_estimates(ABS1, GaussianIso(1, 1.0, [0.0]), 1000, 17)
        spec = GaussianIso(1, 1.0, [0.0])
        rng = np.random.Generator(np.random.Philox(key=17))
        x = spec.draw(rng, 1000)
        y = spec.draw(rng, 1000)
        vals = np.abs((x - y)[:, 0])
        assert est_minus.mean == pytest.approx(vals.mean(), rel=1e-12)
        assert est_minus.stderr == pytest.approx(vals.std(ddof=1) / np.sqrt(1000), rel=1e-9)


class TestStreaming:
    """The single chunked stream behind every Monte Carlo estimator."""

    def test_memory_is_bounded_by_the_chunk(self):
        # whole-array draws of 10^6 2-d pairs peak near 69 MB
        tracemalloc.start()
        try:
            mc_inequality_verdict(EuclideanPower(1.0, 2), GaussianIso(2, 1.0, [0.0, 0.0]), 10**6, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_signed_sum_stream_is_unchanged(self):
        # 3 full chunks plus a partial one; the values are those of a single
        # whole-array draw of all n * n_vars samples, split into the same chunks
        law = DiscreteDistribution(np.array([[0.0], [1.0], [-2.5]]), np.array([0.2, 0.3, 0.5]))
        cases = [
            (EuclideanPower(1.0, 2), GaussianIso(2, 1.0, [0.5, -0.25]), (1, 1, -1, -1), 2024,
             [(2.5040956524269298, 0.0029269744369001464), (3.237693759362245, 0.003570967450111977)]),
            (EuclideanPower(1.5, 1), DiscreteSampler(law), (1, -1), 2025,
             [(2.878386748337883, 0.006266382891623746), (4.516012147850021, 0.008911420276878171)]),
            (EuclideanPower(0.5, 2), UniformBox([0.0, -1.0], [2.0, 1.0]), (1, -1, 1, -1), 2026,
             [(1.167418483899571, 0.0007070533024436409), (2.022230208348992, 0.000636952612292047)]),
        ]
        assert 3 * _CHUNK < 200_001 < 4 * _CHUNK
        for psi, spec, signs, seed, expected in cases:
            estimates = mc_signed_sum(psi, spec, SignPattern(signs), 200_001, seed)
            assert [(e.mean, e.stderr) for e in estimates] == expected

    def test_pair_estimates_follow_the_per_chunk_order(self):
        n = _CHUNK + 1
        spec = GaussianIso(1, 1.0, [0.25])
        est_minus, est_plus = mc_pair_estimates(ABS1, spec, n, 18)
        rng = np.random.Generator(np.random.Philox(key=18))
        xs, ys = [], []
        for count in (_CHUNK, 1):  # x then y for each chunk
            xs.append(spec.draw(rng, count))
            ys.append(spec.draw(rng, count))
        x, y = np.concatenate(xs), np.concatenate(ys)
        for est, vals in ((est_minus, np.abs(x - y)[:, 0]), (est_plus, np.abs(x + y)[:, 0])):
            assert est.n_samples == n
            assert est.mean == pytest.approx(vals.mean(), rel=1e-12)
            assert est.stderr == pytest.approx(vals.std(ddof=1) / np.sqrt(n), rel=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_is_an_error(self):
        with pytest.raises(ValueError, match="not finite"):
            mc_inequality_verdict(EuclideanPower(2.0, 1), GaussianIso(1, 1e200, [0.0]), 1000, 4)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(dim=st.integers(1, 2), spec_seed=st.integers(0, 2**32 - 1), data=st.data())
def test_mc_never_flags_a_law_the_exact_path_passes(dim, spec_seed, data):
    psi = random_ndf_spec(np.random.default_rng(spec_seed), dim, depth=2)
    coord = st.integers(-4, 4).map(lambda c: c / 2.0)
    atoms = data.draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=1, max_size=4))
    raw = np.array(data.draw(st.lists(st.integers(1, 5), min_size=len(atoms), max_size=len(atoms))), float)
    law = DiscreteDistribution(np.array(atoms), raw / raw.sum())
    _, passed = _exact_check(psi, law, 1e-10)
    assert passed
    verdict = mc_inequality_verdict(psi, DiscreteSampler(law), 2000, spec_seed)
    assert verdict.kind != VIOLATION
