import functools
import hashlib
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ndflab import (
    ConicSum,
    CounterexampleParams,
    CounterexampleSampler,
    DiscreteDistribution,
    DiscreteSampler,
    EuclideanPower,
    FromTriplet,
    GaussianIso,
    LevyTriplet,
    RawAbsPower,
    Subordinated,
    UniformBox,
    convolution_power,
    counterexample_distribution,
    exact_expectation,
    exact_gap,
    mc_inequality_verdict,
    sample,
)
from ndflab.cli import _exact_check, run
from ndflab.core import NDF
from ndflab.fields import decode, encode
from ndflab.distributions import DISTRIBUTION
from ndflab.mc import (
    _CHUNK,
    _SUM_BLOCK,
    _chunk_stats,
    _combine,
    _estimate,
    _look_bound,
    _pair_draws,
    _pair_values,
    CONSISTENT,
    ConvolutionSampler,
    INCONCLUSIVE,
    SAMPLERS,
    VIOLATION,
    parse_seed,
)
from randgen import random_distribution, random_ndf_spec, random_sampler

ABS1 = EuclideanPower(1.0, 1)
# a 2-d spec exercising the quadratic form, a Levy atom and a power
PSI2 = ConicSum((
    (1.0, FromTriplet(LevyTriplet(q=np.array([[1.0, 0.3], [0.3, 0.5]]), atoms=((np.array([0.7, -1.2]), 0.8),)))),
    (0.5, EuclideanPower(1.5, 2)),
))
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

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_column_wise_draws_equal_the_broadcast_form(self, dim):
        # draws are scaled, shifted and summed a column at a time, with the bits of the row broadcast
        rng = np.random.default_rng(dim)
        mean, lower = rng.normal(size=dim) * 3.0, rng.normal(size=dim)
        upper = lower + rng.uniform(0.1, 5.0, size=dim)
        count, seed = 3 * (_SUM_BLOCK // 3) + 5, 20 + dim
        philox = lambda: np.random.Generator(np.random.Philox(key=seed))
        np.testing.assert_array_equal(sample(GaussianIso(dim, 1.7, mean), seed, count),
                                      philox().standard_normal((count, dim)) * 1.7 + mean)
        box = UniformBox(lower, upper)
        np.testing.assert_array_equal(sample(box, seed, count),
                                      philox().random((count, dim)) * (upper - lower) + lower)
        draws = sample(box, seed, 3 * count).reshape(count, 3, dim)
        np.testing.assert_array_equal(sample(ConvolutionSampler(box, 3), seed, count),
                                      draws[:, 0] + draws[:, 1] + draws[:, 2])

    @pytest.mark.parametrize("m", [0, -1, 2.5, 2.0, True])
    def test_sum_sampler_needs_a_positive_integer_m(self, m):
        with pytest.raises(ValueError, match="m must be a positive integer"):
            ConvolutionSampler(GaussianIso(1, 1.0, [0.0]), m)

    def test_sum_sampler_takes_a_numpy_integer_m(self):
        spec = GaussianIso(1, 1.0, [0.0])
        np.testing.assert_array_equal(sample(ConvolutionSampler(spec, np.int64(2)), 3, 50),
                                      sample(ConvolutionSampler(spec, 2), 3, 50))


class TestPairEstimates:
    def test_symmetric_spec_agreement(self):
        verdict = mc_inequality_verdict(ABS1, GaussianIso(1, 1.0, [0.0]), 10**5, 7)
        est_minus, est_plus = verdict.est_minus, verdict.est_plus
        combined = np.hypot(est_minus.stderr, est_plus.stderr)
        assert abs(est_minus.mean - est_plus.mean) <= 4 * combined

    def test_gaussian_reference_value(self):
        verdict = mc_inequality_verdict(ABS1, GaussianIso(1, 1.0, [0.0]), 10**6, 8)
        est_minus, est_plus = verdict.est_minus, verdict.est_plus
        assert abs(est_minus.mean - TWO_OVER_SQRT_PI) <= 4 * est_minus.stderr
        assert abs(est_plus.mean - TWO_OVER_SQRT_PI) <= 4 * est_plus.stderr

    def test_matches_exact_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            dim = int(rng.integers(1, 3))
            psi = random_ndf_spec(rng, dim, depth=2)
            law = random_distribution(rng, dim, max_atoms=6)
            verdict = mc_inequality_verdict(psi, DiscreteSampler(law), 10**5, 9)
            est_minus, est_plus = verdict.est_minus, verdict.est_plus
            e_plus, e_minus = exact_expectation(psi, law)
            assert abs(est_minus.mean - e_minus) <= 5 * max(est_minus.stderr, 1e-12)
            assert abs(est_plus.mean - e_plus) <= 5 * max(est_plus.stderr, 1e-12)

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            mc_inequality_verdict(ABS1, GaussianIso(1, 1.0, [0.0]), 50, 0)


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
    """A pattern with m plus and m minus signs is the pair check on the m-fold sum."""

    def test_symmetric_spec(self):
        verdict = mc_inequality_verdict(ABS1, ConvolutionSampler(GaussianIso(1, 1.0, [0.0]), 2), 10**5, 13)
        est_signed, est_plus = verdict.est_minus, verdict.est_plus
        combined = np.hypot(est_signed.stderr, est_plus.stderr)
        assert abs(est_signed.mean - est_plus.mean) <= 4 * combined

    def test_bernoulli_oracle(self):
        law = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        verdict = mc_inequality_verdict(ABS1, ConvolutionSampler(DiscreteSampler(law), 2), 10**5, 14)
        est_signed, est_plus = verdict.est_minus, verdict.est_plus
        assert abs(est_signed.mean - 0.75) <= 4 * est_signed.stderr
        assert abs(est_plus.mean - 2.0) <= 4 * est_plus.stderr
        # the MC gap matches the exact enumeration
        exact = exact_gap(ABS1, convolution_power(law, 2))
        combined = np.hypot(est_signed.stderr, est_plus.stderr)
        assert abs((est_plus.mean - est_signed.mean) - exact) <= 5 * combined

    def test_pair_pattern_matches_pair_estimates(self):
        spec = GaussianIso(1, 1.0, [0.5])
        est_signed = mc_inequality_verdict(ABS1, ConvolutionSampler(spec, 1), 10**5, 15).est_minus
        est_minus2 = mc_inequality_verdict(ABS1, spec, 10**5, 16).est_minus
        assert abs(est_signed.mean - est_minus2.mean) <= 5 * np.hypot(
            est_signed.stderr, est_minus2.stderr
        )


    def test_sum_sampler_adds_consecutive_draws_in_order(self):
        spec = UniformBox([0.0, -1.0], [2.0, 1.0])
        np.testing.assert_array_equal(sample(ConvolutionSampler(spec, 1), 5, 300), sample(spec, 5, 300))
        count = 3 * (_SUM_BLOCK // 3) + 5  # the draws are added in 4 row blocks
        draws = sample(spec, 5, 3 * count).reshape(count, 3, 2)
        expected = draws[:, 0] + draws[:, 1] + draws[:, 2]
        np.testing.assert_array_equal(sample(ConvolutionSampler(spec, 3), 5, count), expected)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(dim=st.integers(1, 2), half=st.integers(1, 4), spec_seed=st.integers(0, 2**32 - 1), data=st.data())
def test_signed_sum_is_the_pair_check_on_the_m_fold_sum(dim, half, spec_seed, data):
    # only m = half matters: in both engines every order of the signs gives the same CSV bytes
    rng = np.random.default_rng(spec_seed)
    psi, spec = random_ndf_spec(rng, dim, depth=1), random_sampler(rng, dim)
    law = random_distribution(rng, dim, max_atoms=3)
    signs = data.draw(st.permutations([1] * half + [-1] * half))
    n, seed = 300, spec_seed % 1000
    for engine in ({"distribution": encode(DISTRIBUTION, law)},
                   {"sampler": encode(SAMPLERS, spec), "n_samples": n, "seed": seed}):
        shuffled, ordered = (run("signed-sum", {"psi": encode(NDF, psi), "pattern": list(pattern), **engine})
                             for pattern in (signs, [1] * half + [-1] * half))
        assert shuffled["csv"] == ordered["csv"]
        results = shuffled["results"]
        if "distribution" in engine:
            m_fold = convolution_power(law, half)
            assert (results["e_allplus"], results["e_signed"]) == exact_expectation(psi, m_fold)
    verdict = mc_inequality_verdict(psi, ConvolutionSampler(spec, half), n, seed)
    estimates = [(e.mean, e.stderr) for e in (verdict.est_minus, verdict.est_plus)]
    assert estimates == [(results["e_signed"], results["stderr_signed"]),
                         (results["e_allplus"], results["stderr_allplus"])]
    if half == 1:
        verdict = mc_inequality_verdict(psi, spec, n, seed)
        assert estimates == [(e.mean, e.stderr) for e in (verdict.est_minus, verdict.est_plus)]


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
            clone = decode(SAMPLERS, encode(SAMPLERS, spec))
            np.testing.assert_array_equal(sample(spec, 3, 100), sample(clone, 3, 100))

    def test_estimate_stderr_definition(self):
        est_minus = mc_inequality_verdict(ABS1, GaussianIso(1, 1.0, [0.0]), 1000, 17).est_minus
        spec = GaussianIso(1, 1.0, [0.0])
        rng = np.random.Generator(np.random.Philox(key=17))
        x = spec.draw(rng, 1000)
        y = spec.draw(rng, 1000)
        vals = np.abs((x - y)[:, 0])
        assert est_minus.mean == pytest.approx(vals.mean(), rel=1e-12)
        assert est_minus.stderr == pytest.approx(vals.std(ddof=1) / np.sqrt(1000), rel=1e-9)


PINNED_N = 200_001
NO_LOOK = 40.0  # 1 - Phi(40) underflows, so no look stops a run and it folds all n samples
# (psi, spec, seed, [(mean, stderr) of E psi(X-Y), of E psi(X+Y)]) for PINNED_N samples
PAIR_CASES = [
    (PSI2, GaussianIso(2, 1.3, [0.4, -0.2]), 2027,
     [(5.238970949925789, 0.009632998961378291), (5.667683896434567, 0.010436724693240427)]),
    (PSI2, UniformBox([-1.0, 0.0], [2.0, 0.5]), 2028,
     [(1.6355174376133583, 0.0038216771427266047), (2.733279944792089, 0.0059911584308788915)]),
    (PSI2, DiscreteSampler(DiscreteDistribution(np.array([[0.0, 1.0], [1.5, -0.5], [-2.0, 0.25]]),
                                                np.array([0.2, 0.3, 0.5]))), 2029,
     [(4.470433146156679, 0.009573998025433031), (5.602175715834823, 0.010994608050101821)]),
    (RawAbsPower(3.0), CounterexampleSampler(CounterexampleParams(3.0, 1.0, 10.0)), 2030,
     [(237.46252268738658, 1.1394607672400439), (215.23389383053086, 1.8411641573783528)]),
]
# (psi, spec, signs, seed, [(mean, stderr) of the signed sum, of the all-plus sum])
SUM_CASES = [
    (EuclideanPower(1.0, 2), GaussianIso(2, 1.0, [0.5, -0.25]), (1, 1, -1, -1), 2024,
     [(2.507391193817476, 0.0029302341619452635), (3.235940633162313, 0.0035646715583426193)]),
    (EuclideanPower(1.5, 1), DiscreteSampler(DiscreteDistribution(np.array([[0.0], [1.0], [-2.5]]),
                                                                  np.array([0.2, 0.3, 0.5]))), (1, -1), 2025,
     [(2.8741648328858362, 0.006269158249693392), (4.518043250337087, 0.008918740579693947)]),
    (EuclideanPower(0.5, 2), UniformBox([0.0, -1.0], [2.0, 1.0]), (1, -1, 1, -1), 2026,
     [(1.166291979741005, 0.0007081742368684107), (2.022596830553616, 0.000635701031552715)]),
    (PSI2, UniformBox([-1.0, 0.0], [2.0, 0.5]), (1, -1, -1, 1, 1, -1, 1, -1), 2031,
     [(5.4177341602549465, 0.013864405596414678), (20.54970400892112, 0.0348149165595614)]),
]


class TestStreaming:
    """The single chunked stream behind every Monte Carlo estimator."""

    def test_memory_is_bounded_by_the_chunk(self):
        # whole-array draws of 10^6 2-d pairs peak near 69 MB
        tracemalloc.start()
        try:
            mc_inequality_verdict(EuclideanPower(1.0, 2), GaussianIso(2, 1.0, [0.0, 0.0]), 10**6, 3, NO_LOOK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_signed_sum_stream_is_unchanged(self):
        # 6 full chunks plus a partial one; each chunk draws S then S', each
        # the in-order sum of m consecutive draws (m = n_vars / 2)
        assert 6 * _CHUNK < PINNED_N < 7 * _CHUNK
        for psi, spec, signs, seed, expected in SUM_CASES:
            verdict = mc_inequality_verdict(psi, ConvolutionSampler(spec, len(signs) // 2), PINNED_N, seed,
                                            NO_LOOK)
            assert [(e.mean, e.stderr) for e in (verdict.est_minus, verdict.est_plus)] == expected

    def test_pair_estimates_are_unchanged(self):
        # (mean, stderr) of E psi(X-Y) and E psi(X+Y) over 6 full chunks plus a partial one
        for psi, spec, seed, expected in PAIR_CASES:
            verdict = mc_inequality_verdict(psi, spec, PINNED_N, seed, NO_LOOK)
            assert [(e.mean, e.stderr) for e in (verdict.est_minus, verdict.est_plus)] == expected

    def test_pinned_estimates_follow_the_per_chunk_order(self):
        # x and y rebuilt chunk by chunk (x then y, each the in-order sum of
        # m consecutive draws) and evaluated whole give the pinned values
        cases = [(psi, spec, 1, seed, expected) for psi, spec, seed, expected in PAIR_CASES]
        cases += [(psi, spec, len(signs) // 2, seed, expected) for psi, spec, signs, seed, expected in SUM_CASES]
        for psi, spec, m, seed, expected in cases:
            rng = np.random.Generator(np.random.Philox(key=seed))
            xs, ys = [], []
            for start in range(0, PINNED_N, _CHUNK):
                count = min(_CHUNK, PINNED_N - start)
                for drawn in (xs, ys):
                    draws = spec.draw(rng, count * m).reshape(count, m, spec.dim)
                    drawn.append(functools.reduce(np.add, [draws[:, j] for j in range(m)]))
            x, y = np.concatenate(xs), np.concatenate(ys)
            for (mean, stderr), vals in zip(expected, (psi.eval_many(x - y), psi.eval_many(x + y))):
                assert mean == pytest.approx(vals.mean(), rel=1e-12)
                assert stderr == pytest.approx(vals.std(ddof=1) / np.sqrt(PINNED_N), rel=1e-12)

    def test_pair_estimates_follow_the_per_chunk_order(self):
        n = _CHUNK + 1
        spec = GaussianIso(1, 1.0, [0.25])
        verdict = mc_inequality_verdict(ABS1, spec, n, 18)
        est_minus, est_plus = verdict.est_minus, verdict.est_plus
        rng = np.random.Generator(np.random.Philox(key=18))
        xs, ys = [], []
        for count in (_CHUNK, 1):  # x then y for each chunk
            xs.append(spec.draw(rng, count))
            ys.append(spec.draw(rng, count))
        x, y = np.concatenate(xs), np.concatenate(ys)
        for est, vals in ((est_minus, np.abs(x - y)[:, 0]), (est_plus, np.abs(x + y)[:, 0])):
            assert est.mean == pytest.approx(vals.mean(), rel=1e-12)
            assert est.stderr == pytest.approx(vals.std(ddof=1) / np.sqrt(n), rel=1e-12)

    def test_counterexample_law_is_built_once(self, monkeypatch):
        built = []
        post_init = DiscreteDistribution.__post_init__

        def counted(law):
            built.append(law)
            post_init(law)

        monkeypatch.setattr(DiscreteDistribution, "__post_init__", counted)
        spec = CounterexampleSampler(CounterexampleParams(3.0, 1.0, 10.0))
        assert 6 * _CHUNK < PINNED_N  # x and y are drawn in each of 7 chunks
        mc_inequality_verdict(RawAbsPower(3.0), spec, PINNED_N, 6)
        assert len(built) == 1

    @pytest.mark.parametrize("n", [100, _CHUNK])
    def test_one_chunk_is_drawn_inline(self, monkeypatch, n):
        monkeypatch.setattr(threading, "Thread", None)  # starting a thread would raise
        mc_inequality_verdict(ABS1, GaussianIso(1, 1.0, [0.0]), n, 7)

    def test_every_chunk_is_drawn_on_the_callers_thread(self, monkeypatch):
        drawn_on, evaluated_on = [], []

        class Recorded(GaussianIso):
            def draw(self, rng, count):
                drawn_on.append(threading.get_ident())
                return super().draw(rng, count)

        class RecordedPsi(EuclideanPower):
            def eval_many(self, pts):
                evaluated_on.append(threading.get_ident())
                return super().eval_many(pts)

        monkeypatch.setattr(threading, "Thread", None)  # starting a thread would raise
        verdict = mc_inequality_verdict(RecordedPsi(1.0, 1), Recorded(1, 1.0, [0.0]), 3 * _CHUNK + 1, 7, NO_LOOK)
        assert verdict.looks == 4 and verdict.n_used == 3 * _CHUNK + 1
        assert drawn_on == evaluated_on == [threading.get_ident()] * 8

    def test_the_chunk_stream_equals_the_serial_pair_draws(self):
        spec, count, n_chunks = ConvolutionSampler(UniformBox([0.0, -1.0], [1.0, 0.5]), 3), 50, 200
        rng = np.random.Generator(np.random.Philox(key=19))
        serial = [_pair_draws(spec, rng, count) for _ in range(n_chunks)]
        seen = []

        class RecordedPsi:
            dim = 2

            def eval_many(self, pts):
                seen.append(pts.copy())
                return pts[:, 0].copy()

        stream = _pair_values(RecordedPsi(), spec, [count] * n_chunks, np.random.Generator(np.random.Philox(key=19)))
        for chunk, expected in zip(stream, serial):
            np.testing.assert_array_equal(chunk[0], expected[0][:, 0])
            np.testing.assert_array_equal(chunk[1], expected[1][:, 0])
        assert len(seen) == 2 * n_chunks
        for got, want in zip(seen, [array for pair in serial for array in pair]):
            np.testing.assert_array_equal(got, want)

    def test_a_draw_error_is_raised_in_the_caller(self):
        class DrawError(Exception):
            pass

        drawn_on = []

        class FailsOnChunk1(GaussianIso):
            def draw(self, rng, count):
                drawn_on.append(threading.get_ident())
                if len(drawn_on) == 3:  # x of chunk 1
                    raise DrawError("no more draws")
                return super().draw(rng, count)

        with pytest.raises(DrawError, match="no more draws") as failure:
            mc_inequality_verdict(ABS1, FailsOnChunk1(1, 1.0, [0.0]), 4 * _CHUNK, 8)
        assert drawn_on == [threading.get_ident()] * 3 and failure.traceback

    def test_an_evaluation_error_mid_stream_is_raised_in_the_caller(self):
        drawn = []

        class Recorded(GaussianIso):
            def draw(self, rng, count):
                drawn.append(count)
                return super().draw(rng, count)

        class FailsOnChunk1:
            dim = 1
            calls = 0

            def eval_many(self, pts):
                self.calls += 1
                if self.calls == 3:  # x - y of chunk 1
                    raise ArithmeticError("psi failed")
                return np.abs(pts[:, 0])

        with pytest.raises(ArithmeticError, match="psi failed") as failure:
            mc_inequality_verdict(FailsOnChunk1(), Recorded(1, 1.0, [0.0]), 4 * _CHUNK, 9)
        assert len(drawn) == 4 and failure.traceback  # no chunk past the failing one was drawn

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_is_an_error(self):
        with pytest.raises(ValueError, match="not finite"):
            mc_inequality_verdict(EuclideanPower(2.0, 1), GaussianIso(1, 1e200, [0.0]), 1000, 4)


class TestSequentialVerdict:
    """A run stops at the first look, from chunk 2 on, whose z passes b; n_samples is a cap."""

    def test_look_bound_is_the_bonferroni_split(self):
        assert [round(_look_bound(5.0, looks), 2) for looks in (31, 62, 123)] == [5.63, 5.74, 5.86]
        for z in (0.5, 2.0, 5.0, 20.0):
            bounds = [_look_bound(z, looks) for looks in (1, 2, 3, 31, 10**6)]
            assert bounds[0] == z and all(a < b for a, b in zip(bounds, bounds[1:]))
        for looks in (2, 31, 123):  # 1 - Phi(b) = (1 - Phi(5)) / looks
            tail = math.erfc(_look_bound(5.0, looks) / math.sqrt(2.0))
            assert tail == pytest.approx(math.erfc(5.0 / math.sqrt(2.0)) / looks, rel=1e-12)
        assert _look_bound(NO_LOOK, 2) == math.inf

    def test_false_violations_stay_within_the_bound(self):
        # Y =d -Y for both laws, so E psi(X-Y) = E psi(X+Y) and every VIOLATION is false
        z_threshold, looks, runs = 2.0, 4, 60
        alpha = math.erfc(z_threshold / math.sqrt(2.0)) / 2  # 1 - Phi(2): the fixed-n test's rate
        bound = (looks - 2) * alpha / looks + alpha  # looks 2 and 3 at alpha / 4 each, the last at alpha
        allowed = bound + 4 * math.sqrt(bound * (1 - bound) / (2 * runs))  # plus 4 binomial sd
        kinds = [mc_inequality_verdict(psi, spec, looks * _CHUNK, seed, z_threshold).kind
                 for psi, spec in ((ABS1, GaussianIso(1, 1.0, [0.0])),
                                   (EuclideanPower(1.5, 1), UniformBox([-1.0], [1.0])))
                 for seed in range(runs)]
        assert kinds.count(VIOLATION) / len(kinds) <= allowed

    def test_a_run_no_look_decides_keeps_the_fixed_n_bits(self):
        # pinned from the fixed-n engine; z stays near 0 at every look, so all 5 chunks are folded
        psi, spec, n, seed = EuclideanPower(1.0, 2), GaussianIso(2, 1.5, [0.0, 0.0]), 4 * _CHUNK + 100, 21
        verdict = mc_inequality_verdict(psi, spec, n, seed)
        assert (verdict.kind, verdict.n_used, verdict.looks) == (INCONCLUSIVE, n, 5)
        assert verdict.z_score == 0.06479200099142328
        assert [(e.mean, e.stderr) for e in (verdict.est_minus, verdict.est_plus)] == [
            (2.660587822051041, 0.0038468825067115068), (2.660236244892185, 0.003839753382585115)]
        report = run("verify-inequality", {"psi": encode(NDF, psi), "sampler": encode(SAMPLERS, spec),
                                           "n_samples": n, "seed": seed})
        assert hashlib.sha256(report["csv"].encode()).hexdigest() == (
            "d9fe636d87352771caaa484028583140680f815916733881ed44585ac9002ec7")

    def test_a_decided_run_draws_no_chunk_past_its_last_look(self):
        drawn = []

        class Counted(UniformBox):
            def draw(self, rng, count):
                drawn.append(count)
                return super().draw(rng, count)

        spec, n = Counted([0.5, -1.0], [2.0, 1.0]), 10 * _CHUNK + 1
        verdict = mc_inequality_verdict(PSI2, spec, n, 23)
        assert verdict.kind == CONSISTENT and 1 < verdict.looks < 11
        assert verdict.z_score <= -verdict.z_bound == -_look_bound(5.0, 11)
        assert len(drawn) == 2 * verdict.looks and sum(drawn) == 2 * verdict.n_used
        assert mc_inequality_verdict(PSI2, spec, n, 23) == verdict
        *expected, _ = _chunked_reference(PSI2, spec, verdict.n_used, 23)
        assert [(e.mean, e.stderr) for e in (verdict.est_minus, verdict.est_plus)] == expected

    def test_a_zero_stderr_look_decides_only_at_an_infinite_z(self):
        n = 3 * _CHUNK
        for atom, z, looks in ((0.0, 0.0, 3), (1.0, -math.inf, 2)):  # psi(x-y) - psi(x+y) = -psi(2 atom)
            law = DiscreteDistribution(np.array([[atom]]), np.array([1.0]))
            verdict = mc_inequality_verdict(ABS1, DiscreteSampler(law), n, 12)
            assert (verdict.kind, verdict.z_score, verdict.looks) == (CONSISTENT, z, looks)


def _chunked_reference(psi, spec, n, seed):
    """[(mean, stderr)] of psi(x-y), psi(x+y) and their difference, rebuilt from ``spec.draw``:
    x then y for each chunk, psi on the chunk's x - y and x + y, folded in chunk order."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    acc = None
    for start in range(0, n, _CHUNK):
        count = min(_CHUNK, n - start)
        x = spec.draw(rng, count)
        y = spec.draw(rng, count)
        minus, plus = psi.eval_many(x - y), psi.eval_many(x + y)
        stats = [_chunk_stats(v) for v in (minus, plus, minus - plus)]
        acc = stats if acc is None else [_combine(a, s) for a, s in zip(acc, stats)]
    return [(e.mean, e.stderr) for e in map(_estimate, acc)]


def _levy_atoms(psi):
    """The number of Levy atoms in a spec tree: their ``pts @ u`` may round by batch in 2-d and up."""
    if isinstance(psi, FromTriplet):
        return len(psi.triplet.atoms)
    if isinstance(psi, Subordinated):
        return _levy_atoms(psi.inner)
    if isinstance(psi, ConicSum):
        return sum(_levy_atoms(term) for _, term in psi.terms)
    return 0


def _counted(psi):
    """(a psi that records how many points each evaluation sees, that record)."""
    seen = []

    class Counted:
        dim = psi.dim

        def eval_many(self, pts):
            seen.append(len(pts))
            return psi.eval_many(pts)

    return Counted(), seen


def _law(rng, k, dim=1):
    w = rng.uniform(0.05, 1.0, size=k)
    law = DiscreteDistribution(rng.normal(size=(k, dim)), w / w.sum())
    assert law.n_atoms == k
    return law


@settings(derandomize=True, max_examples=30, deadline=None)
@given(dim=st.integers(1, 3), spec_seed=st.integers(0, 2**32 - 1),
       n=st.sampled_from([100, _CHUNK + 1, 2 * _CHUNK + 17]))
def test_finite_laws_give_the_estimates_of_the_chunked_draws(dim, spec_seed, n):
    # a law of k atoms with k**2 <= min(n, _CHUNK) reads psi from its pair tables, any other
    # is evaluated chunk by chunk; both must give the estimates of the per-chunk draws
    rng = np.random.default_rng(spec_seed)
    psi = random_ndf_spec(rng, dim, depth=2)
    spec = DiscreteSampler(random_distribution(rng, dim, max_atoms=20))
    seed = spec_seed % 1000
    verdict = mc_inequality_verdict(psi, spec, n, seed)
    got = [(e.mean, e.stderr) for e in (verdict.est_minus, verdict.est_plus)]
    *expected, (gap_mean, gap_stderr) = _chunked_reference(psi, spec, verdict.n_used, seed)
    if dim == 1 or not _levy_atoms(psi):
        # psi of a point does not depend on its batch: the same bits
        assert got == expected
        assert verdict.z_score == (gap_mean / gap_stderr if gap_stderr else 0.0)
    else:
        # a Levy atom's pts @ u may round differently in the k**2-point table than in a chunk
        assert np.asarray(got) == pytest.approx(np.asarray(expected), rel=1e-12)


class TestFiniteLaws:
    """Discrete and counterexample laws read psi from tables over their atom pairs."""

    @pytest.mark.parametrize("k, n, points", [
        (5, 2 * _CHUNK + 17, 2 * 5**2),  # the tables
        (10, 101, 2 * 10**2),  # k**2 <= n: the tables
        (11, 120, 2 * 120),  # k**2 > n: x - y and x + y of every draw
        (181, 10**5, 2 * 181**2),  # k**2 <= _CHUNK
        (182, 10**5, 2 * 10**5),  # k**2 > _CHUNK
    ])
    def test_psi_sees_the_pair_tables_or_every_draw(self, k, n, points):
        psi, seen = _counted(ABS1)
        mc_inequality_verdict(psi, DiscreteSampler(_law(np.random.default_rng(k), k)), n, 4, NO_LOOK)
        assert sum(seen) == points

    @pytest.mark.parametrize("params", [CounterexampleParams(3.0, 1.0, 10.0),
                                        CounterexampleParams(3.5, 2.0, 2.0)])  # q = 1: one atom
    def test_the_counterexample_sampler_is_the_discrete_sampler_of_its_law(self, params):
        spec, law = CounterexampleSampler(params), counterexample_distribution(params)
        assert isinstance(spec, DiscreteSampler) and spec.dim == 1
        np.testing.assert_array_equal(spec.distribution.atoms, law.atoms)
        np.testing.assert_array_equal(spec.distribution.weights, law.weights)
        for seed in (0, 7):
            np.testing.assert_array_equal(sample(spec, seed, 1000), sample(DiscreteSampler(law), seed, 1000))
        clone = decode(SAMPLERS, encode(SAMPLERS, spec))
        assert type(clone) is CounterexampleSampler and clone == spec
        assert encode(SAMPLERS, spec)["type"] == "counterexample"
        assert encode(SAMPLERS, DiscreteSampler(law))["type"] == "discrete"

    def test_a_finite_law_is_drawn_inline_at_any_count(self, monkeypatch):
        monkeypatch.setattr(threading, "Thread", None)  # starting a thread would raise
        spec = CounterexampleSampler(CounterexampleParams(3.0, 1.0, 10.0))
        verdict = mc_inequality_verdict(RawAbsPower(3.0), spec, 3 * _CHUNK + 1, 5)
        assert verdict.kind == VIOLATION

    def test_the_cli_counterexample_job_reads_the_tables(self, monkeypatch):
        seen = []
        eval_many = EuclideanPower.eval_many

        def counted(psi, pts):
            seen.append(len(pts))
            return eval_many(psi, pts)

        monkeypatch.setattr(EuclideanPower, "eval_many", counted)
        config = {"psi": encode(NDF, EuclideanPower(1.0, 1)),
                  "sampler": {"type": "counterexample", "alpha": 3.0, "c": 1.0, "m": 10.0},
                  "n_samples": 3 * _CHUNK + 1, "seed": 6}
        report = run("verify-inequality", config)
        assert report["passed"] and seen == [4, 4]
        verdict = mc_inequality_verdict(ABS1, CounterexampleSampler(CounterexampleParams(3.0, 1.0, 10.0)),
                                        3 * _CHUNK + 1, 6)
        assert (report["results"]["e_minus"], report["results"]["e_plus"]) == (
            verdict.est_minus.mean, verdict.est_plus.mean)

    def test_memory_of_the_counterexample_verdict(self):
        # the chunk route peaked at 2.3 MiB here, holding the drawn atoms, their sums and differences
        spec = CounterexampleSampler(CounterexampleParams(3.0, 1.0, 10.0))
        tracemalloc.start()
        try:
            mc_inequality_verdict(RawAbsPower(3.0), spec, 10**6, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


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
