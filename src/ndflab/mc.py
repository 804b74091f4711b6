"""Seeded Monte Carlo estimation of E psi(X +/- Y) with statistical verdicts.

Sampling is driven by numpy's counter-based Philox generator, so every
estimate is a pure function of (spec, seed, count).  Both sides of the
inequality are evaluated on the same draws (common random numbers),
which makes the gap estimator far tighter than two independent runs.
Every estimator streams chunks of ``_CHUNK`` samples from one generator,
folding exact (count, mean, M2) triples, so memory is
O(_CHUNK * n_vars * dim).  Pair estimators draw x then y per chunk; signed
sums draw sample-major, exactly continuing a whole-array draw's stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatch, as_point
from .distributions import (
    CounterexampleParams,
    DiscreteDistribution,
    SignPattern,
    counterexample_distribution,
    distribution_from_obj,
    distribution_to_obj,
)

__all__ = [
    "SamplerSpec",
    "DiscreteSampler",
    "GaussianIso",
    "UniformBox",
    "CounterexampleSampler",
    "McEstimate",
    "InequalityVerdict",
    "CONSISTENT",
    "VIOLATION",
    "INCONCLUSIVE",
    "sample",
    "mc_pair_estimates",
    "mc_inequality_verdict",
    "mc_signed_sum",
    "parse_seed",
    "sampler_to_obj",
    "sampler_from_obj",
]

_CHUNK = 1 << 16

CONSISTENT = "ConsistentHolds"
VIOLATION = "ViolationDetected"
INCONCLUSIVE = "Inconclusive"


class SamplerSpec:
    """Base class for sampling laws of X (and independent copies)."""

    dim: int

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        raise NotImplementedError

    def to_obj(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class DiscreteSampler(SamplerSpec):
    """Inverse-CDF sampling from a finite atomic law."""

    distribution: DiscreteDistribution

    @property
    def dim(self):
        return self.distribution.dim

    def draw(self, rng, count):
        cdf = np.cumsum(self.distribution.weights)
        cdf[-1] = 1.0
        idx = np.searchsorted(cdf, rng.random(count), side="right")
        return self.distribution.atoms[idx]

    def to_obj(self):
        return {"type": "discrete", "distribution": distribution_to_obj(self.distribution)}


@dataclass(frozen=True)
class GaussianIso(SamplerSpec):
    """Isotropic Gaussian N(mean, sigma^2 I) on R^n."""

    dim: int
    sigma: float
    mean: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "sigma", float(self.sigma))
        mean = as_point(self.mean, self.dim)
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")

    def draw(self, rng, count):
        return self.mean + self.sigma * rng.standard_normal((count, self.dim))

    def to_obj(self):
        return {
            "type": "gaussian_iso",
            "dim": self.dim,
            "sigma": self.sigma,
            "mean": self.mean.tolist(),
        }


@dataclass(frozen=True)
class UniformBox(SamplerSpec):
    """Uniform law on a coordinate box [lower, upper]."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = as_point(self.lower)
        upper = as_point(self.upper, lower.shape[0])
        if np.any(lower >= upper):
            raise ValueError("box needs lower < upper coordinatewise")
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self):
        return self.lower.shape[0]

    def draw(self, rng, count):
        u = rng.random((count, self.dim))
        return self.lower + u * (self.upper - self.lower)

    def to_obj(self):
        return {"type": "uniform_box", "lower": self.lower.tolist(), "upper": self.upper.tolist()}


@dataclass(frozen=True)
class CounterexampleSampler(SamplerSpec):
    """The two-point law of the alpha > 2 counterexample family."""

    params: CounterexampleParams

    dim = 1

    def draw(self, rng, count):
        return DiscreteSampler(counterexample_distribution(self.params)).draw(rng, count)

    def to_obj(self):
        p = self.params
        return {"type": "counterexample", "alpha": p.alpha, "c": p.c, "m": p.m}


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    stderr: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class InequalityVerdict:
    """Outcome of comparing E psi(X-Y) against E psi(X+Y) statistically.

    z_score standardises the estimated gap E psi(X-Y) - E psi(X+Y); a
    violation is declared only when it exceeds the threshold.
    """

    kind: str
    z_score: float
    est_minus: McEstimate
    est_plus: McEstimate


def parse_seed(value) -> int:
    """Seeds may be given as ints or as decimal / 0x-prefixed hex strings."""
    if isinstance(value, bool):
        raise ValueError("seed must be an integer or string")
    if isinstance(value, int):
        seed = value
    elif isinstance(value, str):
        s = value.strip()
        seed = int(s, 16) if s.lower().startswith("0x") else int(s, 10)
    else:
        raise ValueError(f"cannot parse seed from {value!r}")
    if not (0 <= seed < 2**64):
        raise ValueError("seed must fit in 64 unsigned bits")
    return seed


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def sample(spec: SamplerSpec, seed: int, count: int) -> np.ndarray:
    """Draw ``count`` i.i.d. vectors; deterministic in (spec, seed, count)."""
    if count < 1:
        raise ValueError("count must be at least 1")
    return spec.draw(_rng(seed), count)


def _chunk_stats(values: np.ndarray) -> tuple[int, float, float]:
    n = values.size
    mean = float(values.mean())
    m2 = float(np.sum((values - mean) ** 2))
    return n, mean, m2


def _combine(s1, s2):
    n1, mean1, m21 = s1
    n2, mean2, m22 = s2
    n = n1 + n2
    delta = mean2 - mean1
    mean = mean1 + delta * n2 / n
    m2 = m21 + m22 + delta * delta * n1 * n2 / n
    return n, mean, m2


def _estimate(stats, seed: int) -> McEstimate:
    n, mean, m2 = stats
    stderr = float(np.sqrt(m2 / (n - 1) / n))
    if not (np.isfinite(mean) and np.isfinite(stderr)):
        raise ValueError(f"Monte Carlo estimate is not finite: mean {mean}, stderr {stderr}")
    return McEstimate(mean=mean, stderr=stderr, n_samples=n, seed=seed)


def _stream(psi, spec: SamplerSpec, n_samples: int, seed: int, chunk_values) -> list[McEstimate]:
    """One estimate per value array of ``chunk_values(rng, count)``, which draws
    and evaluates one chunk; each array's (count, mean, M2) is folded across chunks."""
    if psi.dim != spec.dim:
        raise DimensionMismatch(f"psi has dimension {psi.dim}, sampler has {spec.dim}")
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    rng = _rng(seed)
    acc = None
    for start in range(0, n_samples, _CHUNK):
        stats = [_chunk_stats(v) for v in chunk_values(rng, min(_CHUNK, n_samples - start))]
        acc = stats if acc is None else [_combine(a, s) for a, s in zip(acc, stats)]
    return [_estimate(s, seed) for s in acc]


def mc_pair_estimates(psi, spec: SamplerSpec, n_samples: int, seed: int):
    """(est_minus, est_plus) for E psi(X-Y) and E psi(X+Y) on shared draws."""
    verdict = mc_inequality_verdict(psi, spec, n_samples, seed)
    return verdict.est_minus, verdict.est_plus


def mc_inequality_verdict(psi, spec: SamplerSpec, n_samples: int, seed: int,
                          z_threshold: float = 5.0) -> InequalityVerdict:
    """Statistical verdict on E psi(X-Y) <= E psi(X+Y) from paired samples."""

    def chunk_values(rng, count):
        x = spec.draw(rng, count)
        y = spec.draw(rng, count)
        minus, plus = psi.eval_many(x - y), psi.eval_many(x + y)
        return minus, plus, minus - plus  # the difference gives the paired variance

    est_minus, est_plus, diff = _stream(psi, spec, n_samples, seed, chunk_values)
    if diff.stderr == 0.0:
        z = 0.0 if diff.mean == 0.0 else float(np.sign(diff.mean)) * float("inf")
    else:
        z = diff.mean / diff.stderr
    if z > z_threshold:
        kind = VIOLATION
    elif z <= 0.0:
        kind = CONSISTENT
    else:
        kind = INCONCLUSIVE
    return InequalityVerdict(kind=kind, z_score=float(z), est_minus=est_minus, est_plus=est_plus)


def mc_signed_sum(psi, spec: SamplerSpec, pattern: SignPattern, n_samples: int, seed: int):
    """(est_signed, est_allplus) for E psi(sum eps_j X_j) and E psi(sum X_j)."""
    signs = np.array(pattern.signs, dtype=float)

    def chunk_values(rng, count):
        draws = spec.draw(rng, count * signs.size).reshape(count, signs.size, spec.dim)
        return psi.eval_many(np.einsum("j,njd->nd", signs, draws)), psi.eval_many(draws.sum(axis=1))

    return tuple(_stream(psi, spec, n_samples, seed, chunk_values))


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------


def sampler_to_obj(spec: SamplerSpec) -> dict:
    return spec.to_obj()


def sampler_from_obj(obj: dict) -> SamplerSpec:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("sampler spec must be a tagged object")
    kind = obj["type"]
    if kind == "discrete":
        return DiscreteSampler(distribution_from_obj(obj["distribution"]))
    if kind == "gaussian_iso":
        return GaussianIso(dim=obj["dim"], sigma=obj["sigma"], mean=obj["mean"])
    if kind == "uniform_box":
        return UniformBox(lower=obj["lower"], upper=obj["upper"])
    if kind == "counterexample":
        return CounterexampleSampler(CounterexampleParams(obj["alpha"], obj["c"], obj["m"]))
    raise ValueError(f"unknown sampler type {kind!r}")
