"""Seeded Monte Carlo estimation of E psi(X +/- Y) with statistical verdicts.

Sampling is driven by numpy's counter-based Philox generator, so every
estimate is a pure function of (spec, seed, count).  Both sides of the
inequality are evaluated on the same draws (common random numbers),
which makes the gap estimator far tighter than two independent runs.
:func:`mc_inequality_verdict` is the one estimator.  It streams chunks of
``_CHUNK`` = 32 768 samples from one generator, drawing x then y per chunk
and folding exact (count, mean, M2) triples in chunk order, so for
n_samples > 32 768 the results differ from a whole-array draw.  Its verdict
carries each side's mean and standard error.  A signed sum with m plus and
m minus signs is the pair check on the m-fold sum,
``mc_inequality_verdict(psi, ConvolutionSampler(spec, m), n, seed)``.

The verdict is group-sequential, so n_samples is a cap (see
:func:`mc_inequality_verdict`).  Chunks are drawn on the caller's thread
when the fold asks for them.  One chunk is alive at a time, so memory is
O(_CHUNK * dim), whatever the sample count; a sampler of m-fold sums adds
its draws in row blocks of ``_SUM_BLOCK`` draws.  A finite law of k atoms
with k**2 <= min(n_samples, _CHUNK) evaluates psi once on its k**2
differences and k**2 sums of atoms, and each chunk draws the atom indices
of x and y and gathers psi from those two tables.

A chunk makes as few passes over memory as its arithmetic allows, without
changing a bit of it: a draw's per-coordinate scale, shift and sum are
applied in place one column at a time, and deviations are squared in place.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import DimensionMismatch, as_point
from .fields import DIM, NUMBER, POSITIVE, VECTOR, Family, Record
from .distributions import (
    ALPHA_ABOVE_2,
    DISTRIBUTION,
    CounterexampleParams,
    DiscreteDistribution,
    counterexample_distribution,
)

__all__ = [
    "SamplerSpec",
    "DiscreteSampler",
    "GaussianIso",
    "UniformBox",
    "CounterexampleSampler",
    "ConvolutionSampler",
    "McEstimate",
    "InequalityVerdict",
    "CONSISTENT",
    "VIOLATION",
    "INCONCLUSIVE",
    "sample",
    "mc_inequality_verdict",
    "parse_seed",
]

_CHUNK = 1 << 15
_SUM_BLOCK = 1 << 14  # draws of the summand per block of ConvolutionSampler.draw

CONSISTENT = "ConsistentHolds"
VIOLATION = "ViolationDetected"
INCONCLUSIVE = "Inconclusive"


class SamplerSpec:
    """Base class for sampling laws of X (and independent copies).

    ``draw(rng, count)`` returns a fresh (count, dim) array.
    """

    dim: int

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class DiscreteSampler(SamplerSpec):
    """Inverse-CDF sampling from a finite atomic law.

    A draw is the atoms at ``count`` indices drawn by inverse CDF from one
    uniform each.  :func:`mc_inequality_verdict` draws the same indices and
    reads psi from a table over the atom pairs instead (see there).
    """

    distribution: DiscreteDistribution

    @property
    def dim(self):
        return self.distribution.dim

    @functools.cached_property
    def _cdf(self) -> np.ndarray:
        cdf = np.cumsum(self.distribution.weights)
        cdf[-1] = 1.0
        return cdf

    def _indices(self, rng, count):
        return np.searchsorted(self._cdf, rng.random(count), side="right")

    def draw(self, rng, count):
        return self.distribution.atoms[self._indices(rng, count)]


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
        z = rng.standard_normal((count, self.dim))
        z *= self.sigma
        for d in range(self.dim):
            z[:, d] += self.mean[d]
        return z


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
        width = self.upper - self.lower
        for d in range(self.dim):
            column = u[:, d]
            column *= width[d]
            column += self.lower[d]
        return u


@dataclass(frozen=True)
class CounterexampleSampler(DiscreteSampler):
    """The DiscreteSampler of the two-point law of the alpha > 2 counterexample with ``params``."""

    distribution: DiscreteDistribution = field(init=False, repr=False, compare=False)
    params: CounterexampleParams

    def __post_init__(self):
        object.__setattr__(self, "distribution", counterexample_distribution(self.params))


@dataclass(frozen=True)
class ConvolutionSampler(SamplerSpec):
    """The law of X_1 + ... + X_m: each draw adds m consecutive draws of ``spec``."""

    spec: SamplerSpec
    m: int

    def __post_init__(self):
        if isinstance(self.m, bool) or not isinstance(self.m, (int, np.integer)) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")

    @property
    def dim(self):
        return self.spec.dim

    def draw(self, rng, count):
        # a row's m draws are consecutive, so row blocks take the stream in its order
        total = np.empty((count, self.dim))
        step = max(1, _SUM_BLOCK // self.m)
        for start in range(0, count, step):
            rows = total[start:start + step]
            draws = self.spec.draw(rng, len(rows) * self.m).reshape(len(rows), self.m, self.dim)
            for d in range(self.dim):
                column = rows[:, d]
                np.copyto(column, draws[:, 0, d])
                for j in range(1, self.m):
                    column += draws[:, j, d]
        return total


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    stderr: float


@dataclass(frozen=True)
class InequalityVerdict:
    """Outcome of comparing E psi(X-Y) against E psi(X+Y) statistically.

    z_score standardises the estimated gap E psi(X-Y) - E psi(X+Y); a
    violation is declared only when it exceeds the threshold.  The run
    stopped after ``looks`` chunks, ``n_used`` pairs in all; ``z_bound`` is
    the bound its looks before the last used (inf when none could stop it).
    """

    kind: str
    z_score: float
    est_minus: McEstimate
    est_plus: McEstimate
    n_used: int
    looks: int
    z_bound: float


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
    dev = values - mean
    dev *= dev
    m2 = float(np.sum(dev))
    return n, mean, m2


def _combine(s1, s2):
    n1, mean1, m21 = s1
    n2, mean2, m22 = s2
    n = n1 + n2
    delta = mean2 - mean1
    mean = mean1 + delta * n2 / n
    m2 = m21 + m22 + delta * delta * n1 * n2 / n
    return n, mean, m2


def _estimate(stats) -> McEstimate:
    n, mean, m2 = stats
    stderr = float(np.sqrt(m2 / (n - 1) / n))
    if not (np.isfinite(mean) and np.isfinite(stderr)):
        raise ValueError(f"Monte Carlo estimate is not finite: mean {mean}, stderr {stderr}")
    return McEstimate(mean=mean, stderr=stderr)


def _pair_draws(spec: SamplerSpec, rng: np.random.Generator, count: int):
    """(x - y, x + y) for ``count`` fresh draws of x, then ``count`` of y."""
    x = spec.draw(rng, count)
    y = spec.draw(rng, count)
    difference = x - y
    x += y  # x + y, in x's buffer
    return difference, x


def _pair_values(psi, spec: SamplerSpec, counts, rng: np.random.Generator):
    """Yield (psi(x - y), psi(x + y)) for each chunk of ``counts``, x drawn before y.

    Each chunk is drawn when it is asked for, on the caller's thread, so a
    caller that stops early draws no chunk past its last.  A finite law of k
    atoms with k**2 <= counts[0] = min(n_samples, _CHUNK) evaluates psi once
    on the k**2 points a_i - a_j and once on the k**2 points a_i + a_j,
    formed as the chunks' x - y and x + y are.  Each chunk then draws the
    atom indices of x and of y, from the stream in the order ``spec.draw``
    takes it, and gathers psi from the two tables.  Any other law draws its
    pairs and evaluates psi on each chunk.
    """
    if isinstance(spec, DiscreteSampler) and spec.distribution.n_atoms ** 2 <= counts[0]:
        atoms = spec.distribution.atoms
        k = atoms.shape[0]
        minus, plus = (psi.eval_many(op(atoms[:, None], atoms).reshape(k * k, -1))
                       for op in (np.subtract, np.add))
        for count in counts:
            pair = spec._indices(rng, count) * k  # row i of the tables is x = a_i
            pair += spec._indices(rng, count)
            yield minus[pair], plus[pair]
        return
    for count in counts:
        difference, total = _pair_draws(spec, rng, count)
        yield psi.eval_many(difference), psi.eval_many(total)


def _look_bound(z_threshold: float, looks: int) -> float:
    """The look bound b: 1 - Phi(b) = (1 - Phi(z_threshold)) / looks.

    b >= z_threshold, and b is inf if that tail underflows.

    Found by bisection on ``math.erfc`` (1 - Phi(x) = erfc(x / sqrt 2) / 2),
    keeping the end whose tail is at most the target.
    """
    target = math.erfc(z_threshold / math.sqrt(2.0)) / looks
    if target == 0.0:
        return math.inf
    lo, hi = z_threshold, 40.0  # a nonzero target has z_threshold < 38.5; erfc(40 / sqrt 2) is 0
    if math.erfc(lo / math.sqrt(2.0)) <= target:
        return lo
    while (mid := (lo + hi) / 2) not in (lo, hi):
        if math.erfc(mid / math.sqrt(2.0)) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def mc_inequality_verdict(psi, spec: SamplerSpec, n_samples: int, seed: int,
                          z_threshold: float = 5.0) -> InequalityVerdict:
    """Statistical verdict on E psi(X-Y) <= E psi(X+Y) from paired samples.

    A group-sequential test over the L = ceil(n_samples / _CHUNK) chunks:
    from the second chunk on, the running paired z is looked at after each
    chunk, and the run stops ConsistentHolds at z <= -b or ViolationDetected
    at z > b, where ``b = _look_bound(z_threshold, L)``.  At the last chunk
    the fixed-n rule decides: ViolationDetected at z > z_threshold,
    ConsistentHolds at z <= 0, Inconclusive in between.  n_samples is a cap;
    the verdict's n_used and looks say where the run stopped.
    """
    if psi.dim != spec.dim:
        raise DimensionMismatch(f"psi has dimension {psi.dim}, sampler has {spec.dim}")
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    counts = [min(_CHUNK, n_samples - start) for start in range(0, n_samples, _CHUNK)]
    bound = _look_bound(z_threshold, len(counts))
    acc = None
    for looks, (minus, plus) in enumerate(_pair_values(psi, spec, counts, _rng(seed)), 1):
        # the difference gives the paired variance
        stats = [_chunk_stats(v) for v in (minus, plus, minus - plus)]
        acc = stats if acc is None else [_combine(a, s) for a, s in zip(acc, stats)]
        diff = _estimate(acc[2])
        if diff.stderr == 0.0:  # 0 or +/-inf by the sign of the mean
            z = 0.0 if diff.mean == 0.0 else math.copysign(math.inf, diff.mean)
        else:
            z = diff.mean / diff.stderr
        if looks > 1 and math.isfinite(bound) and (z <= -bound or z > bound):
            break
    est_minus, est_plus = _estimate(acc[0]), _estimate(acc[1])
    if z > z_threshold:
        kind = VIOLATION
    elif z <= 0.0:
        kind = CONSISTENT
    else:
        kind = INCONCLUSIVE
    return InequalityVerdict(kind=kind, z_score=float(z), est_minus=est_minus, est_plus=est_plus,
                             n_used=acc[0][0], looks=looks, z_bound=bound)


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------


SAMPLERS = Family("sampler", {
    "discrete": Record(DiscreteSampler, {"distribution": DISTRIBUTION}, ("distribution",)),
    "gaussian_iso": Record(GaussianIso, {"dim": DIM, "sigma": POSITIVE, "mean": VECTOR},
                           ("dim", "sigma", "mean")),
    "uniform_box": Record(UniformBox, {"lower": VECTOR, "upper": VECTOR}, ("lower", "upper")),
    "counterexample": Record(
        lambda alpha, c, m: CounterexampleSampler(CounterexampleParams(alpha, c, m)),
        {"alpha": ALPHA_ABOVE_2, "c": POSITIVE, "m": NUMBER}, ("alpha", "c", "m"),
        cls=CounterexampleSampler, read=lambda spec: {
            "alpha": spec.params.alpha, "c": spec.params.c, "m": spec.params.m}),
})
