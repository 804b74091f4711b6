"""Seeded random generators for spec/law batteries shared across test modules."""

import numpy as np

from ndflab import (
    BernsteinTriplet,
    ConicSum,
    CounterexampleParams,
    CounterexampleSampler,
    DiscreteDistribution,
    DiscreteSampler,
    EuclideanPower,
    FromTriplet,
    GaussianIso,
    LevyTriplet,
    Log1p,
    Power,
    Subordinated,
    UniformBox,
)


def random_bernstein(rng):
    kind = int(rng.integers(3))
    if kind == 0:
        return Power(float(rng.uniform(0.05, 1.0)))
    if kind == 1:
        return Log1p()
    n_atoms = int(rng.integers(1, 4))
    atoms = tuple(
        (float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 2.0)))
        for _ in range(n_atoms)
    )
    return BernsteinTriplet(a=0.0, b=float(rng.uniform(0.0, 1.0)), atoms=atoms)


def random_triplet_spec(rng, dim):
    if rng.random() < 0.3:
        q = np.zeros((dim, dim))
    else:
        a = rng.normal(size=(dim, dim))
        q = a @ a.T * float(rng.uniform(0.1, 1.0))
    atoms = []
    for _ in range(int(rng.integers(0, 4))):
        u = rng.normal(size=dim)
        while not np.any(u != 0.0):
            u = rng.normal(size=dim)
        atoms.append((u, float(rng.uniform(0.1, 2.0))))
    if not atoms and not np.any(q):
        q = np.eye(dim)  # avoid the identically-zero function
    return FromTriplet(LevyTriplet(q=q, atoms=tuple(atoms)))


def random_ndf_spec(rng, dim, depth=3):
    """Random cnd spec tree of the given dimension, depth-limited."""
    leaves = ("triplet", "power")
    nodes = ("triplet", "power", "subordinated", "conic")
    kind = (nodes if depth > 0 else leaves)[int(rng.integers(len(nodes if depth > 0 else leaves)))]
    if kind == "triplet":
        return random_triplet_spec(rng, dim)
    if kind == "power":
        return EuclideanPower(float(rng.uniform(0.1, 2.0)), dim)
    if kind == "subordinated":
        return Subordinated(random_bernstein(rng), random_ndf_spec(rng, dim, depth - 1))
    n_terms = int(rng.integers(1, 4))
    terms = tuple(
        (float(rng.uniform(0.0, 2.0)), random_ndf_spec(rng, dim, depth - 1))
        for _ in range(n_terms)
    )
    return ConicSum(terms)


def random_distribution(rng, dim, max_atoms=12, scale=2.0):
    k = int(rng.integers(1, max_atoms + 1))
    atoms = rng.normal(scale=scale, size=(k, dim))
    w = rng.uniform(0.05, 1.0, size=k)
    return DiscreteDistribution(atoms, w / w.sum())


def random_sampler(rng, dim):
    """Random sampler of the given dimension; the counterexample law only for dim 1."""
    kind = int(rng.integers(4 if dim == 1 else 3))
    if kind == 0:
        return DiscreteSampler(random_distribution(rng, dim))
    if kind == 1:
        return GaussianIso(dim, float(rng.uniform(0.1, 3.0)), rng.normal(size=dim))
    if kind == 2:
        lower = rng.normal(size=dim)
        return UniformBox(lower, lower + rng.uniform(0.1, 3.0, size=dim))
    c = float(rng.uniform(0.1, 4.0))
    return CounterexampleSampler(CounterexampleParams(float(rng.uniform(2.1, 6.0)), c,
                                                      c + float(rng.uniform(0.0, 50.0))))


def random_sign_pattern(rng, half):
    """A shuffled tuple of ``half`` plus and ``half`` minus signs."""
    signs = [1] * half + [-1] * half
    rng.shuffle(signs)
    return tuple(signs)
