"""Finite discrete laws with exact expectations of psi(X +/- Y).

Every expectation here is a finite sum over atom pairs, so the moment
inequality E psi(X-Y) <= E psi(X+Y) can be checked in exact
floating-point arithmetic, with no sampling error; a signed sum of
i.i.d. copies reduces to such a pair sum on a convolution power of the
law.  The module also hosts the two-point family that breaks the
inequality for |x|^alpha with alpha > 2, the tail-integral identity for
E|X+Y| - E|X-Y|, and the essential-bound (alpha = infinity) comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatch

__all__ = [
    "DiscreteDistribution",
    "CounterexampleParams",
    "SignPattern",
    "RawAbsPower",
    "EnumerationLimitError",
    "exact_expectation",
    "exact_gap",
    "exact_signed_sum_gap",
    "convolution_power",
    "counterexample_distribution",
    "counterexample_gap_closed_form",
    "counterexample_search",
    "tail_identity_check",
    "ess_bounds_check",
    "distribution_to_obj",
    "distribution_from_obj",
    "ENUMERATION_LIMIT",
]

ENUMERATION_LIMIT = 10**7

_MERGE_TOL = 1e-12


class EnumerationLimitError(ValueError):
    """An exact sum would exceed the pair-term budget; use the Monte Carlo engine."""


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite atomic probability law on R^n.

    Coincident atoms are merged at construction: on the lexsorted atoms, a
    run of neighbours each within 1e-12 * max|coordinate| of the last in
    every coordinate becomes one atom with the summed weight, placed where
    the run's first atom in input order lies.  Atoms keep their order of
    first appearance, so a law without coincident atoms is stored as given.
    """

    atoms: np.ndarray  # (k, n)
    weights: np.ndarray  # (k,)

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        weights = np.asarray(self.weights, dtype=float)
        if atoms.ndim != 2 or weights.ndim != 1 or atoms.shape[0] != weights.shape[0]:
            raise ValueError("atoms must be (k, n) with k matching weights")
        if atoms.shape[0] == 0:
            raise ValueError("a law needs at least one atom")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atom coordinates must be finite")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if np.any(weights <= 0):
            raise ValueError("weights must be strictly positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")
        atoms, weights = _merge_atoms(atoms, weights)
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]


def _merge_atoms(atoms, weights):
    """Sort-based merge of coincident atoms; see :class:`DiscreteDistribution`."""
    order = np.lexsort(atoms.T[::-1])
    gaps = np.abs(np.diff(atoms[order], axis=0))
    tol = _MERGE_TOL * np.max(np.abs(atoms))  # relative, so the merge is scale invariant
    starts = np.flatnonzero(np.r_[True, np.any(gaps > tol, axis=1)])
    run_weights = np.add.reduceat(weights[order], starts)
    first = np.minimum.reduceat(order, starts)
    keep = np.argsort(first)
    return atoms[first[keep]], run_weights[keep]


@dataclass(frozen=True)
class SignPattern:
    """Even-length pattern of +/-1 signs summing to zero."""

    signs: tuple[int, ...]

    def __post_init__(self):
        signs = tuple(int(s) for s in self.signs)
        object.__setattr__(self, "signs", signs)
        if len(signs) == 0 or len(signs) % 2 != 0:
            raise ValueError("sign pattern must have even positive length")
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("signs must be +1 or -1")
        if sum(signs) != 0:
            raise ValueError("signs must sum to zero")

    def __len__(self):
        return len(self.signs)


@dataclass(frozen=True)
class CounterexampleParams:
    """Two-point law P(X=1)=p, P(X=-M)=q with q = c/M, p = 1-q; alpha > 2."""

    alpha: float
    c: float
    m: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "m", float(self.m))
        if self.alpha <= 2:
            raise ValueError("the counterexample family needs alpha > 2")
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.m < self.c:
            raise ValueError("M must satisfy M >= c so that q = c/M <= 1")

    @property
    def q(self) -> float:
        return self.c / self.m

    @property
    def p(self) -> float:
        return 1.0 - self.q


@dataclass(frozen=True)
class RawAbsPower:
    """|xi|^alpha as a plain moment functional, valid for any alpha > 0.

    Not a cnd spec: for alpha > 2 this deliberately escapes the cnd
    invariants so the failure of the inequality can be exhibited.
    """

    alpha: float
    dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "dim", int(self.dim))
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    def eval_many(self, pts):
        sq = np.einsum("ni,ni->n", pts, pts)
        return np.power(sq, 0.5 * self.alpha)


def _check_dims(psi, dist: DiscreteDistribution):
    if psi.dim != dist.dim:
        raise DimensionMismatch(f"psi has dimension {psi.dim}, law has {dist.dim}")


def _pair_values(psi, x, sign: float) -> np.ndarray:
    """(k, k) array of psi(x_i + sign * x_j) over all pairs of rows of x."""
    k, n = x.shape
    pairs = (x[:, None, :] + sign * x[None, :, :]).reshape(-1, n)
    return psi.eval_many(pairs).reshape(k, k)


def exact_expectation(psi, dist: DiscreteDistribution, mode: str) -> float:
    """E psi(X +/- Y) = sum_{i,j} p_i p_j psi(x_i +/- x_j), exactly.

    ``psi`` is any object exposing ``dim`` and ``eval_many`` (an NdfSpec
    or a RawAbsPower probe).
    """
    _check_dims(psi, dist)
    if mode not in ("sum", "difference"):
        raise ValueError(f"mode must be 'sum' or 'difference', got {mode!r}")
    w = dist.weights
    return float(w @ _pair_values(psi, dist.atoms, 1.0 if mode == "sum" else -1.0) @ w)


def exact_gap(psi, dist: DiscreteDistribution) -> float:
    """E psi(X+Y) - E psi(X-Y); nonnegative whenever psi is cnd."""
    return exact_expectation(psi, dist, "sum") - exact_expectation(psi, dist, "difference")


def _within_budget(law: DiscreteDistribution) -> DiscreteDistribution:
    if law.n_atoms**2 > ENUMERATION_LIMIT:
        raise EnumerationLimitError(f"{law.n_atoms}^2 pair terms exceed the {ENUMERATION_LIMIT} "
                                    "budget; use mc_signed_sum instead")
    return law


def convolution_power(dist: DiscreteDistribution, m: int) -> DiscreteDistribution:
    """The law of X_1 + ... + X_m for i.i.d. X_j ~ dist, coincident sums merged.

    Built in m - 1 outer-sum steps, merging after each; raises
    :class:`EnumerationLimitError` once the support's pair count
    ``n_atoms**2`` exceeds ``ENUMERATION_LIMIT``.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    law = _within_budget(dist)
    for _ in range(m - 1):
        atoms = (law.atoms[:, None, :] + dist.atoms[None, :, :]).reshape(-1, dist.dim)
        weights = np.outer(law.weights, dist.weights).ravel()
        # renormalised so that rounding in the products cannot fail the sum-to-1 check
        law = _within_budget(DiscreteDistribution(atoms, weights / weights.sum()))
    return law


def exact_signed_sum_gap(psi, dist: DiscreteDistribution, pattern: SignPattern) -> float:
    """E psi(sum_j X_j) - E psi(sum_j eps_j X_j) for i.i.d. X_j ~ dist.

    With m plus and m minus signs, sum_j eps_j X_j = S - S' and
    sum_j X_j = S + S' for i.i.d. S, S' ~ dist^{*m}, so this is
    :func:`exact_gap` on :func:`convolution_power`.
    """
    _check_dims(psi, dist)
    return exact_gap(psi, convolution_power(dist, len(pattern) // 2))


# ---------------------------------------------------------------------------
# counterexample family (alpha > 2)
# ---------------------------------------------------------------------------


def counterexample_distribution(params: CounterexampleParams) -> DiscreteDistribution:
    """The two-point law on {1, -M} with weights {p, q}; degenerate if q = 1."""
    if params.q == 1.0:
        return DiscreteDistribution(np.array([[-params.m]]), np.array([1.0]))
    return DiscreteDistribution(
        np.array([[1.0], [-params.m]]), np.array([params.p, params.q])
    )


def counterexample_gap_closed_form(params: CounterexampleParams) -> float:
    """E|X-Y|^alpha - E|X+Y|^alpha for the two-point law, in closed form.

    Valid for M >= 1.  A positive value exhibits the failure of the
    inequality for alpha > 2.
    """
    if params.m < 1.0:
        raise ValueError("the closed form assumes M >= 1")
    a, p, q, m = params.alpha, params.p, params.q, params.m
    return (
        2.0 * p * q * ((m + 1.0) ** a - (m - 1.0) ** a)
        - 2.0**a * m**a * q**2
        - 2.0**a * p**2
    )


def counterexample_search(alpha: float, c: float, m_grid) -> float | None:
    """Smallest M in the grid with a positive closed-form gap, or None.

    If c < 2**(2-alpha) * alpha, a violation is guaranteed for M large
    enough; the scan finds the first grid point where it appears.
    """
    if alpha <= 2:
        raise ValueError("alpha must exceed 2")
    if c <= 0:
        raise ValueError("c must be positive")
    grid = np.asarray(m_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("M grid must be nonempty")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("M grid must be strictly increasing")
    if grid[0] < max(c, 1.0):
        raise ValueError("all grid entries must be >= max(c, 1)")
    q = c / grid
    p = 1.0 - q
    gaps = (
        2.0 * p * q * ((grid + 1.0) ** alpha - (grid - 1.0) ** alpha)
        - 2.0**alpha * grid**alpha * q**2
        - 2.0**alpha * p**2
    )
    hits = np.nonzero(gaps > 0)[0]
    if hits.size == 0:
        return None
    return float(grid[hits[0]])


# ---------------------------------------------------------------------------
# one-dimensional identities
# ---------------------------------------------------------------------------


def tail_identity_check(dist: DiscreteDistribution) -> tuple[float, float]:
    """(lhs, rhs) of E|X+Y| - E|X-Y| = 2 * int_0^inf [P(X>r) - P(X<-r)]^2 dr.

    The integrand is piecewise constant between consecutive values of
    {|x_i|}, so the integral is an exact finite sum.
    """
    if dist.dim != 1:
        raise DimensionMismatch("tail identity is one-dimensional")
    lhs = exact_gap(RawAbsPower(1.0), dist)

    x = dist.atoms[:, 0]
    w = dist.weights
    breaks = np.unique(np.abs(x))
    edges = np.concatenate([[0.0], breaks])
    rhs = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi == lo:
            continue
        r = 0.5 * (lo + hi)  # integrand constant on (lo, hi)
        g = w[x > r].sum() - w[x < -r].sum()
        rhs += (hi - lo) * g * g
    return lhs, float(2.0 * rhs)


def ess_bounds_check(dist: DiscreteDistribution) -> tuple[float, float]:
    """(ess sup |X-Y|, ess sup |X+Y|) = (M - m, 2 max(|M|, |m|)) for atoms in R."""
    if dist.dim != 1:
        raise DimensionMismatch("essential bounds are one-dimensional")
    x = dist.atoms[:, 0]
    top, bottom = float(x.max()), float(x.min())
    return top - bottom, 2.0 * max(abs(top), abs(bottom))


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------


def distribution_to_obj(dist: DiscreteDistribution) -> dict:
    return {"atoms": dist.atoms.tolist(), "weights": dist.weights.tolist()}


def distribution_from_obj(obj: dict) -> DiscreteDistribution:
    if not isinstance(obj, dict) or "atoms" not in obj or "weights" not in obj:
        raise ValueError("distribution object needs 'atoms' and 'weights'")
    return DiscreteDistribution(
        np.asarray(obj["atoms"], dtype=float), np.asarray(obj["weights"], dtype=float)
    )
