"""Finite discrete laws with exact expectations of psi(X +/- Y).

Every expectation here is a finite sum over atom pairs, so the moment
inequality E psi(X-Y) <= E psi(X+Y) is checked with no sampling error.
The sums here and in :mod:`ndflab.kernels` reduce the pair engine's
tiles as they come, so their memory is one tile's.  A signed sum with m
plus and m minus signs is ``exact_gap(psi, convolution_power(law, m))``.
The module also hosts the alpha > 2 counterexample family, the tail
identity for E|X+Y| - E|X-Y| and the essential-bound comparison.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatch, EuclideanPower
from .fields import POINTS, VECTOR, Record

__all__ = [
    "DiscreteDistribution",
    "CounterexampleParams",
    "RawAbsPower",
    "EnumerationLimitError",
    "exact_expectation",
    "exact_gap",
    "convolution_power",
    "counterexample_distribution",
    "counterexample_gap_closed_form",
    "counterexample_search",
    "tail_identity_check",
    "ess_bounds_check",
    "ENUMERATION_LIMIT",
]

ENUMERATION_LIMIT = 10**7

_MERGE_TOL = 1e-12

_PAIR_TILE = 1 << 14  # pairs evaluated per tile of the exact pair sums


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

    eval_many = EuclideanPower.eval_many  # the same ||xi||_2**alpha, for any alpha
    pair_values = EuclideanPower.pair_values


def _check_dims(psi, dist: DiscreteDistribution):
    if psi.dim != dist.dim:
        raise DimensionMismatch(f"psi has dimension {psi.dim}, law has {dist.dim}")


def _pair_tiles(psi, x, *signs):
    """Yield (a, b, *tiles), per sign tile[i - a, j - a] = psi(x_i + sign x_j), i in [a, b), j in [a, k).

    The one pair engine behind every exact pair sum.  Its tiles, from
    ``psi.pair_values(x)``, cover the upper triangle j >= i in row order,
    about ``_PAIR_TILE`` pairs each.  A pair below a tile's diagonal block is
    the mirror of one in it, exact as psi and its pair values are even bit
    for bit; no pair's value depends on its tile.
    """
    k = x.shape[0]
    rows = max(1, _PAIR_TILE // k)
    tile = psi.pair_values(x)
    for a in range(0, k, rows):
        b = min(a + rows, k)
        yield a, b, *(tile(a, b, sign) for sign in signs)


def _tile_form(w, a: int, b: int, tile) -> float:
    """A tile's share of the symmetric form w' A w: its diagonal block once, the rest twice."""
    v = w[a:b]
    form = v @ tile[:, :b - a] @ v
    if b < w.shape[0]:
        form += 2.0 * (v @ (tile[:, b - a:] @ w[b:]))
    return form


def _add_forms(forms) -> float:
    """The tiles' forms added in tile order; a one-tile sum is that tile's form itself."""
    return float(functools.reduce(operator.add, forms))


def exact_expectation(psi, dist: DiscreteDistribution, mode: str) -> float:
    """E psi(X +/- Y) = sum_{i,j} p_i p_j psi(x_i +/- x_j), reduced tile by tile.

    ``psi`` is an NdfSpec or a RawAbsPower probe.  No k x k array is made;
    on a law of one tile the sum is ``w @ A @ w`` of the pair array A.
    """
    _check_dims(psi, dist)
    if mode not in ("sum", "difference"):
        raise ValueError(f"mode must be 'sum' or 'difference', got {mode!r}")
    w = dist.weights
    tiles = _pair_tiles(psi, dist.atoms, 1.0 if mode == "sum" else -1.0)
    return _add_forms(_tile_form(w, a, b, tile) for a, b, tile in tiles)


def exact_gap(psi, dist: DiscreteDistribution) -> float:
    """E psi(X+Y) - E psi(X-Y); nonnegative whenever psi is cnd."""
    return exact_expectation(psi, dist, "sum") - exact_expectation(psi, dist, "difference")


def _within_budget(law: DiscreteDistribution) -> DiscreteDistribution:
    if law.n_atoms**2 > ENUMERATION_LIMIT:
        raise EnumerationLimitError(f"{law.n_atoms}^2 pair terms exceed the {ENUMERATION_LIMIT} "
                                    "budget; to sample the sum instead, give the law as "
                                    '{"sampler": {"type": "discrete", "distribution": ...}}')
    return law


def convolution_power(dist: DiscreteDistribution, m: int) -> DiscreteDistribution:
    """The law of X_1 + ... + X_m for i.i.d. X_j ~ dist, coincident sums merged.

    ``dist`` itself for m = 1.  Otherwise built in m - 1 outer-sum steps,
    merging after each; raises :class:`EnumerationLimitError` once the pair
    count ``n_atoms**2`` of ``dist`` or of a sum built exceeds
    ``ENUMERATION_LIMIT``.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    law = dist if m == 1 else _within_budget(dist)
    for _ in range(m - 1):
        atoms = (law.atoms[:, None, :] + dist.atoms[None, :, :]).reshape(-1, dist.dim)
        weights = np.outer(law.weights, dist.weights).ravel()
        # renormalised so that rounding in the products cannot fail the sum-to-1 check
        law = _within_budget(DiscreteDistribution(atoms, weights / weights.sum()))
    return law


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
    # in float64, so a power out of range gives inf or nan rather than OverflowError
    return float(_counterexample_gap(params.alpha, params.c, np.float64(params.m)))


def _counterexample_gap(alpha, c, m):
    """The closed-form gap at M = m, a Python float or an array of them."""
    q = c / m
    p = 1.0 - q
    return (
        2.0 * p * q * ((m + 1.0) ** alpha - (m - 1.0) ** alpha)
        - 2.0**alpha * m**alpha * q**2
        - 2.0**alpha * p**2
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
    hits = np.nonzero(_counterexample_gap(alpha, c, grid) > 0)[0]
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
    rhs = _tail_integral(dist)
    return exact_gap(RawAbsPower(1.0), dist), rhs


def _tail_integral(dist: DiscreteDistribution) -> float:
    """2 * int_0^inf [P(X>r) - P(X<-r)]^2 dr, the right side of the tail identity.

    On (b_{j-1}, b_j) between breaks of {0} u {|x_i|}, X > r (X < -r) exactly
    for the positive (negative) atoms with |x| >= b_j: a suffix sum of weight
    after one stable sort by |x|, read at the first atom of each break.
    """
    if dist.dim != 1:
        raise DimensionMismatch("tail identity is one-dimensional")
    x = dist.atoms[:, 0]
    order = np.argsort(np.abs(x), kind="stable")
    x, w = x[order], dist.weights[order]
    size = np.abs(x)
    first = np.flatnonzero(np.r_[True, size[1:] != size[:-1]])  # where each break's atoms start
    breaks = size[first]
    above = np.cumsum(np.where(x > 0, w, 0.0)[::-1])[::-1]
    below = np.cumsum(np.where(x < 0, w, 0.0)[::-1])[::-1]
    g = above[first] - below[first]
    return float(2.0 * np.sum(np.diff(breaks, prepend=0.0) * g * g))


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


DISTRIBUTION = Record(DiscreteDistribution, {"atoms": POINTS, "weights": VECTOR},
                      ("atoms", "weights"))

ALPHA_ABOVE_2 = {"type": "number", "exclusiveMinimum": 2}  # the counterexample family's alpha
