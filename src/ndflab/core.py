"""Continuous negative definite (cnd) functions and Bernstein functions.

A cnd function with psi(0) = 0 is described by an :class:`NdfSpec` tree:
a finite-atom Levy triplet (Q, nu), the closed form ``||xi||_2**alpha`` for
``alpha in (0, 2]``, a subordinated composition ``f(psi(.))`` with a
Bernstein function ``f``, ``f(0) = 0``, or a conic sum of such terms.  All
evaluations are exact (no quadrature): Levy measures are restricted to
finitely many atoms, so the cosine integral collapses to a finite sum.

Every spec is immutable and evaluation is pure; vectorised evaluation
over point batches is the primitive, with scalar wrappers on top, and
``pair_values`` gives psi(x_i +/- x_j) over a point set a tile at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import DIM, NONNEGATIVE, POSITIVE, VECTOR, Family, Record, nonempty, pair

__all__ = [
    "SpecError",
    "DimensionMismatch",
    "LevyTriplet",
    "BernsteinSpec",
    "BernsteinTriplet",
    "Power",
    "Log1p",
    "NdfSpec",
    "FromTriplet",
    "EuclideanPower",
    "Subordinated",
    "ConicSum",
    "as_point",
    "eval_bernstein",
    "eval_psi",
    "eval_psi_many",
    "metric_dpsi",
    "kernel_kpsi",
    "psd_tolerance",
]


class SpecError(ValueError):
    """A spec violates its construction invariants."""


class DimensionMismatch(ValueError):
    """Point dimensions disagree with the function object or with each other."""


def psd_tolerance(n: int, max_entry: float) -> float:
    """Scale-aware tolerance for positive-semidefiniteness verdicts."""
    return 64.0 * np.finfo(float).eps * n * max_entry


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a 1-d float array, checking finiteness and dimension."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise DimensionMismatch(f"expected a single point, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    if dim is not None and p.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {p.shape[0]}")
    return p


def _as_batch(pts, dim: int) -> np.ndarray:
    """Coerce ``pts`` to an (N, dim) float array."""
    a = np.asarray(pts, dtype=float)
    if a.ndim == 1:
        a = a[:, None] if dim == 1 else a[None, :]
    if a.ndim != 2 or a.shape[1] != dim:
        raise DimensionMismatch(f"expected points of dimension {dim}, got shape {a.shape}")
    return a


# ---------------------------------------------------------------------------
# Bernstein functions
# ---------------------------------------------------------------------------


class BernsteinSpec:
    """Base class for symbolic Bernstein functions on [0, inf)."""

    def eval_many(self, lam: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class BernsteinTriplet(BernsteinSpec):
    """f(lam) = a + b*lam + sum_k (1 - exp(-t_k*lam)) * w_k with finitely many atoms."""

    a: float = 0.0
    b: float = 0.0
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(
            self, "atoms", tuple((float(t), float(w)) for t, w in self.atoms)
        )
        if self.a < 0 or self.b < 0:
            raise SpecError("Bernstein triplet requires a >= 0 and b >= 0")
        for t, w in self.atoms:
            if not (t > 0 and w > 0):
                raise SpecError("Bernstein atoms require t > 0 and w > 0")

    def eval_many(self, lam):
        out = np.full_like(lam, self.a, dtype=float)
        out += self.b * lam
        for t, w in self.atoms:
            out += w * -np.expm1(-t * lam)
        return out


@dataclass(frozen=True)
class Power(BernsteinSpec):
    """f(lam) = lam**beta for 0 < beta <= 1."""

    beta: float

    def __post_init__(self):
        object.__setattr__(self, "beta", float(self.beta))
        if not (0.0 < self.beta <= 1.0):
            raise SpecError(f"power exponent must lie in (0, 1], got {self.beta}")

    def eval_many(self, lam):
        return np.power(lam, self.beta)


@dataclass(frozen=True)
class Log1p(BernsteinSpec):
    """f(lam) = log(1 + lam)."""

    def eval_many(self, lam):
        return np.log1p(lam)


def eval_bernstein(f: BernsteinSpec, lam: float) -> float:
    """Evaluate a Bernstein function at a single nonnegative argument."""
    if lam < 0:
        raise ValueError("Bernstein functions are defined on [0, inf)")
    return float(f.eval_many(np.array([lam], dtype=float))[0])


# ---------------------------------------------------------------------------
# Levy triplet
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevyTriplet:
    """(Q, nu) with nu a finite atomic measure: atoms (u_k, m_k), u_k != 0, m_k > 0."""

    q: np.ndarray
    atoms: tuple[tuple[np.ndarray, float], ...] = ()

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise SpecError(f"Q must be a square matrix, got shape {q.shape}")
        n = q.shape[0]
        scale = max(1.0, float(np.max(np.abs(q))) if q.size else 1.0)
        if np.max(np.abs(q - q.T), initial=0.0) > 1e-12 * scale:
            raise SpecError("Q must be symmetric")
        q = 0.5 * (q + q.T)
        tol = psd_tolerance(n, float(np.max(np.abs(q))) if q.size else 0.0)
        if np.min(np.linalg.eigvalsh(q)) < -tol:
            raise SpecError("Q must be positive semidefinite")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)
        atoms = []
        for u, m in self.atoms:
            u = as_point(u, n)
            m = float(m)
            if not np.any(u != 0.0):
                raise SpecError("Levy atoms must sit away from the origin")
            if m <= 0:
                raise SpecError("Levy atom masses must be strictly positive")
            u.setflags(write=False)
            atoms.append((u, m))
        object.__setattr__(self, "atoms", tuple(atoms))

    @property
    def dim(self) -> int:
        return self.q.shape[0]


# ---------------------------------------------------------------------------
# cnd function specs
# ---------------------------------------------------------------------------


class NdfSpec:
    """Base class for symbolic real-valued cnd functions with psi(0) = 0."""

    dim: int

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate at an (N, dim) batch; returns an (N,) array."""
        raise NotImplementedError

    def pair_values(self, x: np.ndarray):
        """``tile(a, b, sign)``, giving the (b - a, k - a) array psi(x_i + sign x_j), i in [a, b), j in [a, k).

        This default evaluates the tile's pair points with ``eval_many``.  An
        override may do per-point work once for every tile; a pair's value must
        not depend on its tile, and (i, j) and (j, i) must give the same bits.
        """
        k, n = x.shape

        def tile(a, b, sign):
            op = np.add if sign > 0 else np.subtract  # x_i - x_j is x_i + (-1 * x_j) bit for bit
            pairs = np.empty((b - a, k - a, n))
            for c in range(n):  # column by column: the same bits as a broadcast, and faster
                op(x[a:b, c, None], x[a:, c], out=pairs[:, :, c])
            return self.eval_many(pairs.reshape(-1, n)).reshape(b - a, k - a)

        return tile


@dataclass(frozen=True)
class FromTriplet(NdfSpec):
    """psi(xi) = 0.5 <Q xi, xi> + sum_k (1 - cos<xi, u_k>) m_k."""

    triplet: LevyTriplet

    @property
    def dim(self):
        return self.triplet.dim

    def eval_many(self, pts):
        # <Q xi, xi> summed point by point in a fixed (i, j) order, so a
        # point's value does not depend on the batch it is evaluated in; a
        # zero entry adds +-0 to a sum that starts at +0, so it is skipped
        q = self.triplet.q
        quad = np.zeros(pts.shape[0])
        for i, j in zip(*np.nonzero(q)):
            quad += q[i, j] * pts[:, j] * pts[:, i]
        out = 0.5 * quad
        for u, m in self.triplet.atoms:
            t = pts @ u
            np.cos(t, out=t)
            np.subtract(1.0, t, out=t)
            t *= m
            out += t
        return out

    def pair_values(self, x):
        # The quadratic part is eval_many's loop on the pair points, each
        # coordinate formed where it is used.  A Levy atom's term comes from
        # half angles: with theta_i = <x_i, u> / 2, S_i = sin(theta_i) and
        # C_i = cos(theta_i), 1 - cos<x_i + sign x_j, u> = 2 (S_i C_j + sign C_i S_j)**2.
        # Rounding <x_i, u> moves the atom x_i, not the pair, and each term is
        # >= 0; (i, j) and (j, i) give the same bits, and the minus tile's diagonal is 0.
        q = self.triplet.q
        halves = []  # (2 m, S, C) per Levy atom, over all k points
        for u, m in self.triplet.atoms:
            theta = 0.5 * sum(x[:, c] * u[c] for c in range(len(u)))  # theta_i from x_i alone
            halves.append((2.0 * m, np.sin(theta), np.cos(theta)))

        scratch = np.empty(0)  # t and t2 of every tile, made once for the law's first, largest tile

        def tile(a, b, sign):
            nonlocal scratch
            op = np.add if sign > 0 else np.subtract
            out = np.zeros((b - a, len(x) - a))
            if scratch.size < 2 * out.size:
                scratch = np.empty(2 * out.size)
            t, t2 = scratch[:2 * out.size].reshape((2,) + out.shape)
            for i, j in zip(*np.nonzero(q)):
                np.multiply(op(x[a:b, j, None], x[a:, j], out=t), q[i, j], out=t)
                t *= op(x[a:b, i, None], x[a:, i], out=t2)
                out += t
            out *= 0.5
            for m2, s, c in halves:
                np.multiply(s[a:b, None], c[a:], out=t)
                np.multiply(c[a:b, None], s[a:], out=t2)
                op(t, t2, out=t)  # sin(theta_i + sign theta_j)
                t *= t
                t *= m2
                out += t
            return out

        return tile


@dataclass(frozen=True)
class EuclideanPower(NdfSpec):
    """psi(xi) = ||xi||_2**alpha for alpha in (0, 2]."""

    alpha: float
    dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "dim", int(self.dim))
        if not (0.0 < self.alpha <= 2.0):
            raise SpecError(f"alpha must lie in (0, 2], got {self.alpha}")
        if self.dim < 1:
            raise SpecError("dimension must be >= 1")

    def eval_many(self, pts):
        sq = np.einsum("ni,ni->n", pts, pts)
        if self.alpha == 2.0:
            return sq
        return np.power(sq, 0.5 * self.alpha, out=sq)


@dataclass(frozen=True)
class Subordinated(NdfSpec):
    """psi(xi) = f(inner(xi)) for a Bernstein function f (Bochner subordination)."""

    f: BernsteinSpec
    inner: NdfSpec

    def __post_init__(self):
        if self.f.eval_many(np.zeros(1))[0] != 0.0:
            raise SpecError("subordination requires f(0) = 0 to keep psi(0) = 0")

    @property
    def dim(self):
        return self.inner.dim

    def eval_many(self, pts):
        return self.f.eval_many(self.inner.eval_many(pts))

    def pair_values(self, x):
        inner = self.inner.pair_values(x)
        return lambda a, b, sign: self.f.eval_many(inner(a, b, sign))


@dataclass(frozen=True)
class ConicSum(NdfSpec):
    """psi(xi) = sum_i c_i psi_i(xi) with c_i >= 0 (cnd functions form a convex cone)."""

    terms: tuple[tuple[float, NdfSpec], ...]

    def __post_init__(self):
        terms = tuple((float(c), spec) for c, spec in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise SpecError("conic sum needs at least one term")
        dims = {spec.dim for _, spec in terms}
        if len(dims) != 1:
            raise SpecError(f"conic sum terms must share a dimension, got {sorted(dims)}")
        for c, _ in terms:
            if c < 0:
                raise SpecError("conic coefficients must be nonnegative")

    @property
    def dim(self):
        return self.terms[0][1].dim

    def eval_many(self, pts):
        out = np.zeros(pts.shape[0])
        for c, spec in self.terms:
            if c != 0.0:
                out += c * spec.eval_many(pts)
        return out

    def pair_values(self, x):
        terms = [(c, spec.pair_values(x)) for c, spec in self.terms if c != 0.0]

        def tile(a, b, sign):
            out = np.zeros((b - a, len(x) - a))
            for c, values in terms:  # in eval_many's order, each term's tile scaled in place
                v = values(a, b, sign)
                v *= c
                out += v
            return out

        return tile


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def eval_psi_many(psi: NdfSpec, pts) -> np.ndarray:
    """Evaluate psi at a batch of points given as an (N, dim) array."""
    return psi.eval_many(_as_batch(pts, psi.dim))


def eval_psi(psi: NdfSpec, xi) -> float:
    """Evaluate psi at a single point."""
    p = as_point(xi, psi.dim)
    return float(psi.eval_many(p[None, :])[0])


def metric_dpsi(psi: NdfSpec, xi, eta) -> float:
    """The metric d_psi(xi, eta) = sqrt(psi(xi - eta))."""
    xi = as_point(xi, psi.dim)
    eta = as_point(eta, psi.dim)
    return float(np.sqrt(max(eval_psi(psi, xi - eta), 0.0)))


def kernel_kpsi(psi: NdfSpec, xi, eta) -> float:
    """The kernel K(xi, eta) = psi(xi + eta) - psi(xi - eta)."""
    xi = as_point(xi, psi.dim)
    eta = as_point(eta, psi.dim)
    vals = psi.eval_many(np.stack([xi + eta, xi - eta]))
    return float(vals[0] - vals[1])


# ---------------------------------------------------------------------------
# JSON field tables of the spec families, read by fields.decode, encode
# and json_schema
# ---------------------------------------------------------------------------

BERNSTEIN = Family("bernstein", {
    "triplet": Record(BernsteinTriplet, {
        "a": NONNEGATIVE, "b": NONNEGATIVE, "atoms": {"type": "array", "items": pair(POSITIVE, POSITIVE)}}),
    "power": Record(Power, {"beta": {**POSITIVE, "maximum": 1}}, ("beta",)),
    "log1p": Record(Log1p, {}),
})
NDF = Family("ndf", {})  # its records hold it, so they are added below
NDF.records.update({
    "from_triplet": Record(lambda q, atoms=(), a=0.0, dim=None: FromTriplet(LevyTriplet(q, atoms)), {
        "dim": DIM, "a": {**NONNEGATIVE, "maximum": 0}, "q": nonempty(VECTOR),  # a = 0, so it is dropped
        "atoms": {"type": "array", "items": Record(
            lambda u, m: (u, m), {"u": VECTOR, "m": POSITIVE}, ("u", "m"),
            read=lambda atom: {"u": atom[0], "m": atom[1]})},
    }, ("q",), cls=FromTriplet, read=lambda psi: {
        "dim": psi.dim, "a": 0.0, "q": psi.triplet.q, "atoms": psi.triplet.atoms}),
    "euclidean_power": Record(EuclideanPower, {"alpha": {**POSITIVE, "maximum": 2}, "dim": DIM},
                              ("alpha",)),
    "subordinated": Record(Subordinated, {"f": BERNSTEIN, "inner": NDF}, ("f", "inner")),
    "conic_sum": Record(lambda terms, dim=None: ConicSum(terms), {
        "dim": DIM, "terms": nonempty(pair(NONNEGATIVE, NDF))}, ("terms",), cls=ConicSum),
})
