"""Continuous negative definite (cnd) functions and Bernstein functions.

A cnd function is described symbolically by an :class:`NdfSpec` tree:
a finite-atom Levy triplet, the closed form ``||xi||_2**alpha`` for
``alpha in (0, 2]``, a subordinated composition ``f(psi(.))`` with a
Bernstein function ``f``, or a conic combination of such terms.  All
evaluations are exact (no quadrature): Levy measures are restricted to
finitely many atoms, so the cosine integral collapses to a finite sum.

Every spec is immutable and evaluation is pure; vectorised evaluation
over point batches is the primitive, with scalar wrappers on top.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

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
    "eval_bernstein_many",
    "eval_psi",
    "eval_psi_many",
    "subordinate",
    "metric_dpsi",
    "kernel_kpsi",
    "psd_tolerance",
    "bernstein_to_obj",
    "bernstein_from_obj",
    "ndf_to_obj",
    "ndf_from_obj",
    "ndf_to_json",
    "ndf_from_json",
    "bernstein_to_json",
    "bernstein_from_json",
    "canonical_dumps",
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

    def value_at_zero(self) -> float:
        raise NotImplementedError

    def to_obj(self) -> dict:
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

    def value_at_zero(self):
        return self.a

    def to_obj(self):
        return {
            "type": "triplet",
            "a": self.a,
            "b": self.b,
            "atoms": [[t, w] for t, w in self.atoms],
        }


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

    def value_at_zero(self):
        return 0.0

    def to_obj(self):
        return {"type": "power", "beta": self.beta}


@dataclass(frozen=True)
class Log1p(BernsteinSpec):
    """f(lam) = log(1 + lam)."""

    def eval_many(self, lam):
        return np.log1p(lam)

    def value_at_zero(self):
        return 0.0

    def to_obj(self):
        return {"type": "log1p"}


def eval_bernstein_many(f: BernsteinSpec, lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise ValueError("Bernstein functions are defined on [0, inf)")
    return f.eval_many(lam)


def eval_bernstein(f: BernsteinSpec, lam: float) -> float:
    """Evaluate a Bernstein function at a single nonnegative argument."""
    return float(eval_bernstein_many(f, np.array([lam]))[0])


# ---------------------------------------------------------------------------
# Levy triplet
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevyTriplet:
    """(a, Q, nu) with nu a finite atomic measure: atoms (u_k, m_k), u_k != 0, m_k > 0."""

    q: np.ndarray
    atoms: tuple[tuple[np.ndarray, float], ...] = ()
    a: float = 0.0

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
        object.__setattr__(self, "a", float(self.a))
        if self.a < 0:
            raise SpecError("killing constant must be nonnegative")
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

    def to_obj(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class FromTriplet(NdfSpec):
    """psi(xi) = 0.5 <Q xi, xi> + sum_k (1 - cos<xi, u_k>) m_k."""

    triplet: LevyTriplet

    def __post_init__(self):
        if self.triplet.a != 0.0:
            raise SpecError("a nonzero killing constant would give psi(0) != 0")

    @property
    def dim(self):
        return self.triplet.dim

    def eval_many(self, pts):
        # <Q xi, xi> summed point by point in a fixed (i, j) order, so a
        # point's value does not depend on the batch it is evaluated in
        q = self.triplet.q
        quad = np.zeros(pts.shape[0])
        for i in range(q.shape[0]):
            for j in range(q.shape[1]):
                quad += q[i, j] * pts[:, j] * pts[:, i]
        out = 0.5 * quad
        for u, m in self.triplet.atoms:
            t = pts @ u
            np.cos(t, out=t)
            np.subtract(1.0, t, out=t)
            t *= m
            out += t
        return out

    def to_obj(self):
        return {
            "type": "from_triplet",
            "dim": self.dim,
            "a": 0.0,
            "q": self.triplet.q.tolist(),
            "atoms": [{"u": u.tolist(), "m": m} for u, m in self.triplet.atoms],
        }


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

    def to_obj(self):
        return {"type": "euclidean_power", "alpha": self.alpha, "dim": self.dim}


@dataclass(frozen=True)
class Subordinated(NdfSpec):
    """psi(xi) = f(inner(xi)) for a Bernstein function f (Bochner subordination)."""

    f: BernsteinSpec
    inner: NdfSpec

    def __post_init__(self):
        if self.f.value_at_zero() != 0.0:
            raise SpecError("subordination requires f(0) = 0 to keep psi(0) = 0")

    @property
    def dim(self):
        return self.inner.dim

    def eval_many(self, pts):
        return self.f.eval_many(self.inner.eval_many(pts))

    def to_obj(self):
        return {
            "type": "subordinated",
            "f": self.f.to_obj(),
            "inner": self.inner.to_obj(),
        }


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

    def to_obj(self):
        return {
            "type": "conic_sum",
            "dim": self.dim,
            "terms": [[c, spec.to_obj()] for c, spec in self.terms],
        }


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


def subordinate(f: BernsteinSpec, psi: NdfSpec) -> Subordinated:
    """Bochner subordination f o psi; the result is again cnd."""
    return Subordinated(f, psi)


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
# canonical JSON encoding (tagged unions)
# ---------------------------------------------------------------------------


def canonical_dumps(obj) -> str:
    """Deterministic JSON serialisation: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def bernstein_to_obj(f: BernsteinSpec) -> dict:
    return f.to_obj()


def bernstein_from_obj(obj: dict) -> BernsteinSpec:
    if not isinstance(obj, dict) or "type" not in obj:
        raise SpecError("Bernstein spec must be a tagged object")
    kind = obj["type"]
    if kind == "triplet":
        return BernsteinTriplet(
            a=obj.get("a", 0.0),
            b=obj.get("b", 0.0),
            atoms=tuple((t, w) for t, w in obj.get("atoms", [])),
        )
    if kind == "power":
        return Power(obj["beta"])
    if kind == "log1p":
        return Log1p()
    raise SpecError(f"unknown Bernstein spec type {kind!r}")


def ndf_to_obj(psi: NdfSpec) -> dict:
    return psi.to_obj()


def ndf_from_obj(obj: dict) -> NdfSpec:
    if not isinstance(obj, dict) or "type" not in obj:
        raise SpecError("cnd spec must be a tagged object")
    kind = obj["type"]
    if kind == "from_triplet":
        triplet = LevyTriplet(
            q=np.asarray(obj["q"], dtype=float),
            atoms=tuple((np.asarray(atom["u"], dtype=float), atom["m"]) for atom in obj.get("atoms", [])),
            a=obj.get("a", 0.0),
        )
        spec = FromTriplet(triplet)
        if "dim" in obj and int(obj["dim"]) != spec.dim:
            raise SpecError("declared dimension disagrees with Q")
        return spec
    if kind == "euclidean_power":
        return EuclideanPower(obj["alpha"], obj.get("dim", 1))
    if kind == "subordinated":
        return Subordinated(bernstein_from_obj(obj["f"]), ndf_from_obj(obj["inner"]))
    if kind == "conic_sum":
        return ConicSum(tuple((c, ndf_from_obj(t)) for c, t in obj["terms"]))
    raise SpecError(f"unknown cnd spec type {kind!r}")


def ndf_to_json(psi: NdfSpec) -> str:
    return canonical_dumps(ndf_to_obj(psi))


def ndf_from_json(s: str) -> NdfSpec:
    return ndf_from_obj(json.loads(s))


def bernstein_to_json(f: BernsteinSpec) -> str:
    return canonical_dumps(bernstein_to_obj(f))


def bernstein_from_json(s: str) -> BernsteinSpec:
    return bernstein_from_obj(json.loads(s))
