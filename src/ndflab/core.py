"""Continuous negative definite (cnd) functions and Bernstein functions.

A cnd function with psi(0) = 0 is described by an :class:`NdfSpec` tree:
a finite-atom Levy triplet (Q, nu), the closed form ``||xi||_2**alpha`` for
``alpha in (0, 2]``, a subordinated composition ``f(psi(.))`` with a
Bernstein function ``f``, ``f(0) = 0``, or a conic sum of such terms.  All
evaluations are exact (no quadrature): Levy measures are restricted to
finitely many atoms, so the cosine integral collapses to a finite sum.

Every spec is immutable and evaluation is pure; vectorised evaluation
over point batches is the primitive, with scalar wrappers on top.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpecError",
    "ConfigError",
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


@dataclass(frozen=True)
class FromTriplet(NdfSpec):
    """psi(xi) = 0.5 <Q xi, xi> + sum_k (1 - cos<xi, u_k>) m_k."""

    triplet: LevyTriplet

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
# JSON encoding: one field table per tagged family, read by decode, encode
# and json_schema
# ---------------------------------------------------------------------------

MAX_DEPTH = 100  # objects and arrays a config may nest below its root


class ConfigError(ValueError):
    """A config or spec object does not fit its field table; maps to exit code 2."""


@dataclass(frozen=True)
class Record:
    """An object kind: its fields' kinds, the required ones, and how to build and read it.

    A kind is a Record, a Family or a JSON Schema fragment.  Exactly one of
    the ``one_of`` fields must be given, a field in ``needs`` requires the
    fields it maps to, and a given ``dim`` must equal the built object's.
    ``read`` gives an object's fields back (by default its attributes);
    ``cls`` is the class built where ``build`` is not one.
    """

    build: object
    fields: dict
    required: tuple = ()
    one_of: tuple = ()
    needs: dict = field(default_factory=dict)
    cls: type | None = None
    read: object = None


@dataclass(frozen=True)
class Family:
    """A tagged union of records, told apart by their objects' "type" field."""

    name: str
    records: dict


def nonempty(items) -> dict:
    return {"type": "array", "items": items, "minItems": 1}


def pair(first, second) -> dict:
    return {"type": "array", "prefixItems": [first, second], "minItems": 2, "items": False}


NUMBER = {"type": "number"}
NONNEGATIVE = {"type": "number", "minimum": 0}
POSITIVE = {"type": "number", "exclusiveMinimum": 0}
DIM = {"type": "integer", "minimum": 1}
VECTOR = nonempty(NUMBER)
POINTS = nonempty({**VECTOR, "type": ["number", "array"]})  # each point a number or a vector

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


def _error(path: tuple, message: str) -> ConfigError:
    return ConfigError(f"config field {'/'.join(map(str, path)) or '<root>'}: {message}")


_FLOAT_MAX = float(np.finfo(float).max)


def _json_type(value) -> str:
    """The value's JSON type; integral floats are integers, as in JSON Schema."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return "integer" if isinstance(value, int) or float(value).is_integer() else "number"
    names = {bool: "boolean", str: "string", list: "array", dict: "object", type(None): "null"}
    return names.get(type(value), type(value).__name__)


_BOUNDS = {"minimum": operator.ge, "exclusiveMinimum": operator.gt, "maximum": operator.le}


def decode(kind, value, path: tuple = (), depth: int = 0):
    """Check ``value`` against ``kind`` at every depth and return it built.

    Values of integer kinds come back as int, and records built by their
    constructors.  A misfit, a number that is not finite, or nesting past
    MAX_DEPTH raises ConfigError naming the path of the field at fault; a
    constructor's ValueError is raised as a ConfigError naming its record's
    path, with the error as its ``__cause__``.
    """
    actual = _json_type(value)
    if actual in ("array", "object") and depth >= MAX_DEPTH:
        raise _error(path, f"nested deeper than {MAX_DEPTH} levels")
    if isinstance(kind, (Record, Family)):
        return _decode_object(kind, value, actual, path, depth)
    allowed = kind["type"] if isinstance(kind["type"], list) else [kind["type"]]
    if actual not in allowed and not (actual == "integer" and "number" in allowed):
        raise _error(path, f"expected {' or '.join(allowed)}, got {actual}")
    if actual == "array":
        if len(value) < kind.get("minItems", 0):
            raise _error(path, f"expected at least {kind['minItems']} items, got {len(value)}")
        kinds = kind.get("prefixItems") or [kind["items"]] * len(value)
        if len(value) > len(kinds):
            raise _error(path, f"expected at most {len(kinds)} items, got {len(value)}")
        if kind.get("items") is NUMBER and all(type(v) in (float, int) and -_FLOAT_MAX <= v <= _FLOAT_MAX
                                               for v in value):
            return value  # a plain finite vector, checked in one pass
        return [decode(k, v, path + (i,), depth + 1) for i, (k, v) in enumerate(zip(kinds, value))]
    if actual == "string":
        if value != kind.get("const", value):
            raise _error(path, f"expected {kind['const']!r}, got {value!r}")
        if not re.search(kind.get("pattern", ""), value):
            raise _error(path, f"{value!r} does not match {kind['pattern']}")
        return value
    if actual == "number" and not math.isfinite(value):  # NaN, Infinity or an overflowing literal
        raise _error(path, f"expected a finite number, got {value!r}")
    if actual == "integer" and not -_FLOAT_MAX <= value <= _FLOAT_MAX:  # compared exactly, as an int
        raise _error(path, "expected a finite number, got an integer beyond float64")
    if value not in kind.get("enum", [value]):
        raise _error(path, f"expected one of {kind['enum']}, got {value!r}")
    for key, holds in _BOUNDS.items():
        if key in kind and not holds(value, kind[key]):
            raise _error(path, f"expected {key} {kind[key]}, got {value!r}")
    return int(value) if actual == "integer" and "integer" in allowed else value


def _decode_object(kind, obj, actual, path, depth):
    if actual != "object":
        raise _error(path, f"expected object, got {actual}")
    record, given = kind, dict(obj)
    if isinstance(kind, Family):
        tag = given.pop("type", None)
        record = kind.records.get(tag) if isinstance(tag, str) else None
        if record is None:
            raise _error(path + ("type",), f"expected one of {list(kind.records)}, got {tag!r}")
    unknown = [name for name in given if name not in record.fields]
    needed = (need for name, needs in record.needs.items() if name in given for need in needs)
    missing = [name for name in (*record.required, *needed) if name not in given]
    if unknown or missing:
        raise _error(path + ((unknown or missing)[0],), "unknown field" if unknown else "missing field")
    if record.one_of and sum(name in given for name in record.one_of) != 1:
        raise _error(path, f"expected exactly one of the fields {' and '.join(record.one_of)}")
    fields = {name: decode(record.fields[name], value, path + (name,), depth + 1)
              for name, value in given.items()}
    try:
        built = record.build(**fields)
        if "dim" in fields and fields["dim"] != built.dim:
            raise SpecError(f"declared dimension {fields['dim']} disagrees with the spec's {built.dim}")
    except ValueError as exc:  # an invariant across fields, e.g. a Q that is not PSD
        raise _error(path, str(exc)) from exc
    return built


def encode(kind, value):
    """The JSON object that :func:`decode` turns into ``value``."""
    if isinstance(kind, Family):
        tag, record = next((tag, r) for tag, r in kind.records.items()
                           if isinstance(value, r.cls or r.build))
        return {"type": tag, **encode(record, value)}
    if isinstance(kind, Record):
        fields = kind.read(value) if kind.read else {name: getattr(value, name) for name in kind.fields}
        return {name: encode(kind.fields[name], v) for name, v in fields.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [encode(k, v) for k, v in zip(kind.get("prefixItems") or [kind["items"]] * len(value), value)]
    return value


def json_schema(kind) -> dict:
    """The JSON Schema (draft 2020-12) of what ``kind`` decodes, families under ``$defs``.

    It states every check of :func:`decode` but the depth cap, finiteness
    (JSON has no non-finite numbers) and the constructors' invariants
    across fields.
    """
    defs = {}

    def emit(k):
        if isinstance(k, Family):
            if k.name not in defs:
                defs[k.name] = {}  # a family may hold itself
                defs[k.name] = {"oneOf": [record(r, {"type": {"const": tag}})
                                          for tag, r in k.records.items()]}
            return {"$ref": f"#/$defs/{k.name}"}
        if isinstance(k, Record):
            return record(k, {})
        if isinstance(k, dict):
            return {key: emit(v) for key, v in k.items()}
        return [emit(v) for v in k] if isinstance(k, list) else k

    def record(r, tag):
        out = {"type": "object", "properties": {**tag, **emit(r.fields)},
               "required": [*tag, *r.required], "additionalProperties": False}
        if r.one_of:
            out["oneOf"] = [{"required": [name]} for name in r.one_of]
        if r.needs:
            out["dependentRequired"] = {name: list(needs) for name, needs in r.needs.items()}
        return out

    return {"$schema": "https://json-schema.org/draft/2020-12/schema", **emit(kind), "$defs": defs}


def canonical_dumps(obj) -> str:
    """Deterministic JSON serialisation: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
