"""Field tables for JSON configs, read by decode, encode and json_schema.

The tables of the spec families are ``core.NDF`` and ``core.BERNSTEIN``;
``distributions``, ``mc`` and ``cli`` hold the others.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ConfigError", "Record", "Family", "decode", "encode", "json_schema", "canonical_dumps"]

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
        if _finite_vector(kind, value) or (depth + 1 < MAX_DEPTH and isinstance(kind.get("items"), dict)
                                           and all(_finite_vector(kind["items"], v) for v in value)):
            return value  # a plain finite vector, or a list of them, checked in one pass
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


def _finite_vector(kind, value) -> bool:
    """Whether ``value`` is a list of finite numbers, no bools, that the array kind ``kind`` of numbers takes as it is."""
    return (kind.get("items") is NUMBER and type(value) is list and len(value) >= kind.get("minItems", 0)
            and all(type(v) in (float, int) and -_FLOAT_MAX <= v <= _FLOAT_MAX for v in value))


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
            raise ValueError(f"declared dimension {fields['dim']} disagrees with the spec's {built.dim}")
    except ValueError as exc:  # an invariant across fields, e.g. a Q that is not PSD
        raise _error(path, str(exc)) from exc
    return built


def encode(kind, value):
    """The JSON object that :func:`decode` turns into ``value``."""
    if isinstance(kind, Family):
        # by exact class, so a subclass is never encoded under its parent's tag
        tag = next((tag for tag, r in kind.records.items() if type(value) is (r.cls or r.build)), None)
        if tag is None:
            raise TypeError(f"no {kind.name} record builds a {type(value).__name__}")
        return {"type": tag, **encode(kind.records[tag], value)}
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
