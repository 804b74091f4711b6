"""`ndf-lab`: batch experiment runner over JSON configs.

Usage:

    ndf-lab <command> --config cfg.json [--out report.csv] [--seed S] [--samples N]
    ndf-lab <command> --schema

Commands: verify-inequality, check-kernel, variance-identity,
counterexample, tail-identity, simulate-bbm, signed-sum.

Exit codes: 0 = all checks passed, 1 = a mathematical check failed,
2 = usage, config or input-range error, 3 = internal error.  Reports
embed a seed and a config hash so any run can be reproduced byte-for-byte.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import traceback

import jsonschema
import numpy as np

from . import bbm as bbm_mod
from . import distributions as dist_mod
from . import kernels as kernel_mod
from . import mc as mc_mod
from .core import canonical_dumps, ndf_from_obj, ndf_to_obj

_SEED_SCHEMA = {
    "oneOf": [
        {"type": "integer", "minimum": 0},
        {"type": "string", "pattern": "^(0[xX][0-9a-fA-F]+|[0-9]+)$"},
    ]
}

_NDF_SCHEMA = {"$ref": "#/$defs/ndf"}

_DEFS = {
    "ndf": {
        "type": "object",
        "required": ["type"],
        "properties": {"type": {"enum": ["from_triplet", "euclidean_power", "subordinated", "conic_sum"]}},
    },
    "distribution": {
        "type": "object",
        "required": ["atoms", "weights"],
        "properties": {
            "atoms": {"type": "array", "minItems": 1},
            "weights": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        },
    },
    "sampler": {
        "type": "object",
        "required": ["type"],
        "properties": {"type": {"enum": ["discrete", "gaussian_iso", "uniform_box", "counterexample"]}},
    },
    "pattern": {
        "type": "array",
        "items": {"enum": [1, -1]},
        "minItems": 2,
    },
    "seed": _SEED_SCHEMA,
}

SCHEMAS = {
    "verify-inequality": {
        "type": "object",
        "required": ["psi"],
        "properties": {
            "command": {"const": "verify-inequality"},
            "psi": _NDF_SCHEMA,
            "distribution": {"$ref": "#/$defs/distribution"},
            "sampler": {"$ref": "#/$defs/sampler"},
            "n_samples": {"type": "integer", "minimum": 100},
            "seed": {"$ref": "#/$defs/seed"},
            "z_threshold": {"type": "number", "exclusiveMinimum": 0},
            "tolerance": {"type": "number", "minimum": 0},
        },
        "oneOf": [{"required": ["distribution"]}, {"required": ["sampler"]}],
        "additionalProperties": False,
    },
    "check-kernel": {
        "type": "object",
        "required": ["psi", "points"],
        "properties": {
            "command": {"const": "check-kernel"},
            "psi": _NDF_SCHEMA,
            "points": {"type": "array", "minItems": 1},
            "tolerance": {"type": "number", "minimum": 0},
        },
        "additionalProperties": False,
    },
    "variance-identity": {
        "type": "object",
        "required": ["psi", "distribution"],
        "properties": {
            "command": {"const": "variance-identity"},
            "psi": _NDF_SCHEMA,
            "distribution": {"$ref": "#/$defs/distribution"},
            "tolerance": {"type": "number", "minimum": 0},
        },
        "additionalProperties": False,
    },
    "counterexample": {
        "type": "object",
        "required": ["alpha", "c"],
        "properties": {
            "command": {"const": "counterexample"},
            "alpha": {"type": "number", "exclusiveMinimum": 2},
            "c": {"type": "number", "exclusiveMinimum": 0},
            "m": {"type": "number"},
            "m_grid": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        },
        "oneOf": [{"required": ["m"]}, {"required": ["m_grid"]}],
        "additionalProperties": False,
    },
    "tail-identity": {
        "type": "object",
        "required": ["distribution"],
        "properties": {
            "command": {"const": "tail-identity"},
            "distribution": {"$ref": "#/$defs/distribution"},
            "tolerance": {"type": "number", "minimum": 0},
        },
        "additionalProperties": False,
    },
    "simulate-bbm": {
        "type": "object",
        "required": ["h", "k", "grid", "n_paths", "seed"],
        "properties": {
            "command": {"const": "simulate-bbm"},
            "h": {"type": "number"},
            "k": {"type": "number"},
            "grid": {"type": "array", "items": {"type": "number"}, "minItems": 1},
            "n_paths": {"type": "integer", "minimum": 1},
            "seed": {"$ref": "#/$defs/seed"},
        },
        "additionalProperties": False,
    },
    "signed-sum": {
        "type": "object",
        "required": ["psi", "pattern"],
        "properties": {
            "command": {"const": "signed-sum"},
            "psi": _NDF_SCHEMA,
            "pattern": {"$ref": "#/$defs/pattern"},
            "distribution": {"$ref": "#/$defs/distribution"},
            "sampler": {"$ref": "#/$defs/sampler"},
            "n_samples": {"type": "integer", "minimum": 100},
            "seed": {"$ref": "#/$defs/seed"},
            "tolerance": {"type": "number", "minimum": 0},
        },
        "oneOf": [{"required": ["distribution"]}, {"required": ["sampler"]}],
        "additionalProperties": False,
    },
}

COMMANDS = tuple(SCHEMAS)


class ConfigError(ValueError):
    """Config failed validation; maps to exit code 2."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _finite_number(text: str) -> float:
    """JSON float hook: NaN, Infinity and overflowing literals are config errors."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"non-finite number {text} in config")
    return value


def _hash(obj) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()[:16]


@functools.cache
def _validator(command: str):
    """The command's schema validator, built and its schema checked once per process."""
    schema = {**SCHEMAS[command], "$defs": _DEFS}
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validate(command: str, config: dict):
    error = jsonschema.exceptions.best_match(_validator(command).iter_errors(config))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"config field {path}: {error.message}")
    if "command" in config and config["command"] != command:
        raise ConfigError(
            f"config declares command {config['command']!r} but {command!r} was invoked"
        )


def _single_row_csv(columns: list[str], values: list) -> str:
    cells = [_fmt(v) if isinstance(v, float) else str(v) for v in values]
    return ",".join(columns) + "\n" + ",".join(cells) + "\n"


# ---------------------------------------------------------------------------
# command handlers: each returns (results, passed, csv_text)
# ---------------------------------------------------------------------------


def _exact_check(psi, law, tolerance: float, names=("e_minus", "e_plus")):
    """(results, passed) for E psi(X-Y) <= E psi(X+Y) on a finite k-atom law.

    Passes when gap >= -(tolerance + rounding_tolerance), where
    rounding_tolerance = eps * k * (|E psi(X+Y)| + |E psi(X-Y)|) scales
    with the two k-atom pair sums whose rounding it absorbs.
    """
    e_minus = dist_mod.exact_expectation(psi, law, "difference")
    e_plus = dist_mod.exact_expectation(psi, law, "sum")
    gap = e_plus - e_minus
    rounding = float(np.finfo(float).eps) * law.n_atoms * (abs(e_plus) + abs(e_minus))
    results = {"method": "exact", names[0]: e_minus, names[1]: e_plus, "gap": gap,
               "tolerance": tolerance, "rounding_tolerance": rounding}
    return results, gap >= -(tolerance + rounding)


def _run_verify_inequality(config):
    psi = ndf_from_obj(config["psi"])
    psi_id = _hash(ndf_to_obj(psi))
    if "distribution" in config:
        dist = dist_mod.distribution_from_obj(config["distribution"])
        results, passed = _exact_check(psi, dist, config.get("tolerance", 1e-10))
        csv_text = _single_row_csv(
            ["psi_id", "law_id", "e_minus", "e_plus", "gap", "method", "n_samples", "stderr", "seed"],
            [psi_id, _hash(config["distribution"]), results["e_minus"], results["e_plus"],
             results["gap"], "exact", 0, 0.0, ""],
        )
        return results, passed, csv_text
    sampler = mc_mod.sampler_from_obj(config["sampler"])
    n = config["n_samples"]
    seed = mc_mod.parse_seed(config["seed"])
    z_threshold = config.get("z_threshold", 5.0)
    verdict = mc_mod.mc_inequality_verdict(psi, sampler, n, seed, z_threshold)
    gap = verdict.est_plus.mean - verdict.est_minus.mean
    stderr = float(np.hypot(verdict.est_minus.stderr, verdict.est_plus.stderr))
    passed = verdict.kind != mc_mod.VIOLATION
    results = {
        "method": "monte_carlo",
        "e_minus": verdict.est_minus.mean,
        "e_plus": verdict.est_plus.mean,
        "gap": gap,
        "stderr_minus": verdict.est_minus.stderr,
        "stderr_plus": verdict.est_plus.stderr,
        "z_score": verdict.z_score if np.isfinite(verdict.z_score) else None,
        "verdict": verdict.kind,
        "n_samples": n,
        "seed": seed,
        "z_threshold": z_threshold,
    }
    csv_text = _single_row_csv(
        ["psi_id", "law_id", "e_minus", "e_plus", "gap", "method", "n_samples", "stderr", "seed"],
        [psi_id, _hash(config["sampler"]), verdict.est_minus.mean, verdict.est_plus.mean,
         gap, "monte_carlo", n, stderr, seed],
    )
    return results, passed, csv_text


def _run_check_kernel(config):
    psi = ndf_from_obj(config["psi"])
    points = np.asarray(config["points"], dtype=float)
    mat = kernel_mod.gram_matrix(psi, points)
    result = kernel_mod.psd_check(mat, config.get("tolerance"))
    results = {
        "n_points": int(mat.shape[0]),
        "min_eigenvalue": result.min_eigenvalue,
        "psd": result.psd,
        "tolerance": result.tol,
    }
    return results, result.psd, kernel_mod.gram_to_csv(mat)


def _run_variance_identity(config):
    psi = ndf_from_obj(config["psi"])
    dist = dist_mod.distribution_from_obj(config["distribution"])
    tol = config.get("tolerance", 1e-10)
    quad, gap = kernel_mod.variance_identity(psi, dist)
    err = abs(quad - gap)
    passed = err <= tol * max(1.0, abs(gap)) and quad >= -tol
    results = {"quadratic_form": quad, "gap": gap, "abs_error": err, "tolerance": tol}
    csv_text = _single_row_csv(
        ["quadratic_form", "gap", "abs_error", "tolerance"], [quad, gap, err, tol]
    )
    return results, passed, csv_text


def _run_counterexample(config):
    alpha, c = config["alpha"], config["c"]
    if "m" in config:
        params = dist_mod.CounterexampleParams(alpha, c, config["m"])
        gap = dist_mod.counterexample_gap_closed_form(params)
        law = dist_mod.counterexample_distribution(params)
        probe = dist_mod.RawAbsPower(alpha)
        oracle = -dist_mod.exact_gap(probe, law)  # enumeration, opposite orientation
        agree = abs(gap - oracle) <= 1e-9 * max(1.0, abs(oracle))
        results = {
            "alpha": alpha,
            "c": c,
            "m": params.m,
            "gap_closed_form": gap,
            "gap_enumeration": oracle,
            "violation_expected": gap > 0,
            "oracle_agrees": agree,
        }
        csv_text = _single_row_csv(
            ["alpha", "c", "m", "gap_closed_form", "gap_enumeration", "violation"],
            [float(alpha), float(c), params.m, gap, oracle, gap > 0],
        )
        return results, agree, csv_text
    found = dist_mod.counterexample_search(alpha, c, config["m_grid"])
    results = {
        "alpha": alpha,
        "c": c,
        "m_found": found,
        "sufficient_condition": c < 2.0 ** (2.0 - alpha) * alpha,
    }
    csv_text = _single_row_csv(
        ["alpha", "c", "m_found"], [float(alpha), float(c), "" if found is None else found]
    )
    return results, True, csv_text


def _run_tail_identity(config):
    dist = dist_mod.distribution_from_obj(config["distribution"])
    tol = config.get("tolerance", 1e-12)
    lhs, rhs = dist_mod.tail_identity_check(dist)
    passed = abs(lhs - rhs) <= tol * max(1.0, abs(lhs)) and rhs >= -tol
    results = {"lhs": lhs, "rhs": rhs, "abs_error": abs(lhs - rhs), "tolerance": tol}
    csv_text = _single_row_csv(["lhs", "rhs", "abs_error"], [lhs, rhs, abs(lhs - rhs)])
    return results, passed, csv_text


def _run_simulate_bbm(config):
    params = bbm_mod.BbmParams(config["h"], config["k"])
    seed = mc_mod.parse_seed(config["seed"])
    paths = bbm_mod.bbm_sample_paths(params, config["grid"], config["n_paths"], seed)
    results = {
        "h": params.h,
        "k": params.k,
        "n_paths": paths.n_paths,
        "n_grid": int(paths.grid.size),
        "seed": seed,
    }
    return results, True, bbm_mod.paths_to_csv(paths)


def _run_signed_sum(config):
    psi = ndf_from_obj(config["psi"])
    pattern = dist_mod.SignPattern(tuple(config["pattern"]))
    if "distribution" in config:
        dist = dist_mod.distribution_from_obj(config["distribution"])
        # sum_j eps_j X_j = S - S' and sum_j X_j = S + S' for S, S' ~ dist^{*m}
        try:
            law = dist_mod.convolution_power(dist, len(pattern) // 2)
        except dist_mod.EnumerationLimitError:
            if "n_samples" not in config or "seed" not in config:
                raise ConfigError(
                    "exact sum too large; supply n_samples and seed for Monte Carlo"
                )
            return _signed_sum_mc(psi, mc_mod.DiscreteSampler(dist), pattern, config)
        tol = config.get("tolerance", 1e-10)
        results, passed = _exact_check(psi, law, tol, ("e_signed", "e_allplus"))
        csv_text = _single_row_csv(
            ["method", "e_signed", "e_allplus", "gap", "n_samples", "seed"],
            ["exact", results["e_signed"], results["e_allplus"], results["gap"], 0, ""],
        )
        return results, passed, csv_text
    sampler = mc_mod.sampler_from_obj(config["sampler"])
    return _signed_sum_mc(psi, sampler, pattern, config)


def _signed_sum_mc(psi, sampler, pattern, config):
    n = config["n_samples"]
    seed = mc_mod.parse_seed(config["seed"])
    est_signed, est_plus = mc_mod.mc_signed_sum(psi, sampler, pattern, n, seed)
    gap = est_plus.mean - est_signed.mean
    stderr = float(np.hypot(est_signed.stderr, est_plus.stderr))
    # flag only a statistically significant violation of the signed-sum bound
    passed = gap >= -5.0 * stderr
    results = {
        "method": "monte_carlo",
        "e_signed": est_signed.mean,
        "e_allplus": est_plus.mean,
        "gap": gap,
        "stderr": stderr,
        "n_samples": n,
        "seed": seed,
    }
    csv_text = _single_row_csv(
        ["method", "e_signed", "e_allplus", "gap", "n_samples", "seed"],
        ["monte_carlo", est_signed.mean, est_plus.mean, gap, n, seed],
    )
    return results, passed, csv_text


_HANDLERS = {
    "verify-inequality": _run_verify_inequality,
    "check-kernel": _run_check_kernel,
    "variance-identity": _run_variance_identity,
    "counterexample": _run_counterexample,
    "tail-identity": _run_tail_identity,
    "simulate-bbm": _run_simulate_bbm,
    "signed-sum": _run_signed_sum,
}


def run(command: str, config: dict) -> dict:
    """Validate and execute one experiment config; returns the report dict."""
    _validate(command, config)
    results, passed, csv_text = _HANDLERS[command](config)
    return {
        "command": command,
        "config_hash": _hash(config),
        "inputs": config,
        "results": results,
        "passed": bool(passed),
        "csv": csv_text,
    }


def emit_csv(report: dict, path: str):
    """Write the report's tabular section; floats carry 17 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write(report["csv"])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ndf-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--out", help="CSV output path")
        p.add_argument("--seed", help="override the config seed (decimal or 0x-hex)")
        p.add_argument("--samples", type=int, help="override the config sample count")
        p.add_argument("--schema", action="store_true", help="print the config schema and exit")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _main(args)
    except Exception as exc:  # a crash must never read as a failed check
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _main(args) -> int:
    if args.schema:
        print(json.dumps(_validator(args.command).schema, indent=2, sort_keys=True))
        return 0
    if not args.config:
        print("error: --config is required", file=sys.stderr)
        return 2
    try:
        with open(args.config) as fh:
            config = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        if args.seed is not None:
            config["seed"] = args.seed
        if args.samples is not None:
            config["n_samples"] = args.samples
        report = run(args.command, config)
        printable = {k: v for k, v in report.items() if k != "csv"}
        text = json.dumps(printable, indent=2, sort_keys=True, default=str, allow_nan=False)
    except (ConfigError, ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    if args.out:
        try:
            emit_csv(report, args.out)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
