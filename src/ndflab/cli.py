"""`ndf-lab`: batch experiment runner over JSON configs.

Usage:

    ndf-lab <command> --config cfg.json [--out report.csv] [--seed S] [--samples N]
    ndf-lab <command> --schema

Commands: verify-inequality, check-kernel, variance-identity,
counterexample, tail-identity, simulate-bbm, signed-sum.  --seed and
--samples override the config fields seed and n_samples, on the commands
that have them: both on verify-inequality and signed-sum, --seed on simulate-bbm.

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

import numpy as np

from . import bbm as bbm_mod
from . import distributions as dist_mod
from . import kernels as kernel_mod
from . import mc as mc_mod
from .core import (NDF, NONNEGATIVE, NUMBER, POINTS, POSITIVE, VECTOR, Record,
                   canonical_dumps, decode, encode, json_schema)
from .distributions import ALPHA_ABOVE_2, DISTRIBUTION
from .mc import SAMPLERS

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


def _single_row_csv(columns: list[str], values: list) -> str:
    cells = [_fmt(v) if isinstance(v, float) else str(v) for v in values]
    return ",".join(columns) + "\n" + ",".join(cells) + "\n"


# ---------------------------------------------------------------------------
# command handlers: each takes its config's fields, built, as keyword
# arguments and returns (results, passed, csv_text); the optional
# ``command`` field is checked by the table and ignored here
# ---------------------------------------------------------------------------


def _rounding(law, e_plus: float, e_minus: float) -> float:
    """eps * k * (|E psi(X+Y)| + |E psi(X-Y)|): the rounding of two k-atom pair sums."""
    return float(np.finfo(float).eps) * law.n_atoms * (abs(e_plus) + abs(e_minus))


def _exact_check(psi, law, tolerance: float, names=("e_minus", "e_plus")):
    """(results, passed) for E psi(X-Y) <= E psi(X+Y) on a finite k-atom law.

    Passes when gap >= -(tolerance + rounding_tolerance), where
    rounding_tolerance = eps * k * (|E psi(X+Y)| + |E psi(X-Y)|) scales
    with the two k-atom pair sums whose rounding it absorbs.
    """
    e_minus = dist_mod.exact_expectation(psi, law, "difference")
    e_plus = dist_mod.exact_expectation(psi, law, "sum")
    gap = e_plus - e_minus
    rounding = _rounding(law, e_plus, e_minus)
    results = {"method": "exact", names[0]: e_minus, names[1]: e_plus, "gap": gap,
               "tolerance": tolerance, "rounding_tolerance": rounding}
    return results, gap >= -(tolerance + rounding)


def _mc_check(psi, sampler, n_samples, seed, z_threshold=5.0, names=("e_minus", "e_plus")):
    """(results, passed) for E psi(X-Y) <= E psi(X+Y) by the paired z-test on shared draws."""
    seed = mc_mod.parse_seed(seed)
    verdict = mc_mod.mc_inequality_verdict(psi, sampler, n_samples, seed, z_threshold)
    estimates = dict(zip(names, (verdict.est_minus, verdict.est_plus)))
    results = {
        "method": "monte_carlo",
        **{name: est.mean for name, est in estimates.items()},
        "gap": verdict.est_plus.mean - verdict.est_minus.mean,
        **{"stderr" + name[1:]: est.stderr for name, est in estimates.items()},
        "z_score": verdict.z_score if np.isfinite(verdict.z_score) else None,
        "verdict": verdict.kind,
        "n_samples": n_samples,
        "seed": seed,
        "z_threshold": z_threshold,
    }
    return results, verdict.kind != mc_mod.VIOLATION


def _pair_check(psi, m, names, distribution=None, sampler=None, tolerance=1e-10, **mc):
    """(results, passed) for the pair check on S = X_1 + ... + X_m: exact on an exact law's
    m-fold sum, by Monte Carlo on a sampler's."""
    if distribution is not None:
        return _exact_check(psi, dist_mod.convolution_power(distribution, m), tolerance, names)
    return _mc_check(psi, mc_mod.ConvolutionSampler(sampler, m), names=names, **mc)


_VERIFY_COLUMNS = ["psi_id", "law_id", "e_minus", "e_plus", "gap", "method", "n_samples", "stderr", "seed"]
_SIGNED_NAMES = ("e_signed", "e_allplus")
_SIGNED_COLUMNS = ["method", *_SIGNED_NAMES, "gap", "n_samples", "seed"]


def _run_verify_inequality(psi, distribution=None, sampler=None, command=None, **options):
    results, passed = _pair_check(psi, 1, ("e_minus", "e_plus"), distribution, sampler, **options)
    if sampler is None:
        law_id, tail = _hash(encode(DISTRIBUTION, distribution)), [0, 0.0, ""]
    else:
        law_id = _hash(encode(SAMPLERS, sampler))
        tail = [results["n_samples"], float(np.hypot(results["stderr_minus"], results["stderr_plus"])),
                results["seed"]]
    csv_text = _single_row_csv(_VERIFY_COLUMNS, [
        _hash(encode(NDF, psi)), law_id, results["e_minus"], results["e_plus"], results["gap"],
        results["method"], *tail])
    return results, passed, csv_text


def _run_check_kernel(psi, points, tolerance=None, command=None):
    mat = kernel_mod.gram_matrix(psi, np.asarray(points, dtype=float))
    result = kernel_mod.psd_check(mat, tolerance)
    results = {
        "n_points": int(mat.shape[0]),
        "min_eigenvalue": result.min_eigenvalue,
        "psd": result.psd,
        "tolerance": result.tol,
    }
    return results, result.psd, kernel_mod.gram_to_csv(mat)


def _run_variance_identity(psi, distribution, tolerance=1e-10, command=None):
    quad, gap, e_plus, e_minus = kernel_mod.variance_identity(psi, distribution)
    err = abs(quad - gap)
    rounding = _rounding(distribution, e_plus, e_minus)
    passed = err <= tolerance * max(1.0, abs(gap)) + rounding and quad >= -(tolerance + rounding)
    results = {"quadratic_form": quad, "gap": gap, "abs_error": err, "tolerance": tolerance,
               "rounding_tolerance": rounding}
    csv_text = _single_row_csv(
        ["quadratic_form", "gap", "abs_error", "tolerance"], [quad, gap, err, tolerance]
    )
    return results, passed, csv_text


def _run_counterexample(alpha, c, m=None, m_grid=None, command=None):
    if m is not None:
        params = dist_mod.CounterexampleParams(alpha, c, m)
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
    found = dist_mod.counterexample_search(alpha, c, m_grid)
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


def _run_tail_identity(distribution, tolerance=1e-12, command=None):
    rhs = dist_mod._tail_integral(distribution)
    exact, _ = _exact_check(dist_mod.RawAbsPower(1.0), distribution, tolerance)  # lhs, with its rounding
    lhs, rounding = exact["gap"], exact["rounding_tolerance"]
    err = abs(lhs - rhs)
    passed = err <= tolerance * max(1.0, abs(lhs)) + rounding and rhs >= -tolerance
    results = {"lhs": lhs, "rhs": rhs, "abs_error": err, "tolerance": tolerance,
               "rounding_tolerance": rounding}
    csv_text = _single_row_csv(["lhs", "rhs", "abs_error"], [lhs, rhs, err])
    return results, passed, csv_text


def _run_simulate_bbm(h, k, grid, n_paths, seed, command=None):
    params = bbm_mod.BbmParams(h, k)
    seed = mc_mod.parse_seed(seed)
    paths = bbm_mod.bbm_sample_paths(params, grid, n_paths, seed)
    results = {
        "h": params.h,
        "k": params.k,
        "n_paths": paths.n_paths,
        "n_grid": int(paths.grid.size),
        "seed": seed,
    }
    return results, True, bbm_mod.paths_to_csv(paths)


def _run_signed_sum(psi, pattern, command=None, **law):
    # sum_j eps_j X_j = S - S' and sum_j X_j = S + S' for S, S' i.i.d. sums of m copies of X;
    # with signs of +/-1 only, a zero sum also means an even length
    if sum(pattern) != 0:
        raise ValueError("signs must sum to zero")
    results, passed = _pair_check(psi, len(pattern) // 2, _SIGNED_NAMES, **law)
    row = {"n_samples": 0, "seed": "", **results}  # an exact row leaves the Monte Carlo columns blank
    return results, passed, _single_row_csv(_SIGNED_COLUMNS, [row[c] for c in _SIGNED_COLUMNS])


# each command's config fields, with its handler as the constructor
SEED = {"type": ["integer", "string"], "minimum": 0, "maximum": 2**64 - 1,
        "pattern": "^(0[xX][0-9a-fA-F]+|[0-9]+)$"}
# an exact law, or a sampler with its sample count and seed; each engine takes only its own fields
_LAW = {"distribution": DISTRIBUTION, "sampler": SAMPLERS,
        "n_samples": {"type": "integer", "minimum": 100}, "seed": SEED}
_EITHER_LAW = {"one_of": ("distribution", "sampler"), "needs": {"sampler": ("n_samples", "seed"),
               "n_samples": ("sampler",), "seed": ("sampler",), "tolerance": ("distribution",)}}

COMMANDS = {
    "verify-inequality": Record(_run_verify_inequality, {
        "psi": NDF, **_LAW, "z_threshold": POSITIVE, "tolerance": NONNEGATIVE}, ("psi",),
        one_of=_EITHER_LAW["one_of"], needs={**_EITHER_LAW["needs"], "z_threshold": ("sampler",)}),
    "check-kernel": Record(_run_check_kernel, {
        "psi": NDF, "points": POINTS, "tolerance": NONNEGATIVE}, ("psi", "points")),
    "variance-identity": Record(_run_variance_identity, {
        "psi": NDF, "distribution": DISTRIBUTION, "tolerance": NONNEGATIVE}, ("psi", "distribution")),
    "counterexample": Record(_run_counterexample, {
        "alpha": ALPHA_ABOVE_2, "c": POSITIVE, "m": NUMBER, "m_grid": VECTOR}, ("alpha", "c"),
        ("m", "m_grid")),
    "tail-identity": Record(_run_tail_identity, {
        "distribution": DISTRIBUTION, "tolerance": NONNEGATIVE}, ("distribution",)),
    "simulate-bbm": Record(_run_simulate_bbm, {
        "h": NUMBER, "k": NUMBER, "grid": VECTOR, "n_paths": {"type": "integer", "minimum": 1},
        "seed": SEED}, ("h", "k", "grid", "n_paths", "seed")),
    "signed-sum": Record(_run_signed_sum, {
        "psi": NDF, "pattern": {"type": "array", "items": {"type": "integer", "enum": [1, -1]},
                                "minItems": 2},
        **_LAW, "tolerance": NONNEGATIVE}, ("psi", "pattern"), **_EITHER_LAW),
}
for _name, _record in COMMANDS.items():
    _record.fields["command"] = {"type": "string", "const": _name}  # a config may name its command


def run(command: str, config: dict) -> dict:
    """Decode one experiment config, which runs its command; returns the report dict."""
    results, passed, csv_text = decode(COMMANDS[command], config)
    return {
        "command": command,
        "config_hash": _hash(config),
        "inputs": config,
        "results": results,
        "passed": bool(passed),
        "csv": csv_text,
    }


_WRITE_CHUNK = 1 << 20  # characters per write


def emit_csv(report: dict, path: str):
    """Write the report's tabular section; a float is the text of format(v, ".17g").

    The text goes out a chunk at a time: a text file's write of one large
    string first copies all of it to bytes.
    """
    text = report["csv"]
    with open(path, "w", newline="") as fh:
        for start in range(0, len(text), _WRITE_CHUNK):
            fh.write(text[start:start + _WRITE_CHUNK])


# config field -> the flag that overrides it, offered by the commands whose table has the field
_OVERRIDES = {"seed": ("--seed", {"help": "override the config seed (decimal or 0x-hex)"}),
              "n_samples": ("--samples", {"type": int, "help": "override the config sample count"})}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="ndf-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--out", help="CSV output path")
        for field, (flag, options) in _OVERRIDES.items():
            if field in COMMANDS[name].fields:
                p.add_argument(flag, dest=field, **options)
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
        print(json.dumps(json_schema(COMMANDS[args.command]), indent=2, sort_keys=True))
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
        if isinstance(config, dict):  # decode rejects any other value as it stands
            config.update({field: getattr(args, field) for field in _OVERRIDES
                           if getattr(args, field, None) is not None})
        # psi may overflow on extreme inputs; non-finite results are rejected
        # (by mc._estimate, and by allow_nan=False below), so numpy's warnings
        # would only add noise before the one error line
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            report = run(args.command, config)
        printable = {k: v for k, v in report.items() if k != "csv"}
        text = json.dumps(printable, sort_keys=True, allow_nan=False)  # one line
    except (ValueError, OverflowError, RecursionError) as exc:  # a ConfigError is a ValueError
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
