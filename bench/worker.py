"""Run one pass of a benchmark job list in this fresh process.

    python3 bench/worker.py JOBS_JSON PASS_DIR [--trace {time,memory}]

Imports ``ndflab.cli`` from the checkout's ``src`` and calls ``cli.main``
once per job with ``--config`` and ``--out``, with stdout and stderr
captured.  Only the loop over the jobs is timed.  Afterwards it hashes each
job's CSV and writes ``PASS_DIR/result.json``: the job-list wall time, the
process's peak RSS, and per job the exit code, any exception, the CSV's
sha256 and shape, its time and the host speed while it ran (see
``hostspeed.py``).  With ``--trace`` the jobs run under :class:`Tracer`,
whose counters are written too, with layer times and spans (``time``) or
memory peaks (``memory``).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import resource
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_cli():
    sys.path.insert(0, str(SRC))
    from ndflab import cli

    if Path(cli.__file__).resolve().parent != (SRC / "ndflab").resolve():
        raise SystemExit(f"ndflab imported from {cli.__file__}, not from {SRC}")
    return cli


def _failure_detail(code, stdout, stderr):
    """A one-line reason for a nonzero exit: the report's numbers or the error."""
    if code == 1:
        try:
            results = json.loads(stdout)["results"]
        except (ValueError, KeyError, TypeError):
            return stdout[-200:]
        keep = ("gap", "tolerance", "abs_error", "min_eigenvalue", "gap_closed_form",
                "gap_enumeration", "z_score", "stderr")
        return " ".join(f"{k}={results[k]:.6g}" for k in keep if isinstance(results.get(k), float))
    return stderr.strip().splitlines()[-1][:200] if stderr.strip() else ""


def run_jobs(cli, jobs, pass_dir, tracer=None):
    records = []
    speed = HostSpeed()
    speed.sample()
    start = time.perf_counter()
    for job in jobs:
        out_buf, err_buf = io.StringIO(), io.StringIO()
        argv = [job["command"], "--config", job["config_path"], "--out", str(pass_dir / f"{job['id']}.csv")]
        if tracer is not None:
            tracer.job = job["id"]
        code, error = None, None
        speed.start_job()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed job, not a harness error
            error = f"{type(exc).__name__}: {exc}"[:200]
        elapsed = time.perf_counter() - t0
        in_job, ref_s = speed.end_job()
        if tracer is not None:
            tracer.end_job(ref_s)
        record = {"id": job["id"], "code": code, "error": error, "seconds": elapsed - in_job,
                  "ref_s": ref_s}
        if code not in (0, None):
            record["detail"] = _failure_detail(code, out_buf.getvalue(), err_buf.getvalue())
        records.append(record)
    return time.perf_counter() - start, records


def hash_outputs(records, pass_dir):
    """sha256 and [rows, columns] of each CSV, which is then deleted."""
    for record in records:
        path = pass_dir / f"{record['id']}.csv"
        if not path.exists():
            record["sha256"] = None
            continue
        data = path.read_bytes()
        path.unlink()
        record["sha256"] = hashlib.sha256(data).hexdigest()
        first = data.split(b"\n", 1)[0]
        record["shape"] = [data.count(b"\n"), first.count(b",") + 1]


def _blas_threads():
    """OpenBLAS's own thread count, read through its C API; None if not found."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "blas" in path.lower() and ".so" in path:
                libs.add(path)
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "jsonschema": metadata.version("jsonschema"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("jobs")
    parser.add_argument("pass_dir")
    parser.add_argument("--trace", choices=("time", "memory"))
    args = parser.parse_args()
    jobs = json.loads(Path(args.jobs).read_text())
    pass_dir = Path(args.pass_dir)
    pass_dir.mkdir(parents=True, exist_ok=True)
    cli = import_cli()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(memory=args.trace == "memory")
        tracer.install()
    wall, records = run_jobs(cli, jobs, pass_dir, tracer)
    result = {"wall_s": wall, "records": records}
    if tracer is not None:
        result["restored"] = tracer.uninstall()
        result["times"], result["counts"], result["peaks"] = tracer.metrics()
        if args.trace == "time":
            tracer.write_spans(pass_dir / "spans.jsonl")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    hash_outputs(records, pass_dir)
    result["environment"] = environment()
    (pass_dir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
