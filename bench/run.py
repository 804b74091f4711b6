"""ndflab benchmark: end-to-end and per-layer numbers for three workloads.

    python3 bench/run.py --workload {battery,large-law,sampling,all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; ``src/ndflab`` must be there.  The harness
never imports ndflab itself.  It writes every job's config from ``--seed``
before timing starts, then runs the job list in passes, one fresh
``bench/worker.py`` process per pass, each job calling ``ndflab.cli.main``
with ``--config`` and ``--out``.  Passes repeat until ``--seconds`` is spent,
with fresh CLI launches for ``setup_s`` between them.

Workloads (why each was chosen):

* ``battery``: 600 small exact jobs, the way a user runs batteries of
  checks; per-call overhead (schema validation, decoding) dominates.  Law
  scales span 1e-2..1e4 and a third of the laws are centred, which exposes
  the fixed absolute tolerance of the exact verdicts.
* ``large-law``: a handful of large exact jobs; the O(k^2) atom merge, the
  k^2 pair arrays, the Gram matrix with ``eigvalsh`` and the k^(2m) signed-sum
  enumerator do nearly all the work.
* ``sampling``: Monte Carlo jobs with millions of draws and a bBm simulation;
  draw/evaluate/reduce, ``eigh`` and CSV formatting dominate, and the
  exact-law layers do almost nothing, so a merge or pair-sum change should
  read as no change here.

End-to-end metrics (``--trace 0``; tracing off):

* ``setup_s``   median wall time of a fresh ``python -m ndflab.cli
  counterexample`` process, start to exit, over the launches made between
  passes (two before each pass and two after the last), on a calm host
  (below);
* ``wall_s``    wall time to run the job list once on a calm host (below):
  the sum over jobs of the median across passes of the job's scaled time;
* ``peak_rss_mb`` median peak RSS (``ru_maxrss``) of the pass processes;
* ``ok_share``  jobs that exited 0 with a reproducible, well-formed CSV in
  every pass, over the jobs in the list; ``fail_share = 1 - ok_share`` is
  printed beside it, and the counts are the result's ``attempted`` and
  ``failed``.  Each job counts once however many passes ran it, so for a
  given seed the counts repeat exactly from run to run.

On a shared host the CPU speed drifts by up to 1.5x over seconds to minutes,
and a run of this length cannot wait for a calm spell, so job times are
scaled by the host's speed while each job ran (see ``hostspeed.py``): the
worker times a fixed reference computation before and after every job and
every 50 ms while it runs, and a job time ``t`` taken where the reference
took ``ref_s`` counts as ``t / ref_s * CALM_REF_S``, the reference's time on
a calm host.  The plain job-list time (median untraced pass) is printed as
``raw``; it moves with the host, by up to a quarter from run to run.  Work
that slows the reference along with the job, such as BLAS threads left
spinning on the other core, is partly scaled away.

Set-up launches are separate processes, whose time depends more on the
host's file cache and process start-up than on its CPU speed, and a whole
run can fall in a slow spell, so they are measured against a reference
launch instead: a fresh ``python -I -c "import numpy"`` process is timed just
before and after every launch, and a launch taking ``t`` where the mean of
those two took ``ref`` counts as ``t / ref * LAUNCH_REFERENCE_S``, the
reference's time on a calm host.  The ratio ``t / ref`` repeats to about 1%
from run to run while ``t`` itself moves by a third.  The plain median
launch is printed as ``raw`` too.

A job fails when it exits nonzero, raises, writes a CSV of the wrong shape,
or writes CSV bytes that differ from the first pass of the same invocation.
Every job uses a cnd psi or the counterexample oracle, so exit 0 is the only
correct verdict; failures are listed per command with their numbers.
``correct`` is false when an output is not reproducible or not well formed,
when a traced pass wrote different bytes from an untraced one, or when the
tracer left a wrapper behind.

``--trace 1`` cycles through an untraced pass, a traced pass that times
each layer and a traced pass that takes ``tracemalloc`` peaks (see
``tracer.py``); memory tracing slows allocation, so those passes give no
times.  It reports per-layer self times (median over the timed traced
passes, each job's share scaled as its time is in ``wall_s``), counters
(which must repeat exactly) and memory peaks (median over the memory
passes), plus ``trace.overhead_s``, the timed traced minus the untraced
``wall_s``.  Self times include the host-speed samples taken
inside a layer's span (about 1%).  Spans, with raw times, are written to
``.bench_work/reports``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from hostspeed import CALM_REF_S

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

HARD_LIMIT_S = 170.0  # every process is stopped before the run reaches this
SETUP_PER_PASS = 2  # set-up launches before each pass and after the last
SETUP_CONFIG = {"alpha": 3, "c": 1, "m": 10}
# isolated (-I), so that nothing in the checkout can change the reference
LAUNCH_REFERENCE = [sys.executable, "-I", "-c", "import numpy"]
# LAUNCH_REFERENCE's time on a calm host: the fastest seen on a 2-vCPU
# x86-64 VM (numpy 2.4, Python 3.11) over many runs
LAUNCH_REFERENCE_S = 0.13


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Clock:
    """Seconds left before the hard limit, for subprocess timeouts."""

    def __init__(self):
        self.start = time.perf_counter()

    def left(self) -> float:
        left = HARD_LIMIT_S - (time.perf_counter() - self.start)
        if left <= 1.0:
            raise HarnessError(f"run exceeded {HARD_LIMIT_S:.0f} s")
        return left


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd, clock):
    """Run a child to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=clock.left())
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{cmd[1]} did not finish before the hard limit") from exc


def _launch(cmd, clock):
    """Start-to-exit time of one fresh process."""
    t0 = time.perf_counter()
    proc = _run(cmd, clock)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise HarnessError(f"{cmd[1:3]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return elapsed


def launch_setup(work, clock, count):
    """``count`` fresh CLI processes on SETUP_CONFIG, with a reference launch
    before the first and after each; returns [(seconds, ref_s)] where ref_s
    is the mean of the reference launches just before and after."""
    cfg = work / "setup.json"
    cfg.write_text(json.dumps(SETUP_CONFIG))
    cmd = [sys.executable, "-m", "ndflab.cli", "counterexample", "--config", str(cfg),
           "--out", str(work / "setup.csv")]
    refs = [_launch(LAUNCH_REFERENCE, clock)]
    launches = []
    for _ in range(count):
        seconds = _launch(cmd, clock)
        refs.append(_launch(LAUNCH_REFERENCE, clock))
        launches.append((seconds, (refs[-2] + refs[-1]) / 2))
    return launches


def run_pass(jobs_path, pass_dir, kind, clock):
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), str(jobs_path), str(pass_dir)]
    if kind:
        cmd += ["--trace", kind]
    t0 = time.perf_counter()
    proc = _run(cmd, clock)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads((pass_dir / "result.json").read_text())
    result["process_s"] = elapsed
    result["kind"] = kind
    return result


def run_passes(jobs_path, work, seconds, trace, clock):
    """Passes until the next one would end after ``seconds``, at least one
    of each kind: untraced (None), and under --trace 1 also "time" and
    "memory" traced passes, in turn.  SETUP_PER_PASS set-up launches come
    before each pass and after the last, so that they are spread over the
    run as the passes are.  Returns (passes, set-up launches)."""
    kinds = (None, "time", "memory") if trace else (None,)
    passes, setup = [], []
    deadline = time.perf_counter() + seconds
    launch_setup(work, clock, 1)  # warms the file cache; not counted
    while True:
        setup += launch_setup(work, clock, SETUP_PER_PASS)
        kind = kinds[len(passes) % len(kinds)]
        pass_dir = work / f"pass{len(passes):02d}"
        passes.append(run_pass(jobs_path, pass_dir, kind, clock))
        if kind == "time":
            (pass_dir / "spans.jsonl").replace(work / "spans.jsonl")
        shutil.rmtree(pass_dir)
        if len(passes) < len(kinds):
            continue
        nxt = kinds[len(passes) % len(kinds)]
        recent = [p["process_s"] for p in passes if p["kind"] == nxt]
        launches_s = sum(statistics.median(times) for times in zip(*setup))
        if time.perf_counter() + statistics.median(recent) + 2 * SETUP_PER_PASS * launches_s > deadline:
            setup += launch_setup(work, clock, SETUP_PER_PASS)
            return passes, setup


def check_outputs(jobs, passes):
    """Per-job verdicts over every pass; returns (correct, problems, by_command, attempted, failed).

    ``attempted`` is the number of jobs and ``failed`` the number that failed
    in any pass, so both depend only on the seed, not on how many passes fit
    into the run; a verdict that changed between passes would also change the
    CSV bytes, which makes ``correct`` false."""
    by_id = {job["id"]: job for job in jobs}
    reference = {r["id"]: r["sha256"] for r in passes[0]["records"]}
    problems = []
    by_command = {}
    failed_ids = set()
    for job in jobs:
        stats = by_command.setdefault(job["command"], {"attempted": 0, "failed": 0, "jobs": {}})
        stats["attempted"] += 1
    for index, result in enumerate(passes):
        label = f"pass {index} ({result['kind'] or 'untraced'})"
        for rec in result["records"]:
            job = by_id[rec["id"]]
            stats = by_command[job["command"]]
            reasons = []
            if rec["error"]:
                reasons.append(f"raised {rec['error']}")
            elif rec["code"] != 0:
                reasons.append(f"exit {rec['code']} {rec.get('detail', '')}".strip())
            if rec["sha256"] is not None and rec["shape"] != job["expect"]:
                reasons.append(f"CSV shape {rec['shape']} != {job['expect']}")
                problems.append(f"{rec['id']} {label}: CSV shape {rec['shape']} != {job['expect']}")
            if rec["sha256"] != reference[rec["id"]]:
                reasons.append("CSV bytes differ from pass 0")
                problems.append(f"{rec['id']} {label}: CSV bytes differ from pass 0")
            if reasons and rec["id"] not in failed_ids:
                failed_ids.add(rec["id"])
                stats["failed"] += 1
                stats["jobs"][rec["id"]] = "; ".join(reasons)
    for index, result in enumerate(passes):
        if result["kind"] and not result["restored"]:
            problems.append(f"pass {index}: the tracer left a wrapper in place")
    return not problems, problems, by_command, len(jobs), len(failed_ids)


def layer_metrics(passes, per_layer):
    """Per-layer values, keyed as the tracer keys them: self times are medians
    over the "time" passes, scaled as ``wall_s`` is; memory
    peaks are medians over the "memory" passes; counters must repeat exactly
    in every traced pass.  Returns the listed metrics, the self times of
    unlisted helpers, and any problems."""
    plain, timed, memory = ([p for p in passes if p["kind"] == kind]
                            for kind in (None, "time", "memory"))
    traced = timed + memory
    problems = [f"counters differ between traced passes: {p['counts']} vs {traced[0]['counts']}"
                for p in traced[1:] if p["counts"] != traced[0]["counts"]]
    values = dict(traced[0]["counts"])
    for key, group, scale in (("times", timed, CALM_REF_S), ("peaks", memory, 1.0)):
        for name in {name for p in group for name in p[key]}:
            values[name] = scale * statistics.median(p[key].get(name, 0.0) for p in group)
    values["trace.overhead_s"] = job_list_wall(timed) - job_list_wall(plain)
    listed = {name: values.get(name, 0) for name, _ in per_layer}
    other = {name: values[name] for name in sorted(values)
             if name.endswith(".other_s") and name not in listed}
    return listed, other, problems


def job_list_wall(passes):
    """Sum over jobs of the median across ``passes`` of each job's time on a
    calm host, ``seconds / ref_s * CALM_REF_S``."""
    per_job = zip(*([r["seconds"] / r["ref_s"] for r in p["records"]] for p in passes))
    return CALM_REF_S * sum(statistics.median(ratios) for ratios in per_job)



def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable (git not runnable)"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable (not a git checkout)"


def run_workload(workload, seed, seconds, trace, clock, per_layer):
    work = WORK / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    try:
        jobs = workloads.make_jobs(workload, seed)
        for job in jobs:
            path = work / "configs" / f"{job['id']}.json"
            path.write_text(json.dumps(job["config"]))
            job["config_path"] = str(path)
        jobs_path = work / "jobs.json"
        jobs_path.write_text(json.dumps(
            [{k: job[k] for k in ("id", "command", "config_path")} for job in jobs]))
        passes, setup = run_passes(jobs_path, work, seconds, trace, clock)
        correct, problems, by_command, attempted, failed = check_outputs(jobs, passes)
        untraced = [p for p in passes if not p["kind"]]
        e2e = {
            "setup_s": LAUNCH_REFERENCE_S * statistics.median(s / ref for s, ref in setup),
            "wall_s": job_list_wall(untraced),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "ok_share": (attempted - failed) / attempted,
        }
        layers, other = {}, {}
        if trace:
            layers, other, trace_problems = layer_metrics(passes, per_layer)
            problems += trace_problems
            correct = correct and not trace_problems
        report = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "inputs": workloads.SIZES[workload], "probe": workloads.PROBES[workload],
            "jobs": len(jobs),
            "environment": {
                "python": platform.python_version(), "nproc": os.cpu_count(),
                "cpus_usable": len(os.sched_getaffinity(0)), "commit": git_commit(),
                **passes[0]["environment"],
            },
            "setup_launches": [{"seconds": s, "ref_s": ref} for s, ref in setup],
            "raw_setup_s": statistics.median(s for s, _ in setup),
            "passes": [{"kind": p["kind"], "wall_s": p["wall_s"], "process_s": p["process_s"],
                        "peak_rss_mb": p["peak_rss_mb"],
                        "job_seconds": [r["seconds"] for r in p["records"]],
                        "job_ref_s": [r["ref_s"] for r in p["records"]]} for p in passes],
            "raw_wall_s": statistics.median(p["wall_s"] for p in untraced),
            "end_to_end": e2e, "per_layer": layers, "other_self_s": other,
            "correct": correct, "problems": problems, "attempted": attempted, "failed": failed,
            "failures_by_command": by_command,
        }
        reports = WORK / "reports"
        reports.mkdir(parents=True, exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{trace}"
        (reports / f"{stem}.json").write_text(json.dumps(report, indent=1))
        if trace:
            (work / "spans.jsonl").replace(reports / f"{stem}.spans.jsonl")
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def metric_units(spec):
    """(end-to-end, per-layer) lists of (name, unit) from BENCHMARK.json."""
    return tuple([(m["name"], m["unit"]) for m in spec[key]] for key in ("end_to_end", "per_layer"))


def print_report(report, metrics):
    end_to_end, per_layer = metrics
    env = report["environment"]
    print(f"== workload {report['workload']}  seed {report['seed']}  seconds {report['seconds']}"
          f"  trace {report['trace']}")
    print(f"inputs: {report['inputs']}")
    print(f"        {report['probe']}")
    print(f"environment: nproc {env['nproc']} (usable {env['cpus_usable']}), {env['blas']} with "
          f"{env['blas_threads']} threads, python {env['python']}, numpy {env['numpy']}, "
          f"jsonschema {env['jsonschema']}, commit {env['commit']}")
    mark = {None: "", "time": "*", "memory": "+"}
    walls = " ".join(f"{p['wall_s']:.3f}{mark[p['kind']]}" for p in report["passes"])
    print(f"passes: {len(report['passes'])} (job-list wall s, * = traced for time, + = traced"
          f" for memory): {walls}")
    print(f"raw: wall {report['raw_wall_s']:.3f} s (median untraced pass);  setup"
          f" {report['raw_setup_s']:.4f} s (median of {len(report['setup_launches'])} launches)")
    e2e = report["end_to_end"]
    print(f"{'metric':<34}{'value':>14}  unit")
    for name, unit in end_to_end:
        print(f"{name:<34}{_fmt(e2e[name]):>14}  {unit}")
    print(f"{'fail_share':<34}{_fmt(1.0 - e2e['ok_share']):>14}  ratio"
          f"  ({report['failed']} of {report['attempted']} jobs)")
    print("failures by command:")
    for command, stats in sorted(report["failures_by_command"].items()):
        print(f"  {command:<20} {stats['failed']}/{stats['attempted']}")
        for job_id, reason in sorted(stats["jobs"].items()):
            print(f"    {job_id}: {reason}")
    if report["per_layer"]:
        print(f"{'layer metric (traced run)':<34}{'value':>14}  unit")
        for name, unit in per_layer:
            print(f"{name:<34}{_fmt(report['per_layer'][name]):>14}  {unit}")
        for name, value in report["other_self_s"].items():
            print(f"{name + ' (unlisted helpers)':<34}{_fmt(value):>14}  s")
    traced_equal = "yes" if report["correct"] else "no"
    print(f"outputs reproducible{' and traced == untraced' if report['trace'] else ''}: {traced_equal}")
    for problem in report["problems"]:
        print(f"  problem: {problem}")


def result_line(report, metrics):
    chosen = metrics[1] if report["trace"] else metrics[0]
    values = report["per_layer"] if report["trace"] else report["end_to_end"]
    return {
        "correct": report["correct"], "attempted": report["attempted"], "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in chosen},
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ndflab" / "cli.py").is_file():
        print(f"error: {SRC / 'ndflab' / 'cli.py'} not found; run from an ndflab checkout",
              file=sys.stderr)
        return 2
    metrics = metric_units(spec)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reports = []
        for name in names:
            reports.append(run_workload(name, args.seed, args.seconds, args.trace, Clock(), metrics[1]))
            print_report(reports[-1], metrics)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = [result_line(r, metrics) for r in reports]
    if len(lines) == 1:
        line = lines[0]
    else:
        line = {
            "correct": all(x["correct"] for x in lines),
            "attempted": sum(x["attempted"] for x in lines),
            "failed": sum(x["failed"] for x in lines),
            "metrics": {f"{r['workload']}.{k}": v for r, x in zip(reports, lines)
                        for k, v in x["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
