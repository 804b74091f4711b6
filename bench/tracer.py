"""Span tracing of ndflab from outside the package.

:class:`Tracer` replaces each traced public function of ``ndflab.core``,
``distributions``, ``kernels``, ``mc``, ``bbm`` and ``cli`` with a wrapper,
in every ndflab module that holds a reference to it (``kernels.exact_gap`` as
well as ``distributions.exact_gap``), and wraps the ``eval_many``, ``draw``
and ``__post_init__`` methods on the classes that define them.
:meth:`Tracer.uninstall` puts every original back.

Each call becomes a span ``(name, start, end, parent, job)`` kept in memory.
A span's self time is its duration minus the time its child spans cover; a
layer's time is the sum of the self times of its spans, so nested calls of one
layer are never counted twice.  Counters are taken at the same boundaries.
With ``memory=True`` the tracer instead takes memory peaks from
``tracemalloc``, switched on only for the outermost span of the layers that
build large arrays; ``tracemalloc`` slows every allocation inside those spans,
so a memory pass reports no times.

This module alone knows the per-layer metric names of ``BENCHMARK.json``:
:meth:`Tracer.metrics` returns its numbers already keyed by them.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
from collections import defaultdict

MODULES = ("core", "distributions", "kernels", "mc", "bbm", "cli")

# public name -> layer; any other public function of a module falls in
# "<module>.other", so no layer absorbs time that is not its own.
LAYERS = {
    "core": {
        "ndf_from_obj": "core.decode",
        "bernstein_from_obj": "core.decode",
        "ndf_from_json": "core.decode",
        "bernstein_from_json": "core.decode",
        "eval_psi": "core.eval",
        "eval_psi_many": "core.eval",
        "eval_bernstein": "core.eval",
        "eval_bernstein_many": "core.eval",
        "kernel_kpsi": "core.eval",
        "metric_dpsi": "core.eval",
    },
    "distributions": {
        "distribution_from_obj": "distributions.construct",
        "exact_expectation": "distributions.pair_sum",
        "exact_gap": "distributions.pair_sum",
        "exact_signed_sum_gap": "distributions.signed_sum",
    },
    "kernels": {
        "gram_matrix": "kernels.gram",
        "psd_check": "kernels.psd",
        "gram_to_csv": "kernels.csv",
    },
    "mc": {
        "sample": "mc.draw",
        "mc_pair_estimates": "mc.estimate",
        "mc_inequality_verdict": "mc.estimate",
        "mc_signed_sum": "mc.estimate",
    },
    "bbm": {
        "bbm_covariance": "bbm.cov",
        "bbm_cov_matrix": "bbm.cov",
        "bbm_sample_paths": "bbm.sample",
        "paths_to_csv": "bbm.csv",
    },
    "cli": {
        "main": "cli.self",
        "run": "cli.self",
        "emit_csv": "cli.self",
        # the schema check is private but is the cost the battery measures
        "_validate": "cli.validate",
    },
}

# method -> layer, wrapped on every class of the six modules that defines it
METHODS = {"eval_many": "core.eval", "draw": "mc.draw"}
CLASS_METHODS = {("DiscreteDistribution", "__post_init__"): "distributions.construct"}

# layer -> metric name of its tracemalloc peak
PEAKS = {"distributions.pair_sum": "distributions.pair_sum_peak_mb",
         "kernels.gram": "kernels.gram_peak_mb", "mc.estimate": "mc.peak_mb"}


def _rows(x):
    return int(getattr(x, "shape", (len(x),))[0])


def _count(name, args, result, outermost, counts):
    """Add the work counters for one finished call."""
    if name.endswith(".eval_many") and outermost:
        counts["core.eval_points"] += _rows(args[1])
    elif name.endswith(".draw") and outermost:
        counts["mc.samples"] += _rows(result)
    elif name == "DiscreteDistribution.__post_init__":
        counts["distributions.atoms_out"] += args[0].n_atoms
    elif name in ("ndf_from_obj", "bernstein_from_obj"):
        counts["core.decode_calls"] += 1
    elif name == "exact_expectation":
        counts["distributions.pair_terms"] += args[1].n_atoms ** 2
    elif name == "exact_signed_sum_gap":
        counts["distributions.signed_sum_outcomes"] += args[1].n_atoms ** len(args[2])
    elif name == "gram_matrix":
        counts["kernels.gram_entries"] += result.size
    elif name == "gram_to_csv":
        counts["kernels.csv_bytes"] += len(result)
    elif name == "paths_to_csv":
        counts["bbm.csv_bytes"] += len(result)


def _count_before(name, args, counts):
    if name == "DiscreteDistribution.__post_init__":
        counts["distributions.atoms_in"] += _rows(args[0].atoms)


class Tracer:
    """Installs wrappers, records spans and counters, restores originals."""

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []  # [name, start, end, parent index, job]
        self.self_s = defaultdict(float)  # per layer, in units of the reference time
        self._job_self_s = defaultdict(float)  # per layer, seconds, current job
        self.counts = defaultdict(int)
        self.peak_mb = defaultdict(float)
        self.job = None
        self._stack = []  # indices of open spans
        self._child = []  # child time per open span
        self._depth = defaultdict(int)
        self._patched = []  # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self):
        pkg = importlib.import_module("ndflab")
        mods = {m: importlib.import_module(f"ndflab.{m}") for m in MODULES}
        holders = [pkg, *mods.values()]
        for short, mod in mods.items():
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            names = list(names) + [n for n in LAYERS[short] if n not in names]
            for name in names:
                obj = getattr(mod, name, None)
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_methods(obj)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    layer = LAYERS[short].get(name, f"{short}.other")
                    wrapper = self._wrapper(obj, name, layer)
                    for holder in holders:
                        if vars(holder).get(name) is obj:
                            self._patch(holder, name, wrapper)

    def _wrap_methods(self, cls):
        for meth, fn in list(vars(cls).items()):
            layer = CLASS_METHODS.get((cls.__name__, meth)) or METHODS.get(meth)
            if layer is not None:
                self._patch(cls, meth, self._wrapper(fn, f"{cls.__name__}.{meth}", layer))

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> bool:
        """Restore every original; True when no wrapper is left in any module or class."""
        owners = {id(owner): owner for owner, _, _ in self._patched}
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return not any(getattr(v, "_bench_traced", False)
                       for owner in owners.values() for v in vars(owner).values())

    # -- recording ----------------------------------------------------------

    def _wrapper(self, fn, name, layer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(fn, name, layer, args, kwargs)

        traced._bench_traced = True
        return traced

    def _call(self, fn, name, layer, args, kwargs):
        outermost = self._depth[layer] == 0
        peak = self.memory and outermost and layer in PEAKS and not tracemalloc.is_tracing()
        _count_before(name, args, self.counts)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, self.job]
        self.spans.append(span)
        self._stack.append(index)
        self._child.append(0.0)
        self._depth[layer] += 1
        if peak:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if peak:
                peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_mb[layer] = max(self.peak_mb[layer], peak_bytes / 2**20)
            self._depth[layer] -= 1
            self._stack.pop()
            child = self._child.pop()
            span[1], span[2] = start, end
            self._job_self_s[layer] += (end - start) - child
            if self._child:
                self._child[-1] += end - start
        _count(name, args, result, outermost, self.counts)
        return result

    def end_job(self, ref_s):
        """Close the current job, whose host-speed reference took ``ref_s``.

        Its self times are added divided by ``ref_s``, as the job's own time
        is in ``wall_s``; multiply by ``hostspeed.CALM_REF_S`` to get seconds
        on a calm host.
        """
        for layer, seconds in self._job_self_s.items():
            self.self_s[layer] += seconds / ref_s
        self._job_self_s.clear()

    def metrics(self):
        """(times, counts, peaks), each keyed by its BENCHMARK.json name.

        Times are ``<layer>_s`` self times in units of the reference time (see
        :meth:`end_job`); layers outside the benchmark's list show up as
        ``<module>.other_s``.  Counts include ``trace.spans``.
        """
        times = {} if self.memory else {f"{layer}_s": t for layer, t in self.self_s.items()}
        peaks = {PEAKS[layer]: mb for layer, mb in self.peak_mb.items()}
        return times, {**self.counts, "trace.spans": len(self.spans)}, peaks

    def write_spans(self, path):
        """Spans as JSON lines: name, start, end (s), parent span index, job id."""
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
