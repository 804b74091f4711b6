"""Host speed, sampled by timing a fixed reference computation.

On a shared host the CPU speed drifts by up to 1.5x over seconds to
minutes, so a job's time says as much about the host as about the program.
The benchmark therefore times a small reference computation around and
during every job; a time ``t`` measured where the reference took ``ref_s``
becomes ``t / ref_s * CALM_REF_S``, its value on a calm host.  The ratio
``t / ref_s`` moves far less from run to run than ``t`` does.  This module
imports numpy but no ndflab code, so a change to ndflab cannot change the
reference.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

SPEED_PERIOD_S = 0.05  # host-speed samples while a job runs
SPEED_REPEATS = 3  # a sample is the fastest of this many reference runs
# the reference's time on a calm host: about the fastest seen on a 2-vCPU
# x86-64 VM (numpy 2.4, Python 3.11) over many runs
CALM_REF_S = 1.5e-4

# the reference computation: a walk over a nested spec-like document, small
# numpy calls and a sum over an array larger than the L2 cache, the kinds of
# work the jobs do
_REF_DOC = {"terms": [[1.0, {"type": "subordinated", "inner": {
    "q": [[1.0, 0.0], [0.0, 1.0]], "atoms": [{"u": [1.0, 2.0], "m": 0.5}] * 4}}]] * 6}
_REF_ARRAY = np.arange(64.0)
_REF_LARGE = np.ones(1 << 18)  # 2 MiB


def _walk(node):
    if isinstance(node, dict):
        return sum(_walk(v) for k, v in node.items() if isinstance(k, str))
    if isinstance(node, list):
        return sum(_walk(v) for v in node)
    return isinstance(node, (int, float, str))


def _reference():
    t0 = time.perf_counter()
    _walk(_REF_DOC)
    for _ in range(10):
        float(np.sqrt(_REF_ARRAY @ _REF_ARRAY))
    float(_REF_LARGE.sum())
    return time.perf_counter() - t0


class HostSpeed:
    """Samples of the host's speed around and during timed work.

    A sample is the time of the reference computation, the fastest of
    SPEED_REPEATS runs so that caches left cold by the work do not count.
    Take one before the first job and one after each (:meth:`end_job` does);
    between :meth:`start_job` and :meth:`end_job` a SIGALRM timer also takes
    one every SPEED_PERIOD_S, and the job's time should exclude theirs.  A
    job's ``ref_s`` is the median of the samples from the one just before it
    to the one just after it.
    """

    def __init__(self):
        self.samples = []
        self.first = 0  # index of the sample taken just before the current job
        self.in_job_s = 0.0

    def sample(self, *_):
        t0 = time.perf_counter()
        self.samples.append(min(_reference() for _ in range(SPEED_REPEATS)))
        self.in_job_s += time.perf_counter() - t0

    def start_job(self):
        self.first = len(self.samples) - 1
        self.in_job_s = 0.0
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)

    def end_job(self):
        """(seconds the samples took inside the job, the job's ref_s)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        in_job = self.in_job_s
        self.sample()
        return in_job, statistics.median(self.samples[self.first:])
