"""Host speed probe: a fixed reference job timed between operations.

On a shared host the speed one process gets drifts by up to 1.5x, within
seconds and over minutes, as neighbours come and go, and every operation
of a run moves with it: ten runs of the same code spread by as much as
the benchmark's bounds, and a longer run does not average the slow part
out.  A fixed job that uses nothing of fracbvp drifts with the
operations, so an operation's time over the job's time next to it
spreads several times less than the raw time.

run.py times this job in its own process before the first and after
every set-up and operation of a scaled workload (a probe group each),
and scales each time by REFERENCE_S / (median job time of the groups
just before and just after it): times then read as seconds on a host
where the job takes REFERENCE_S.  Only probes next to an operation
follow the fast part of the drift; a median over the whole run leaves it
in.  The job mixes the kinds of work fracbvp does (interpreted
arithmetic, scipy quadrature with a Python integrand, numpy ufuncs on
small arrays).  Since it never runs fracbvp code, a change to the
program leaves it alone and shows in full in the scaled times.  The run
record keeps the raw times and every probe.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy import integrate

# Median job time on the reference host (2-vCPU Xeon VM at 2.1 GHz).
REFERENCE_S = 0.040
# Share of each operation's time spent probing after it (at least once).
PROBE_SHARE = 0.1
# Time spent probing before the first operation.
FIRST_GROUP_S = 0.5


def _job() -> float:
    acc = 0.0
    for i in range(150000):
        acc += math.sin(i * 1e-3)
    for k in range(150):
        acc += integrate.quad(lambda x: math.exp(-x) * x ** (0.3 + 0.001 * k),
                              0.0, math.inf)[0]
    x = np.linspace(0.0, 1.0, 2000)
    for k in range(250):
        x = 0.5 * (np.sin(x * k) + np.sqrt(x + k))
    return acc + float(x[0])


class HostSpeed:
    """Job times sampled over one run: a first probe group, then one
    group after each timed item."""

    def __init__(self) -> None:
        _job()  # warm up imports and caches before the first sample
        self.groups = [_time_job(FIRST_GROUP_S)]

    def probe(self, after_seconds: float) -> int:
        """Probe after an item that took `after_seconds`; returns the
        index that factor() takes for that item."""
        self.groups.append(_time_job(PROBE_SHARE * after_seconds))
        return len(self.groups) - 1

    def factor(self, k: int) -> float:
        """REFERENCE_S over the median job time of the groups before and
        after item k."""
        near = self.groups[k - 1] + self.groups[k]
        return REFERENCE_S / statistics.median(near)


def _time_job(spend_s: float) -> list[float]:
    """Job times, run until `spend_s` is spent (at least once)."""
    times: list[float] = []
    while True:
        t0 = time.perf_counter()
        _job()
        times.append(time.perf_counter() - t0)
        if sum(times) >= spend_s:
            return times
