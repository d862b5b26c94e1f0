"""The host's current speed, from two fixed pieces of work done apart from etacm.

On a host whose physical cores are shared with other tenants, one core
switches between a fast and a slow state, up to 1.8 times apart, often
several times a second, and the share of time spent in each drifts over
minutes; CPU time changes with it.  Job times are therefore divided by the
host's mean slowdown, measured by short probes taken between the jobs, as
many after a job as its length calls for so that they sample the host
evenly over time.  One probe is a pure-Python integer loop (interpreter
dispatch) and one an mpmath computation at 700 bits (big-integer
arithmetic): the two kinds of work etacm does.  The probes do not call
etacm, so no change to the program moves them.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import mpmath

# seconds each probe takes at the reference host speed, the usual state of
# a 2-vCPU cloud VM whose cores are shared with other tenants
REFERENCE_S = (0.0070, 0.0050)
SPACING_S = 0.25  # one pair of probes per this much job time
MAX_PER_JOB = 40


def _interpreter() -> int:
    s = 0
    for i in range(60_000):
        s += i * i % 7
    return s


def _bigfloat():
    with mpmath.workprec(700):
        x = mpmath.mpf(1) / 3
        for _ in range(40):
            x = mpmath.exp(x) / (x + 7)
            x = mpmath.sqrt(x) + mpmath.mpf(1) / 5
    return x


def probe() -> tuple[float, float]:
    """Seconds taken by each probe, now."""
    times = []
    for work in (_interpreter, _bigfloat):
        start = perf_counter()
        work()
        times.append(perf_counter() - start)
    return times[0], times[1]


def probes_after(seconds: float) -> list[tuple[float, float]]:
    """Probes to take after a job that ran this many seconds."""
    count = min(MAX_PER_JOB, max(1, math.ceil(seconds / SPACING_S)))
    return [probe() for _ in range(count)]


def slowdown(probes) -> float:
    """How many times slower than the reference the host ran, on average,
    while these probes were taken: the geometric mean, over the two probes,
    of the mean time over the reference time.  The mean, not the median,
    because the host flips between two states and a job's time is an
    average over both."""
    ratios = [statistics.fmean(p[k] for p in probes) / REFERENCE_S[k] for k in (0, 1)]
    return math.sqrt(ratios[0] * ratios[1])
