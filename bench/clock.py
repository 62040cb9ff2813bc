"""Timing in reference seconds.

On a shared host CPU speed drifts by up to 1.7x over seconds as other
tenants load the cores (measured on a 2-vCPU VM), far more than the changes
the benchmark must resolve.  A fixed probe therefore samples the machine's
speed every PROBE_EVERY_S, from a timer signal, inside and between calls.
Each call's duration, less the probe time inside it, is divided by the mean
slowness of the probes from the last one before the call to the first one
after it.

A probe returns its duration over its nominal duration, its time on an
unloaded core of that VM: 1.0 means full speed.  Interpreter-bound and
vectorised code slow down by different factors (up to 1.85x and 1.55x), so
each workload is timed with the probe that matches its kind of code.  The
probes are the benchmark's own code, so no change to the program can move
them.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtr, ndtri

PROBE_EVERY_S = 0.25

_SMALL = np.linspace(-3.0, 3.0, 22)
_LARGE_RNG = Generator(Philox(key=12345))


def small_array_slowness() -> float:
    """Speed probe for interpreter-bound work: Python arithmetic around
    small-array numpy and ``ndtr`` calls, as in quadrature panels."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(1000):
        y = ndtr(_SMALL * 0.5 + i * 1e-3)
        acc += float(np.dot(y, _SMALL)) * 0.5
    return (time.perf_counter() - start) / 0.0028


def large_array_slowness() -> float:
    """Speed probe for vectorised work: Philox uniforms through ``ndtri``
    and a comparison, as in the Monte Carlo sampler."""
    start = time.perf_counter()
    for _ in range(4):
        z = ndtri(_LARGE_RNG.random(1 << 16))
        (z >= 1.0).mean()
    return (time.perf_counter() - start) / 0.0100


class Clock:
    """Times calls in reference seconds while it is entered.

    ``call`` appends [kind, seconds, reference seconds] to a pass's calls;
    both times are filled in once a later probe brackets the call, at the
    latest when the clock is left.  With ``every=None`` the clock probes only
    on entry and exit, so no probe runs inside a call (traced passes, whose
    spans must not contain probe time).  ``now`` lets a test drive time.
    """

    def __init__(self, probe, every: float | None = PROBE_EVERY_S,
                 now=time.perf_counter):
        self._probe = probe
        self._every = every
        self._now = now
        self._probes: list = []  # [start, end, slowness] of each probe
        self._pending: list = []  # (entry, start, end) of unsettled calls
        self._previous = None

    def _sample(self, *_):
        start = self._now()
        slowness = self._probe()
        self._probes.append([start, self._now(), slowness])
        self._settle()
        self._probes[-1][1] = self._now()  # settling is probe time too

    def _settle(self) -> None:
        latest = self._probes[-1][0]
        waiting = []
        for entry, start, end in self._pending:
            if end > latest:
                waiting.append((entry, start, end))
                continue
            before = [p for p in self._probes if p[1] <= start][-1:]
            inside = [p for p in self._probes if start <= p[0] and p[1] <= end]
            after = next(p for p in self._probes if p[0] >= end)
            around = before + inside + [after]
            entry[1] = end - start - sum(p[1] - p[0] for p in inside)
            entry[2] = entry[1] * len(around) / sum(p[2] for p in around)
        # In place: ``call`` may hold the list while this runs in the handler.
        self._pending[:] = waiting

    def __enter__(self):
        self._probes = []
        self._sample()
        if self._every is not None:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self._every, self._every)
        return self

    def __exit__(self, *exc):
        if self._every is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def call(self, result, kind: str, fn, *args, **kwargs):
        start = self._now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self._now()
            entry = [kind, math.nan, math.nan]
            result.calls.append(entry)
            self._pending.append((entry, start, end))
