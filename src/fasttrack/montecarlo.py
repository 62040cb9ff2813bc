"""Stochastic oracle for the quadrature-based operating characteristics.

Simulation model: the stage-k z-statistic is Z_k ~ N(theta * sqrt(I_k), 1)
with independent stages.  Random numbers come from the counter-based Philox
(4x64) generator: each (seed, substream) pair gets its own key, and numpy's
ziggurat ``standard_normal`` turns its bits into normal variates.

The replications are cut into spans of ``_CHUNK``.  Span j reads three
streams of its key, named by the high 128 bits of the Philox counter:
(j, 0) for the stage-one draws, (j, 1) for the stage-two draws of the
replications that continue to the adaptive branch and (j, 2) for those of
the waived ones (combination designs), each in replication order.  A span
runs both stages in one call on a thread per CPU the process may use.  It
works through its replications in blocks of ``_BLOCK``, each drawing the
next normals of the span's streams, so its temporaries are a block's, not
a span's; its used stage-two informations are gathered, in replication
order, into a buffer per thread and summed once.  A span returns its
counts and sums, which are combined in span order: the report depends on
``_CHUNK`` but not on ``_BLOCK`` or the number of CPUs.  Generator streams
are not promised to stay the same across numpy versions; the pinned reports
in the tests hold under numpy 2.4.6.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import cef as cef_mod
from . import power as power_mod
from .power import Design

# Replications per span of work handed to a thread.
_CHUNK = 2**17
# Replications a span works through at a time: its temporaries stay at
# 256 KB or less, which the thread's arena keeps between blocks.
_BLOCK = 2**15


@dataclass(frozen=True)
class SimConfig:
    n_reps: int
    seed: int
    theta: float

    def __post_init__(self):
        # Numpy integers are stored as ints: stream positions and the 128-bit
        # Philox key are computed from them.
        for name in ("n_reps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n_reps < 1:
            raise ValueError("n_reps must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an integer in [0, 2**64)")
        # A NaN theta would compare false everywhere and report no rejection.
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")


@dataclass(frozen=True)
class SimReport:
    """Estimated operating characteristics with binomial standard errors."""

    p_cond_reg_hat: float
    p_cond_reg_se: float
    p_reject_hat: float
    p_reject_se: float
    mean_i2_hat: float
    max_i2_observed: float
    n_reps: int


def _binom_se(p_hat: float, n: int) -> float:
    return math.sqrt(p_hat * (1.0 - p_hat) / n)


def _key(seed: int, substream: int) -> int:
    # Philox keys are 128-bit; (seed, substream) pairs map to disjoint keys.
    return seed + (substream << 64)


def _stream(key: int, span: int, part: int) -> Generator:
    """The generator of the key's stream of (span, part)."""
    # The counter's high 128 bits name the stream; each has 2**128 blocks.
    return Generator(Philox(key=key, counter=(span << 192) | (part << 128)))


def _workers() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def simulate(design: Design, cfg: SimConfig, substream: int = 0) -> SimReport:
    """Run the design's full two-stage decision logic rep-by-rep (vectorized).

    Deterministic given (design, cfg, substream), whatever the number of CPUs.
    """
    key = _key(cfg.seed, substream)
    params = design.params
    rule = design.rule
    n = cfg.n_reps
    mean1 = cfg.theta * math.sqrt(params.i1)

    # Above z_f stage two is sized by the rule (part 1).  Below it a
    # fast-track design stops; a combination design waives the application
    # and runs its fixed-information stage two (part 2).
    branches = [(1, None)]
    if design.i2_const is not None:
        branches.append((2, design.i2_const))
    local = threading.local()

    def run_span(span):
        size = min(_CHUNK, n - span * _CHUNK)
        gens = [_stream(key, span, part) for part in range(1 + len(branches))]
        # The span's used informations in replication order, summed once.
        used = getattr(local, "used", None)
        if used is None:
            used = local.used = np.empty(min(_CHUNK, n))
        n_upper = rejected = n_used = 0
        top = -math.inf
        for start in range(0, size, _BLOCK):
            z1 = gens[0].standard_normal(min(_BLOCK, size - start))
            z1 += mean1
            upper = z1 >= design.branch_boundary
            n_upper += int(np.count_nonzero(upper))
            i2 = np.zeros(z1.size)
            for part, i2_const in branches:
                branch = upper if part == 1 else ~upper
                z = z1[branch]
                q = cef_mod.critical_value(rule.cef, z)
                if i2_const is None:
                    info = power_mod.stage2_info(z, params, rule, q)
                else:
                    info = i2_const
                z2 = gens[part].standard_normal(q.size)
                z2 += cfg.theta * np.sqrt(info)
                rejected += int(np.count_nonzero(z2 >= q))
                i2[branch] = info
            block = i2[i2 > 0]
            used[n_used:n_used + block.size] = block
            n_used += block.size
            top = np.maximum(top, i2.max())
        return (n_upper, rejected, float(used[:n_used].sum()), n_used,
                float(top))

    spans = range(-(-n // _CHUNK))
    # Combined in span order, whichever thread ran each span.
    with ThreadPoolExecutor(min(_workers(), len(spans))) as pool:
        n_upper, n_reject, totals, used, tops = zip(*pool.map(run_span, spans))
    n_used = sum(used)
    p_cond = sum(n_upper) / n
    p_rej = sum(n_reject) / n
    return SimReport(
        p_cond_reg_hat=p_cond,
        p_cond_reg_se=_binom_se(p_cond, n),
        p_reject_hat=p_rej,
        p_reject_se=_binom_se(p_rej, n),
        mean_i2_hat=sum(totals) / n_used if n_used else 0.0,
        max_i2_observed=max(tops),
        n_reps=n,
    )
