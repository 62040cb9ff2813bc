"""Stochastic oracle for the quadrature-based operating characteristics.

Simulation model: the stage-k z-statistic is Z_k ~ N(theta * sqrt(I_k), 1)
with independent stages.  Random numbers come from the counter-based Philox
(4x64) generator so each (seed, substream) pair gets its own key and stream;
normal variates are produced by inverse-CDF transform of uniforms through the
same quantile routine audited in :mod:`fasttrack.numerics`.

Every replication reads fixed positions of its pair's one stream.  With n
replications, the stage-one draw of replication i is at position i; the
stage-two draws of the replications that continue to the adaptive branch
follow at n, n + 1, ... in replication order, and those of the waived ones
(combination designs) after them, at n + n_upper, ...  The replications are
cut into spans of ``_CHUNK`` that run on a thread per CPU the process may
use; each span reads its own positions, so the report does not depend on the
number of CPUs.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import cef as cef_mod
from . import power as power_mod
from .numerics import std_normal_quantile
from .power import Design

# Replications per span of work handed to a thread.
_CHUNK = 2**17


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


def _normal(key: int, start: int, mean, n: int) -> np.ndarray:
    """Normals from uniforms start .. start + n - 1 of the key's stream."""
    bits = Philox(key=key)
    bits.advance(start // 4)  # one counter step yields four doubles
    gen = Generator(bits)
    gen.random(start % 4)
    u = gen.random(n)
    # Guard against u == 0 from the half-open unit interval.
    np.clip(u, 1e-300, None, out=u)
    return std_normal_quantile(u) + mean


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
    z_f = design.branch_boundary
    mean1 = cfg.theta * math.sqrt(params.i1)
    spans = [(start, min(start + _CHUNK, n)) for start in range(0, n, _CHUNK)]
    i2 = np.zeros(n)

    def stage_one(span):
        start, stop = span
        z1 = _normal(key, start, mean1, stop - start)
        upper = z1 >= z_f
        return z1, upper, int(np.count_nonzero(upper))

    def stage_two(job):
        # Above z_f stage two is sized by the rule.  Below it a fast-track
        # design stops; a combination design waives the application and runs
        # its fixed-information stage two.  An empty branch draws no variates.
        start, z1, upper, upper_at, lower_at = job
        branches = [(upper, None, upper_at)]
        if design.i2_const is not None:
            branches.append((~upper, design.i2_const, lower_at))
        rejected = 0
        for branch, i2_const, at in branches:
            z = z1[branch]
            q = cef_mod.critical_value(rule.cef, z)
            if i2_const is None:
                info = power_mod.stage2_info(z, params, rule, q)
            else:
                info = i2_const
            z2 = _normal(key, at, cfg.theta * np.sqrt(info), q.size)
            rejected += int(np.count_nonzero(z2 >= q))
            i2[start:start + z1.size][branch] = info
        return rejected

    with ThreadPoolExecutor(min(_workers(), len(spans))) as pool:
        firsts = list(pool.map(stage_one, spans))
        n_upper = sum(count for _, _, count in firsts)
        jobs = []
        upper_at, lower_at = n, n + n_upper
        for (start, _), (z1, upper, count) in zip(spans, firsts):
            jobs.append((start, z1, upper, upper_at, lower_at))
            upper_at += count
            lower_at += z1.size - count
        n_reject = sum(pool.map(stage_two, jobs))

    p_cond = n_upper / n
    p_rej = n_reject / n
    used = i2[i2 > 0]
    return SimReport(
        p_cond_reg_hat=p_cond,
        p_cond_reg_se=_binom_se(p_cond, n),
        p_reject_hat=p_rej,
        p_reject_se=_binom_se(p_rej, n),
        mean_i2_hat=float(used.mean()) if used.size else 0.0,
        max_i2_observed=float(i2.max()) if i2.size else 0.0,
        n_reps=n,
    )
