"""Stochastic oracle for the quadrature-based operating characteristics.

Simulation model: the stage-k z-statistic is Z_k ~ N(theta * sqrt(I_k), 1)
with independent stages.  Random numbers come from the counter-based Philox
(4x64) generator so each (seed, substream) pair gets its own key and stream;
normal variates are produced by inverse-CDF transform of uniforms through the
same quantile routine audited in :mod:`fasttrack.numerics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import cef as cef_mod
from . import power as power_mod
from .numerics import std_normal_quantile
from .power import Design


@dataclass(frozen=True)
class SimConfig:
    n_reps: int
    seed: int
    theta: float

    def __post_init__(self):
        if self.n_reps < 1:
            raise ValueError("n_reps must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an integer in [0, 2**64)")


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


def _stream(seed: int, substream: int = 0) -> Generator:
    # Philox keys are 128-bit; (seed, substream) pairs map to disjoint keys.
    return Generator(Philox(key=seed + (substream << 64)))


def _normal(gen: Generator, mean, n: int) -> np.ndarray:
    u = gen.random(n)
    # Guard against u == 0 from the half-open unit interval.
    np.clip(u, 1e-300, None, out=u)
    return std_normal_quantile(u) + mean


def simulate(design: Design, cfg: SimConfig, substream: int = 0) -> SimReport:
    """Run the design's full two-stage decision logic rep-by-rep (vectorized).

    Deterministic given (design, cfg, substream).
    """
    gen = _stream(cfg.seed, substream)
    params = design.params
    n = cfg.n_reps
    z_f = design.branch_boundary

    z1 = _normal(gen, cfg.theta * math.sqrt(params.i1), n)
    upper = z1 >= z_f

    i2 = np.zeros(n)
    reject = np.zeros(n, dtype=bool)

    # Above z_f stage two is sized by the rule.  Below it a fast-track design
    # stops; a combination design waives the application and runs its
    # fixed-information stage two.  An empty branch draws no variates.
    rule = design.rule
    branches = [(upper, None)]
    if design.i2_const is not None:
        branches.append((~upper, design.i2_const))
    for branch, i2_const in branches:
        z = z1[branch]
        q = cef_mod.critical_value(rule.cef, z)
        if i2_const is None:
            info = power_mod.stage2_info(z, params, rule, q)
        else:
            info = i2_const
        del z  # free the branch's copy of z1 before the stage-two draw
        z2 = _normal(gen, cfg.theta * np.sqrt(info), q.size)
        reject[branch] = z2 >= q
        i2[branch] = info

    p_cond = float(upper.mean())
    p_rej = float(reject.mean())
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

