"""References that the tests compare the package against.

No command prints these; they are textbook formulas from the paper, kept here
so that the package holds only what a command reaches, the one-thread form of
the Monte Carlo oracle that its spans are checked against, and the gambling
threshold scan that builds a whole design at every point.
"""

import math
from dataclasses import replace

import numpy as np
from numpy.random import Generator, Philox

from fasttrack import cef as cef_mod
from fasttrack import combination as comb_mod
from fasttrack import montecarlo as mc_mod
from fasttrack import power as power_mod
from fasttrack.design import cond_registration_power, derive
from fasttrack.montecarlo import SimReport
from fasttrack.numerics import find_root, std_normal_cdf, std_normal_quantile


def atilde_z(z1, level: float, i1: float, i2c: float):
    """Conditional error function of the fixed-size combined z-test at
    ``level``, before 0.5-truncation.  Vectorized in ``z1``."""
    if not (i1 > 0 and i2c > 0):
        raise ValueError("atilde_z requires positive informations")
    w1 = math.sqrt(i1 / (i1 + i2c))
    w2 = math.sqrt(i2c / (i1 + i2c))
    z_alpha = std_normal_quantile(1.0 - level)
    return 1.0 - std_normal_cdf((z_alpha - w1 * np.asarray(z1, dtype=float)) / w2)


def naive_inflation(alpha: float, alpha_c: float) -> float:
    """Overall type I error rate of naively restarting at level alpha after a
    failed (binding) conditional-registration attempt."""
    z_f = std_normal_quantile(1.0 - alpha_c)
    return (1.0 + std_normal_cdf(z_f)) * alpha


def simulate_one_stream(design, cfg, substream: int = 0):
    """``montecarlo.simulate`` on one thread, with full-length arrays.

    Span j of ``_CHUNK`` replications draws from the Philox stream of key
    (seed, substream) whose counter's high 128 bits are (j, part): part 0 for
    stage one, 1 for the adaptive branch's stage two and 2 for the waive
    branch's, each in replication order.  The mean information is the
    span-ordered sum of span sums.  The package must reproduce it exactly."""
    key = cfg.seed + (substream << 64)
    n = cfg.n_reps
    chunk = mc_mod._CHUNK
    starts = range(0, n, chunk)

    def normal(part, mean, branch):
        # One draw per replication of the branch, span after span.
        z = [Generator(Philox(key=key, counter=(j << 192) | (part << 128)))
             .standard_normal(int(np.count_nonzero(branch[start:start + chunk])))
             for j, start in enumerate(starts)]
        return np.concatenate(z) + mean

    params = design.params
    z1 = normal(0, cfg.theta * math.sqrt(params.i1), np.ones(n, dtype=bool))
    upper = z1 >= design.branch_boundary
    i2 = np.zeros(n)
    reject = np.zeros(n, dtype=bool)
    rule = design.rule
    branches = [(1, upper, None)]
    if design.i2_const is not None:
        branches.append((2, ~upper, design.i2_const))
    for part, branch, i2_const in branches:
        z = z1[branch]
        q = cef_mod.critical_value(rule.cef, z)
        if i2_const is None:
            info = power_mod.stage2_info(z, params, rule, q)
        else:
            info = i2_const
        z2 = normal(part, cfg.theta * np.sqrt(info), branch)
        reject[branch] = z2 >= q
        i2[branch] = info

    def se(p):
        return math.sqrt(p * (1.0 - p) / n)

    spans = [i2[start:start + chunk] for start in starts]
    n_used = int(np.count_nonzero(i2 > 0))
    p_cond = float(upper.mean())
    p_rej = float(reject.mean())
    return SimReport(
        p_cond_reg_hat=p_cond,
        p_cond_reg_se=se(p_cond),
        p_reject_hat=p_rej,
        p_reject_se=se(p_rej),
        mean_i2_hat=(sum(float(s[s > 0].sum()) for s in spans) / n_used
                     if n_used else 0.0),
        max_i2_observed=float(i2.max()),
        n_reps=n,
    )


def gambling_threshold_full_builds(params, family: str) -> float:
    """``combination.gambling_threshold`` with a whole apply-or-waive design
    built at each point of the scan, waive branch included, and every CEF
    calibrated anew: the margin of the power at a floor of the formula
    maximum m over the target, scanned point by point and refined by
    ``find_root`` at its default tolerance."""
    i_delta = derive(params).i_delta

    def margin(t_xi: float) -> float:
        p = replace(params, i1=t_xi * i_delta)
        rule = comb_mod.build_combination(p, family).rule
        m = power_mod.max_stage2_info(p, replace(rule, i2_min=0.0))
        target = (1.0 - p.beta) * cond_registration_power(p)
        return power_mod.overall_power(p, replace(rule, i2_min=m)) - target

    t_max = derive(params).i1_max / i_delta
    step = comb_mod._SCAN_STEP
    t = step
    if margin(t) > 0:
        return 0.0
    while t < t_max:
        t_next = min(t + step, t_max)
        if margin(t_next) > 0:
            return find_root(margin, t, t_next)
        t = t_next
    return 0.0
