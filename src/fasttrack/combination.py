"""Data-driven combination of conditional and permanent registration.

When the pilot meets the conditional-registration boundary (Z1 >= z_f) the
design proceeds as an adaptive fast-track with a conditional-power sized
second stage; otherwise the application is waived and the second stage runs
with a fixed information I2_const.  Both branches target a conditional success
probability of 1-beta under the a priori assumed effect, and one overall
conditional error function keeps the type I error rate at alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.special import log_ndtr

from . import cef as cef_mod
from . import power as power_mod
from .design import DesignParams, cond_registration_power, derive
from .numerics import (
    find_root,
    integrate,
    lockstep,
    monotone_search,
    normal_window,
    resolves,
    solve_monotone,
    std_normal_cdf,
)
from .power import AdaptiveConditionalPower as Rule

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class BranchMetrics:
    """Per-branch and overall operating characteristics."""

    p_upper: float
    p_success_given_upper: float
    p_success_given_lower: float
    overall_power: float
    e_i2_both: float
    max_i2_both: float


def _waive_setup(params: DesignParams) -> tuple:
    """What a design's waive branches share: the window below z_f, the mean of Z1
    and log Phi(z_f - mean).  Given Z1 < z_f with the mean far above, Z1 lies within
    a few 1 / (mean - z_f) of z_f: the window starts at most 64 of those below z_f."""
    mean = params.delta * math.sqrt(params.i1)
    lo, hi = normal_window(mean, hi=params.z_f)
    if mean > params.z_f:
        lo = max(lo, params.z_f - 64.0 / (mean - params.z_f))
    if not resolves(lo, hi, mean):  # exactly, the cut below z_f is positive
        raise FloatingPointError(f"i1 = {params.i1!r}: at Z1's mean {mean!r} the window "
                                 "below z_f is too narrow to resolve in floats")
    return lo, hi, mean, log_ndtr(params.z_f - mean)


def _waive_at(params: DesignParams, i2c: float, cef, setup: tuple = ()):
    """The waive-branch window below z_f, split at the CEF's kinks, and its constants
    at ``i2c``.  A search passes the :func:`_waive_setup` it made once."""
    lo, hi, mean, log_p_lower = setup or _waive_setup(params)
    return (lo, hi, cef_mod.kinks(cef)), (params.delta, i2c, cef, mean, log_p_lower)


def _success_integrand(z, delta, i2c, cef, mean, log_p_lower):
    """Conditional success at ``i2c`` times the density of Z1 < z_f."""
    q = cef_mod.critical_value(cef, z)
    cond = 1.0 - std_normal_cdf(q - np.sqrt(i2c) * delta)
    return cond * np.exp(-0.5 * (z - mean) ** 2 - log_p_lower) / _SQRT_2PI


def _waive_cef(p: DesignParams, test: cef_mod.CalibratedCef | None, i2c: float):
    """A waive test at information ``i2c``: ``test``, or for None the combined z-test at alpha."""
    return test or cef_mod.z_combination_cef(p.i1, i2c, p.z_f, p.alpha, p.alpha)


def lower_branch_success(
    params: DesignParams, i2c: float, cef: cef_mod.CalibratedCef
) -> float:
    """P_delta(Z2 >= Phi^{-1}(1 - A(Z1)) | Z1 < z_f) at stage-two
    information ``i2c``.

    The density phi(z - mean) / Phi(z_f - mean) of Z1 given Z1 < z_f is
    formed in log space, so it holds its mass just below z_f even when the
    mean lies far above.  Only the pieces of ``cef`` that start below z_f
    enter: never the z-combination family's raised level.
    """
    (lo, hi, splits), constants = _waive_at(params, i2c, cef)
    return integrate(lambda z: _success_integrand(z, *constants), lo, hi, split_points=splits)


def _is_flat(cef: cef_mod.CalibratedCef | None) -> bool:
    return bool(cef and cef.pieces and len(cef.pieces) == 1 and cef.pieces[0][2] == 0.0)


def solve_i2_const(params: DesignParams, test: cef_mod.CalibratedCef | None) -> float:
    """Fixed stage-two information giving conditional success 1-beta on the
    waive branch, where ``test`` is the waive test (see :func:`waive_tests`).
    The conditional success probability is increasing in the information, so
    a monotone solve applies.

    A flat CEF (one piece with b = 0, the constant family's) tests at one
    critical value q whatever Z1, so its success 1 - Phi(q - delta
    sqrt(i2c)) is 1 - beta at i2c = ((q + z_beta) / delta)^2, I_delta for
    the level-alpha test, with no root search.
    """
    if _is_flat(test):
        q = max(test.pieces[0][1], 0.0)
        return (q + params.z_beta) ** 2 / params.delta**2
    success = lambda i2c: 0.0 if i2c <= 0 else lower_branch_success(
        params, i2c, _waive_cef(params, test, i2c))
    return solve_monotone(success, 1.0 - params.beta)


def solve_i2_const_many(params: Sequence[DesignParams], tests: Sequence) -> list[float]:
    """:func:`solve_i2_const` of many designs in lockstep, each round
    integrating every unfinished design's waive-branch success in one call: a
    lone design's :func:`_waive_at` branch, or many designs' columns, made at
    their first such round.  Each design is set up once; a zero information
    has no branch and success 0."""
    setups = [None if _is_flat(t) else _waive_setup(p) for p, t in zip(params, tests)]
    ids = np.array([j for j, setup in enumerate(setups) if setup])
    columns = []

    def evaluate(js: list[int], xs: list[float]) -> list[float]:
        if len(js) == 1:
            p, x = params[js[0]], xs[0]
            (lo, hi, splits), c = _waive_at(p, x, _waive_cef(p, tests[js[0]], x), setups[js[0]])
            return [integrate(lambda z: _success_integrand(z, *c), lo, hi, split_points=splits)]
        if not columns:  # each design's setup, scalars, test and the test's kinks
            designs = [(*setups[j], params[j].delta, params[j].i1, params[j].z_f, params[j].alpha,
                        tests[j], tests[j] and cef_mod.kinks(tests[j])) for j in ids]
            columns.extend(map(cef_mod.column, zip(*designs)))
        rows = np.searchsorted(ids, js)
        lo, hi, mean, log_p_lower, delta, i1, z_f, alpha, cef, kinks = (cef_mod.take(c, rows)
                                                                        for c in columns)
        x = np.array(xs, dtype=float)
        if cef is None:
            cef = cef_mod.z_combination_cefs(i1, x, z_f, alpha, alpha)
            kinks = cef_mod.table_kinks(cef.pieces, len(js))
        return cef_mod.integrate_each(_success_integrand, lo, hi, kinks,
                                      (delta, x, cef, mean, log_p_lower))

    xs = lockstep([monotone_search(1.0 - p.beta, g_0=0.0) if s else None
                   for p, s in zip(params, setups)], evaluate)
    return [x if s else solve_i2_const(p, t) for p, t, s, x in zip(params, tests, setups, xs)]


def waive_tests(params: Sequence[DesignParams], family: str) -> list:
    """The waive test of each design of a column, for :func:`solve_i2_const`:
    the family's non-binding CEF, by one column solve, or None for the
    z-combination family, whose test depends on the information."""
    if family == "z_combination":
        return [None] * len(params)
    return cef_mod.family_cefs(family, [p.alpha for p in params])


def waive_branches(params: Sequence[DesignParams], family: str) -> tuple[list, list]:
    """The calibrated CEF and the waive-branch information I2_const of each
    apply-or-waive design of a column, for one conditional error family.

    I2_const is solved with :func:`waive_tests` first.  For the z-combination
    family alpha_prime is then calibrated so the level condition holds with
    equality; the other families' CEF is their waive-branch test.  Each solve
    runs in lockstep.
    """
    tests = waive_tests(params, family)
    i2cs = solve_i2_const_many(params, tests)
    if family != "z_combination":
        return tests, i2cs
    return cef_mod.family_cefs(family, [p.alpha for p in params], i1=[p.i1 for p in params],
                               i2_const=i2cs, z_split=[p.z_f for p in params]), i2cs


def upper_floors(params: Sequence[DesignParams], cefs: Sequence) -> list[float]:
    """The upper-branch floor I2min of each apply-or-waive design, in lockstep, for conditional
    success 1 - beta.  Each is feasible: its target is below P(Z1 >= z_f) >= alpha_c."""
    targets = [(1.0 - p.beta) * cond_registration_power(p) for p in params]
    return power_mod.solve_i2_min_many(params, cefs, targets)


def build_combination(params: DesignParams, family: str) -> power_mod.Design:
    """Build an apply-or-waive design for one conditional error family, as a
    column of one design (see :func:`build_combination_many`)."""
    return build_combination_many([params], family)[0]


def build_combination_many(params: Sequence[DesignParams], family: str) -> list:
    """:func:`build_combination` of each design of a column, each solve in lockstep."""
    cefs, i2_consts = waive_branches(params, family)
    return [power_mod.Design(p, family, Rule(x, cef), i2c)
            for p, cef, x, i2c in zip(params, cefs, upper_floors(params, cefs), i2_consts)]


def branch_metrics(design: power_mod.Design) -> BranchMetrics:
    """Success probabilities and information statistics over both branches
    of a combination design."""
    params = design.params
    upper = power_mod.evaluate_design(params, design.rule)
    p_upper = upper.p_cond_reg
    p_succ_lower = lower_branch_success(params, design.i2_const, design.cef)
    return BranchMetrics(
        p_upper=p_upper,
        p_success_given_upper=upper.overall_power / p_upper,
        p_success_given_lower=p_succ_lower,
        overall_power=upper.overall_power + (1.0 - p_upper) * p_succ_lower,
        e_i2_both=upper.i2_mean + (1.0 - p_upper) * design.i2_const,
        max_i2_both=max(upper.i2_max, design.i2_const),
    )


# gambling_threshold's t-grid step and points solved at once.
_SCAN_STEP = 0.01
_SCAN_BLOCK = 8


def gambling_threshold(params: DesignParams, family: str) -> float:
    """Largest relative pilot information t_xi(I1) for which the upper-branch
    stage-two information is constant (the conditional-power formula never
    exceeds the solved floor).

    Power does not decrease as the floor rises, and at a floor of the
    formula maximum m (the rule read at a zero floor) the stage-two
    information is m on the whole branch, so m exceeds the floor exactly
    when the power at a floor of m exceeds the target (1 - beta) P(Z1 >= z_f).
    That margin, one integral, is scanned on a t-grid, ``_SCAN_BLOCK``
    points in one call, and the first sign change refined by
    :func:`find_root` from the two margins the scan read.  Returns 0 when
    the first scan point's margin is already positive.  The waive branch's
    I2_const enters only the z-combination family's CEF; every other
    family's CEF does not depend on I1, so it is made once.  A block that
    raises is scanned again point by point, up to the first positive margin.
    """
    base = derive(params)
    i_delta = base.i_delta
    cef = None if family == "z_combination" else cef_mod.family_cef(family, params.alpha)

    def margins(ts: list[float]) -> list[float]:
        ps = [replace(params, i1=t * i_delta) for t in ts]
        uppers = waive_branches(ps, family)[0] if cef is None else [cef] * len(ps)
        at_max = [Rule(power_mod.max_stage2_info(p, Rule(0.0, u)), u) for p, u in zip(ps, uppers)]
        return [v - (1.0 - p.beta) * cond_registration_power(p)
                for p, v in zip(ps, power_mod.overall_powers(ps, at_max))]

    t_max = base.i1_max / i_delta
    ts = [_SCAN_STEP]
    while ts[-1] < t_max:
        ts.append(min(ts[-1] + _SCAN_STEP, t_max))
    for start in range(0, len(ts), _SCAN_BLOCK):
        block = ts[start:start + _SCAN_BLOCK]
        try:
            scanned = margins(block)
        except (ArithmeticError, ValueError, RuntimeError):
            scanned = (margins([t])[0] for t in block)  # lazily: stops at the first flag
        for i, margin in enumerate(scanned, start):
            if margin > 0:
                return 0.0 if i == 0 else find_root(lambda t: margins([t])[0], ts[i - 1],
                                                    ts[i], f_lo=below, f_hi=margin)
            below = margin
    return 0.0
