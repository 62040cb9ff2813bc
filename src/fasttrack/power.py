"""The design type, the stage-two information rule, overall power integrals
and the minimum second-stage information solver for the fast-track procedure.

The overall power of a design with conditional error function A, first-stage
information I1 and continuation region Z1 >= z_f is

    integral over z1 >= z_f of
        [1 - Phi(Phi^{-1}(1 - A(z1)) - sqrt(I2(z1)) * delta)]
        * phi(z1 - sqrt(I1) * delta)  dz1

where I2(z1) is the stage-two information rule.  The non-adaptive (separate
studies) design is the special case A == alpha.  I1, delta, beta and z_f
are read from the design's DesignParams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import cef as cef_mod
from .design import DesignParams, cond_registration_power
from .numerics import (
    BracketError,
    find_root,
    integrate,
    lockstep,
    monotone_search,
    normal_window,
    resolves,
    std_normal_cdf,
    std_normal_pdf,
)


class InfeasiblePowerError(ValueError):
    """The power target exceeds the probability of continuing to stage two."""


@dataclass(frozen=True)
class AdaptiveConditionalPower:
    """Stage-two information sized for conditional power 1-beta at the
    observed first-stage estimate, floored at ``i2_min``."""

    i2_min: float
    cef: cef_mod.CalibratedCef

    def __post_init__(self):
        if self.i2_min < 0:
            raise ValueError(f"need i2_min >= 0, got {self.i2_min}")


@dataclass(frozen=True)
class Design:
    """A built design: conditional registration when Z1 >= z_f, then a
    stage two sized by ``rule``.

    A fast-track design stops below z_f (``i2_const is None``); an
    apply-or-waive combination design instead waives the application there
    and runs a fixed stage two of information ``i2_const``.
    """

    params: DesignParams
    family: str
    rule: AdaptiveConditionalPower
    i2_const: float | None = None

    @property
    def branch_boundary(self) -> float:
        return self.params.z_f

    @property
    def cef(self) -> cef_mod.CalibratedCef:
        return self.rule.cef

    @property
    def i2_min(self) -> float:
        return self.rule.i2_min


@dataclass(frozen=True)
class EvaluationResult:
    """Operating characteristics of a fully specified fast-track design."""

    overall_power: float
    p_cond_reg: float
    i2_min: float
    i2_max: float
    i2_mean: float
    total_mean: float
    total_max: float


def stage2_info(z1, params: DesignParams, rule: AdaptiveConditionalPower, q=None):
    """The stage-two information rule max(I2min, I1 * (z_beta + q)^2 / z1^2)
    with q the stage-two critical value Phi^{-1}(1 - A(z1)) (see
    cef.critical_value), vectorized, for z1 >= z_f > 0 (DesignParams keeps
    z_f positive).  At a zero floor it is the conditional-power formula
    itself.  Callers that already hold q for these z1 pass it in."""
    return _stage2_info(z1, rule.cef, rule.i2_min, params.i1, params.z_beta, q)


def _stage2_info(z1, cef, i2_min, i1, z_beta, q=None):  # constants may be per-node arrays
    z = np.asarray(z1, dtype=float)
    if q is None:
        q = cef_mod.critical_value(cef, z)
    numer = z_beta + q
    return np.maximum(i2_min, i1 * numer**2 / z**2)


def _floor_kink(params: DesignParams, rule: AdaptiveConditionalPower,
                z_lower: float, z_upper: float) -> float | None:
    """Abscissa where the conditional-power formula falls to the floor.

    For z1 > 0 the formula is at the floor where slope * z1 = z_beta + q(z1),
    slope = sqrt(I2min / I1).  The left side increases and q does not (A is
    non-decreasing), so there is at most one crossing on [z_lower, z_upper].
    Where the family's critical value is piecewise linear it is solved in
    closed form.  Fisher's A is capped from z_cap = max(z0, -Phi^{-1}(2c))
    on, where q = 0 and the crossing is z_beta / slope: a crossing at or
    above z_cap is that closed form, and only one below it is searched for,
    by a root search on [z_lower, z_cap].  With c <= 0, or z_cap at or past
    z_upper, the whole window is searched.
    """
    if rule.i2_min <= 0:
        return None
    slope = math.sqrt(rule.i2_min / params.i1)
    z_beta = params.z_beta
    cef = rule.cef
    if cef.pieces is not None:
        return _linear_floor_kink(cef.pieces, slope, z_beta, z_lower, z_upper)
    h_cap = None
    if cef.c > 0 and (z_cap := cef_mod.kinks(cef)[-1]) < z_upper:
        if z_cap <= z_lower or slope * z_cap - z_beta < 0:
            z = z_beta / slope
            return z if z_lower <= z <= z_upper else None
        z_upper, h_cap = z_cap, slope * z_cap - z_beta
    h = lambda z: slope * z - z_beta - cef_mod.critical_value(cef, z)
    try:
        return find_root(h, z_lower, z_upper, f_hi=h_cap)
    except BracketError:
        return None


def _linear_floor_kink(pieces, slope: float, z_beta: float, z_lower: float,
                       z_upper: float) -> float | None:
    """First z in [z_lower, z_upper] with slope * z >= z_beta + q(z), where
    q = max(a - b*z, 0) on each of ``pieces`` (see CalibratedCef.pieces).

    For z1 > 0 this is where I1 * (z_beta + q)^2 / z1^2 falls to the floor
    I2min = slope^2 * I1.  Each piece is linear or constant, so its crossing
    is solved exactly; where q jumps down at a piece start the crossing is
    that start.  Returns None when the formula stays on one side of the floor.
    """
    ends = [start for start, _, _ in pieces[1:]] + [math.inf]
    for (start, a, b), end in zip(pieces, ends):
        if end <= z_lower:
            continue
        lo, hi = max(start, z_lower), min(end, z_upper)
        if lo > hi:
            break
        z = (z_beta + a) / (slope + b)
        if a - b * z < 0:  # the crossing lies where A is capped and q = 0
            z = z_beta / slope
        if z < lo:
            # Already below the floor at lo: the crossing is a jump at the
            # piece start, or there is none inside the interval.
            return lo if lo > z_lower else None
        if z <= hi:
            return z
    return None


def _upper_setup(params: DesignParams, cef: cef_mod.CalibratedCef) -> tuple:
    """What a design's power branches share at every floor: the window over
    Z1 >= z_f, the CEF's kinks and the mean of Z1."""
    mean = params.delta * math.sqrt(params.i1)
    lo, hi = normal_window(mean, params.z_f)
    if not resolves(lo, hi, mean):  # exactly, 8.5 - z_{1 - alpha_c} wide at least
        raise FloatingPointError(f"i1 = {params.i1!r}: at Z1's mean {mean!r} the window "
                                 "above z_f is too narrow to resolve in floats")
    return lo, hi, cef_mod.kinks(cef), mean


def _upper_at(params: DesignParams, rule: AdaptiveConditionalPower, setup: tuple = ()):
    """A design's window over Z1 >= z_f, split at the CEF's kinks and the floor kink, and
    its integrands' constants.  A search passes the :func:`_upper_setup` it made once."""
    lo, hi, kinks, mean = setup or _upper_setup(params, rule.cef)
    kink = _floor_kink(params, rule, lo, hi)
    return (lo, hi, kinks if kink is None else [*kinks, kink]), (
        rule.cef, rule.i2_min, params.i1, params.z_beta, params.delta, mean)


def _power_integrand(z, cef, i2_min, i1, z_beta, delta, mean):
    """The overall-power integrand: conditional power times the density of Z1."""
    q = cef_mod.critical_value(cef, z)
    i2 = _stage2_info(z, cef, i2_min, i1, z_beta, q)
    return (1.0 - std_normal_cdf(q - np.sqrt(i2) * delta)) * std_normal_pdf(z - mean)


def overall_power(params: DesignParams, rule: AdaptiveConditionalPower) -> float:
    """Probability of continuing past z_f and rejecting at stage two, at most
    the probability of continuing: :func:`overall_powers` of one design."""
    return overall_powers([params], [rule])[0]


def overall_powers(params: Sequence[DesignParams],
                   rules: Sequence[AdaptiveConditionalPower]) -> list[float]:
    """:func:`overall_power` of many designs, all integrated in one call.
    Where the conditional power is 1 throughout, the quadrature's rounding
    can put an integral an ulp above its ceiling, so each is clamped there."""
    branches = [_upper_at(p, rule) for p, rule in zip(params, rules)]
    return [min(v, cond_registration_power(p)) for p, v in
            zip(params, cef_mod.integrate_each(_power_integrand, branches))]


def solve_i2_min(
    params: DesignParams, cef: cef_mod.CalibratedCef, target: float
) -> float:
    """Smallest floor I2min with overall power equal to ``target``.

    Returns 0 when the unconstrained design already meets the target; raises
    :class:`InfeasiblePowerError` when the target exceeds the continuation
    probability, which caps the achievable power; otherwise it is
    :func:`solve_i2_min_many` of one design."""
    ceiling = cond_registration_power(params)
    if target >= ceiling:
        raise InfeasiblePowerError(
            f"target {target} is not below the continuation probability "
            f"{ceiling}; no floor can reach it"
        )
    return solve_i2_min_many([params], [cef], [target])[0]


def max_stage2_info(params: DesignParams, rule: AdaptiveConditionalPower) -> float:
    """Largest possible stage-two information, attained at z1 = z_f or at the
    floor."""
    return float(stage2_info(params.z_f, params, rule))


def mean_stage2_info(params: DesignParams, rule: AdaptiveConditionalPower) -> float:
    """Expected stage-two information, with trials stopped below z_f
    contributing zero information.

    This is what makes the non-adaptive mean sit just above its minimum (149
    vs 148 per group in the worked example).
    """
    (lo, hi, splits), constants = _upper_at(params, rule)
    return integrate(lambda z: _mean_integrand(z, *constants), lo, hi, split_points=splits)


def mean_stage2_infos(params: Sequence[DesignParams],
                      rules: Sequence[AdaptiveConditionalPower]) -> list[float]:
    """:func:`mean_stage2_info` of many designs, integrated in one call."""
    branches = [_upper_at(p, rule) for p, rule in zip(params, rules)]
    return cef_mod.integrate_each(_mean_integrand, branches)


def _mean_integrand(z, cef, i2_min, i1, z_beta, delta, mean):
    """The E[I2] integrand: the stage-two information times the density of Z1."""
    return _stage2_info(z, cef, i2_min, i1, z_beta) * std_normal_pdf(z - mean)


def _check_fasttrack_family(family: str) -> None:
    if family not in cef_mod.FASTTRACK_FAMILIES:
        raise ValueError(f"family {family!r} is not available for the fast-track mode")


def build_fasttrack(
    params: DesignParams,
    family: str,
    binding: bool = True,
) -> Design:
    """Calibrate the family CEF and solve the floor for overall power 1-beta.

    ``binding=True`` credits the futility stop at z_f in the level condition
    (the CEF is zero below z_f); ``binding=False`` calibrates the CEF over the
    whole real line, which is conservative when the stop is executed anyway.
    The 'constant' family is the separate-studies design testing stage two at
    level alpha.
    """
    _check_fasttrack_family(family)
    z0 = params.z_f if binding else -math.inf
    cef = cef_mod.family_cef(family, params.alpha, z0)
    i2_min = solve_i2_min(params, cef, 1.0 - params.beta)
    return Design(params, family, AdaptiveConditionalPower(i2_min, cef))


def solve_i2_min_many(params: Sequence[DesignParams], cefs: Sequence[cef_mod.CalibratedCef],
                      targets: Sequence[float]) -> list[float | None]:
    """The floor :func:`solve_i2_min` defines, of many designs in lockstep, None
    where the target is infeasible: each round integrates the power branch
    every unfinished design waits on in one call, each clamped as
    :func:`overall_powers` does.  Each design is set up once."""
    ceilings = [cond_registration_power(p) for p in params]
    setups = [_upper_setup(p, cef) if t < c else None
              for p, cef, t, c in zip(params, cefs, targets, ceilings)]

    def evaluate(js: list[int], floors: list[float]) -> list[float]:
        branches = [_upper_at(params[j], AdaptiveConditionalPower(x, cefs[j]), setups[j])
                    for j, x in zip(js, floors)]
        return [min(v, ceilings[j]) for j, v in
                zip(js, cef_mod.integrate_each(_power_integrand, branches))]

    return lockstep([monotone_search(t) if s else None for t, s in zip(targets, setups)], evaluate)


def build_fasttrack_many(params: list[DesignParams], family: str,
                         binding: bool = True) -> list[Design | None]:
    """:func:`build_fasttrack` of many designs of one fast-track family in
    lockstep, None where it raises InfeasiblePowerError."""
    _check_fasttrack_family(family)
    cefs = cef_mod.family_cefs(family, [p.alpha for p in params],
                               [p.z_f if binding else -math.inf for p in params])
    floors = solve_i2_min_many(params, cefs, [1.0 - p.beta for p in params])
    return [None if x is None else Design(p, family, AdaptiveConditionalPower(x, cef))
            for p, cef, x in zip(params, cefs, floors)]


def evaluate_design(
    params: DesignParams, rule: AdaptiveConditionalPower
) -> EvaluationResult:
    """Bundle the operating characteristics of the branch Z1 >= z_f."""
    power = overall_power(params, rule)
    i2_hi = max_stage2_info(params, rule)
    i2_mean = mean_stage2_info(params, rule)
    return EvaluationResult(
        overall_power=power,
        p_cond_reg=cond_registration_power(params),
        i2_min=rule.i2_min,
        i2_max=i2_hi,
        i2_mean=i2_mean,
        total_mean=params.i1 + i2_mean,
        total_max=params.i1 + i2_hi,
    )
