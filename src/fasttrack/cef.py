"""Conditional error function families and their level calibration.

A conditional error function A maps the first-stage z-value to the one-sided
level at which the second stage tests the null hypothesis.  The overall type I
error rate is controlled when

    integral over z of A(z) phi(z) dz  <=  alpha

with the integral starting at the binding futility bound (or at -infinity when
futility stopping is non-binding).  All families here are truncated at 0.5 so
a rejection always requires a non-negative second-stage estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .numerics import (
    find_root,
    integrate,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)

FAMILIES = ("constant", "inverse_normal", "fisher", "z_combination")
FASTTRACK_FAMILIES = FAMILIES[:3]  # z_combination needs the waive branch

_CAP = 0.5
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class ConstantCef:
    """A(z) = level everywhere above the futility bound."""

    level: float


@dataclass(frozen=True)
class InverseNormalCef:
    """Inverse normal combination with equal weights w1 = w2 = sqrt(1/2)."""

    z0: float = -math.inf


@dataclass(frozen=True)
class FisherProductCef:
    """Fisher's product test: A(z) = c / (1 - Phi(z)) above the bound."""

    z0: float = -math.inf


@dataclass(frozen=True)
class ZCombinationCef:
    """Fixed-size combined z-test error function with a raised level above
    ``z_split`` (the Mueller-Schaefer style construction)."""

    i1: float
    i2_const: float
    z_split: float
    base_level: float = 0.025  # level of the fixed combined test below z_split

    def __post_init__(self):
        if not (self.i1 > 0 and self.i2_const > 0):
            raise ValueError("ZCombinationCef requires positive informations")
        if not math.isfinite(self.z_split):
            raise ValueError("z_split must be finite")


CefSpec = Union[ConstantCef, InverseNormalCef, FisherProductCef, ZCombinationCef]


@dataclass(frozen=True)
class CalibratedCef:
    """A CEF family together with its calibrated constant.

    ``c`` is c_I(z0) or c_F(z0) for the two combination-test families and is
    unused for the constant family; ``alpha_prime`` is the raised upper-branch
    level of the z-combination family.  ``level_used`` records the value of the
    level integral achieved at calibration (below the target only when the
    family saturates).
    """

    spec: CefSpec
    c: float = math.nan
    alpha_prime: float = math.nan
    level_used: float = math.nan


def atilde_z(z1, level: float, i1: float, i2c: float):
    """Conditional error function of the fixed-size combined z-test at
    ``level``, before 0.5-truncation.  Vectorized in ``z1``."""
    if not (i1 > 0 and i2c > 0):
        raise ValueError("atilde_z requires positive informations")
    w1 = math.sqrt(i1 / (i1 + i2c))
    w2 = math.sqrt(i2c / (i1 + i2c))
    z_alpha = std_normal_quantile(1.0 - level)
    return 1.0 - std_normal_cdf((z_alpha - w1 * np.asarray(z1, dtype=float)) / w2)


def _z_c(cef: CalibratedCef) -> float:
    """Phi^{-1}(1 - c) of the inverse normal family.

    c is clamped so the bracket endpoints c = 0, 1 used during calibration
    evaluate to the A == 0 and A == 0.5 extremes instead of failing.
    """
    c = min(max(cef.c, 1e-16), 1.0 - 1e-16)
    return std_normal_quantile(1.0 - c)


def eval_cef(cef: CalibratedCef, z1):
    """Evaluate the calibrated conditional error function, vectorized.

    Returns 0 below a finite futility bound, is non-decreasing above it and is
    capped at 0.5 everywhere.
    """
    spec = cef.spec
    z = np.asarray(z1, dtype=float)
    if isinstance(spec, ConstantCef):
        out = np.full_like(z, min(spec.level, _CAP))
    elif isinstance(spec, InverseNormalCef):
        raw = 1.0 - std_normal_cdf((_z_c(cef) - _SQRT_HALF * z) / _SQRT_HALF)
        out = np.minimum(raw, _CAP)
        if math.isfinite(spec.z0):
            out = np.where(z >= spec.z0, out, 0.0)
    elif isinstance(spec, FisherProductCef):
        # The survival function underflows for large z; the cap binds well
        # before that, so flooring the denominator never changes the value.
        denom = np.maximum(1.0 - std_normal_cdf(z), 1e-300)
        out = np.minimum(cef.c / denom, _CAP)
        if math.isfinite(spec.z0):
            out = np.where(z >= spec.z0, out, 0.0)
    elif isinstance(spec, ZCombinationCef):
        lower = atilde_z(z, spec.base_level, spec.i1, spec.i2_const)
        upper = atilde_z(z, cef.alpha_prime, spec.i1, spec.i2_const)
        out = np.minimum(np.where(z >= spec.z_split, upper, lower), _CAP)
    else:  # pragma: no cover
        raise TypeError(f"unknown CEF spec {spec!r}")
    return float(out) if out.ndim == 0 else out


def cap_kink(cef: CalibratedCef) -> float:
    """Abscissa where the family reaches the 0.5 cap (closed form)."""
    spec = cef.spec
    if isinstance(spec, ConstantCef):
        return math.inf
    if isinstance(spec, InverseNormalCef):
        return _z_c(cef) / _SQRT_HALF
    if isinstance(spec, FisherProductCef):
        if 2.0 * cef.c >= 1.0:
            return -math.inf
        if cef.c <= 0.0:
            return math.inf
        return std_normal_quantile(1.0 - 2.0 * cef.c)
    if isinstance(spec, ZCombinationCef):
        w1 = math.sqrt(spec.i1 / (spec.i1 + spec.i2_const))
        return std_normal_quantile(1.0 - cef.alpha_prime) / w1
    raise TypeError(f"unknown CEF spec {spec!r}")  # pragma: no cover


def quantile_pieces(cef: CalibratedCef) -> list[tuple[float, float, float]] | None:
    """Phi^{-1}(1 - A(z)) in closed form, as max(a - b*z, 0) on pieces.

    Returns ``[(start, a, b), ...]`` with increasing starts, each piece
    running up to the next start; below the first start A is 0 and the
    quantile is infinite.  The 0.5 cap is the max with 0.  Returns None for
    the Fisher family, whose quantile is not of this form.
    """
    spec = cef.spec
    if isinstance(spec, ConstantCef):
        return [(-math.inf, std_normal_quantile(1.0 - min(spec.level, _CAP)), 0.0)]
    if isinstance(spec, InverseNormalCef):
        return [(spec.z0, _z_c(cef) / _SQRT_HALF, 1.0)]
    if isinstance(spec, ZCombinationCef):
        w1 = math.sqrt(spec.i1 / (spec.i1 + spec.i2_const))
        w2 = math.sqrt(spec.i2_const / (spec.i1 + spec.i2_const))
        return [
            (-math.inf, std_normal_quantile(1.0 - spec.base_level) / w2, w1 / w2),
            (spec.z_split, std_normal_quantile(1.0 - cef.alpha_prime) / w2, w1 / w2),
        ]
    return None


def _split_points(cef: CalibratedCef) -> list[float]:
    pts = [cap_kink(cef)]
    spec = cef.spec
    if isinstance(spec, (InverseNormalCef, FisherProductCef)) and math.isfinite(spec.z0):
        pts.append(spec.z0)
    if isinstance(spec, ZCombinationCef):
        pts.append(spec.z_split)
        w1 = math.sqrt(spec.i1 / (spec.i1 + spec.i2_const))
        pts.append(std_normal_quantile(1.0 - spec.base_level) / w1)
    return [p for p in pts if math.isfinite(p)]


def level_integral(cef: CalibratedCef, lower: float = -math.inf) -> float:
    """Value of the level condition integral from ``lower`` to infinity.

    There is no early rejection, so the integral is the whole type I error
    rate of the design.
    """
    return integrate(
        lambda z: eval_cef(cef, z) * std_normal_pdf(z),
        lower,
        math.inf,
        split_points=_split_points(cef),
    )


def calibrate(spec: CefSpec, alpha: float, lower: float = -math.inf) -> CalibratedCef:
    """Choose the family constant so the level integral equals ``alpha``.

    The level integral is strictly increasing in the constant (in alpha_prime
    for the z-combination family), so a bracketed root search suffices.  When
    even the family extreme cannot reach ``alpha`` the calibration saturates
    and records the achieved ``level_used`` instead of failing.  The level
    integral is computed once per distinct constant.
    """
    if isinstance(spec, ConstantCef):
        cef = CalibratedCef(spec=spec)
        return replace(cef, level_used=level_integral(cef, lower))

    if isinstance(spec, ZCombinationCef):
        key, lo, hi = "alpha_prime", alpha, 1.0 - 1e-12
    else:
        key, lo, hi = "c", 0.0, 1.0
    levels: dict[float, float] = {}

    def level_at(x: float) -> float:
        if x not in levels:
            cef = CalibratedCef(spec=spec, **{key: x})
            levels[x] = level_integral(cef, lower)
        return levels[x]

    # At the upper end the function is everywhere as large as the family
    # allows; if that still stays below the target, the calibration saturates.
    if level_at(hi) <= alpha:
        x = hi
    else:
        x = find_root(lambda t: level_at(t) - alpha, lo, hi, f_hi=levels[hi] - alpha)
    return CalibratedCef(spec=spec, **{key: x}, level_used=level_at(x))
