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
from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def pieces(self) -> tuple[tuple[float, float, float], ...] | None:
        """Table of the critical value q(z) = Phi^{-1}(1 - A(z)), built once:
        q = max(a - b*z, 0) from each ``(start, a, b)`` up to the next start,
        infinite (A = 0) below the first; the max with 0 is the 0.5 cap.
        None for the Fisher family, whose q is not of this form."""
        spec = self.spec
        if isinstance(spec, ConstantCef):
            return ((-math.inf, std_normal_quantile(1.0 - min(spec.level, _CAP)), 0.0),)
        if isinstance(spec, InverseNormalCef):
            # c is clamped so the bracket ends c = 0, 1 of the calibration
            # give the A == 0 and A == 0.5 extremes instead of failing.
            c = min(max(self.c, 1e-16), 1.0 - 1e-16)
            return ((spec.z0, std_normal_quantile(1.0 - c) / _SQRT_HALF, 1.0),)
        if isinstance(spec, ZCombinationCef):
            w1 = math.sqrt(spec.i1 / (spec.i1 + spec.i2_const))
            w2 = math.sqrt(spec.i2_const / (spec.i1 + spec.i2_const))
            return tuple(
                (start, std_normal_quantile(1.0 - level) / w2, w1 / w2)
                for start, level in ((-math.inf, spec.base_level),
                                     (spec.z_split, self.alpha_prime))
            )
        return None


def atilde_z(z1, level: float, i1: float, i2c: float):
    """Conditional error function of the fixed-size combined z-test at
    ``level``, before 0.5-truncation.  Vectorized in ``z1``."""
    if not (i1 > 0 and i2c > 0):
        raise ValueError("atilde_z requires positive informations")
    w1 = math.sqrt(i1 / (i1 + i2c))
    w2 = math.sqrt(i2c / (i1 + i2c))
    z_alpha = std_normal_quantile(1.0 - level)
    return 1.0 - std_normal_cdf((z_alpha - w1 * np.asarray(z1, dtype=float)) / w2)


def _fisher_cef(cef: CalibratedCef, z: np.ndarray):
    # Fisher's A.  The survival function underflows for large z; the cap
    # binds well before that, so flooring the denominator never changes A.
    denom = np.maximum(1.0 - std_normal_cdf(z), 1e-300)
    a = np.minimum(cef.c / denom, _CAP)
    return a if cef.spec.z0 == -math.inf else np.where(z >= cef.spec.z0, a, 0.0)


def critical_value(cef: CalibratedCef, z1):
    """Stage-two critical value q(z) = Phi^{-1}(1 - A(z)), vectorized.

    Infinite where A is 0 and 0 where A is capped.  The table families read
    it off ``cef.pieces``; Fisher's goes through A.
    """
    z = np.asarray(z1, dtype=float)
    if cef.pieces is None:
        q = std_normal_quantile(np.asarray(1.0 - _fisher_cef(cef, z)))
    else:
        q = math.inf
        for start, a, b in cef.pieces:
            piece = np.maximum(a - b * z, 0.0)
            q = piece if start == -math.inf else np.where(z >= start, piece, q)
    return float(q) if q.ndim == 0 else q


def eval_cef(cef: CalibratedCef, z1):
    """Evaluate the calibrated conditional error function, vectorized.

    Returns 0 below a finite futility bound, is non-decreasing above it and is
    capped at 0.5 everywhere.
    """
    z = np.asarray(z1, dtype=float)
    if cef.pieces is None:
        out = _fisher_cef(cef, z)
    else:
        out = std_normal_cdf(np.asarray(-critical_value(cef, z)))
    return float(out) if out.ndim == 0 else out


def cap_kink(cef: CalibratedCef) -> float:
    """Abscissa where the family reaches the 0.5 cap (closed form)."""
    if cef.pieces is None:
        if 2.0 * cef.c >= 1.0:
            return -math.inf
        if cef.c <= 0.0:
            return math.inf
        return std_normal_quantile(1.0 - 2.0 * cef.c)
    _, a, b = cef.pieces[-1]
    return a / b if b else math.inf


def _split_points(cef: CalibratedCef) -> list[float]:
    """Kinks of A: where it jumps up from 0 and where it reaches the cap."""
    if cef.pieces is None:
        return [cap_kink(cef), cef.spec.z0]
    return [x for start, a, b in cef.pieces for x in (start, a / b if b else math.inf)]


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


def family_cef(family: str, alpha: float, z0: float = -math.inf, **fixed) -> CalibratedCef:
    """The named family's CEF, zero below ``z0`` and calibrated so that the
    level integral from ``z0`` equals ``alpha``.

    The constant family tests at level alpha, which spends alpha by
    construction, so it computes no level integral.  The z-combination family
    takes its fixed ``i1``, ``i2_const`` and ``z_split`` as keywords and tests
    at level alpha below the split."""
    if family == "constant":
        return CalibratedCef(spec=ConstantCef(level=alpha), level_used=alpha)
    if family == "inverse_normal":
        spec = InverseNormalCef(z0=z0)
    elif family == "fisher":
        spec = FisherProductCef(z0=z0)
    elif family == "z_combination":
        spec = ZCombinationCef(**fixed, base_level=alpha)
    else:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return calibrate(spec, alpha, z0)
