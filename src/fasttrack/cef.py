"""Conditional error functions and their level calibration.

A conditional error function A maps the first-stage z-value to the one-sided
level at which the second stage tests the null hypothesis.  The overall type I
error rate is controlled when

    integral over z of A(z) phi(z) dz  <=  alpha

with the integral starting at the binding futility bound (or at -infinity when
futility stopping is non-binding).  All families here are truncated at 0.5 so
a rejection always requires a non-negative second-stage estimate.

A CEF is the table of its stage-two critical value, a ``CalibratedCef``.
``family_cef`` writes each named family's table and solves its one free
constant with ``calibrate``, or in closed form for Fisher's product test;
``constant_cef`` and ``z_combination_cef`` build the two tables that are also
used at a given level.  ``critical_value`` reads a CEF at an array of
abscissas; Fisher's it also reads at one Python float in float arithmetic,
which is what the Fisher floor-kink root search steps on.

``family_cefs`` makes the CEFs of a whole grid column at once: it calibrates
each distinct design once, and runs the calibrations' root searches
(``calibration_search``) in lockstep, every round integrating the level of
each waiting CEF in one integrand call.  A single fast-track build
calibrates afresh through ``calibrate``, the same search run alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Generator, Sequence

import numpy as np
from scipy.special import lambertw, ndtr, ndtri

from .numerics import (
    X_TOL,
    integrate,
    integrate_many,
    lockstep,
    normal_window,
    root_search,
    run_search,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)

FAMILIES = ("constant", "inverse_normal", "fisher", "z_combination")
FASTTRACK_FAMILIES = FAMILIES[:3]  # z_combination needs the waive branch

_CAP = 0.5
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class CalibratedCef:
    """A conditional error function as the table of its stage-two critical
    value q(z) = Phi^{-1}(1 - A(z)).

    ``pieces`` holds q = max(a - b*z, 0) from each ``(start, a, b)`` up to
    the next start, infinite (A = 0) below the first; the max with 0 is the
    0.5 cap.  It is None for Fisher's product test, A = min(c / Phi(-z), 0.5)
    from ``z0`` on.  ``c`` is c_I(z0) or c_F(z0) of the two
    combination-test families, ``alpha_prime`` the raised upper-branch level
    of the z-combination family, and ``level_used`` the level integral
    achieved at calibration (below alpha only when the family saturates).
    """

    pieces: tuple[tuple[float, float, float], ...] | None
    z0: float = -math.inf
    c: float = math.nan
    alpha_prime: float = math.nan
    level_used: float = math.nan


def constant_cef(level: float) -> CalibratedCef:
    """A(z) = level everywhere, which spends ``level`` by construction."""
    level = min(level, _CAP)
    q = std_normal_quantile(1.0 - level)
    return CalibratedCef(((-math.inf, q, 0.0),), level_used=level)


def z_combination_cef(
    i1: float, i2_const: float, z_split: float, alpha: float, alpha_prime: float
) -> CalibratedCef:
    """The fixed-size combined z-test of informations ``i1`` and ``i2_const``
    at level ``alpha`` below ``z_split`` and at the raised level
    ``alpha_prime`` above it (the Mueller-Schaefer style construction)."""
    if not (i1 > 0 and i2_const > 0 and math.isfinite(z_split)):
        raise ValueError("z_combination_cef requires positive informations "
                         f"and a finite z_split, got {i1}, {i2_const}, {z_split}")
    w1 = math.sqrt(i1 / (i1 + i2_const))
    w2 = math.sqrt(i2_const / (i1 + i2_const))
    pieces = tuple(
        (start, std_normal_quantile(1.0 - level) / w2, w1 / w2)
        for start, level in ((-math.inf, alpha), (z_split, alpha_prime))
    )
    return CalibratedCef(pieces, alpha_prime=alpha_prime)


def _fisher_cef(cef: CalibratedCef, z: np.ndarray):
    # Fisher's A, with the survival function Phi(-z), which keeps its
    # relative precision in the upper tail where 1 - Phi(z) cancels.  It
    # underflows for large z; the cap binds well before that, so flooring the
    # denominator never changes A.
    denom = np.maximum(std_normal_cdf(-z), 1e-300)
    a = np.minimum(cef.c / denom, _CAP)
    return a if _is(cef.z0, -math.inf) else np.where(z >= cef.z0, a, 0.0)


def _critical_value_at(cef: CalibratedCef, z: float) -> float:
    # Fisher's critical_value at one float, step for step in the array
    # path's arithmetic; ndtr and ndtri take infinite z and p in [0, 1] as
    # the array path does.
    denom = max(float(ndtr(-z)), 1e-300)
    a = min(cef.c / denom, _CAP)
    if cef.z0 != -math.inf and not z >= cef.z0:
        a = 0.0
    return -float(ndtri(a))


def critical_value(cef: CalibratedCef, z1):
    """Stage-two critical value q(z) = Phi^{-1}(1 - A(z)), vectorized.

    Infinite where A is 0 and 0 where A is capped.  The table families read
    it off ``cef.pieces``; Fisher's goes through A, as -Phi^{-1}(A).
    Fisher's at a Python float is read in float arithmetic, without numpy's
    per-call cost, and gives the same float as a one-element array.
    """
    if cef.pieces is None and isinstance(z1, float):
        return _critical_value_at(cef, z1)
    z = np.asarray(z1, dtype=float)
    if cef.pieces is None:
        q = -std_normal_quantile(np.asarray(_fisher_cef(cef, z)))
    else:
        q = math.inf
        for start, a, b in cef.pieces:
            # A flat piece without b * z, which is NaN at z = +-inf.
            piece = np.maximum(np.full(z.shape, a) if _is(b, 0.0) else a - b * z, 0.0)
            q = piece if _is(start, -math.inf) else np.where(z >= start, piece, q)
    return float(q) if q.ndim == 0 else q


def _is(constant, value: float) -> bool:  # never true of a per-node array
    return not isinstance(constant, np.ndarray) and constant == value


def _gather(values: Sequence, k):
    """``values[k]``, each node's window's constant, a float or a CEF (with
    as many pieces as the others).  A float all windows share stays that
    float, so tests against it still apply."""
    first = values[0]
    if isinstance(first, CalibratedCef):
        pieces = first.pieces and tuple(tuple(_gather(col, k) for col in zip(*piece))
                                        for piece in zip(*(c.pieces for c in values)))
        return CalibratedCef(pieces, z0=_gather([c.z0 for c in values], k),
                             c=_gather([c.c for c in values], k))
    return first if values.count(first) == len(values) else np.array(values)[k]


def integrate_each(make: Callable, branches: Sequence[tuple]) -> list[float]:
    """``integrate_many`` of ``make(*constants)`` over each (window, constants)
    of ``branches``, every integral the float ``integrate`` gives for it.  A
    lone branch is that ``integrate`` call, its constants as they are."""
    if len(branches) == 1:
        ((lo, hi, splits), constants), = branches
        return [integrate(make(*constants), lo, hi, split_points=splits)]
    columns = list(zip(*(constants for _, constants in branches)))
    return integrate_many(lambda z, k: make(*(_gather(c, k) for c in columns))(z),
                          [window for window, _ in branches])


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


def kinks(cef: CalibratedCef) -> list[float]:
    """Abscissas where A jumps or bends: each piece's start, and its cap
    a / b where that lies inside the piece; for Fisher, z0 and the cap
    -Phi^{-1}(2c) where that lies above z0."""
    if cef.pieces is None:
        if not 0.0 < cef.c < 0.5:  # A is 0, or capped, wherever it is positive
            return [cef.z0]
        # Not Phi^{-1}(1 - 2c): 1 - 2c rounds to 1 for c up to 2**-55.
        cap = -std_normal_quantile(2.0 * cef.c)
        return [cef.z0, cap] if cap > cef.z0 else [cef.z0]
    ends = [start for start, _, _ in cef.pieces[1:]] + [math.inf]
    out = []
    for (start, a, b), end in zip(cef.pieces, ends):
        out.append(start)
        if b and start < a / b < end:
            out.append(a / b)
    return out


def _level_integrand(cef: CalibratedCef):
    return lambda z: eval_cef(cef, z) * std_normal_pdf(z)


def level_integral(cef: CalibratedCef, lower: float = -math.inf) -> float:
    """Value of the level condition integral from ``lower`` to infinity.

    There is no early rejection, so the integral is the whole type I error
    rate of the design.
    """
    return integrate(_level_integrand(cef), *normal_window(0.0, lower),
                     split_points=kinks(cef))


def calibrate(cef_at: Callable[[float], CalibratedCef], alpha: float,
              lo: float, hi: float) -> CalibratedCef:
    """:func:`calibration_search` run alone, each level by :func:`level_integral`."""
    return run_search(calibration_search(cef_at, alpha, lo, hi),
                      lambda cef: level_integral(cef, cef.z0))


def calibration_search(cef_at: Callable[[float], CalibratedCef], alpha: float,
                       lo: float, hi: float) -> Generator:
    """The CEF ``cef_at(x)`` whose level integral from its own ``z0`` is
    ``alpha``, as a search that yields each CEF whose level it needs and is
    sent that level.

    ``cef_at`` builds a family's CEF from its one free constant x (c, or
    alpha_prime for the z-combination family); the level integral increases
    strictly in x on [lo, hi].  When even the CEF at ``hi`` cannot reach
    ``alpha`` the calibration saturates and records the achieved
    ``level_used`` instead of failing.  Each x is integrated once.
    """
    levels = {hi: (yield cef_at(hi))}
    # At the upper end the function is everywhere as large as the family
    # allows; if that still stays below the target, the calibration saturates.
    if levels[hi] - alpha <= 0:
        return replace(cef_at(hi), level_used=levels[hi])
    search = root_search(lo, hi, X_TOL, g_hi=levels[hi], target=alpha)
    try:
        x = next(search)
        while True:
            if x not in levels:
                levels[x] = yield cef_at(x)
            x = search.send(levels[x])
    except StopIteration as stop:
        return replace(cef_at(stop.value), level_used=levels[stop.value])


def _fisher_family_cef(alpha: float, z0: float) -> CalibratedCef:
    # Fisher's product test with a stopping bound (Bauer & Koehne 1994) in
    # closed form.  In u = Phi(-z) the level integral from z0 is the integral
    # of min(c / u, 0.5) over [0, S], S = Phi(-z0): c (1 + ln(S / 2c)) when
    # 2c < S, else S / 2.  With 2c / S = exp(1 + w) the level condition reads
    # w exp(w) = -2 alpha / (e S), whose root below -1 is the lower branch
    # W_{-1} of Lambert's W.  When S / 2 <= alpha even A = 0.5 from z0 on
    # cannot spend alpha: the family saturates at c = 1.
    s = float(ndtr(-z0))
    if 0.5 * s <= alpha:
        return CalibratedCef(None, z0=z0, c=1.0, level_used=0.5 * s)
    # Within 1e-6 of saturation W_{-1} is its series at the branch point
    # -1/e, in p = -sqrt(2 d), d = 1 - 2 alpha / S: scipy's lambertw there
    # overspends alpha by up to d relative.
    d = (s - 2.0 * alpha) / s
    if d < 1e-6:
        p = -math.sqrt(2.0 * d)
        w = -1.0 + p * (1.0 + p * (-1 / 3 + p * (11 / 72 + p * (
            -43 / 540 + p * 769 / 17280))))
    else:
        w = lambertw(-2.0 * alpha / (math.e * s), -1).real
    c = 0.5 * s * math.exp(1.0 + w)
    level = c * (1.0 + math.log(s / (2.0 * c)))
    return CalibratedCef(None, z0=z0, c=c, level_used=level)


def _calibration(family: str, alpha: float, z0: float, fixed: dict):
    """The named family's CEF when it has a closed form, else the
    (cef_at, alpha, lo, hi) that :func:`calibrate` solves."""
    if family == "constant":
        return constant_cef(alpha)
    if family == "fisher":
        return _fisher_family_cef(alpha, z0)
    if family == "z_combination":
        def cef_at(a: float) -> CalibratedCef:
            return z_combination_cef(**fixed, alpha=alpha, alpha_prime=a)
        return cef_at, alpha, alpha, 1.0 - 1e-12
    if family != "inverse_normal":
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")

    def cef_at(c: float) -> CalibratedCef:
        # c is clamped so the bracket ends c = 0, 1 give the A == 0 and
        # A == 0.5 extremes instead of failing.
        q = std_normal_quantile(1.0 - min(max(c, 1e-16), 1.0 - 1e-16))
        return CalibratedCef(((z0, q / _SQRT_HALF, 1.0),), z0=z0, c=c)
    return cef_at, alpha, 0.0, 1.0


def family_cef(family: str, alpha: float, z0: float = -math.inf, **fixed) -> CalibratedCef:
    """The named family's CEF, zero below ``z0`` and calibrated so that the
    level integral from ``z0`` equals ``alpha``: the one place each family's
    critical-value table is written.

    The constant family tests at level alpha, which spends alpha by
    construction, so it computes no level integral.  Fisher's level
    integral is elementary, and its constant c is solved in closed form.  The
    z-combination family takes its fixed ``i1``, ``i2_const`` and ``z_split``
    as keywords and tests at level alpha below the split.  Both are positive
    everywhere and ignore ``z0``."""
    solved = _calibration(family, alpha, z0, fixed)
    return solved if isinstance(solved, CalibratedCef) else calibrate(*solved)


def family_cefs(family: str, alphas: Sequence[float], z0s: Sequence[float] | None = None,
                **fixed: Sequence[float]) -> list[CalibratedCef]:
    """:func:`family_cef` of each design i of a column, at ``alphas[i]``,
    ``z0s[i]`` (-inf without ``z0s``) and the i-th entry of each of ``fixed``:
    each distinct design calibrated once, the searches in lockstep."""
    keys = list(zip(alphas, z0s or [-math.inf] * len(alphas), *fixed.values()))
    solved = {key: _calibration(family, *key[:2], dict(zip(fixed, key[2:])))
              for key in keys}
    searched = [key for key, cef in solved.items() if not isinstance(cef, CalibratedCef)]
    levels = lambda _, cefs: integrate_each(_level_integrand, [
        ((*normal_window(0.0, cef.z0), kinks(cef)), (cef,)) for cef in cefs])
    solved.update(zip(searched, lockstep([calibration_search(*solved[key])
                                          for key in searched], levels)))
    return [solved[key] for key in keys]
