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
abscissas; Fisher's ``fisher_critical_value`` reads at one Python float in
float arithmetic, which is what the Fisher floor-kink root search steps on.

A column solve holds its designs' constants as ``column`` s, which
``integrate_each`` reads at each panel's window.  ``family_cefs`` makes the
CEFs of a whole grid column at once: it calibrates each distinct design once,
and runs the calibrations' root searches (``calibration_search``) in
lockstep, every round integrating the level of each waiting CEF in one
integrand call.  A single fast-track build calibrates afresh through
``calibrate``, the same search run alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Generator, Sequence

import numpy as np
from scipy.special import lambertw, ndtr, ndtri

from .numerics import (
    F_TOL,
    X_TOL,
    QuadratureSettings,
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
_TAIL = QuadratureSettings.tail_halfwidth
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
    return z_combination_cefs(i1, i2_const, z_split, alpha, alpha_prime, math.sqrt)


def z_combination_cefs(i1, i2_const, z_split, alpha, alpha_prime, sqrt=np.sqrt) -> CalibratedCef:
    """:func:`z_combination_cef` of a column's designs, unchecked (of floats with math.sqrt)."""
    w1 = sqrt(i1 / (i1 + i2_const))
    w2 = sqrt(i2_const / (i1 + i2_const))
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


def fisher_critical_value(c: float, z0: float, z: float) -> float:
    """Fisher's critical value at one float, in float arithmetic, step for step
    in the array path's; ndtr and ndtri take infinite z and p in [0, 1] alike."""
    denom = max(float(ndtr(-z)), 1e-300)
    a = min(c / denom, _CAP)
    if z0 != -math.inf and not z >= z0:
        a = 0.0
    return -float(ndtri(a))


def critical_value(cef: CalibratedCef, z1):
    """Stage-two critical value q(z) = Phi^{-1}(1 - A(z)), vectorized.

    Infinite where A is 0 and 0 where A is capped.  The table families read
    it off ``cef.pieces``; Fisher's goes through A, as -Phi^{-1}(A).
    """
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


def _is(constant, value: float) -> bool:  # never true of a column array
    return not isinstance(constant, np.ndarray) and constant == value


def column(values: Sequence):
    """Per-design constants as one column: the value all designs share (a
    float keeps :func:`critical_value`'s shortcuts), else their array; lists
    of kinks as one array, padded with NaN; and CEFs, all Fisher's or all
    tables of as many pieces, as one CEF of such columns."""
    first = values[0]
    if isinstance(first, list):
        width = max(map(len, values))
        return np.array([[*row, *[math.nan] * (width - len(row))] for row in values])
    if isinstance(first, CalibratedCef):
        if len({cef.pieces and len(cef.pieces) for cef in values}) > 1:
            raise ValueError("a column's CEFs must be all Fisher's or tables of as many pieces")
        pieces = first.pieces and tuple(tuple(map(column, zip(*piece)))
                                        for piece in zip(*(cef.pieces for cef in values)))
        return CalibratedCef(pieces, z0=column([cef.z0 for cef in values]),
                             c=column([cef.c for cef in values]))
    return first if values.count(first) == len(values) else np.array(values, dtype=float)


def take(value, k):
    """A :func:`column`'s entries at the integer array ``k`` of rows."""
    if type(value) is np.ndarray:
        return value[k]
    if isinstance(value, CalibratedCef):
        pieces = value.pieces and tuple([tuple([take(x, k) for x in p]) for p in value.pieces])
        return CalibratedCef(pieces, z0=take(value.z0, k), c=take(value.c, k))
    return value


def integrate_each(f: Callable, lo, hi, kinks, constants: tuple) -> list[float]:
    """``integrate_many`` of ``f(z, *constants)``, each constant a :func:`column`
    with a row per window, read at each panel's window."""
    return integrate_many(lambda z, k: f(z, *(take(c, k) for c in constants)), lo, hi, kinks)


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


def table_kinks(pieces, n: int) -> np.ndarray:
    """:func:`kinks` of ``n`` tables, pieces of b > 0 as columns, NaN-padded rows."""
    out = np.empty((n, 2 * len(pieces)))
    ends = [start for start, _, _ in pieces[1:]] + [math.inf]
    for i, ((start, a, b), end) in enumerate(zip(pieces, ends)):
        cap = a / b
        out[:, 2 * i] = start
        out[:, 2 * i + 1] = np.where((start < cap) & (cap < end), cap, np.nan)
    return out


def _level_integrand(z, cef: CalibratedCef):
    return eval_cef(cef, z) * std_normal_pdf(z)


def _level(cef: CalibratedCef, lower: float) -> float:
    """:func:`level_integral`'s integral, as a column's lone round reads it."""
    return integrate(lambda z: _level_integrand(z, cef), *normal_window(0.0, lower),
                     split_points=kinks(cef))


def level_integral(cef: CalibratedCef, lower: float = -math.inf) -> float:
    """Value of the level condition integral from ``lower`` to infinity.

    There is no early rejection, so the integral is the whole type I error
    rate of the design.
    """
    return _level(cef, lower)


def calibrate(cef_at: Callable[[float], CalibratedCef], alpha: float,
              lo: float, hi: float) -> CalibratedCef:
    """:func:`calibration_search` run alone, each level by :func:`level_integral`."""
    return run_search(calibration_search(cef_at, alpha, lo, hi),
                      lambda x: level_integral(cef := cef_at(x), cef.z0))


def calibration_search(cef_at: Callable[[float], CalibratedCef], alpha: float,
                       lo: float, hi: float) -> Generator:
    """The CEF ``cef_at(x)`` whose level integral from its own ``z0`` is
    ``alpha``, as a search that yields each x whose CEF's level it needs and
    is sent that level.

    ``cef_at`` builds a family's CEF from its one free constant x (c, or
    alpha_prime for the z-combination family); the level integral increases
    strictly in x on [lo, hi].  When even the CEF at ``hi`` cannot reach
    ``alpha`` the calibration saturates and records the achieved
    ``level_used`` instead of failing.  The first x whose level lies within
    F_TOL of ``alpha`` is the root.  Each x is integrated once.
    """
    levels = {hi: (yield hi)}
    # At the upper end the function is everywhere as large as the family
    # allows; if that still stays below the target, the calibration saturates.
    if levels[hi] - alpha <= 0:
        return replace(cef_at(hi), level_used=levels[hi])
    search = root_search(lo, hi, X_TOL, g_hi=levels[hi], target=alpha, f_tol=F_TOL)
    try:
        x = next(search)
        while True:
            if x not in levels:
                levels[x] = yield x
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


def _column_at(family: str, xs: np.ndarray, alpha, z0, fixed: dict) -> CalibratedCef:
    """:func:`_calibration`'s ``cef_at`` of many designs at ``xs``, on columns."""
    if family == "z_combination":
        return z_combination_cefs(**fixed, alpha=alpha, alpha_prime=xs)
    q = std_normal_quantile(1.0 - np.clip(xs, 1e-16, 1.0 - 1e-16))
    return CalibratedCef(((z0, q / _SQRT_HALF, 1.0),), z0=z0, c=xs)


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
    columns = [column(constants) for constants in zip(*searched)]

    def levels(js: list[int], xs: list[float]) -> list[float]:
        if len(js) == 1:
            cef = solved[searched[js[0]]][0](xs[0])
            return [_level(cef, cef.z0)]
        rows = np.array(js)
        alpha, z0, *rest = (take(c, rows) for c in columns)
        cef = _column_at(family, np.array(xs), alpha, z0, dict(zip(fixed, rest)))
        lo = np.maximum(cef.z0, -_TAIL)  # normal_window(0.0, cef.z0) of each design
        return integrate_each(_level_integrand, lo, np.maximum(lo, _TAIL),
                              table_kinks(cef.pieces, len(js)), (cef,))

    solved.update(zip(searched, lockstep([calibration_search(*solved[key])
                                          for key in searched], levels)))
    return [solved[key] for key in keys]
