"""Low-level numerics: normal distribution, adaptive quadrature, root finding.

Every routine here is a pure function.  Integrands passed to
:func:`integrate` must be elementwise: they take a 1-D array of abscissas and
return the integrand at each of them, with no dependence of one value on the
others.  The quadrature evaluates the nodes of several panels in one call:
it starts from panels at most ``PANEL_WIDTH`` (2 sds) wide, so one call
usually settles an integral over a normal window, and it sums each panel's
nodes as a row of one array; :func:`integrate_many` does so for many
integrals at once, each the float :func:`integrate` returns for it.  Each
panel takes the 15 nodes of the G7-K15 Gauss-Kronrod pair: the K15 rule
gives its estimate, and the G7 rule on seven of the same nodes its error
estimate |K15 - G7|.

:func:`find_root` is a Python port of Brent's method as SciPy implements it
in ``brentq.c`` (copyright Enthought, Inc. and the SciPy Developers,
BSD-3-Clause licence).  It keeps that code's arithmetic order, so it
evaluates the same points and returns the same float as scipy's ``brentq``
with its default relative tolerance.  Brent's method and the doubling search
of :func:`solve_monotone` are written once, as generators that yield the
abscissas they need; :func:`lockstep` drives many of them with one
evaluation call per round.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Callable, ClassVar, Generator, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr, ndtri


class ConvergenceError(RuntimeError):
    """Quadrature or a root search failed to meet its tolerance; carries the
    best estimate and an estimate of its error."""

    def __init__(self, message: str, best_estimate: float, error_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class BracketError(ValueError):
    """A root bracket without a sign change, or bracket expansion gave up."""


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and budget for adaptive quadrature."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 400
    tail_halfwidth: ClassVar[float] = 8.5  # normal_window's cut, in sds

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be a positive integer")


DEFAULT_QUAD = QuadratureSettings()
# Bracketing root searches: the default absolute x tolerance, the |f| at
# which an end of the bracket is the root, and the evaluation budget.
X_TOL = 1e-9
F_TOL = 1e-10
MAX_ITER = 200
# Widest initial panel of integrate, in sds like tail_halfwidth: every caller
# integrates a normal density on the z scale, where the K15 rule over 2 sds
# meets the tolerances in one integrand call.
PANEL_WIDTH = 2.0
# find_root's relative x tolerance: scipy brentq's default and smallest rtol.
_RTOL = 4 * sys.float_info.epsilon

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# The canonical float64 dtype: arrays of it skip the input checks below.
_F64 = np.dtype(np.float64)


def std_normal_cdf(x):
    """Standard normal distribution function Phi, vectorized.

    Raises ValueError on non-finite scalar input.  Float arrays go straight
    to ``ndtr``.
    """
    if type(x) is np.ndarray and x.dtype is _F64:
        return ndtr(x)
    if isinstance(x, float) or np.isscalar(x):
        if not math.isfinite(x):
            raise ValueError(f"std_normal_cdf requires finite input, got {x}")
        return float(ndtr(x))
    return ndtr(np.asarray(x, dtype=float))


def std_normal_quantile(p):
    """Inverse of the standard normal distribution function, vectorized.

    Scalar input must lie strictly inside (0, 1).  Float arrays go straight
    to ``ndtri``.
    """
    if type(p) is np.ndarray and p.dtype is _F64:
        return ndtri(p)
    if isinstance(p, float) or np.isscalar(p):
        if not (0.0 < p < 1.0):
            raise ValueError(f"std_normal_quantile requires p in (0, 1), got {p}")
        return float(ndtri(p))
    return ndtri(np.asarray(p, dtype=float))


def std_normal_pdf(x):
    """Standard normal density, vectorized; 0-d input gives a float."""
    if type(x) is not np.ndarray or x.dtype is not _F64:
        x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT_2PI
    return float(out) if out.ndim == 0 else out


# The G7-K15 Gauss-Kronrod pair (Kronrod 1965; QUADPACK's qk15, Piessens et
# al. 1983).  A panel's abscissas on [-1, 1] are the seven Gauss nodes, then
# the eight Kronrod nodes, +- those listed; K15 weighs all fifteen, a node and
# its negative alike, and G7 its own seven.
_G7_X, _G7_W = leggauss(7)
_KRONROD_X = (0.207784955007898467600689403773245, 0.586087235467691130294144845693013,
              0.864864423359769072789712788640926, 0.991455371120812639206854697526329)
# K15's weights at the Gauss nodes 0, +-0.405845, +-0.741531, +-0.949108, and
# at the Kronrod nodes listed above.
_K15_AT_G7 = (0.209482141084727828012999174891714, 0.190350578064785409913256402421014,
              0.140653259715525918745189590510238, 0.063092092629978553290700663189204)
_K15_AT_KRONROD = (0.204432940075298892414161999234649, 0.169004726639267902826583426598550,
                   0.104790010322250183839876322541518, 0.022935322010529224963732008058970)
_NODES = np.concatenate((_G7_X, -np.array(_KRONROD_X[::-1]), _KRONROD_X))
_K15_W = np.array([*_K15_AT_G7[:0:-1], *_K15_AT_G7,
                   *_K15_AT_KRONROD[::-1], *_K15_AT_KRONROD])


def _panels(f: Callable, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K15 estimates, and |K15 - G7| as their error estimates, over the
    panels [a[i], b[i]], from one call of ``f`` on the nodes of all of them.
    Each panel's weighted sum is a row sum, which does not depend on how many
    panels share the call."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _NODES
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    i15 = half * (y * _K15_W).sum(axis=1)
    i7 = half * (y[:, :7] * _G7_W).sum(axis=1)
    return i15, np.abs(i15 - i7)


def _check_window(lo: float, hi: float) -> None:
    """Raise ValueError unless the window [lo, hi] is finite and lo <= hi."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"integrate requires finite lo <= hi, got [{lo}, {hi}]")


def _initial_panels(windows: Sequence[tuple], budget: int) -> tuple:
    """The ends and the window of each initial panel of every (lo, hi,
    split_points) window, in window order: :func:`integrate`'s rule on arrays."""
    lo, hi = (np.array([w[i] for w in windows], dtype=float) for i in (0, 1))
    if not (ok := np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)).all():
        _check_window(*windows[int(np.argmin(ok))][:2])
    ws, sizes = np.arange(len(windows)), [len(w[2]) for w in windows]
    splits = np.fromiter(chain.from_iterable(w[2] for w in windows), float, sum(sizes))
    owner = np.repeat(ws, sizes)
    inside = (lo[owner] < splits) & (splits < hi[owner])
    # x: each window's kinks in order, window after window.
    x = np.concatenate((lo, splits[inside], hi))
    ids = np.concatenate((ws, owner[inside], ws))
    order = np.lexsort((x, ids))
    x, ids = x[order], ids[order]
    # n: the panels of the segment from each kink to the next; none joins
    # two windows, and a repeated kink's segment is empty.
    counts = np.minimum(np.ceil(np.diff(x) / PANEL_WIDTH), budget).astype(np.intp)
    n = (ids[1:] == ids[:-1]) * counts
    s = np.repeat(np.arange(len(n)), n)  # each panel's segment, i its place in it
    i = np.arange(len(s)) - (np.cumsum(n) - n)[s]
    a = x[s] + (x[s + 1] - x[s]) * (i / n[s])
    # A segment's last panel ends at its kink itself, the others where the next starts.
    return a, np.where(i + 1 == n[s], x[s + 1], np.append(a[1:], 0.0)), ids[s]


def integrate(
    f: Callable,
    lo: float,
    hi: float,
    settings: QuadratureSettings = DEFAULT_QUAD,
    split_points: Sequence[float] = (),
) -> float:
    """Adaptive panel quadrature of an elementwise integrand on [lo, hi].

    ``f`` is called on a 1-D array holding the nodes of several panels at
    once (all initial panels, then both halves of each panel bisected in a
    round) and must return the integrand at each node.  The initial panels
    cut each segment between lo, the split points and hi into ceil(width /
    PANEL_WIDTH) equal parts, at most ``max_subdivisions`` of them so that a
    wide segment cannot ask for more nodes than the budget allows.  Each
    round sums the panels left to right; it returns once the summed error
    estimate meets the tolerances, raises ConvergenceError once
    ``max_subdivisions`` panels do not, and otherwise bisects every panel
    whose error estimate is at least the mean, the worst one always, but no
    more than the budget has room for, worst first.  A non-finite sum raises
    FloatingPointError.

    The interval must be finite (normal tails are cut by
    :func:`normal_window`); an empty one, lo == hi, integrates to 0.  Known
    kink abscissas can be passed via ``split_points`` so that panel
    boundaries coincide with them; split points outside the open interval
    (lo, hi), infinite or NaN ones included, are ignored, so callers need not
    filter them.
    """
    _check_window(lo, hi)
    kinks = sorted({lo, hi, *(p for p in split_points if lo < p < hi)})
    cuts = np.array([a + (b - a) * (k / n) for a, b in zip(kinks, kinks[1:])
                     for n in [min(math.ceil((b - a) / PANEL_WIDTH),
                                   settings.max_subdivisions)]
                     for k in range(n)] + kinks[-1:])
    return run_search(_refine(cuts, *_panels(f, cuts[:-1], cuts[1:]), settings),
                      lambda e: _panels(f, *e)) if lo < hi else 0.0


def integrate_many(f: Callable, windows: Sequence[tuple],
                   settings: QuadratureSettings = DEFAULT_QUAD) -> list[float]:
    """:func:`integrate` on each (lo, hi, split_points) of ``windows``, each
    round one call ``f(x, k)`` on the panels all windows need, ``k`` the integer
    array of each node's window; the first window that fails raises.
    The first round runs on arrays, all windows' sums at once; only the
    windows that miss the tolerances go on to :func:`integrate`'s rounds."""
    a, b, of = _initial_panels(windows, settings.max_subdivisions)
    counts = np.bincount(of, minlength=len(windows))
    first = np.cumsum(counts) - counts
    k = np.repeat(of, _NODES.size)
    ests, errs = _panels(lambda x: f(x, k), a, b) if len(a) else (a, a)
    # _refine's sums: running sums, left to right, along zero-padded rows after a 0.0.
    rows = np.zeros((2, len(windows), counts.max(initial=0) + 1))
    rows[:, of, np.arange(len(of)) - first[of] + 1] = ests, errs
    total, total_err = np.cumsum(rows, axis=2)[:, np.arange(len(windows)), counts]
    settled = np.isfinite(total) & np.isfinite(total_err) & (
        total_err <= np.maximum(settings.abs_tol, settings.rel_tol * np.abs(total)))
    searches = [None] * len(windows)
    for j in np.flatnonzero(~settled).tolist():  # each has panels, the last ending at hi
        p = slice(first[j], first[j] + counts[j])
        searches[j] = _refine(np.append(a[p], b[p][-1]), ests[p], errs[p], settings)

    def more(js: list[int], spans: list[tuple]) -> list[tuple]:
        a, b = (np.concatenate(ends) for ends in zip(*spans))
        ends = [0, *accumulate(len(span[0]) for span in spans)]
        k = np.repeat(js, np.diff(ends) * _NODES.size)
        ests, errs = _panels(lambda x: f(x, k), a, b)
        return [(ests[i:j], errs[i:j]) for i, j in zip(ends, ends[1:])]

    refined = lockstep(searches, more, (ConvergenceError, FloatingPointError))
    if failed := [x for x in refined if isinstance(x, Exception)]:
        raise failed[0]
    return [x if s is None else y for x, y, s in zip(total.tolist(), refined, searches)]


def _refine(cuts, ests, errs, settings: QuadratureSettings) -> Generator:
    """:func:`integrate`'s rounds from the panels between ``cuts``, given their
    estimates and errors: a search that yields the ends (a, b) of the next ones."""
    while True:
        # A Python loop: ndarray.sum is pairwise, and the builtin sum of
        # floats is compensated from Python 3.12 on.
        total, total_err = 0.0, 0.0
        for est, err in zip(ests.tolist(), errs.tolist()):
            total += est
            total_err += err
        if not (math.isfinite(total) and math.isfinite(total_err)):
            raise FloatingPointError(f"integral on [{cuts[0]}, {cuts[-1]}] is not "
                                     f"finite (estimate {total!r}, error {total_err!r})")
        if total_err <= max(settings.abs_tol, settings.rel_tol * abs(total)):
            return total
        if len(ests) >= settings.max_subdivisions:
            raise ConvergenceError(
                f"quadrature used {len(ests)} panels without reaching tolerance "
                f"(estimate {total!r}, error {total_err!r})",
                best_estimate=total,
                error_estimate=total_err,
            )
        split = errs >= total_err / len(errs)
        split[np.argmax(errs)] = True
        room = settings.max_subdivisions - len(errs)
        if np.count_nonzero(split) > room:
            # Only the worst panels, left to right among equals, so that the
            # panels never outnumber the budget.
            split[:] = False
            split[np.argsort(-errs, kind="stable")[:room]] = True
        mid = 0.5 * (cuts[:-1][split] + cuts[1:][split])
        cuts = np.insert(cuts, np.flatnonzero(split) + 1, mid)
        # A bisected panel's entries, repeated, are those of its two halves.
        n = split + 1
        ests, errs, split = np.repeat(ests, n), np.repeat(errs, n), np.repeat(split, n)
        ests[split], errs[split] = yield cuts[:-1][split], cuts[1:][split]


def _not_nan(x: float, fx) -> float:
    """f(x) as a Python float; a NaN raises FloatingPointError."""
    fx = float(fx)
    if math.isnan(fx):
        raise FloatingPointError(f"root objective is NaN at x={x!r}")
    return fx


def run_search(search: Generator, f: Callable):
    """The result of one search, sent f at each abscissa it yields."""
    try:
        x = next(search)
        while True:
            x = search.send(f(x))
    except StopIteration as stop:
        return stop.value


def lockstep(searches: Sequence[Generator], evaluate: Callable, catch=()) -> list:
    """The results of many searches (:func:`root_search`, :func:`monotone_search`;
    None is skipped) driven together: each round makes one call ``evaluate(indices,
    xs)`` on what the unfinished searches, by index, wait on, and sends each its
    value, so each returns what it would alone.  A search that raises one of
    ``catch`` has that exception as its result; any other raise, and any raise
    of ``evaluate``, stops all."""
    out = [None] * len(searches)
    live = [i for i, search in enumerate(searches) if search is not None]
    values = [None] * len(live)
    while live:
        js, xs = [], []
        for i, value in zip(live, values):
            try:
                xs.append(searches[i].send(value))
            except StopIteration as stop:
                out[i] = stop.value
            except catch as err:
                out[i] = err
            else:
                js.append(i)
        live, values = js, js and evaluate(js, xs)
    return out


def find_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    x_tol: float = X_TOL,
    f_lo: float | None = None,
    f_hi: float | None = None,
) -> float:
    """Root of a continuous scalar function on a sign-changing bracket, by
    Brent's method.

    ``f_lo`` and ``f_hi``, when given, are the already known values f(lo)
    and f(hi); ``f`` is then not called at that end.  Either way ``f`` is
    called at most once at each end.  An end with |f| <= F_TOL is the root.
    Otherwise the search stops once the root is bracketed to within
    ``x_tol`` + 4 eps |x|, the stopping rule of scipy's ``brentq``.

    Raises BracketError if f(lo) and f(hi) have the same sign,
    FloatingPointError if f is NaN at any point, the ends included, and
    ConvergenceError if MAX_ITER evaluations inside the bracket do not
    converge.
    """
    return run_search(root_search(lo, hi, x_tol, f_lo, f_hi), f)


def root_search(lo: float, hi: float, x_tol: float = X_TOL, g_lo: float | None = None,
                g_hi: float | None = None, target: float = 0.0, f_tol: float = 0.0) -> Generator:
    """:func:`find_root` of g - ``target`` as a generator: it yields each x
    it needs, is sent g(x) and returns the root; g_lo, g_hi are known ends.
    An iterate with |g - target| <= ``f_tol`` is the root; at the default 0
    that is brentq's rule, which stops early only on an exact hit."""
    lo, hi = float(lo), float(hi)
    f_lo = _not_nan(lo, ((yield lo) if g_lo is None else g_lo) - target)
    f_hi = _not_nan(hi, ((yield hi) if g_hi is None else g_hi) - target)
    if abs(f_lo) <= F_TOL:
        return lo
    if abs(f_hi) <= F_TOL:
        return hi
    if (f_lo < 0) == (f_hi < 0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={f_lo!r}, f(hi)={f_hi!r}"
        )

    # brentq.c step for step, in the same arithmetic order.  xcur is the
    # best iterate, xblk the other end of the bracket and xpre the previous
    # iterate; scur and spre are the last two steps.
    xpre, xcur, fpre, fcur = lo, hi, f_lo, f_hi
    xblk = fblk = spre = scur = 0.0
    for i in range(MAX_ITER + 1):
        if (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (x_tol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if abs(fcur) <= f_tol or abs(sbis) < delta:
            return xcur
        if i == MAX_ITER:
            raise ConvergenceError(
                f"root search made {i} evaluations without converging "
                f"(estimate {xcur!r}, bracket half-width {abs(sbis)!r})",
                best_estimate=xcur,
                error_estimate=abs(sbis),
            )

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic step
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (
                    -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                )
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _not_nan(xcur, (yield xcur) - target)


def solve_monotone(g: Callable[[float], float], target: float) -> float:
    """Smallest x >= 0 with g(x) = target, for non-decreasing g: the first x
    tried whose g lies within F_TOL of the target (0 if g(0) already meets it),
    else the root bracketed to X_TOL.  The upper bracket is found by doubling
    steps from 1.  ``g`` is called at most once at any x.
    """
    return run_search(monotone_search(target), g)


def monotone_search(target: float, g_0: float | None = None) -> Generator:
    """:func:`solve_monotone` as a generator, like :func:`root_search`; g_0 is a known g(0)."""
    lo, g_lo = 0.0, (yield 0.0) if g_0 is None else g_0
    if g_lo >= target - F_TOL:
        return lo

    hi, step = 1.0, 1.0
    for _ in range(MAX_ITER):
        g_hi = yield hi
        if g_hi >= target - F_TOL:  # within F_TOL below, root_search's end rule returns hi
            break
        lo, g_lo = hi, g_hi
        step *= 2.0
        hi = lo + step
    else:
        raise BracketError(f"bracket expansion from 0.0 did not reach target {target}")
    return (yield from root_search(lo, hi, X_TOL, g_lo, g_hi, target, F_TOL))


def normal_window(mean: float, lo: float = -math.inf, hi: float = math.inf):
    """[lo, hi] cut to where a normal density at ``mean`` has mass: the upper
    end to at most tail_halfwidth above the mean, then the lower end to at
    most tail_halfwidth below the nearer of the mean and that upper end.
    Finite and infinite ends are cut alike.  An empty window is (lo, lo)."""
    half = QuadratureSettings.tail_halfwidth
    hi = min(hi, mean + half)
    lo = max(lo, min(mean, hi) - half)
    return lo, max(lo, hi)


def resolves(lo: float, hi: float, mean: float) -> bool:
    """Whether floats resolve the window [lo, hi] of an integrand read at
    z - ``mean``: it spans at least 2**16 ulps of the largest of |lo|, |hi|
    and |mean|.  The first round cuts a normal window (at most 17 sds) into
    at most 9 panels, each then over 7,000 of those ulps wide, and no two
    K15 nodes, of one panel or of neighbours, lie closer than 0.0085 of a
    panel: over 60 ulps, so they stay distinct through five bisections."""
    return hi - lo >= 2.0**16 * math.ulp(max(-lo, hi, abs(mean)))
