"""Unit tests for the normal special functions, the adaptive quadrature and
the root-finding helpers."""

import math

import numpy as np
import pytest
import hypothesis
from hypothesis import strategies as st
from mpmath import mp
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from conftest import COMBO_BASE, EVAL_BASE, params_at
from fasttrack import cef as cef_mod
from fasttrack import combination as comb_mod
from fasttrack import numerics
from fasttrack import power as power_mod
from fasttrack.cef import FAMILIES, FASTTRACK_FAMILIES
from fasttrack.numerics import (
    _G7_W,
    _K15_W,
    _NODES,
    DEFAULT_QUAD,
    X_TOL,
    BracketError,
    ConvergenceError,
    QuadratureSettings,
    F_TOL,
    find_root,
    integrate,
    integrate_many,
    lockstep,
    monotone_search,
    normal_window,
    root_search,
    run_search,
    solve_monotone,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)


def erf_cdf(x: float) -> float:
    # Independent oracle through the error function.
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


class TestNormal:
    def test_cdf_landmarks(self):
        assert std_normal_cdf(0.0) == 0.5
        assert std_normal_cdf(1.0364) == pytest.approx(0.85, abs=5e-5)
        assert std_normal_cdf(1.96) == pytest.approx(0.9750, abs=5e-5)
        for x in (-3.3, -0.7, 0.2, 2.9):
            assert std_normal_cdf(x) == pytest.approx(erf_cdf(x), abs=1e-14)

    def test_quantile_landmarks(self):
        assert std_normal_quantile(0.5) == pytest.approx(0.0, abs=1e-14)
        assert std_normal_quantile(0.85) == pytest.approx(1.0364, abs=5e-5)
        assert std_normal_quantile(0.8) == pytest.approx(0.8416, abs=5e-5)

    def test_quantile_inverts_cdf(self):
        x = np.linspace(-6.0, 6.0, 241)
        back = std_normal_quantile(std_normal_cdf(x))
        # The distribution function loses resolution in the far upper tail,
        # so the achievable round-trip accuracy degrades to ~1e-8 at x = 6.
        assert np.max(np.abs(back - x)) <= 2e-8

    def test_domain_errors(self):
        for x in (math.inf, -math.inf, math.nan, np.float64(math.nan), np.float64(-math.inf)):
            with pytest.raises(ValueError):
                std_normal_cdf(x)
        for p in (0.0, 1.0, -0.2, 1.3, math.nan, np.float64(1.0), np.float64(0.0)):
            with pytest.raises(ValueError):
                std_normal_quantile(p)

    def test_pdf(self):
        assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))
        arr = std_normal_pdf(np.array([-1.0, 0.0, 1.0]))
        assert arr[0] == arr[2]


class TestIntegrate:
    def test_total_normal_mass(self):
        assert integrate(std_normal_pdf, *normal_window(0.0)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_upper_tail(self):
        val = integrate(std_normal_pdf, *normal_window(0.0, 1.0364334))
        assert val == pytest.approx(0.15, abs=1e-7)

    def test_first_moment_half_line(self):
        val = integrate(lambda z: z * std_normal_pdf(z), *normal_window(0.0, 0.0))
        assert val == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-10)

    def test_additivity(self):
        f = lambda x: np.exp(-0.5 * x * x) * np.cos(3.0 * x)
        whole = integrate(f, -2.0, 3.0)
        split = integrate(f, -2.0, 0.7) + integrate(f, 0.7, 3.0)
        assert whole == pytest.approx(split, abs=2 * DEFAULT_QUAD.abs_tol)

    def test_split_points_handle_kinks(self):
        f = lambda x: np.abs(x - 0.3) * std_normal_pdf(x)
        a = integrate(f, -1.0, 1.0, split_points=[0.3])
        b = integrate(f, -1.0, 0.3) + integrate(f, 0.3, 1.0)
        assert a == pytest.approx(b, abs=1e-10)
        # Split points outside (lo, hi), infinite or NaN, are ignored.
        ignored = [math.inf, -math.inf, math.nan, -1.0, 1.0, 2.0]
        assert integrate(f, -1.0, 1.0, split_points=ignored) == integrate(f, -1.0, 1.0)
        assert integrate(f, -1.0, 1.0, split_points=[0.3, *ignored]) == a

    def test_convergence_error_carries_estimate(self):
        f = lambda x: np.cos(200.0 * x)
        # [0, 10] starts from five panels, or from the budget's two: budgets
        # of 2 and 5 stop before any bisection, one of 12 after three rounds
        # that bisect 2, 3 and, of the 7 at or above the mean error, the 2
        # worst, at 12 panels.
        for n in (2, 5, 12):
            settings = QuadratureSettings(max_subdivisions=n)
            with pytest.raises(ConvergenceError) as exc_info:
                integrate(f, 0.0, 10.0, settings)
            err = exc_info.value
            assert f"quadrature used {n} panels" in str(err)
            assert math.isfinite(err.best_estimate)
            assert err.error_estimate > 0
            # The estimates at the point of failure, as the one-panel-per-call
            # rule reaches them.
            _, (total, total_err) = _reference_integrate(f, 0.0, 10.0, settings)
            assert err.best_estimate == total
            assert err.error_estimate == total_err

    def test_non_finite_integrand_raises(self):
        with pytest.raises(FloatingPointError):
            integrate(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0)
        # An infinite node makes K15 - G7 inf - inf, which numpy warns of
        # before integrate raises.
        with np.errstate(invalid="ignore"):
            for f in (
                lambda x: np.where(x > 0.5, np.inf, 1.0),
                lambda x: np.where(x > 0.5, -np.inf, 1.0),
                lambda x: np.where(x > 0.5, np.inf, -np.inf),
            ):
                with pytest.raises(FloatingPointError):
                    integrate(f, 0.0, 1.0)

    def test_empty_interval_integrates_to_zero(self):
        assert integrate(std_normal_pdf, 1.0, 1.0) == 0.0

    def test_bad_interval(self):
        for lo, hi in ((-math.inf, 0.0), (0.0, math.inf), (math.nan, 1.0), (2.0, 1.0)):
            with pytest.raises(ValueError):
                integrate(std_normal_pdf, lo, hi)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            QuadratureSettings(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSettings(max_subdivisions=0)


class TestRoots:
    def test_linear(self):
        assert find_root(lambda x: x - 1.0, -5.0, 5.0) == pytest.approx(1.0, abs=1e-9)

    def test_normal_quantile_by_root(self):
        x = find_root(lambda z: std_normal_cdf(z) - 0.85, 0.0, 3.0)
        assert x == pytest.approx(1.0364, abs=1e-4)

    def test_cube_root(self):
        x = find_root(lambda t: t**3 - 2.0, 0.0, 2.0)
        assert x == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-8)

    def test_endpoint_within_f_tol(self):
        assert find_root(lambda x: x, 0.0, 1.0) == 0.0

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, 0.0, 1.0)

    def test_exhausted_budget_raises_convergence_error(self, monkeypatch):
        monkeypatch.setattr(numerics, "MAX_ITER", 2)
        f = CountingFunction(lambda t: t**3 - 2.0)
        with pytest.raises(ConvergenceError) as exc_info:
            find_root(f, 0.0, 2.0)
        err = exc_info.value
        assert len(f.xs) == 2 + 2  # both ends, then max_iter steps
        assert err.best_estimate in f.xs
        assert 0.0 < err.error_estimate < 1.0
        # The root lies in the last bracket, [best, best +- 2 * error].
        assert abs(err.best_estimate - 2.0 ** (1.0 / 3.0)) <= 2.0 * err.error_estimate

    def test_nan_objective_raises_floating_point_error(self):
        def inside_nan(x):
            return x - 1.0 if x in (0.0, 3.0) else math.nan

        for f, kwargs in (
            (inside_nan, {}),
            (lambda x: np.float64(math.nan), {}),  # at a computed end
            (lambda x: x, {"f_lo": math.nan}),  # at a known end
            (lambda x: x - 1.0, {"f_hi": math.nan}),
            (lambda x: x, {"f_lo": 0.0, "f_hi": math.nan}),  # even beside a root
        ):
            with pytest.raises(FloatingPointError):
                find_root(f, 0.0, 3.0, **kwargs)
        # The CLI maps ArithmeticError to its numerical-failure exit code.
        assert issubclass(FloatingPointError, ArithmeticError)


class TestBrentMatchesScipy:
    """find_root is a port of scipy's brentq: for the same bracket and
    tolerance it evaluates the same points and returns the same float."""

    OBJECTIVES = {
        "linear": (lambda x: 3.0 * x - 1.0, ((-5.0, 5.0), (0.0, 1.0), (-1e3, 2.0))),
        "cubic": (
            lambda x: x**3 - 2.0 * x - 5.0,
            ((2.0, 3.0), (0.0, 10.0), (0.01, 3.0), (-4.0, 2.5)),
        ),
        "ndtr": (lambda z: ndtr(z) - 0.975, ((0.0, 3.0), (-8.0, 8.0), (1.5, 40.0))),
        "steep": (
            lambda x: math.tanh(200.0 * (x - 0.3)), ((0.0, 1.0), (-2.0, 0.31), (0.2999, 5.0))
        ),
        "flat": (
            lambda x: (x - 0.7) ** 5, ((0.0, 2.0), (-3.0, 0.8), (0.6, 9.0), (0.1, 10.0))
        ),
    }

    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    @pytest.mark.parametrize("x_tol", (X_TOL, 1e-13))
    def test_same_points_and_root(self, name, x_tol):
        fn, brackets = self.OBJECTIVES[name]
        for lo, hi in brackets:
            ref = CountingFunction(fn)
            want = brentq(ref, lo, hi, xtol=x_tol, maxiter=numerics.MAX_ITER)
            for known in ({}, {"f_lo": fn(lo)}, {"f_lo": fn(lo), "f_hi": fn(hi)}):
                f = CountingFunction(fn)
                got = find_root(f, lo, hi, x_tol, **known)
                assert type(got) is float
                assert got.hex() == float(want).hex()
                # brentq evaluates lo, then hi, then the steps.
                assert f.xs == ref.xs[len(known):]
                assert all(type(x) is float for x in f.xs)

    def test_same_points_until_the_budget_runs_out(self, monkeypatch):
        monkeypatch.setattr(numerics, "MAX_ITER", 5)
        fn = self.OBJECTIVES["flat"][0]
        ref, f = CountingFunction(fn), CountingFunction(fn)
        with pytest.raises(RuntimeError):
            brentq(ref, 0.0, 2.0, xtol=X_TOL, maxiter=5)
        with pytest.raises(ConvergenceError):
            find_root(f, 0.0, 2.0)
        assert f.xs == ref.xs


class TestSolveMonotone:
    def test_identity(self):
        x = solve_monotone(lambda t: t, 5.0)
        assert x == pytest.approx(5.0, abs=1e-8)

    def test_already_satisfied(self):
        x = solve_monotone(lambda t: t + 10.0, 5.0)
        assert x == 0.0

    def test_bounded_function_gives_up(self):
        with pytest.raises(BracketError):
            solve_monotone(math.tanh, 2.0)

    @pytest.mark.parametrize("gap", [0.0, 0.5 * F_TOL, 3.0])
    def test_a_known_g_0_is_never_yielded(self, gap):
        # g(0) at the target, within F_TOL below it and below it: a search
        # given g(0) reads the points after 0 of one sent it, and ends alike.
        target = 5.0
        g = lambda x: target - gap + x**1.5
        ref, given = CountingFunction(g), CountingFunction(g)
        want = run_search(monotone_search(target), ref)
        got = run_search(monotone_search(target, g_0=g(0.0)), given)
        assert type(got) is float and got.hex() == want.hex()
        assert ref.xs[0] == 0.0 and given.xs == ref.xs[1:]


def test_normal_window_cuts_each_infinite_end_and_keeps_finite_ones():
    half = DEFAULT_QUAD.tail_halfwidth
    # An infinite upper end goes half above the mean.
    assert normal_window(1.5) == (1.5 - half, 1.5 + half)
    assert normal_window(1.5, 0.2) == (0.2, 1.5 + half)
    # An infinite lower end goes half below the nearer of the mean and hi.
    assert normal_window(1.5, hi=0.2) == (0.2 - half, 0.2)
    assert normal_window(-3.0, hi=0.2) == (-3.0 - half, 0.2)
    # Finite ends stay.
    assert normal_window(100.0, -1.0, 2.0) == (-1.0, 2.0)
    # A window the cut leaves empty comes back as (lo, lo).
    assert normal_window(0.0, 10.0) == (10.0, 10.0)
    assert normal_window(0.0, 10.0, 3.0) == (10.0, 10.0)


def test_normal_window_cuts_finite_ends_beyond_the_tail():
    half = DEFAULT_QUAD.tail_halfwidth
    # A finite end more than half from the mean is cut like an infinite one,
    # so the window always holds the density's peak.
    assert normal_window(100.0, 0.2) == (100.0 - half, 100.0 + half)
    assert normal_window(0.0, hi=50.0) == (-half, half)
    assert normal_window(6324.6, 3162.3) == (6324.6 - half, 6324.6 + half)
    # An upper end far below the mean is kept; the lower end goes below it.
    assert normal_window(100.0, -50.0, 2.0) == (2.0 - half, 2.0)


class CountingFunction:
    """Wraps a function and records every abscissa it is called at."""

    def __init__(self, fn):
        self.fn = fn
        self.xs = []

    def __call__(self, x):
        self.xs.append(x)
        return self.fn(x)

    def repeated(self):
        return len(self.xs) - len(set(self.xs))


class TestEvaluationReuse:
    def test_find_root_evaluates_each_point_once(self):
        for fn, lo, hi in (
            (lambda x: x - 1.0, -5.0, 5.0),
            (lambda t: t**3 - 2.0, 0.0, 2.0),
            (lambda z: std_normal_cdf(z) - 0.85, 0.0, 3.0),
            (lambda x: x, 0.0, 1.0),  # endpoint root
        ):
            f = CountingFunction(fn)
            find_root(f, lo, hi)
            assert f.repeated() == 0
            assert f.xs[:2] == [lo, hi]

    def test_find_root_uses_known_endpoint_values(self):
        f = CountingFunction(lambda t: t**3 - 2.0)
        want = find_root(lambda t: t**3 - 2.0, 0.0, 2.0)
        got = find_root(f, 0.0, 2.0, f_lo=-2.0, f_hi=6.0)
        assert got == want
        assert 0.0 not in f.xs and 2.0 not in f.xs
        f = CountingFunction(lambda t: t**3 - 2.0)
        assert find_root(f, 0.0, 2.0, f_hi=6.0) == want
        assert f.xs.count(0.0) == 1 and 2.0 not in f.xs

    def test_find_root_known_values_still_checked(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x, 1.0, 2.0, f_lo=1.0, f_hi=2.0)
        assert find_root(lambda x: x, 0.0, 1.0, f_lo=0.0) == 0.0

    def test_solve_monotone_evaluates_each_point_once(self):
        for fn, target in ((lambda t: t, 5.0), (lambda t: t**2, 40.0),
                           (lambda t: 1.0 - math.exp(-t), 0.9)):
            g = CountingFunction(fn)
            x = solve_monotone(g, target)
            assert fn(x) == pytest.approx(target, abs=1e-8)
            assert g.repeated() == 0


def _reference_integrate(f, lo, hi, settings=DEFAULT_QUAD, split_points=()):
    """The adaptive rule evaluated one panel per integrand call: the panel
    order, sums and stopping rule that the batched integrator must repeat.
    Returns (integral, None), or (None, (estimate, error)) where the budget
    runs out."""
    # The G7-K15 pair in the package's node order, the G7 nodes first
    # (TestKronrodRule certifies the constants).
    def panel(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        y = np.asarray(f(mid + half * _NODES))
        # A one-row array summed by rows, as the batched rule sums each panel.
        i15 = half * float((y[None] * _K15_W).sum(axis=1)[0])
        i7 = half * float((y[None, :7] * _G7_W).sum(axis=1)[0])
        return [a, b, i15, abs(i15 - i7)]

    # Each segment between the kinks cut into ceil(width / 2) equal panels,
    # at most the budget.
    kinks = sorted({lo, hi, *(p for p in split_points if lo < p < hi)})
    cuts = []
    for a, b in zip(kinks[:-1], kinks[1:]):
        n = min(math.ceil((b - a) / 2.0), settings.max_subdivisions)
        cuts += [a + (b - a) * (k / n) for k in range(n)]
    cuts.append(hi)
    panels = [panel(a, b) for a, b in zip(cuts[:-1], cuts[1:])]
    while True:
        total, total_err = 0.0, 0.0
        for _, _, est, err in panels:
            total += est
            total_err += err
        if not (math.isfinite(total) and math.isfinite(total_err)):
            raise FloatingPointError(total, total_err)
        if total_err <= max(settings.abs_tol, settings.rel_tol * abs(total)):
            return total, None
        if len(panels) >= settings.max_subdivisions:
            return None, (total, total_err)
        # Every panel at or above the mean error, and the worst one, in
        # halves, left to right; where those outnumber the panels the budget
        # has room for, only that many of the worst, left first among equals.
        mean = total_err / len(panels)
        worst = max(range(len(panels)), key=lambda i: (panels[i][3], -i))
        chosen = {i for i, p in enumerate(panels) if p[3] >= mean or i == worst}
        room = settings.max_subdivisions - len(panels)
        if len(chosen) > room:
            by_error = sorted(range(len(panels)), key=lambda i: (-panels[i][3], i))
            chosen = set(by_error[:room])
        refined = []
        for i, (a, b, est, err) in enumerate(panels):
            if i in chosen:
                mid = 0.5 * (a + b)
                refined += [panel(a, mid), panel(mid, b)]
            else:
                refined.append([a, b, est, err])
        panels = refined


class TestKronrodRule:
    """The panel rule's float constants are the G7-K15 Gauss-Kronrod pair:
    K15 is exact to degree 22 on the seven Gauss nodes and eight others,
    which fixes those eight and all fifteen weights."""

    @staticmethod
    def moment_errors(nodes, weights, degrees):
        """sum w x^k - integral of x^k over [-1, 1], for each k, at 30 digits
        from the float constants, in units of 2^-52."""
        with mp.workdps(30):
            xs, ws = [mp.mpf(float(x)) for x in nodes], [mp.mpf(float(w)) for w in weights]
            return [float((mp.fsum(w * x**k for x, w in zip(xs, ws))
                           - (mp.mpf(2) / (k + 1) if k % 2 == 0 else 0)) * 2**52)
                    for k in degrees]

    def test_exact_to_degree_22_and_13(self):
        g7_x = _NODES[:7]
        k15 = self.moment_errors(_NODES, _K15_W, range(23))
        g7 = self.moment_errors(g7_x, _G7_W, range(14))
        assert max(map(abs, k15 + g7)) <= 4.0, (k15, g7)
        # One degree more is far off, so the degrees are the rules' own.
        for nodes, weights, k in ((_NODES, _K15_W, 24), (g7_x, _G7_W, 14)):
            assert abs(self.moment_errors(nodes, weights, [k])[0]) > 1e6

    def test_constants_are_the_extension_rounded(self):
        # The moment equations to degree 22, solved at 30 digits for the
        # four positive Kronrod nodes and the eight K15 weights of x >= 0,
        # from the float constants: each constant is its solution rounded.
        got = [*_NODES[11:], *_K15_W[3:7], *_K15_W[11:]]
        with mp.workdps(30):
            gauss = [mp.findroot(lambda x: mp.legendre(7, x), mp.mpf(float(x)))
                     for x in _NODES[4:7]]

            def moments(*v):
                kronrod, w_gauss, w_kronrod = v[:4], v[4:8], v[8:]
                xs, ws = [*gauss, *kronrod], [*w_gauss[1:], *w_kronrod]  # x > 0
                # The node at 0 adds its weight to the zeroth moment alone.
                return [(w_gauss[0] if k == 0 else 0) - mp.mpf(2) / (k + 1)
                        + 2 * mp.fsum(w * x**k for x, w in zip(xs, ws))
                        for k in range(0, 23, 2)]

            want = mp.findroot(moments, [mp.mpf(float(x)) for x in got])
            assert [float(x) for x in want] == [float(x) for x in got]

    def test_nodes_are_symmetric_and_interlace(self):
        g7_x, kronrod_x = _NODES[:7], _NODES[7:]
        assert np.array_equal(g7_x, -g7_x[::-1]) and g7_x[3] == 0.0
        assert np.array_equal(kronrod_x, -kronrod_x[::-1])
        assert np.array_equal(_K15_W[:7], _K15_W[6::-1])
        assert np.array_equal(_K15_W[7:], _K15_W[:6:-1])
        # Sorted, the fifteen nodes alternate Kronrod, Gauss, ..., Kronrod.
        order = np.argsort(_NODES)
        assert np.all(np.diff(_NODES[order]) > 0)
        assert np.array_equal(order >= 7, np.arange(15) % 2 == 0)


class TestBatchedPanels:
    @staticmethod
    def kinked(x):
        return np.maximum(2.0, 1.0 / np.abs(x - 0.3) ** 0.5) * std_normal_pdf(x) + np.abs(
            x - 1.7
        )

    def test_equals_per_panel_reference_bit_for_bit(self):
        cases = [
            (self.kinked, *normal_window(0.0), ()),
            (self.kinked, -1.0, 4.0, (0.3, 1.7)),
            (self.kinked, 0.31, 2.5, (1.7, 9.0)),
            (lambda x: np.cos(7.0 * x) * std_normal_pdf(x), -3.0, 2.0, (0.0,)),
        ]
        for f, lo, hi, splits in cases:
            want, _ = _reference_integrate(f, lo, hi, split_points=splits)
            assert want is not None
            assert integrate(f, lo, hi, split_points=splits) == want

    def test_several_panels_per_integrand_call(self):
        f = CountingFunction(self.kinked)
        integrate(f, -1.0, 4.0, split_points=(0.3, 1.7))
        sizes = [np.size(x) for x in f.xs]
        # The initial panels at once: [-1, 0.3] and [0.3, 1.7] whole, and
        # [1.7, 4] in two halves, none of them wider than 2.
        assert sizes[0] == 4 * _NODES.size
        # Then both halves of each panel a round bisects, ...
        assert all(n % (2 * _NODES.size) == 0 for n in sizes[1:])
        assert max(sizes[1:]) > 2 * _NODES.size
        # ... which are the panels the one-panel-per-call rule evaluates.
        ref = CountingFunction(self.kinked)
        _reference_integrate(ref, -1.0, 4.0, split_points=(0.3, 1.7))
        assert np.array_equal(np.concatenate(f.xs), np.concatenate(ref.xs))

    def test_paper_designs_settle_in_about_one_call_per_integral(self, monkeypatch):
        # Building and evaluating the seven paper designs integrates on
        # normal windows only; panels at most two sds wide meet the
        # tolerances from the first integrand call almost everywhere.
        counts = {"integrals": 0, "calls": 0}

        def counted(f, *args, **kwargs):
            def f_counted(x):
                counts["calls"] += 1
                return f(x)

            counts["integrals"] += 1
            return integrate(f_counted, *args, **kwargs)

        for module in (cef_mod, power_mod, comb_mod):
            monkeypatch.setattr(module, "integrate", counted)
        p = params_at(EVAL_BASE, 0.6)
        for family in FASTTRACK_FAMILIES:
            power_mod.evaluate_design(p, power_mod.build_fasttrack(p, family).rule)
        p = params_at(COMBO_BASE, 0.5)
        for family in FAMILIES:
            comb_mod.branch_metrics(comb_mod.build_combination(p, family))
        assert counts["integrals"] > 100
        assert counts["calls"] <= 1.05 * counts["integrals"], counts


class TestNormalInputForms:
    # The checks and conversions the array fast paths must not change.
    @staticmethod
    def old_cdf(x):
        if np.isscalar(x) or isinstance(x, float):
            return float(ndtr(x))
        return ndtr(np.asarray(x, dtype=float))

    @staticmethod
    def old_quantile(p):
        if np.isscalar(p) or isinstance(p, float):
            return float(ndtri(p))
        return ndtri(np.asarray(p, dtype=float))

    @staticmethod
    def old_pdf(x):
        x = np.asarray(x, dtype=float)
        out = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        return float(out) if out.ndim == 0 else out

    @staticmethod
    def same(got, want):
        assert type(got) is type(want)
        np.testing.assert_array_equal(got, want)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape

    def test_same_values_and_types_as_before(self):
        xs = [0.3, -1.2, 2.5]
        ps = [0.3, 0.975, 0.5]
        inputs = (
            (xs, ps),
            (np.array(0.7), np.array(0.8)),
            (np.float64(0.7), np.float64(0.8)),
            (0.7, 0.8),
            (np.array(xs), np.array(ps)),
            (np.array([1, 2]), np.array([0.25, 0.75], dtype=np.float32)),
            (np.linspace(-3.0, 3.0, 12).reshape(3, 4), np.linspace(0.1, 0.9, 6)[::2]),
        )
        for x, p in inputs:
            self.same(std_normal_cdf(x), self.old_cdf(x))
            self.same(std_normal_quantile(p), self.old_quantile(p))
            self.same(std_normal_pdf(x), self.old_pdf(x))


def _piecewise(kinks, jumps, slopes, wave):
    """A smooth wave plus, at each kink, a jump and a bend."""
    def f(x):
        y = wave[0] * np.cos(wave[1] * x) * np.exp(-0.5 * x * x)
        for k, jump, slope in zip(kinks, jumps, slopes):
            y = y + jump * (x > k) + slope * np.abs(x - k)
        return y

    return f


_coef = st.floats(-3.0, 3.0)


class TestRefinementProperty:
    @hypothesis.settings(derandomize=True, deadline=None, max_examples=150)
    @hypothesis.given(
        lo=st.floats(-6.0, 6.0),
        width=st.floats(1e-3, 12.0),
        kinks=st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=3),
        jumps=st.lists(_coef, min_size=3, max_size=3),
        slopes=st.lists(_coef, min_size=3, max_size=3),
        wave=st.tuples(_coef, st.floats(0.0, 30.0)),
        passed=st.lists(st.booleans(), min_size=3, max_size=3),
        extra=st.lists(st.floats(-7.0, 7.0), max_size=2),
        budget=st.integers(1, 60),
    )
    def test_equals_the_one_panel_reference(
        self, lo, width, kinks, jumps, slopes, wave, passed, extra, budget
    ):
        # Random piecewise-smooth integrands, with some of their kinks and
        # some other points as split points, under random budgets.
        f = _piecewise(kinks, jumps, slopes, wave)
        hi = lo + width
        splits = [k for k, p in zip(kinks, passed) if p] + extra
        quad = QuadratureSettings(max_subdivisions=budget)
        want, failed = _reference_integrate(f, lo, hi, quad, splits)
        if want is not None:
            assert integrate(f, lo, hi, quad, splits) == want
        else:
            with pytest.raises(ConvergenceError) as exc_info:
                integrate(f, lo, hi, quad, splits)
            err = exc_info.value
            assert (err.best_estimate, err.error_estimate) == failed


# The batch properties below skip the shrink phase: on a scratch copy with a
# broken lockstep or integrate_many, shrinking a failing batch ran for
# minutes and grew to hundreds of MB, and a batch of at most ten searches or
# five windows reads well unshrunk.
_BATCH_SETTINGS = hypothesis.settings(
    derandomize=True, deadline=None, max_examples=100,
    phases=[hypothesis.Phase.explicit, hypothesis.Phase.reuse, hypothesis.Phase.generate],
)


def _recorded(fns, searches):
    """lockstep over ``searches``, search i evaluating ``fns[i]``; returns
    the abscissas each search was evaluated at (a raise is re-raised with
    them attached as ``err.points``)."""
    points = [[] for _ in fns]

    def evaluate(indices, xs):
        assert len(set(indices)) == len(indices)
        for i, x in zip(indices, xs):
            points[i].append(x)
        return [fns[i](x) for i, x in zip(indices, xs)]

    try:
        return lockstep(searches, evaluate), points
    except Exception as err:
        err.points = points
        raise


class TestLockstepProperty:
    """lockstep drives each search through the points, in the order, and to
    the float that it reaches alone, in a batch of Brent and monotone
    searches."""

    _brent = st.tuples(
        st.floats(-5.0, 5.0),  # root
        st.floats(0.0, 8.0), st.floats(0.0, 8.0),  # its distance to lo and hi
        st.floats(1e-3, 4.0), st.floats(0.0, 2.0),  # slope and cubic term
        st.booleans(),  # decreasing instead
        st.sampled_from((X_TOL, 1e-13)),
        st.sampled_from(("", "lo", "hi", "both")),  # known end values
    )
    _monotone = st.tuples(
        st.floats(0.0, 60.0),  # solution
        st.floats(1e-2, 5.0), st.floats(0.5, 3.0),  # scale and power
        st.floats(-2.0, 2.0),  # g(0)
    )

    @staticmethod
    def brent(root, d_lo, d_hi, slope, cube, decreasing, x_tol, known):
        sign = -1.0 if decreasing else 1.0
        f = lambda x: sign * (slope * (x - root) + cube * (x - root) ** 3)
        lo, hi = root - d_lo, root + d_hi
        ends = {"f_lo": f(lo) if known in ("lo", "both") else None,
                "f_hi": f(hi) if known in ("hi", "both") else None}
        return (f, lambda g: find_root(g, lo, hi, x_tol, **ends),
                lambda: root_search(lo, hi, x_tol, ends["f_lo"], ends["f_hi"]))

    @staticmethod
    def monotone(solution, scale, power, g0):
        g = lambda x: g0 + scale * x**power
        target = g(solution)
        return g, lambda h: solve_monotone(h, target), lambda: monotone_search(target)

    @_BATCH_SETTINGS
    @hypothesis.given(brents=st.lists(_brent, max_size=4),
                      monotones=st.lists(_monotone, max_size=4),
                      order=st.randoms(use_true_random=False))
    def test_same_points_and_floats_as_alone(self, brents, monotones, order):
        cases = [self.brent(*b) for b in brents] + [self.monotone(*m) for m in monotones]
        # An end within F_TOL of the root, and a g(0) that meets the target.
        cases.append((lambda x: x + 0.5 * F_TOL, lambda g: find_root(g, 0.0, 3.0),
                      lambda: root_search(0.0, 3.0)))
        cases.append(self.monotone(0.0, 1.0, 1.0, 0.3))
        order.shuffle(cases)
        fns = [f for f, _, _ in cases]
        got, points = _recorded(fns, [search() for _, _, search in cases])
        for (f, alone, _), x, xs in zip(cases, got, points):
            ref = CountingFunction(f)
            want = alone(ref)
            assert type(x) is float and x.hex() == want.hex()
            assert xs == ref.xs

        # A bracket without a sign change raises BracketError, as alone;
        # up to then every search has stepped as it would alone.
        bad = (lambda x: x * x + 1.0, 0.0, 1.0)
        with pytest.raises(BracketError):
            find_root(*bad)
        searches = [search() for _, _, search in cases] + [root_search(*bad[1:])]
        with pytest.raises(BracketError) as exc_info:
            _recorded(fns + [bad[0]], searches)
        for (f, alone, _), xs in zip(cases, exc_info.value.points):
            ref = CountingFunction(f)
            alone(ref)
            assert xs == ref.xs[:len(xs)]

    def test_none_is_skipped_and_no_search_makes_no_call(self):
        def evaluate(indices, xs):
            assert indices == [1]
            return [x - 1.0 for x in xs]

        assert lockstep([None, root_search(0.0, 3.0), None], evaluate) == [None, 1.0, None]
        assert lockstep([], None) == [] and lockstep([None], None) == [None]

    @pytest.mark.parametrize("catch", [(BracketError,), ()])
    def test_a_lone_search_that_raises_as_in_the_general_loop(self, catch):
        # One live search's raise is its result inside ``catch`` and stops
        # lockstep outside it, as among other searches.
        fns = [None, lambda x: x * x + 1.0, None, lambda x: x - 1.0]

        def run(searches):
            evaluate = lambda indices, xs: [fns[i](x) for i, x in zip(indices, xs)]
            try:
                return lockstep(searches, evaluate, catch)
            except BracketError as err:
                return err

        alone = run([None, root_search(0.0, 1.0), None, None])
        batch = run([None, root_search(0.0, 1.0), None, root_search(0.0, 3.0)])
        if catch:  # the raise is search 1's result, in both
            assert alone[0] is alone[2] is alone[3] is None and batch[3] == 1.0
            alone, batch = alone[1], batch[1]
        assert type(alone) is type(batch) is BracketError
        assert str(alone) == str(batch)

    @pytest.mark.parametrize("live", [1, 2])
    def test_a_raise_of_evaluate_stops_all_though_in_catch(self, live):
        # ``catch`` holds the searches' own raises: a raise of ``evaluate``
        # stops lockstep with one live search as with two.
        def evaluate(indices, xs):
            raise BracketError("evaluate failed")

        searches = [None, root_search(0.0, 1.0), None, *(root_search(0.0, 3.0)
                                                         for _ in range(live - 1))]
        with pytest.raises(BracketError, match="evaluate failed"):
            lockstep(searches, evaluate, (BracketError,))


def _brentq_monotone(g, target: float) -> float:
    """solve_monotone without the F_TOL stop past g(0): doubling steps from 1
    until g meets the target itself, then brentq's steps to the end."""
    lo, g_lo = 0.0, g(0.0)
    if g_lo >= target - F_TOL:
        return lo
    hi, step = 1.0, 1.0
    while (g_hi := g(hi)) < target:
        lo, g_lo, step = hi, g_hi, 2.0 * step
        hi = lo + step
    return find_root(lambda x: g(x) - target, lo, hi, f_lo=g_lo - target, f_hi=g_hi - target)


class TestEarlyStop:
    """The floor, waive and level searches stop at the first iterate within
    F_TOL of their target: brentq's closing step, which only brackets an
    iterate that already meets it, is not taken."""

    G = staticmethod(lambda x: 1.0 - math.exp(-x))  # its doubling bracket for 0.9 is [1, 3]

    def brentq_points(self) -> tuple[list[float], int]:
        """brentq's points for G = 0.9 on [1, 3], and the index of the first within F_TOL."""
        full = CountingFunction(self.G)
        find_root(lambda x: full(x) - 0.9, 1.0, 3.0)
        first = next(i for i, x in enumerate(full.xs) if abs(self.G(x) - 0.9) <= F_TOL)
        assert 2 < first < len(full.xs) - 1
        return full.xs, first

    def test_monotone_search_returns_the_first_point_within_f_tol(self):
        xs, first = self.brentq_points()
        g = CountingFunction(self.G)
        assert solve_monotone(g, 0.9) == xs[first]
        assert g.xs == [0.0, *xs[:first + 1]]

    def test_a_doubling_step_within_f_tol_below_the_target_is_returned_at_once(self):
        g = CountingFunction(lambda x: x)
        assert solve_monotone(g, 3.0 + 0.5 * F_TOL) == 3.0
        assert g.xs == [0.0, 1.0, 3.0]

    def test_calibration_search_returns_the_first_level_within_f_tol(self):
        xs, first = self.brentq_points()
        levels = CountingFunction(self.G)
        search = cef_mod.calibration_search(lambda c: cef_mod.CalibratedCef(None, c=c),
                                            0.9, 1.0, 3.0)
        got = run_search(search, levels)
        # The level at hi comes first, then root_search's lo.
        assert levels.xs == [3.0, 1.0, *xs[2:first + 1]]
        assert got.c == xs[first] and got.level_used == self.G(xs[first])

    def test_a_lone_search_and_a_lockstep_column_stop_at_the_same_iterate(self):
        # Stops in Brent's steps, at a doubling step and at g(0), beside a
        # calibration that stops in Brent's steps.
        cases = [
            (self.G, lambda: monotone_search(0.9)),
            (lambda x: x, lambda: monotone_search(3.0 + 0.5 * F_TOL)),
            (lambda x: 0.5 + self.G(x), lambda: monotone_search(0.5 + 0.5 * F_TOL)),
            (self.G, lambda: monotone_search(0.25)),
            (self.G, lambda: cef_mod.calibration_search(
                lambda c: cef_mod.CalibratedCef(None, c=c), 0.9, 1.0, 3.0)),
        ]
        got, points = _recorded([f for f, _ in cases], [search() for _, search in cases])
        for (f, search), x, xs in zip(cases, got, points):
            alone = CountingFunction(f)
            assert repr(x) == repr(run_search(search(), alone))
            assert xs == alone.xs

    @_BATCH_SETTINGS
    @hypothesis.given(root=st.floats(0.0, 60.0), scale=st.floats(2.0, 50.0),
                      z=st.floats(-1.5, 1.5))
    @hypothesis.example(root=3.0, scale=2.0, z=0.0)  # a doubling step on the root
    def test_within_x_tol_of_brentq_and_never_more_evaluations(self, root, scale, z):
        # A probability g, a normal distribution function with its target at
        # the root, where its slope is at least 2 phi(1.5) = 0.26: a point
        # within F_TOL of the target lies within 4e-10 of the root.  The early
        # search's points are the first of brentq's.
        g = lambda x: float(ndtr(scale * (x - root) + z))
        target = float(ndtr(z))
        full, early = CountingFunction(g), CountingFunction(g)
        want = _brentq_monotone(full, target)
        got = solve_monotone(early, target)
        assert abs(got - want) <= X_TOL
        assert early.xs == full.xs[:len(early.xs)]


def _by_window(fs, calls=None):
    """An integrate_many integrand that evaluates ``fs[j]`` at the nodes of
    the panels of window j, recording each call's size in ``calls``."""
    def f(x, k):
        if calls is not None:
            calls.append(np.size(x))
        y = np.empty_like(x)
        for j in set(k.ravel().tolist()):
            rows = k[:, 0] == j
            y[rows] = fs[j](x[rows])
        return y

    return f


def _columns(spans):
    """integrate_many's ends and NaN-padded kinks of (lo, hi, split_points) windows."""
    width = max((len(span[2]) for span in spans), default=0)
    kinks = [[*span[2], *[math.nan] * (width - len(span[2]))] for span in spans]
    return ([span[0] for span in spans], [span[1] for span in spans],
            np.array(kinks).reshape(len(spans), width))


class TestIntegrateManyProperty:
    """integrate_many returns, window by window, the floats integrate
    returns, and raises where the first window that fails raises."""

    _window = st.tuples(
        st.floats(-6.0, 6.0),  # lo
        st.sampled_from((0.0, 1e-3, 0.5, 3.0, 12.0)),  # width; 0 is empty
        st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=3),  # kinks
        st.lists(_coef, min_size=3, max_size=3),  # jumps
        st.lists(_coef, min_size=3, max_size=3),  # slopes
        st.tuples(_coef, st.floats(0.0, 30.0)),  # wave
    )

    @_BATCH_SETTINGS
    @hypothesis.given(windows=st.lists(_window, min_size=1, max_size=5),
                      budget=st.sampled_from((3, 12, 60, 400)))
    def test_equals_integrate_window_by_window(self, windows, budget):
        fs = [_piecewise(kinks, jumps, slopes, wave)
              for _, _, kinks, jumps, slopes, wave in windows]
        spans = [(lo, lo + width, kinks[:2]) for lo, width, kinks, *_ in windows]
        quad = QuadratureSettings(max_subdivisions=budget)
        want, failed = [], None
        for g, (lo, hi, splits) in zip(fs, spans):
            try:
                want.append(integrate(g, lo, hi, quad, splits))
            except ConvergenceError as err:
                failed = err
                break
        if failed is None:
            got = integrate_many(_by_window(fs), *_columns(spans), quad)
            assert [x.hex() for x in got] == [x.hex() for x in want]
        else:
            with pytest.raises(ConvergenceError) as exc_info:
                integrate_many(_by_window(fs), *_columns(spans), quad)
            err = exc_info.value
            assert (err.best_estimate, err.error_estimate) == (
                failed.best_estimate, failed.error_estimate)

    def test_empty_refining_and_failing_windows(self):
        wave = _piecewise([0.3], [1.0], [2.0], (1.0, 25.0))
        cos200 = lambda x: np.cos(200.0 * x)
        calls = []
        got = integrate_many(_by_window([np.exp, wave], calls),
                             *_columns([(1.0, 1.0, ()), (-2.0, 2.0, (0.3,))]))
        assert got == [0.0, integrate(wave, -2.0, 2.0, split_points=(0.3,))]
        # One call for both windows' initial panels, then the wave window's
        # rounds alone, each on both halves of the panels it bisects.
        assert len(calls) > 1 and all(n % (2 * _NODES.size) == 0 for n in calls[1:])
        # The first window that fails raises, with the estimates it reaches
        # alone.
        quad = QuadratureSettings(max_subdivisions=12)
        with pytest.raises(ConvergenceError) as exc_info:
            integrate_many(_by_window([np.exp, cos200, wave]),
                           *_columns([(1.0, 1.0, ()), (0.0, 10.0, ()), (-2.0, 2.0, (0.3,))]),
                           quad)
        with pytest.raises(ConvergenceError) as alone:
            integrate(cos200, 0.0, 10.0, quad)
        got, want = exc_info.value, alone.value
        assert (got.best_estimate, got.error_estimate) == (want.best_estimate,
                                                           want.error_estimate)
        assert integrate_many(_by_window([]), *_columns([])) == []

    def test_k_is_each_panels_window(self):
        # One window; several windows; and a column whose cos200 window
        # still refines, alone, after the smooth ones have settled.  Every
        # call gets x as a (panels, 15) array, a panel's nodes a row, and k
        # as a (panels, 1) integer array, one window index per panel.
        cos200 = lambda x: np.cos(200.0 * x)
        for fs, spans in (([np.exp], [(0.0, 1.0, ())]),
                          ([np.exp, np.cos], [(0.0, 1.0, ()), (-1.0, 3.0, (0.5,))]),
                          ([np.exp, cos200, std_normal_pdf],
                           [(0.0, 1.0, ()), (0.0, 2.0, ()), (*normal_window(0.0), ())])):
            ks, by_window = [], _by_window(fs)
            got = integrate_many(lambda x, k: ks.append((x, k)) or by_window(x, k),
                                 *_columns(spans))
            assert got == [integrate(g, lo, hi, split_points=s)
                           for g, (lo, hi, s) in zip(fs, spans)]
            lo, hi = (np.array([span[i] for span in spans]) for i in (0, 1))
            for x, k in ks:
                assert type(k) is np.ndarray and k.dtype.kind == "i"
                assert x.shape == (len(k), _NODES.size) and k.shape == (len(x), 1)
                assert ((lo[k] <= x) & (x <= hi[k])).all()
        # The cos200 window's rounds alone.
        assert len(ks) > 2 and all((k == 1).all() for _, k in ks[1:])

    def test_windows_refine_together(self):
        # Two windows that each refine over several rounds: every round is
        # one integrand call on the nodes of both, and each window still
        # gets the float integrate returns for it.
        fs = [_piecewise([0.3], [1.0], [2.0], (1.0, 25.0)), lambda x: np.cos(40.0 * x)]
        spans = [(-2.0, 2.0, (0.3,)), (0.0, 6.0, ())]
        calls, alone = [], [[], []]
        got = integrate_many(_by_window(fs, calls), *_columns(spans))
        want = [integrate(lambda x, f=f, sizes=sizes: sizes.append(x.size) or f(x), lo, hi,
                          split_points=splits)
                for f, sizes, (lo, hi, splits) in zip(fs, alone, spans)]
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert min(len(sizes) for sizes in alone) > 2
        assert len(calls) == max(len(sizes) for sizes in alone)
        assert sum(calls) == sum(map(sum, alone))

    # The array first round: windows whose split points lie outside (lo, hi),
    # at its ends, repeated, infinite or NaN; wide windows of many panels,
    # whose sums a pairwise or blocked summation would reorder; budgets at
    # or below the first round's panels; and integrands that settle at once,
    # refine, or are NaN somewhere.
    _edge_window = st.tuples(
        st.floats(-6.0, 6.0),  # lo
        st.sampled_from((0.0, 1e-3, 0.7, 3.0, 12.0, 33.0)),  # width; 0 is empty
        st.lists(st.one_of(st.floats(-0.5, 1.5),  # split points, as fractions of the width
                           st.sampled_from((0.0, 1.0, math.inf, -math.inf, math.nan))),
                 max_size=4),
        st.booleans(),  # repeat the first split point
        st.sampled_from(("smooth", "kinked", "nan")),
        st.floats(0.0, 1.0),  # where the integrand bends or turns NaN, as a fraction
        st.lists(_coef, min_size=3, max_size=3),
    )

    @staticmethod
    def edge_case(lo, width, fractions, repeat, shape, at, coef):
        hi, c = lo + width, lo + at * width
        splits = [lo + u * width for u in fractions]
        if repeat and splits:
            splits.append(splits[0])
        if shape == "smooth":
            f = lambda x: 1.3 + np.cos(0.5 * (x - c))
        elif shape == "kinked":
            f = _piecewise([c], coef, coef, (coef[0], 25.0))
        else:
            f = lambda x: np.where(x > c, np.nan, coef[0])
        return f, (lo, hi, splits)

    @staticmethod
    def outcome(call):
        """The floats a call returns by hex, or its failure by type and message."""
        try:
            got = call()
        except (ConvergenceError, FloatingPointError) as err:
            return type(err), str(err)
        return [x.hex() for x in got] if isinstance(got, list) else got.hex()

    @_BATCH_SETTINGS
    @hypothesis.given(windows=st.lists(_edge_window, min_size=1, max_size=5),
                      budget=st.sampled_from((1, 3, 12, 400, 400)))
    def test_array_first_round_equals_integrate(self, windows, budget):
        cases = [self.edge_case(*w) for w in windows]
        quad = QuadratureSettings(max_subdivisions=budget)
        alone = [self.outcome(lambda: integrate(f, *span[:2], quad, span[2]))
                 for f, span in cases]
        # The lowest window that fails raises ...
        failed = [x for x in alone if isinstance(x, tuple)]
        fs, spans = zip(*cases)
        if failed:
            assert self.outcome(
                lambda: integrate_many(_by_window(fs), *_columns(spans), quad)) == failed[0]
        # ... and the others give integrate's floats.
        ok = [(case, x) for case, x in zip(cases, alone) if not isinstance(x, tuple)]
        fs, spans = [f for (f, _), _ in ok], [span for (_, span), _ in ok]
        assert self.outcome(lambda: integrate_many(_by_window(fs), *_columns(spans), quad)) == [
            x for _, x in ok]

    def test_windows_that_settle_at_once_cost_one_call(self):
        # Normal windows with kinks, an empty window, and split points to
        # ignore: every window settles in the first round, in one call.
        fs = [std_normal_pdf, lambda x: np.abs(x - 0.3) * std_normal_pdf(x), np.cos,
              lambda x: std_normal_pdf(x - 1.0)]
        spans = [(*normal_window(0.0), ()), (-2.0, 2.0, [0.3, 0.3, math.nan, 9.0]),
                 (1.0, 1.0, ()), (*normal_window(1.0, 0.5), [-math.inf, 1.5])]
        calls = []
        got = integrate_many(_by_window(fs, calls), *_columns(spans))
        assert len(calls) == 1
        assert [x.hex() for x in got] == [
            integrate(f, lo, hi, split_points=s).hex() for f, (lo, hi, s) in zip(fs, spans)]

    def test_two_failing_windows_raise_the_lower(self):
        # Window 1 fails only after refining; windows 2 and 3 fail in the
        # first round, one not finite, one already at its budget (two
        # segments of 5 panels against 6).  The lower failing window raises,
        # as integrate raises it.
        quad = QuadratureSettings(max_subdivisions=6)
        fs = [std_normal_pdf, lambda x: np.cos(40.0 * x),
              lambda x: np.where(x > 0.2, np.nan, 1.0), lambda x: np.cos(200.0 * x)]
        spans = [(-1.0, 1.0, ()), (0.0, 6.0, ()), (0.0, 1.0, ()), (0.0, 20.0, (10.0,))]
        for first, error in ((1, ConvergenceError), (2, FloatingPointError),
                             (3, ConvergenceError)):
            with pytest.raises(error) as alone:
                integrate(fs[first], *spans[first][:2], quad, spans[first][2])
            with pytest.raises(error) as batch:
                integrate_many(_by_window(fs[:1] + fs[first:]),
                               *_columns(spans[:1] + spans[first:]), quad)
            assert str(batch.value) == str(alone.value)
        assert "used 10 panels" in str(alone.value)

    def test_a_float_end_is_every_windows(self):
        # A column whose designs share an end passes it as one float.
        fs = [np.cos, np.exp, std_normal_pdf]
        spans = [(0.5, 1.0, ()), (0.5, 3.0, (1.5,)), (0.5, 8.0, (2.0, 6.0))]
        _, hi, kinks = _columns(spans)
        assert [x.hex() for x in integrate_many(_by_window(fs), 0.5, hi, kinks)] == [
            integrate(f, lo, hi, split_points=s).hex() for f, (lo, hi, s) in zip(fs, spans)]

    def test_an_invalid_window_raises_before_any_call(self):
        calls = []
        with pytest.raises(ValueError, match=r"got \[2.0, 1.0\]"):
            integrate_many(_by_window([np.cos] * 3, calls),
                           *_columns([(0.0, 1.0, ()), (2.0, 1.0, ()), (0.0, math.inf, ())]))
        assert calls == []
