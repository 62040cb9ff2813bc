"""Unit tests for the conditional error function families and their
calibration to the overall one-sided level."""

import math
import warnings

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.special import ndtr

from conftest import COMBO_BASE, EVAL_BASE, params_at
from fasttrack import cli
from fasttrack.cef import (
    FASTTRACK_FAMILIES,
    CalibratedCef,
    constant_cef,
    critical_value,
    eval_cef,
    family_cef,
    family_cefs,
    kinks,
    level_integral,
    z_combination_cef,
)
from fasttrack.combination import build_combination
from fasttrack.design import derive
from fasttrack.numerics import find_root, std_normal_cdf, std_normal_quantile
from reference_formulas import atilde_z
from reference_mp import fisher_level

ALPHA = 0.025


class TestCalibrationConstants:
    def test_inverse_normal_unrestricted(self):
        cef = family_cef("inverse_normal", ALPHA)
        assert cef.c == pytest.approx(0.0253, abs=5e-4)
        assert cef.level_used == pytest.approx(ALPHA, abs=1e-9)

    def test_fisher_unrestricted(self):
        cef = family_cef("fisher", ALPHA)
        assert cef.c == pytest.approx(0.0044, abs=5e-4)
        assert cef.level_used == pytest.approx(ALPHA, abs=1e-9)

    def test_crossing_points_with_alpha(self):
        # Where each unrestricted family passes through the flat level alpha.
        inv = family_cef("inverse_normal", ALPHA)
        fis = family_cef("fisher", ALPHA)
        z_inv = find_root(lambda z: eval_cef(inv, float(z)) - ALPHA, 0.0, 2.0)
        z_fis = find_root(lambda z: eval_cef(fis, float(z)) - ALPHA, 0.0, 2.0)
        assert z_inv == pytest.approx(0.8041, abs=1e-3)
        assert z_fis == pytest.approx(0.9382, abs=1e-3)

    def test_binding_calibration_closes_level(self):
        p = params_at(EVAL_BASE, 0.6)
        z_f = p.z_f
        for family in ("inverse_normal", "fisher"):
            cef = family_cef(family, ALPHA, z_f)
            assert level_integral(cef, z_f) == pytest.approx(ALPHA, abs=1e-8)

    def test_small_alpha_level_to_six_digits(self):
        alpha = 1e-7
        rel = family_cef("fisher", alpha).level_used / alpha - 1.0
        assert abs(rel) <= 1e-6, (
            f"level_used / alpha - 1 = {rel:.3g} (measured +1.03e-2)"
        )

    @pytest.mark.parametrize("z0", [-math.inf, 1.04, 2.0, 3.0])
    def test_fisher_closed_form_spends_alpha(self, z0):
        # Fisher's c is solved in closed form, to the last digits of alpha
        # also at levels where a root search on c stops at its absolute
        # tolerance; the 30-digit closed form checks the c itself.
        s = float(ndtr(-z0))
        for alpha in (0.025, 1e-3, 1e-5, 1e-7, 1e-9, 1e-12):
            cef = family_cef("fisher", alpha, z0)
            if 2.0 * alpha >= s:
                assert cef.c == 1.0 and cef.level_used == 0.5 * s
                continue
            assert 0.0 < cef.c < 0.5 * s
            assert abs(cef.level_used / alpha - 1.0) <= 1e-14, alpha
            assert abs(float(fisher_level(cef.c, z0)) / alpha - 1.0) <= 1e-14, alpha

    @pytest.mark.parametrize("z0", [-math.inf, 1.5, 8.6])
    def test_fisher_closed_form_near_saturation(self, z0):
        # At the saturation level (1 - Phi(z0)) / 2 the family saturates at
        # c = 1; a relative d below it, it spends alpha.
        s = float(ndtr(-z0))
        cef = family_cef("fisher", 0.5 * s, z0)
        assert cef.c == 1.0 and cef.level_used == 0.5 * s
        for d in (1e-3, 1e-5, 1e-6, 1e-7, 1e-9, 1e-12, 1e-15):
            alpha = 0.5 * s * (1.0 - d)
            cef = family_cef("fisher", alpha, z0)
            assert cef.c < 0.5 * s
            assert abs(cef.level_used / alpha - 1.0) <= 1e-14, d
            assert abs(float(fisher_level(cef.c, z0)) / alpha - 1.0) <= 1e-14, d

    def test_saturation_records_achieved_level(self):
        # A futility bound so extreme that even the 0.5-capped extreme of the
        # family stays below alpha: calibration must not fail.
        cef = family_cef("inverse_normal", ALPHA, 3.0)
        assert cef.c == 1.0
        assert cef.level_used < ALPHA
        assert cef.level_used == pytest.approx(
            0.5 * (1.0 - std_normal_cdf(3.0)), abs=1e-8
        )


class TestLevelIntegral:
    def test_constant_unrestricted(self):
        cef = constant_cef(ALPHA)
        assert level_integral(cef, -math.inf) == pytest.approx(ALPHA, abs=1e-10)

    def test_constant_raised_on_continuation_region(self):
        # Testing at level alpha / alpha_f above the boundary spends exactly
        # alpha overall.
        p = params_at(EVAL_BASE, 0.6)
        d = derive(p)
        cef = constant_cef(ALPHA / d.alpha_f)
        assert level_integral(cef, d.z_f) == pytest.approx(ALPHA, abs=1e-9)

    def test_z_combination_base_identity(self):
        # The fixed-size combined z-test at level alpha spends alpha for any
        # pair of stage informations.
        from fasttrack.numerics import integrate, normal_window, std_normal_pdf

        rng = np.random.default_rng(11)
        for _ in range(5):
            i1 = rng.uniform(0.2, 4.0)
            i2c = rng.uniform(0.2, 6.0)
            val = integrate(
                lambda z: atilde_z(z, ALPHA, i1, i2c) * std_normal_pdf(z),
                *normal_window(0.0),
            )
            assert val == pytest.approx(ALPHA, abs=1e-9)


class TestShape:
    def _calibrated_all(self):
        p = params_at(COMBO_BASE, 0.5)
        z_f = p.z_f
        out = [
            family_cef("constant", ALPHA),
            family_cef("inverse_normal", ALPHA),
            family_cef("fisher", ALPHA),
            family_cef("inverse_normal", ALPHA, z_f),
            family_cef("fisher", ALPHA, z_f),
            build_combination(p, "z_combination").cef,
        ]
        return out, z_f

    def test_monotone_and_capped(self):
        cefs, _ = self._calibrated_all()
        z = np.linspace(-10.0, 10.0, 10_000)
        for cef in cefs:
            a = eval_cef(cef, z)
            assert np.all(np.diff(a) >= -1e-12)
            assert np.all(a <= 0.5 + 1e-15)
            assert np.all(a >= 0.0)

    def test_binding_families_vanish_below_bound(self):
        cefs, z_f = self._calibrated_all()
        for cef in cefs[3:5]:
            assert eval_cef(cef, z_f - 1e-9) == 0.0
            assert eval_cef(cef, z_f + 1e-9) > 0.0

    def test_cap_kink(self):
        cefs, _ = self._calibrated_all()
        for cef in cefs[1:5]:
            k = kinks(cef)[-1]
            assert eval_cef(cef, k) == pytest.approx(0.5, abs=1e-9)
            assert eval_cef(cef, max(k, 3.0) + 1.0) == 0.5

    def test_kinks_only_where_a_bends(self):
        # In the worked example the level-alpha piece reaches its cap above
        # z_split, where the raised piece applies, so that cap is no kink;
        # at alpha' = 0.3 the raised piece's cap lies below its start.
        p = params_at(COMBO_BASE, 0.5)
        az = build_combination(p, "z_combination")
        (_, a_lo, b), (z_split, a_hi, _) = az.cef.pieces
        assert a_lo / b > z_split
        assert kinks(az.cef) == [-math.inf, z_split, a_hi / b]
        raised = z_combination_cef(p.i1, az.i2_const, z_split, ALPHA, 0.3)
        assert raised.pieces[1][1] / b < z_split
        assert kinks(raised) == [-math.inf, z_split]
        # Fisher: z0, and the cap only above it.
        fisher = family_cef("fisher", ALPHA, 0.5)
        assert kinks(fisher) == [0.5, -std_normal_quantile(2.0 * fisher.c)]
        assert kinks(family_cef("fisher", ALPHA, 3.0)) == [3.0]

    def test_fisher_cap_kink_for_tiny_c(self):
        # 1 - 2c rounds to 1 here, so the cap is written as -Phi^{-1}(2c).
        cef = CalibratedCef(None, c=1e-17)
        z0, cap = kinks(cef)
        assert z0 == -math.inf
        assert cap == pytest.approx(8.4129, abs=1e-4)
        assert std_normal_cdf(-cap) == pytest.approx(2e-17, rel=1e-12)

    def test_raised_branch_level_at_least_alpha(self):
        cefs, _ = self._calibrated_all()
        az = cefs[5]
        assert az.alpha_prime >= ALPHA

    def test_rejection_region_larger_above_boundary(self):
        # The raised level makes the error function jump up at the boundary.
        cefs, z_f = self._calibrated_all()
        az = cefs[5]
        assert eval_cef(az, z_f + 1e-9) > eval_cef(az, z_f - 1e-9)


class TestCombinedTestEquivalence:
    def test_decision_identity_on_grid(self):
        # Rejecting with the fixed combined z-test is the same event as the
        # second-stage z-value exceeding the quantile of its conditional
        # error function.
        i1, i2c, level = 1.2815, 2.1, ALPHA
        w1 = math.sqrt(i1 / (i1 + i2c))
        w2 = math.sqrt(i2c / (i1 + i2c))
        z_alpha = std_normal_quantile(1.0 - level)
        z1 = np.linspace(-5.0, 5.0, 200)
        z2 = np.linspace(-5.0, 5.0, 200)
        a = atilde_z(z1, level, i1, i2c)
        cutoff = std_normal_quantile(1.0 - np.clip(a, 1e-300, 1 - 1e-16))
        combined = w1 * z1[:, None] + w2 * z2[None, :] >= z_alpha
        conditional = z2[None, :] >= cutoff[:, None]
        assert np.array_equal(combined, conditional)


# The per-family formulas that the critical-value table replaced.
def _constant_formula(level):
    return lambda z: np.full_like(z, min(level, 0.5))


def _inverse_normal_formula(c, z0):
    z_c = std_normal_quantile(1.0 - c)

    def formula(z):
        raw = 1.0 - std_normal_cdf((z_c - math.sqrt(0.5) * z) / math.sqrt(0.5))
        return np.where(z >= z0, np.minimum(raw, 0.5), 0.0)

    return formula


def _z_combination_formula(i1, i2_const, z_split, alpha, alpha_prime):
    def formula(z):
        lower = atilde_z(z, alpha, i1, i2_const)
        upper = atilde_z(z, alpha_prime, i1, i2_const)
        return np.minimum(np.where(z >= z_split, upper, lower), 0.5)

    return formula


class TestCriticalValueTable:
    def _table_cefs(self):
        """The table CEFs, each with the family formula it stands for."""
        p = params_at(COMBO_BASE, 0.5)
        z_f = p.z_f
        inv = family_cef("inverse_normal", ALPHA)
        inv_binding = family_cef("inverse_normal", ALPHA, z_f)
        az = build_combination(p, "z_combination")
        az_formula = _z_combination_formula(
            p.i1, az.i2_const, z_f, ALPHA, az.cef.alpha_prime
        )
        cases = [
            (family_cef("constant", ALPHA), _constant_formula(ALPHA)),
            (constant_cef(0.7), _constant_formula(0.7)),  # capped everywhere
            (inv, _inverse_normal_formula(inv.c, -math.inf)),
            (inv_binding, _inverse_normal_formula(inv_binding.c, z_f)),
            (az.cef, az_formula),
        ]
        return cases, z_f

    def _grid(self, z_f):
        near = [z_f + d for d in (-1e-9, 0.0, 1e-9)]
        return np.sort(np.concatenate((np.linspace(-10.0, 10.0, 4001), near)))

    def test_eval_matches_the_family_formulas(self):
        cases, z_f = self._table_cefs()
        z = self._grid(z_f)
        for cef, formula in cases:
            assert np.max(np.abs(eval_cef(cef, z) - formula(z))) <= 1e-15

    def test_critical_value_inverts_eval(self):
        cases, z_f = self._table_cefs()
        cefs = [cef for cef, _ in cases]
        z = self._grid(z_f)
        for cef in cefs:
            a, q = eval_cef(cef, z), critical_value(cef, z)
            # Phi^{-1}(1 - A) written as -Phi^{-1}(A): forming 1 - A would
            # cost up to 1e-5 in q at A = 1e-12.
            mid = (a > 1e-12) & (a < 0.5)
            assert np.allclose(q[mid], -std_normal_quantile(a[mid]), rtol=0, atol=1e-9)
            assert np.array_equal(a == 0.0, q == math.inf)
            assert np.array_equal(a == 0.5, q == 0.0)
        assert np.any(critical_value(cefs[3], z) == math.inf)  # binding
        assert np.all(critical_value(cefs[1], z) == 0.0)  # capped

    def test_scalar_input_gives_float(self):
        cases, z_f = self._table_cefs()
        for cef, _ in cases:
            for z in (z_f - 1.0, z_f, 9.0):
                q = critical_value(cef, z)
                assert type(q) is float and type(eval_cef(cef, z)) is float
                assert q == critical_value(cef, np.array([z]))[0]

    def test_float_path_equals_the_array_path_bit_for_bit(self):
        cases, z_f = self._table_cefs()
        cefs = [cef for cef, _ in cases]
        cefs += [family_cef("fisher", ALPHA), family_cef("fisher", ALPHA, z_f),
                 CalibratedCef(None, c=1e-17), CalibratedCef(None, z0=z_f, c=1e-17)]
        for cef in cefs:
            # Each piece start or z0, each cap, one ulp either side of them.
            bends = [x for x in [cef.z0, *kinks(cef)] if math.isfinite(x)]
            zs = [-math.inf, -40.0, 5.0, 40.0, math.inf]
            zs += [f(x) for x in bends
                   for f in (lambda x: x, lambda x: math.nextafter(x, -math.inf),
                             lambda x: math.nextafter(x, math.inf))]
            for z in zs:
                got = critical_value(cef, z)
                want = critical_value(cef, np.array([z]))[0]
                assert type(got) is float
                assert np.float64(got).tobytes() == want.tobytes(), (cef, z, got, want)

    def test_infinite_z_reads_the_limits_without_warnings(self):
        cases, z_f = self._table_cefs()
        cefs = [cef for cef, _ in cases]
        cefs += [family_cef("fisher", ALPHA), family_cef("fisher", ALPHA, z_f)]
        z = np.array([-math.inf, math.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cef in cefs:
                q, a = critical_value(cef, z), eval_cef(cef, z)
                assert not np.any(np.isnan(q)), cef
                # The limits of A at the far finite ends.
                assert np.array_equal(a, eval_cef(cef, np.array([-1e300, 1e300]))), cef
            # The flat piece is its level's critical value at every z.
            for level in (ALPHA, 0.7):
                q = critical_value(constant_cef(level), z)
                assert np.all(q == std_normal_quantile(1.0 - min(level, 0.5)))

    def test_fisher_has_no_table(self):
        cef = family_cef("fisher", ALPHA, 0.5)
        z = np.linspace(-10.0, 10.0, 4001)
        assert cef.pieces is None
        a = eval_cef(cef, z)
        q = critical_value(cef, z)
        # Read in survival form: q = -Phi^{-1}(A), not Phi^{-1}(1 - A).
        assert np.array_equal(q, -std_normal_quantile(a))

    def test_constant_family_spends_alpha_by_construction(self):
        cef = family_cef("constant", ALPHA)
        assert cef.level_used == ALPHA
        assert level_integral(cef) == pytest.approx(ALPHA, abs=1e-12)
        with pytest.raises(ValueError):
            family_cef("nope", ALPHA)


class TestLemmaPreconditions:
    def test_families_exceed_alpha_at_boundary(self):
        # On the feasible pilot range the calibrated families sit above the
        # flat level at the boundary, the precondition for the maximum
        # information dominance result.
        for xi in (1.75, 2.0):
            base = {**EVAL_BASE, "xi": xi}
            p0 = params_at(base, 1.0)
            d0 = derive(p0)
            t_lo = d0.i1_min / d0.i_delta
            t_hi = d0.i1_max / d0.i_delta
            for t in np.linspace(t_lo * 1.05, t_hi * 0.95, 6):
                p = params_at(base, float(t))
                z_f = p.z_f
                for family in ("inverse_normal", "fisher"):
                    cef = family_cef(family, ALPHA, z_f)
                    assert eval_cef(cef, z_f + 1e-12) > ALPHA


class TestValidation:
    def test_z_combination_requires_positive_informations(self):
        with pytest.raises(ValueError):
            z_combination_cef(0.0, 1.0, 1.0, ALPHA, ALPHA)
        with pytest.raises(ValueError):
            z_combination_cef(1.0, 1.0, math.inf, ALPHA, ALPHA)

    def test_atilde_validation(self):
        with pytest.raises(ValueError):
            atilde_z(0.0, ALPHA, -1.0, 1.0)

    def test_atilde_half_point(self):
        i1, i2c = 1.0, 2.0
        w1 = math.sqrt(i1 / (i1 + i2c))
        z_star = std_normal_quantile(1.0 - ALPHA) / w1
        assert atilde_z(z_star, ALPHA, i1, i2c) == pytest.approx(0.5, abs=1e-12)


class TestCalibrationReuse:
    def test_level_integral_once_per_constant(self, monkeypatch):
        import fasttrack.cef as cef_mod

        p = params_at(COMBO_BASE, 0.5)
        z_f = p.z_f
        cases = [
            ("inverse_normal", -math.inf, {}, "c"),
            ("fisher", z_f, {}, "c"),
            ("inverse_normal", 3.0, {}, "c"),  # saturates
            ("fisher", 3.0, {}, "c"),  # saturates
            ("z_combination", -math.inf,
             dict(i1=p.i1, i2_const=2.0, z_split=z_f), "alpha_prime"),
        ]
        for family, lower, fixed, key in cases:
            seen = []

            def counted(cef, *args, _key=key):
                seen.append(getattr(cef, _key))
                return level_integral(cef, *args)

            monkeypatch.setattr(cef_mod, "level_integral", counted)
            got = family_cef(family, ALPHA, lower, **fixed)
            monkeypatch.undo()
            if family == "fisher":
                # Solved in closed form: no level integral at all, and the
                # level used is Fisher's level formula at c.
                assert seen == []
                want = float(fisher_level(got.c, lower))
                assert got.level_used == pytest.approx(want, rel=1e-14, abs=0.0)
            else:
                assert len(seen) == len(set(seen)) > 0
                assert got.level_used == level_integral(got, lower)


class TestColumnCalibrations:
    @staticmethod
    def count_calibrations(monkeypatch):
        """Record each calibration search a column solve starts, by its
        alpha, bracket and the pieces of the CEF at the bracket's upper end,
        which tell the inverse-normal z0 and the z-combination split and
        informations apart; Fisher's c is solved without a search."""
        import fasttrack.cef as cef_mod

        seen = []
        search = cef_mod.calibration_search

        def counted(cef_at, alpha, lo, hi):
            seen.append((alpha, lo, hi, cef_at(hi).pieces))
            return search(cef_at, alpha, lo, hi)

        monkeypatch.setattr(cef_mod, "calibration_search", counted)
        return seen

    def test_one_calibration_per_key_within_a_curve(self, monkeypatch, write_scenario,
                                                    tmp_path):
        seen = self.count_calibrations(monkeypatch)
        out = tmp_path / "c.csv"
        combination = dict(delta_rel=1.4, xi=1.25, t_xi_i1=0.5, mode="combination")
        for kind, scenario in (
            ("i2_min", write_scenario("fasttrack.txt")),
            ("i2_const", write_scenario("combination.txt", **combination)),
            ("combo_panel", write_scenario("inverse.txt", family="inverse_normal",
                                           **combination)),
            ("combo_panel", write_scenario("zcomb.txt", family="z_combination",
                                           **combination)),
        ):
            seen.clear()
            argv = ["curve", "--scenario", scenario, "--kind", kind, "--out", str(out),
                    "--grid-step", "0.05"]
            assert cli.main(argv) == cli.EXIT_OK
            rows = len(out.read_text().splitlines()) - 1
            assert len(seen) == len(set(seen)) > 0, (kind, scenario)
            if "zcomb" in scenario:
                # One alpha_prime per row: each row's I2_const differs.
                assert len(seen) == rows > 2
            elif kind != "i2_min":
                # The one non-binding calibration serves every row.
                assert rows > 2 and len(seen) == 1

    _key = st.tuples(st.sampled_from((0.025, 1e-3, 0.1)),
                     st.sampled_from((-math.inf, -1.0, 0.5, 1.2, 2.5)))

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=40)
    @hypothesis.given(family=st.sampled_from(FASTTRACK_FAMILIES),
                      keys=st.lists(_key, min_size=1, max_size=6))
    @hypothesis.example(family="inverse_normal",
                        keys=[(0.025, 2.5), (0.025, 1.2), (0.025, 1.2), (1e-3, -math.inf)])
    def test_equals_family_cef_design_by_design(self, family, keys):
        # Duplicate keys are drawn often; z0 = 2.5 saturates the inverse
        # normal at every alpha drawn (0.5 * Phi(-2.5) < 1e-2).
        got = family_cefs(family, [a for a, _ in keys], [z for _, z in keys])
        assert [repr(c) for c in got] == [repr(family_cef(family, a, z)) for a, z in keys]

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=25)
    @hypothesis.given(designs=st.lists(
        st.tuples(st.floats(0.05, 0.9), st.sampled_from((0.3, 1.0, 4.0))),
        min_size=1, max_size=5))
    def test_z_combination_alpha_prime_equals_family_cef(self, designs):
        # (t_xi, I2_const / I1) pairs, a duplicate among them.
        params = [params_at(COMBO_BASE, t) for t, _ in designs + designs[:1]]
        i2s = [p.i1 * r for p, (_, r) in zip(params, designs + designs[:1])]
        fixed = dict(i1=[p.i1 for p in params], i2_const=i2s, z_split=[p.z_f for p in params])
        got = family_cefs("z_combination", [ALPHA] * len(params), **fixed)
        want = [family_cef("z_combination", ALPHA, i1=p.i1, i2_const=x, z_split=p.z_f)
                for p, x in zip(params, i2s)]
        assert [repr(c) for c in got] == [repr(c) for c in want]
