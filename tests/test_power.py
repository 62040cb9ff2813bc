"""Unit tests for stage-two information rules, the overall power integral
and the minimum-information solver."""

import dataclasses
import math
import re
from unittest.mock import patch

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.special import ndtr, ndtri

from conftest import EVAL_BASE, i_delta_of, params_at
from fasttrack import cef as cef_mod
from fasttrack.cef import (
    FASTTRACK_FAMILIES,
    CalibratedCef,
    constant_cef,
    family_cef,
    integrate_each,
    kinks,
    z_combination_cef,
)
from fasttrack.design import DesignParams, cond_registration_power, derive
from fasttrack.montecarlo import SimConfig, simulate
from fasttrack.numerics import X_TOL, BracketError, find_root
from fasttrack.power import (
    AdaptiveConditionalPower,
    InfeasiblePowerError,
    build_fasttrack,
    build_fasttrack_many,
    evaluate_design,
    max_stage2_info,
    mean_stage2_info,
    mean_stage2_infos,
    overall_power,
    overall_powers,
    solve_i2_min,
    solve_i2_min_many,
    stage2_info,
)
from fasttrack.power import _floor_kink, _power_integrand, _upper_at

ALPHA, BETA = 0.025, 0.2
# The fast-track families, a two-piece z-combination table whose pieces
# differ between designs, and a Fisher c with 2c >= 0.5, whose A is capped
# wherever it is positive (no cap kink).
SHAPES = (*FASTTRACK_FAMILIES, "z_combination", "fisher_capped")


def shaped_cef(shape, p, binding):
    """The CEF of ``shape`` for design ``p``, zero below z_f when ``binding``."""
    z0 = p.z_f if binding else -math.inf
    if shape == "z_combination":
        return z_combination_cef(p.i1, 1.5, p.z_f, ALPHA, 0.1)
    if shape == "fisher_capped":
        return CalibratedCef(None, z0=z0, c=0.3)
    return family_cef(shape, ALPHA, z0)


class TestStage2Info:
    def test_conditional_power_formula(self):
        # At the pilot estimate theta_hat = 1.2 the non-adaptive reassessment
        # is eta_f^2 / 1.2^2 regardless of the floor being inactive.
        p = DesignParams(i1=1.18, **EVAL_BASE)
        rule = AdaptiveConditionalPower(0.0, constant_cef(ALPHA))
        z1 = 1.2 * math.sqrt(p.i1)
        eta_f = ndtri(0.8) + ndtri(0.975)
        assert stage2_info(z1, p, rule) == pytest.approx(
            eta_f**2 / 1.2**2, rel=1e-10
        )

    def test_floor_activation(self):
        p = DesignParams(i1=1.0, **EVAL_BASE)
        rule = AdaptiveConditionalPower(5.0, constant_cef(ALPHA))
        assert stage2_info(100.0, p, rule) == 5.0
        assert stage2_info(0.1, p, rule) > 5.0

    def test_vanishes_for_large_estimates(self):
        p = DesignParams(i1=1.0, **EVAL_BASE)
        rule = AdaptiveConditionalPower(0.0, constant_cef(ALPHA))
        assert stage2_info(100.0, p, rule) < 1e-3

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            AdaptiveConditionalPower(i2_min=-1.0, cef=constant_cef(ALPHA))


class TestOverallPower:
    def test_matches_direct_quadrature_for_flat_level(self):
        # Independent oracle: scipy quadrature of the power integrand for the
        # non-adaptive design.
        p = params_at(EVAL_BASE, 0.6)
        rule = AdaptiveConditionalPower(1.7, constant_cef(ALPHA))
        got = overall_power(p, rule)

        q_alpha = ndtri(1.0 - ALPHA)
        eta = ndtri(1.0 - BETA) + q_alpha

        def integrand(z):
            i2 = max(1.7, p.i1 * eta**2 / z**2)
            cond = 1.0 - ndtr(q_alpha - math.sqrt(i2) * p.delta)
            mean = p.delta * math.sqrt(p.i1)
            return cond * math.exp(-0.5 * (z - mean) ** 2) / math.sqrt(2 * math.pi)

        want, _ = scipy_quad(integrand, p.z_f, 20.0, limit=400, epsabs=1e-12)
        assert got == pytest.approx(want, abs=1e-8)

    def test_capped_by_continuation_probability(self):
        p = params_at(EVAL_BASE, 0.6)
        ceiling = cond_registration_power(p)
        # At floor 10 the gap to the ceiling (about 5.5e-6) is representable.
        rule = AdaptiveConditionalPower(10.0, constant_cef(ALPHA))
        assert overall_power(p, rule) < ceiling
        # At floor 50 the conditional power is 1 - Phi(-12.2), which rounds
        # to 1.0 in double precision, so both sides are the same double.
        rule = AdaptiveConditionalPower(50.0, constant_cef(ALPHA))
        assert overall_power(p, rule) <= ceiling

    def test_monotone_in_floor(self):
        p = params_at(EVAL_BASE, 0.6)
        cef = constant_cef(ALPHA)
        powers = [
            overall_power(p, AdaptiveConditionalPower(x, cef))
            for x in (0.0, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(powers, powers[1:]))

    def test_pilot_far_above_the_boundary(self):
        # At I1 = 1e7 the pilot mean (6,325) lies thousands of sds above z_f
        # (3,162): both integrals start at the mean's own tail, not at z_f,
        # and Z1 / sqrt(I1) sits at delta, so the flat-level design at a zero
        # floor has the fixed-design power and information.
        p = DesignParams(i1=1e7, **EVAL_BASE)
        rule = AdaptiveConditionalPower(0.0, constant_cef(ALPHA))
        i_fixed = (ndtri(1.0 - BETA) + ndtri(1.0 - ALPHA)) ** 2 / p.delta**2
        assert overall_power(p, rule) == pytest.approx(0.8, abs=1e-6)
        assert mean_stage2_info(p, rule) == pytest.approx(i_fixed, rel=1e-5)
        # So the floor solve finds its target instead of giving up.
        big = DesignParams(i1=1e8, **EVAL_BASE)
        design = build_fasttrack(big, "constant")
        assert overall_power(big, design.rule) == pytest.approx(0.8, abs=1e-6)

    @pytest.mark.parametrize("i1, mean", [(1e32, "2e+16"), (1e40, "2e+20")])
    @pytest.mark.parametrize("binding", [True, False])
    @pytest.mark.parametrize("family", FASTTRACK_FAMILIES)
    def test_a_mean_beyond_float_resolution_raises_naming_i1(self, family, binding, i1, mean):
        # At I1 = 1e40 the mean of Z1, 2e20, rounds mean +- 8.5 to itself,
        # so the window above z_f is empty in floats, and every power would
        # read 0: the build says so instead of failing its floor's bracket.
        # At I1 = 1e32 the window is 4 ulps of the mean wide, too few for
        # its panels' nodes, and the constant family read power 1.0.
        p = DesignParams(i1=i1, **EVAL_BASE)
        with pytest.raises(FloatingPointError, match=re.escape(
                f"i1 = {i1!r}: at Z1's mean {mean} the window above z_f is too narrow")):
            build_fasttrack(p, family, binding)


class TestSolveFloor:
    def test_reference_floors(self):
        p = params_at(EVAL_BASE, 0.6)
        i_delta = i_delta_of(EVAL_BASE)
        expected = {
            "constant": 1.4062,
            "inverse_normal": 0.3316,
            "fisher": 0.2851,
        }
        for family, t_want in expected.items():
            design = build_fasttrack(p, family)
            assert design.rule.i2_min / i_delta == pytest.approx(t_want, abs=1e-3)

    def test_zero_floor_when_target_already_met(self):
        p = params_at(EVAL_BASE, 0.6)
        cef = constant_cef(ALPHA)
        assert solve_i2_min(p, cef, 0.1) == 0.0

    def test_infeasible_target(self):
        p = params_at(EVAL_BASE, 0.6)
        cef = constant_cef(ALPHA)
        ceiling = cond_registration_power(p)
        with pytest.raises(InfeasiblePowerError):
            solve_i2_min(p, cef, ceiling + 1e-6)

    def test_floor_diverges_near_pilot_lower_bound(self):
        # Approaching the smallest admissible pilot information from above,
        # the solved floor blows up (the power target approaches the
        # continuation probability ceiling).
        d0 = derive(DesignParams(i1=1.0, **EVAL_BASE))
        factors = (1.01, 1.001, 1.0001)
        floors = []
        for f in factors:
            p = DesignParams(**{**EVAL_BASE, "i1": d0.i1_min * f})
            design = build_fasttrack(p, "constant")
            floors.append(design.rule.i2_min / d0.i_delta)
        assert floors[0] < floors[1] < floors[2]
        assert floors[2] > 3.0
        with pytest.raises(InfeasiblePowerError):
            build_fasttrack(
                DesignParams(**{**EVAL_BASE, "i1": d0.i1_min * 0.999}), "constant"
            )


class TestMaxInfo:
    def test_attained_at_boundary_or_floor(self):
        p = params_at(EVAL_BASE, 0.6)
        design = build_fasttrack(p, "fisher")
        z_f = design.branch_boundary
        z = np.linspace(z_f + 1e-9, z_f + 12.0, 2000)
        curve = stage2_info(z, p, design.rule)
        assert max_stage2_info(p, design.rule) >= np.max(curve) - 1e-12

    def test_piecewise_linear_region(self):
        # On the window where the boundary formula dominates the floor, the
        # maximum information is linear in the pilot information.
        for family in ("inverse_normal", "fisher"):
            ts = np.linspace(0.46, 0.54, 5)
            ms = []
            for t in ts:
                p = params_at(EVAL_BASE, float(t))
                design = build_fasttrack(p, family)
                ms.append(max_stage2_info(p, design.rule))
            second = np.diff(ms, n=2)
            assert np.max(np.abs(second)) < 1e-8

    def test_constant_region_for_large_pilots(self):
        # Once the boundary sits in the 0.5-cap region the maximum no longer
        # depends on the pilot information.
        for family in ("inverse_normal", "fisher"):
            vals = []
            for t in (1.5, 1.7, 1.9):
                p = params_at(EVAL_BASE, t)
                design = build_fasttrack(p, family)
                vals.append(max_stage2_info(p, design.rule))
            assert max(vals) - min(vals) < 1e-9


class TestMeanInfo:
    def test_conditioning_variants(self):
        # Stopped trials count with zero information: the mean is the
        # simulated mean over continuing trials times the continuation rate.
        p = params_at(EVAL_BASE, 0.6)
        design = build_fasttrack(p, "fisher")
        mean = mean_stage2_info(p, design.rule)
        rep = simulate(design, SimConfig(n_reps=200_000, seed=20260823, theta=p.delta))
        assert mean == pytest.approx(rep.mean_i2_hat * rep.p_cond_reg_hat, rel=0.02)


class TestManyDesigns:
    # (t_xi, floor / I_delta, binding): zero floors, floors above the
    # formula everywhere, and a binding z0 at each design's own z_f.
    _design = st.tuples(st.floats(0.3, 2.0), st.sampled_from((0.0, 0.05, 0.3, 1.0, 3.0)),
                        st.booleans())
    _settings = hypothesis.settings(derandomize=True, deadline=None, max_examples=50)
    _given = hypothesis.given(shape=st.sampled_from(SHAPES),
                              drawn=st.lists(_design, min_size=1, max_size=5))

    @staticmethod
    def designs(shape, drawn):
        params = [params_at(EVAL_BASE, t) for t, _, _ in drawn]
        rules = [AdaptiveConditionalPower(floor * i_delta_of(EVAL_BASE),
                                          shaped_cef(shape, p, binding))
                 for p, (_, floor, binding) in zip(params, drawn)]
        return params, rules

    @_settings
    @_given
    def test_overall_powers_equal_overall_power(self, shape, drawn):
        params, rules = self.designs(shape, drawn)
        assert [x.hex() for x in overall_powers(params, rules)] == [
            overall_power(p, rule).hex() for p, rule in zip(params, rules)]

    @_settings
    @_given
    def test_mean_stage2_infos_equal_mean_stage2_info(self, shape, drawn):
        params, rules = self.designs(shape, drawn)
        assert [x.hex() for x in mean_stage2_infos(params, rules)] == [
            mean_stage2_info(p, rule).hex() for p, rule in zip(params, rules)]


class TestDesignOnce:
    """A column solve sets each design up once; each round must still
    integrate, for every design, the branch :func:`_upper_at` makes afresh,
    without a setup, for that design's floor."""

    # (t_xi, binding, power target as a share of the continuation
    # probability): zero and positive floors, a column of one shape.
    _design = st.tuples(st.floats(0.3, 2.0), st.booleans(),
                        st.sampled_from((0.5, 0.97, 0.995, 0.9999)))
    _settings = hypothesis.settings(derandomize=True, deadline=None, max_examples=60)

    @staticmethod
    def design(shape, t, binding, share):
        p = params_at(EVAL_BASE, t)
        return p, shaped_cef(shape, p, binding), share * cond_registration_power(p)

    @_settings
    @hypothesis.given(shape=st.sampled_from(SHAPES), drawn=st.lists(_design, min_size=1,
                                                                    max_size=3))
    def test_every_round_yields_the_fresh_branch(self, shape, drawn):
        params, cefs, targets = zip(*(self.design(shape, *d) for d in drawn))
        rounds = []

        def recorder(f, branches):
            assert f is _power_integrand
            rounds.append(branches)
            return integrate_each(f, branches)

        with patch.object(cef_mod, "integrate_each", recorder):
            solved = solve_i2_min_many(params, cefs, targets)
        for branch in (b for branches in rounds for b in branches):
            fresh = [_upper_at(p, AdaptiveConditionalPower(branch[1][1], cef))
                     for p, cef in zip(params, cefs)]
            assert repr(branch) in map(repr, fresh)
        # Every search starts at a zero floor, and reads more only for a positive one.
        assert [b[1][1] for b in rounds[0]] == [0.0] * len(drawn)
        assert (len(rounds) > 1) == any(x > 0 for x in solved)
        assert solved == [solve_i2_min(*design) for design in zip(params, cefs, targets)]


class TestEvaluateDesign:
    def test_power_hits_target(self):
        p = params_at(EVAL_BASE, 0.6)
        for family in ("constant", "inverse_normal", "fisher"):
            design = build_fasttrack(p, family)
            res = evaluate_design(p, design.rule)
            assert res.overall_power == pytest.approx(0.8, abs=1e-6)
            assert res.i2_min <= res.i2_max + 1e-12
            assert res.total_mean == pytest.approx(p.i1 + res.i2_mean, abs=1e-12)
            assert res.total_max == pytest.approx(p.i1 + res.i2_max, abs=1e-12)

    def test_nonbinding_mode(self):
        # Calibrating over the whole real line is conservative, so both
        # families need a larger floor than in the binding mode to reach the
        # same power target.
        p = params_at(EVAL_BASE, 0.6)
        i_delta = i_delta_of(EVAL_BASE)
        expected = {"inverse_normal": 0.3706, "fisher": 0.3239}
        for family, t_want in expected.items():
            design = build_fasttrack(p, family, binding=False)
            assert design.rule.i2_min / i_delta == pytest.approx(t_want, abs=1e-3)
            res = evaluate_design(p, design.rule)
            assert res.overall_power == pytest.approx(0.8, abs=1e-6)

    def test_fasttrack_design_forwards_to_its_rule(self):
        p = params_at(EVAL_BASE, 0.6)
        for family in FASTTRACK_FAMILIES:
            design = build_fasttrack(p, family)
            assert design.i2_const is None
            assert design.cef is design.rule.cef
            assert design.i2_min == design.rule.i2_min
            assert design.rule == AdaptiveConditionalPower(design.i2_min, design.cef)
            assert design.branch_boundary == p.z_f
            with pytest.raises(dataclasses.FrozenInstanceError):
                design.i2_const = 1.0

    @staticmethod
    def assert_both_builders_refuse(family):
        p = params_at(EVAL_BASE, 0.6)
        message = f"family {family!r} is not available for the fast-track mode"
        with pytest.raises(ValueError, match=message):
            build_fasttrack(p, family)
        with pytest.raises(ValueError, match=message):
            build_fasttrack_many([p], family)

    def test_z_combination_needs_the_waive_branch(self):
        assert "z_combination" not in FASTTRACK_FAMILIES
        self.assert_both_builders_refuse("z_combination")

    def test_pilot_far_above_i1_max_saturates(self):
        # With z_f = sqrt(I1) * delta_rel >= 8.5 the level integral above z_f
        # has an empty window: the binding calibration spends nothing and
        # saturates at its upper bracket end instead of failing.
        for i1 in (73.0, 100.0):
            p = DesignParams(i1=i1, **EVAL_BASE)
            for family in ("inverse_normal", "fisher"):
                design = build_fasttrack(p, family)
                assert design.cef.level_used < p.alpha
                assert design.cef.c == 1.0

    def test_unknown_family(self):
        self.assert_both_builders_refuse("no_such_family")


class TestClosedFormFloorKink:
    """The closed-form crossing of the formula with the floor agrees with the
    numeric root search it replaces."""

    @staticmethod
    def formula(z, p, cef):
        """The conditional-power formula: the rule at a zero floor."""
        return float(stage2_info(z, p, AdaptiveConditionalPower(0.0, cef)))

    def numeric_kink(self, p, rule, lo, hi):
        g = lambda z: self.formula(float(z), p, rule.cef) - rule.i2_min
        try:
            return find_root(g, lo, hi)
        except BracketError:
            return None

    def check(self, p, cef, z_star, lo, hi=12.0):
        """Put the floor where the formula crosses it at ``z_star``."""
        i2_min = self.formula(z_star, p, cef)
        rule = AdaptiveConditionalPower(i2_min=i2_min, cef=cef)
        got = _floor_kink(p, rule, lo, hi)
        assert got == pytest.approx(self.numeric_kink(p, rule, lo, hi), abs=1e-9)
        assert got == pytest.approx(z_star, abs=1e-9)

    def test_constant_family(self):
        p = params_at(EVAL_BASE, 0.6)
        z_f = p.z_f
        cef = constant_cef(ALPHA)
        for z_star in (z_f + 0.1, 2.5, 6.0):
            self.check(p, cef, z_star, z_f)

    def test_inverse_normal_below_and_above_cap(self):
        p = params_at(EVAL_BASE, 0.6)
        z_f = p.z_f
        for z0 in (-math.inf, z_f):  # non-binding, binding
            cef = family_cef("inverse_normal", ALPHA, z0)
            cap = kinks(cef)[-1]
            assert z_f < cap - 0.2
            for z_star in (z_f + 0.05, cap - 0.1, cap + 0.1, cap + 3.0):
                self.check(p, cef, z_star, z_f)

    def test_z_combination_both_sides_of_split(self):
        p = params_at(EVAL_BASE, 0.6)
        z_split = p.z_f
        cef = z_combination_cef(p.i1, 1.5, z_split, ALPHA, 0.1)
        for z_star in (0.4, z_split - 0.05, z_split + 0.05, kinks(cef)[-1] + 1.0):
            self.check(p, cef, z_star, 0.2)
        # As in the combination design, which integrates from z_split up.
        self.check(p, cef, z_split + 0.05, z_split)

    def test_z_combination_floor_inside_jump(self):
        # The formula jumps down across the floor at z_split: both routes
        # settle on the jump (the root search to within its x tolerance).
        p = params_at(EVAL_BASE, 0.6)
        z_split = p.z_f
        cef = z_combination_cef(p.i1, 1.5, z_split, ALPHA, 0.1)
        below = self.formula(z_split - 1e-12, p, cef)
        above = self.formula(z_split, p, cef)
        rule = AdaptiveConditionalPower(i2_min=0.5 * (below + above), cef=cef)
        assert _floor_kink(p, rule, 0.2, 12.0) == z_split
        numeric = self.numeric_kink(p, rule, 0.2, 12.0)
        assert numeric == pytest.approx(z_split, abs=2 * X_TOL)

    def test_no_crossing_inside_interval(self):
        p = params_at(EVAL_BASE, 0.6)
        z_f = p.z_f
        cefs = [
            constant_cef(ALPHA),
            family_cef("inverse_normal", ALPHA, z_f),
            z_combination_cef(p.i1, 1.5, z_f, ALPHA, 0.1),
            # Fisher with its cap inside both windows.
            family_cef("fisher", ALPHA),
            family_cef("fisher", ALPHA, z_f),
        ]
        for cef in cefs:
            for i2_min, hi in ((500.0, 12.0), (1e-3, 3.0)):  # above / below
                rule = AdaptiveConditionalPower(i2_min=i2_min, cef=cef)
                assert _floor_kink(p, rule, z_f, hi) is None
                assert self.numeric_kink(p, rule, z_f, hi) is None

    def check_fisher(self, p, cef, z_star, lo, searched):
        """:meth:`check`, and whether the kink needed a root search."""
        with patch("fasttrack.power.find_root", wraps=find_root) as search:
            self.check(p, cef, z_star, lo)
        assert search.called == searched, (cef, z_star, lo)

    def test_fisher_below_at_and_above_cap(self):
        # Calibrated non-binding and binding c: A is capped from
        # -Phi^{-1}(2c) on, where the crossing is z_beta / slope.
        p = params_at(EVAL_BASE, 0.6)
        z_f = p.z_f
        for z0 in (-math.inf, z_f):
            cef = family_cef("fisher", ALPHA, z0)
            cap = kinks(cef)[-1]
            assert 0.0 < cef.c < 0.5 and z_f < cap - 0.2
            for z_star in (z_f + 0.05, cap - 0.1):
                self.check_fisher(p, cef, z_star, z_f, searched=True)
            self.check(p, cef, cap, z_f)  # either route, within rounding of h
            for z_star in (cap + 0.1, cap + 3.0):
                self.check_fisher(p, cef, z_star, z_f, searched=False)

    def test_fisher_large_c_capped_inside_window(self):
        # c = 0.3: capped from -Phi^{-1}(0.6) = -0.253 on, inside [-1, 12].
        p = params_at(EVAL_BASE, 0.6)
        cef = CalibratedCef(None, c=0.3)
        assert kinks(cef)[-1] == pytest.approx(-0.2533, abs=1e-4)
        for z_star in (1.0, 3.0):
            self.check_fisher(p, cef, z_star, -1.0, searched=False)

    def test_fisher_saturated_cap_is_z0(self):
        # c = 1: A is 0 below z0 and capped from it.  A crossing below z0 is
        # the jump at z0; both routes settle on it.
        p = params_at(EVAL_BASE, 0.6)
        z_f = p.z_f
        cef = family_cef("fisher", ALPHA, 3.0)
        assert cef.c == 1.0 and kinks(cef) == [3.0]
        for z_star in (3.1, 5.0):
            self.check_fisher(p, cef, z_star, z_f, searched=False)
        rule = AdaptiveConditionalPower(i2_min=2.0 * self.formula(3.0, p, cef), cef=cef)
        assert _floor_kink(p, rule, z_f, 12.0) == 3.0
        assert self.numeric_kink(p, rule, z_f, 12.0) == pytest.approx(3.0, abs=2 * X_TOL)

    def test_fisher_window_at_or_above_cap(self):
        # A window from past the cap, or (saturated) from the cap z0 itself:
        # the crossing is z_beta / slope inside it, and there is none outside.
        p = params_at(EVAL_BASE, 0.6)
        binding = family_cef("fisher", ALPHA, p.z_f)
        for cef, lo in ((binding, kinks(binding)[-1] + 0.5),
                        (family_cef("fisher", ALPHA, 3.0), 3.0)):
            for z_star in (lo + 0.1, 6.0):
                self.check_fisher(p, cef, z_star, lo, searched=False)
            for i2_min, hi in ((500.0, 12.0), (1e-3, lo + 0.5)):  # above / below
                rule = AdaptiveConditionalPower(i2_min=i2_min, cef=cef)
                assert _floor_kink(p, rule, lo, hi) is None
                assert self.numeric_kink(p, rule, lo, hi) is None
