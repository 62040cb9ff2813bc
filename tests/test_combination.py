"""Unit tests for the apply-or-waive combination strategy."""

import dataclasses
import math
import random
from pathlib import Path

import hypothesis
import pytest
from hypothesis import strategies as st

import reference_mp as ref
from conftest import COMBO_BASE, SIGMA, i_delta_of, params_at, params_near_i1_max
from fasttrack import combination as comb_mod
from fasttrack import power as power_mod
from fasttrack.cef import FAMILIES, eval_cef, family_cef, integrate_each, z_combination_cef
from fasttrack.combination import (
    branch_metrics,
    build_combination,
    gambling_threshold,
    lower_branch_success,
    solve_i2_const,
    waive_branches,
)
from fasttrack.design import DesignParams, ExampleCost, cond_registration_power, derive
from fasttrack.numerics import ConvergenceError, find_root, std_normal_quantile
from fasttrack.power import AdaptiveConditionalPower, evaluate_design
from fasttrack.scenario import load_scenario
from reference_formulas import gambling_threshold_full_builds, naive_inflation

BENCH_EXAMPLE = Path(__file__).resolve().parents[1] / "bench" / "data" / "combination_example.txt"

ALPHA = 0.025

# Per-group sample sizes of the worked example, one row per family:
# (n2_const, n2_min, n2_max, E(n2)).  The build reproduces each cell within
# one participant.
WORKED_EXAMPLE_ROWS = {
    "constant": (137, 130, 215, 139),
    "inverse_normal": (137, 14, 137, 68),
    "fisher": (137, 12, 141, 70),
    "z_combination": (124, 22, 124, 70),
}


@pytest.fixture(scope="module")
def combo_designs():
    p = params_at(COMBO_BASE, 0.5)
    return {family: build_combination(p, family) for family in FAMILIES}


class TestNaiveInflation:
    def test_reference_values(self):
        assert naive_inflation(0.025, 0.15) == pytest.approx(0.04625, abs=5e-5)
        assert naive_inflation(0.025, 0.05) == pytest.approx(0.04875, abs=5e-5)
        # As the conditional level approaches 0.5 the inflation tends to
        # 1.5 * alpha.
        assert naive_inflation(0.025, 0.5 - 1e-9) == pytest.approx(
            0.0375, abs=1e-6
        )


def _near_i1_max(xi):
    # At the largest pilots z_f lies far below the pilot mean, so Z1 given
    # Z1 < z_f sits just below z_f.
    return params_near_i1_max({**COMBO_BASE, "xi": xi})


class TestWaiveBranchSizing:
    @pytest.mark.parametrize("xi", [None, 5.0, 5.4, 6.0])
    def test_flat_level_gives_fixed_design_information(self, xi):
        # With a flat conditional error function the waive branch is an
        # ordinary fixed design at level alpha, so its information is exactly
        # the fixed-design information for the assumed effect, also where
        # the pilot lands far above z_f.
        p = params_at(COMBO_BASE, 0.5) if xi is None else _near_i1_max(xi)
        design = build_combination(p, "constant")
        i_fixed = (
            std_normal_quantile(1.0 - ALPHA) + std_normal_quantile(1.0 - p.beta)
        ) ** 2 / p.delta**2
        assert design.i2_const == pytest.approx(i_fixed, abs=1e-7)
        # And the generic solver agrees.
        solved = solve_i2_const(p, lambda _: design.cef)
        assert solved == pytest.approx(i_fixed, abs=1e-7)

    def test_flat_level_information_to_ten_digits_at_small_i_delta(self):
        base = {**COMBO_BASE, "xi": 8.0}
        _, (i2_const,) = waive_branches([params_near_i1_max(base)], "constant")
        ratio = i2_const / i_delta_of(base)
        assert ratio == pytest.approx(1.0, abs=1e-10), (
            f"I2_const / I_delta - 1 = {ratio - 1.0:.3g} (measured 2.45e-9)"
        )

    @pytest.mark.parametrize("xi", [5.0, 5.4, 6.0])
    def test_success_far_above_the_boundary(self, xi):
        p = _near_i1_max(xi)
        for family in FAMILIES:
            m = branch_metrics(build_combination(p, family))
            assert m.p_success_given_lower == pytest.approx(1.0 - p.beta, abs=1e-8)

    def test_success_far_beyond_i1_max(self):
        # At I1 = 1e8 (I1_max = 1.96) the pilot mean lies 3,500 sds above
        # z_f, and Z1 given Z1 < z_f within about 1 / 3,500 of z_f.  Every
        # family builds, and succeeds with probability 1 - beta.  The bound
        # is the quadrature's relative tolerance: the flat family reads
        # 1.9e-9 below 1 - beta here, from the window's ends rounded to
        # floats near z_f = 14,000 and the log-space density's cancellation.
        p = load_scenario(BENCH_EXAMPLE).design_params(i1=1e8)
        successes = {family: branch_metrics(build_combination(p, family)).p_success_given_lower
                     for family in FAMILIES}
        for family, got in successes.items():
            assert got == pytest.approx(1.0 - p.beta, abs=1e-8), family
        (cef,), (i2_const,) = waive_branches([p], "inverse_normal")
        want = ref.waive_branch_success(ref.inverse_normal(cef.c), i2_const, p.i1, p.delta, p.z_f)
        assert successes["inverse_normal"] == pytest.approx(want, abs=1e-8)

    def test_z_combination_success_is_the_solved_one(self, combo_designs):
        # The design's raised upper branch does not enter the waive branch:
        # its success is, bit for bit, the one I2_const was solved with.
        design = combo_designs["z_combination"]
        p, z_f = design.params, design.branch_boundary
        fixed_test = z_combination_cef(p.i1, design.i2_const, z_f, ALPHA, ALPHA)
        solved = lower_branch_success(p, design.i2_const, fixed_test)
        assert branch_metrics(design).p_success_given_lower == solved
        # Also when the raised level reaches the cap below z_f.
        raised = z_combination_cef(p.i1, design.i2_const, z_f, ALPHA, 0.3)
        assert eval_cef(raised, z_f) == 0.5
        assert lower_branch_success(p, design.i2_const, raised) == solved

    def test_waive_branch_is_the_designs_own(self, combo_designs):
        p = params_at(COMBO_BASE, 0.5)
        for family, design in combo_designs.items():
            (cef,), (i2_const,) = waive_branches([p], family)
            assert cef == design.cef, family
            assert i2_const == design.i2_const, family

    def test_adaptive_families_need_less_than_fixed(self, combo_designs):
        i_fixed = combo_designs["constant"].i2_const
        for family in ("inverse_normal", "fisher", "z_combination"):
            assert combo_designs[family].i2_const < i_fixed

    def test_fixed_information_crossing_abscissas(self):
        # The pilot size at which the waive-branch information falls to the
        # single-study information I_delta.
        from fasttrack.numerics import find_root

        i_delta = i_delta_of(COMBO_BASE)

        def excess(t, family):
            p = params_at(COMBO_BASE, float(t))
            return build_combination(p, family).i2_const / i_delta - 1.0

        assert find_root(lambda t: excess(t, "inverse_normal"), 0.3, 0.7) == (
            pytest.approx(0.4944, abs=1e-3)
        )
        assert find_root(lambda t: excess(t, "z_combination"), 0.2, 0.5) == (
            pytest.approx(0.3252, abs=1e-3)
        )


class TestDesignOnce:
    @hypothesis.settings(derandomize=True, deadline=None, max_examples=40)
    @hypothesis.given(family=st.sampled_from(FAMILIES), t=st.floats(0.05, 1.5),
                      far=st.booleans())
    def test_every_waive_round_yields_the_fresh_window(self, family, t, far):
        # A waive search sets its design up once; each round must still yield
        # the window and constants _waive_window makes afresh for that
        # information, the z-combination test's CEF changing with it.  A far
        # pilot puts the mean far above z_f, where the window is cut.
        p = _near_i1_max(6.0) if far else params_at(COMBO_BASE, t)
        cef_at = comb_mod.waive_tests([p], family)[0]
        search, rounds = comb_mod._waive_search(p, cef_at), 0
        branch = next(search)
        try:
            while True:
                x = branch[1][1]
                assert repr(branch) == repr(comb_mod._waive_window(p, x, cef_at(x)))
                rounds += 1
                branch = search.send(integrate_each(comb_mod._success_integrand, [branch])[0])
        except StopIteration as stop:
            solved = stop.value
        assert rounds > 1
        assert solved == comb_mod.solve_i2_const_many([p], [cef_at])[0] or comb_mod._is_flat(
            cef_at(1.0))


class TestBranchMetrics:
    def test_overall_power_mixes_branches(self, combo_designs):
        for family, design in combo_designs.items():
            m = branch_metrics(design)
            mixed = (
                m.p_upper * m.p_success_given_upper
                + (1.0 - m.p_upper) * m.p_success_given_lower
            )
            assert m.overall_power == pytest.approx(mixed, abs=1e-9)
            assert m.overall_power == pytest.approx(0.8, abs=1e-6)
            assert m.p_success_given_lower == pytest.approx(0.8, abs=1e-6)

    def test_conditional_registration_probability(self, combo_designs):
        p = params_at(COMBO_BASE, 0.5)
        m = branch_metrics(combo_designs["constant"])
        assert m.p_upper == pytest.approx(cond_registration_power(p), abs=1e-12)
        assert m.p_upper == pytest.approx(0.6540, abs=5e-4)

    def test_upper_branch_is_the_fasttrack_evaluation(self, combo_designs):
        # The branch Z1 >= z_f is evaluated as a fast-track design with the
        # combination's own rule.
        for family, design in combo_designs.items():
            m = branch_metrics(design)
            upper = evaluate_design(design.params, design.rule)
            assert m.p_upper == upper.p_cond_reg
            assert m.p_success_given_upper * m.p_upper == pytest.approx(
                upper.overall_power, rel=1e-12
            )
            assert m.max_i2_both == max(upper.i2_max, design.i2_const)
            assert m.e_i2_both == pytest.approx(
                upper.i2_mean + (1.0 - m.p_upper) * design.i2_const, rel=1e-12
            )

    def test_worked_example_sample_sizes(self, combo_designs):
        cost = ExampleCost(sigma=SIGMA)
        for family, expected in WORKED_EXAMPLE_ROWS.items():
            design = combo_designs[family]
            m = branch_metrics(design)
            got = (
                cost.group_size_of(design.i2_const),
                cost.group_size_of(design.i2_min),
                cost.group_size_of(m.max_i2_both),
                cost.group_size_of(m.e_i2_both),
            )
            for g, e in zip(got, expected):
                assert abs(g - e) <= 1, (family, got, expected)


class TestGamblingThresholds:
    def test_reference_values(self):
        p = params_at(COMBO_BASE, 0.5)
        expected = {
            "constant": 0.137,
            "inverse_normal": 0.0813,
            "fisher": 0.0854,
            "z_combination": 0.1128,
        }
        for family, want in expected.items():
            assert gambling_threshold(p, family) == pytest.approx(want, abs=2e-3)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_equals_the_scan_of_full_builds(self, family):
        # The scan solves only what its excess reads, and calibrates each
        # CEF once; the threshold is the same float.
        p = params_at(COMBO_BASE, 0.5)
        assert gambling_threshold(p, family) == gambling_threshold_full_builds(p, family)

    @staticmethod
    def drawn_params(seed: int) -> DesignParams:
        rng = random.Random(seed)
        return DesignParams(alpha=rng.choice((0.01, 0.025, 0.05)),
                            alpha_c=rng.choice((0.1, 0.15, 0.3)), beta=rng.uniform(0.05, 0.3),
                            delta_rel=rng.uniform(1.1, 2.0), xi=rng.uniform(1.1, 2.5), i1=1.0)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("source", ["bench example", 1, 2, 3, 6, 10])
    def test_blocks_equal_the_sequential_scan(self, family, source):
        # The scan flags its points in blocks; the reference scans point by
        # point with full builds, so the floats, and the scan points, must
        # agree.  Sources 6 and 10 cross past the second block.
        if source == "bench example":
            p = load_scenario(str(BENCH_EXAMPLE)).design_params()
        else:
            p = self.drawn_params(source)
        assert repr(gambling_threshold(p, family)) == repr(
            gambling_threshold_full_builds(p, family))

    @staticmethod
    def excess(p: DesignParams, family: str, t_xi: float) -> float:
        # The formula maximum over the floor, from a full build.
        q = dataclasses.replace(p, i1=t_xi * derive(p).i_delta)
        d = build_combination(q, family)
        return power_mod.max_stage2_info(q, dataclasses.replace(d.rule, i2_min=0.0)) - d.i2_min

    @pytest.mark.parametrize("family", FAMILIES)
    def test_crossing_on_a_scan_point(self, family):
        # alpha_c is solved so that the excess vanishes at the fifth scan
        # point, where the one-integral flag and the exact excess may
        # disagree in sign; the end rules must return the reference's float.
        base = DesignParams(**COMBO_BASE, i1=1.0)
        at = lambda alpha_c: self.excess(dataclasses.replace(base, alpha_c=alpha_c), family, 0.05)
        p = dataclasses.replace(base, alpha_c=find_root(at, 0.15, 0.45, 1e-16))
        assert abs(self.excess(p, family, 0.05)) <= 1e-12
        assert repr(gambling_threshold(p, family)) == repr(
            gambling_threshold_full_builds(p, family))

    # Small alpha, large alpha_c and small beta: the formula already exceeds
    # the floor at the first scan point, so no t is constant.
    NEVER_CONSTANT = DesignParams(alpha=0.001, alpha_c=0.3, beta=0.01, delta_rel=1.5, xi=2.0,
                                  i1=1.0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_excess_at_the_first_scan_point(self, family):
        p = self.NEVER_CONSTANT
        assert self.excess(p, family, comb_mod._SCAN_STEP) > 0
        assert gambling_threshold(p, family) == 0.0 == gambling_threshold_full_builds(p, family)

    @pytest.mark.parametrize("planted, never_constant",
                             [("early", False), ("late", False), ("late", True)])
    def test_a_flag_the_exact_excess_contradicts(self, planted, never_constant, monkeypatch):
        # Where a floor lies within its solver's tolerance of m, the flag and
        # the exact excess can disagree in sign.  Planted here: the point
        # before the first flagged one is flagged too (early), or the first
        # flagged one is not (late).  The end rules return that point, or 0
        # for the first point, where a bracket without a sign change raises.
        # Only flag calls are planted: rules whose floor is m, the rule read
        # at a zero floor, whatever else integrates power there.
        p = self.NEVER_CONSTANT if never_constant else params_at(COMBO_BASE, 0.5)
        seen, refined = [], comb_mod._refined
        monkeypatch.setattr(comb_mod, "_refined",
                            lambda excess, ts, i: seen.append((ts, i)) or refined(excess, ts, i))
        gambling_threshold(p, "constant")
        ts, i = seen[0]
        flip = ts[i - 1] if planted == "early" else ts[i]
        i1, overall_powers = flip * derive(p).i_delta, power_mod.overall_powers

        def flag(q, rule):
            m = power_mod.max_stage2_info(q, AdaptiveConditionalPower(0.0, rule.cef))
            return q.i1 == i1 and rule.i2_min == m

        monkeypatch.setattr(power_mod, "overall_powers", lambda params, rules: [
            float(planted == "early") if flag(q, rule) else v
            for q, rule, v in zip(params, rules, overall_powers(params, rules))])
        assert gambling_threshold(p, "constant") == (flip if i else 0.0)
        assert len(seen) == 2 and seen[1][1] == (i - 1 if planted == "early" else i + 1)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_failure_past_the_first_positive_excess_does_not_surface(self, family,
                                                                        monkeypatch):
        # The point by point scan stops at the first positive excess; a
        # block solves the points after it too, and a failure there must
        # not surface.
        p = params_at(COMBO_BASE, 0.5)
        want = gambling_threshold(p, family)
        past = (want + 1.5 * comb_mod._SCAN_STEP) * derive(p).i_delta
        failed = []
        max_stage2_info = power_mod.max_stage2_info

        def failing(params, rule):
            if params.i1 > past:
                failed.append(params.i1)
                raise ConvergenceError("planted failure", 0.0, 1.0)
            return max_stage2_info(params, rule)

        monkeypatch.setattr(power_mod, "max_stage2_info", failing)
        assert gambling_threshold(p, family) == want
        assert failed  # the block did reach the planted failure


class TestMonotonicity:
    def test_lower_branch_success_increasing_in_information(self):
        # More second-stage information can only help on the waive branch.
        for t in (0.3, 0.5):
            p = params_at(COMBO_BASE, t)
            for family in ("inverse_normal", "fisher"):
                cef = family_cef(family, ALPHA)
                vals = [
                    lower_branch_success(p, x, cef)
                    for x in (0.25, 0.5, 1.0, 2.0, 4.0)
                ]
                assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_z_combination_base_branch_increasing(self):
        # The waive branch tests with the fixed combined z-test at the
        # stage-two information itself.
        p = params_at(COMBO_BASE, 0.5)
        vals = [
            lower_branch_success(p, x, z_combination_cef(p.i1, x, p.z_f, ALPHA, ALPHA))
            for x in (0.25, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestCrossFamilyComparisons:
    @staticmethod
    def _metrics(family, t):
        p = params_at(COMBO_BASE, t)
        i_delta = i_delta_of(COMBO_BASE)
        m = branch_metrics(build_combination(p, family))
        return m.e_i2_both / i_delta, m.max_i2_both / i_delta

    def test_mean_information_comparisons(self):
        # Expected second-stage information: non-adaptive exceeds the inverse
        # normal for pilots above ~0.14, Fisher above ~0.075, and the raised
        # combined z-test everywhere.
        for t in (0.08, 0.15, 0.3, 0.5, 0.7):
            na_mean, _ = self._metrics("constant", t)
            iv_mean, _ = self._metrics("inverse_normal", t)
            fi_mean, _ = self._metrics("fisher", t)
            az_mean, _ = self._metrics("z_combination", t)
            assert na_mean > fi_mean
            assert az_mean <= na_mean + 1e-9
            if t >= 0.15:
                assert na_mean > iv_mean
        na_mean, _ = self._metrics("constant", 0.1)
        iv_mean, _ = self._metrics("inverse_normal", 0.1)
        assert iv_mean > na_mean  # below the crossover the order flips

    def test_max_information_comparisons(self):
        for t in (0.3, 0.5, 0.7):
            _, na_max = self._metrics("constant", t)
            _, iv_max = self._metrics("inverse_normal", t)
            _, fi_max = self._metrics("fisher", t)
            _, az_max = self._metrics("z_combination", t)
            assert az_max < na_max
            assert fi_max < na_max
            assert iv_max < na_max
        # Below the respective crossovers the non-adaptive maximum is smaller.
        _, na_max = self._metrics("constant", 0.1)
        _, az_max = self._metrics("z_combination", 0.1)
        assert az_max > na_max


class TestValidation:
    def test_unknown_family(self):
        p = params_at(COMBO_BASE, 0.5)
        with pytest.raises(ValueError):
            build_combination(p, "bonferroni")

    def test_design_holds_its_rule(self, combo_designs):
        p = params_at(COMBO_BASE, 0.5)
        for family, design in combo_designs.items():
            assert design.family == family
            assert design.branch_boundary == p.z_f
            assert design.i2_const is not None and design.i2_const > 0
            assert design.rule == AdaptiveConditionalPower(
                i2_min=design.i2_min, cef=design.cef
            )

    def test_level_condition_holds_for_built_designs(self, combo_designs):
        from fasttrack.cef import level_integral

        for design in combo_designs.values():
            assert level_integral(design.cef, -math.inf) == pytest.approx(
                ALPHA, abs=1e-8
            )
