"""Unit tests for the scenario parameters and closed-form design bounds."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from mpmath import mp

from conftest import EVAL_BASE, SIGMA, params_at
from fasttrack.design import (
    DesignParams,
    ExampleCost,
    alpha_rel,
    cond_registration_power,
    derive,
    i1_max,
    i1_min,
    noncentrality_target,
    xi_min,
)
from fasttrack.numerics import std_normal_cdf, std_normal_quantile


def base_params(**overrides):
    merged = {**EVAL_BASE, "i1": 1.0, **overrides}
    return DesignParams(**merged)


class TestClosedForms:
    def test_noncentrality_target(self):
        assert noncentrality_target(0.025, 0.2) == pytest.approx(2.8016, abs=5e-5)

    def test_information_scales(self):
        d = derive(base_params())
        assert d.i_rel == pytest.approx(7.8489, abs=5e-4)
        assert d.i_delta == pytest.approx(d.i_rel / 4.0, abs=1e-12)
        assert d.delta == 2.0

    def test_t_rel_of_i1_max_depends_only_on_levels(self):
        values = [
            i1_max(0.025, dr) / (noncentrality_target(0.025, 0.2) ** 2 / dr**2)
            for dr in (0.5, 1.0, 1.4, 3.0)
        ]
        assert max(values) - min(values) <= 1e-14
        assert values[0] == pytest.approx(0.4895, abs=5e-4)

    def test_xi_min(self):
        assert xi_min(0.025, 0.2) == pytest.approx(1.4294, abs=5e-5)
        assert xi_min(0.025, 0.5 - 1e-12) == pytest.approx(1.0, abs=1e-9)
        assert xi_min(0.025, 0.1) == pytest.approx(
            1.0 + std_normal_quantile(0.9) / std_normal_quantile(0.975), abs=1e-12
        )


class TestAlphaRel:
    def test_small_information_limit(self):
        assert alpha_rel(1e-12, 1.0) == pytest.approx(0.5, abs=1e-6)

    def test_at_full_relevance_information(self):
        i_rel = noncentrality_target(0.025, 0.2) ** 2
        assert alpha_rel(i_rel, 1.0) == pytest.approx(
            1.0 - std_normal_cdf(2.8016), abs=1e-5
        )

    def test_crossing_with_alpha_c(self):
        i_rel = noncentrality_target(0.025, 0.2) ** 2
        assert alpha_rel(0.3447 * i_rel, 1.0) == pytest.approx(0.05, abs=1e-4)

    def test_requirement_equivalence(self):
        # Estimate >= delta_rel if and only if its p-value <= alpha_rel.
        rng = np.random.default_rng(7)
        for _ in range(200):
            i1 = rng.uniform(0.05, 8.0)
            theta_hat = rng.uniform(-2.0, 3.0)
            p1 = 1.0 - std_normal_cdf(theta_hat * math.sqrt(i1))
            assert (theta_hat >= 1.0) == (p1 <= alpha_rel(i1, 1.0))

    def test_requires_positive_information(self):
        with pytest.raises(ValueError):
            alpha_rel(0.0, 1.0)

    @pytest.mark.parametrize("sds", [6.0, 8.0])
    def test_upper_tail_to_thirteen_digits(self, sds):
        # 1 - Phi(6) keeps only 8 digits (9.865877004e-10 against
        # 9.86587645e-10).
        want = mp.ncdf(-mp.mpf(sds))
        assert float(abs(alpha_rel(sds**2, 1.0) / want - 1)) <= 1e-13


class TestPilotBounds:
    def test_i1_min_examples(self):
        i_rel = noncentrality_target(0.025, 0.2) ** 2
        p = base_params(alpha_c=0.05)
        assert i1_min(p) / i_rel == pytest.approx(0.2, abs=5e-3)
        d = derive(base_params())
        assert d.i1_min / d.i_delta == pytest.approx(0.4494, abs=5e-4)

    def test_group_sizes_at_bounds(self):
        cost = ExampleCost(sigma=SIGMA)
        d = derive(base_params())
        assert abs(cost.group_size_of(d.i1_max) - 206) <= 1
        assert abs(cost.group_size_of(d.i1_min) - 48) <= 1
        d5 = derive(base_params(alpha_c=0.05))
        assert abs(cost.group_size_of(d5.i1_min) - 84) <= 1

    def test_i1_min_monotone_and_continuous_in_xi(self):
        xis = np.linspace(1.05, 3.0, 400)
        vals = [i1_min(base_params(xi=x)) for x in xis]
        diffs = np.diff(vals)
        assert np.all(diffs <= 1e-12)
        # No jumps: increments shrink with the grid, so the largest step stays
        # bounded by the local slope estimate.
        assert np.max(np.abs(diffs)) < 10.0 * (xis[1] - xis[0]) * np.max(
            np.abs(np.gradient(vals, xis))
        )

    def test_i1_min_exceeds_i1_max_iff_xi_below_xi_min(self):
        bound = xi_min(0.025, 0.2)
        for xi in (1.05, 1.2, 1.35, 1.42, 1.44, 1.6, 2.0, 2.5):
            p = base_params(xi=xi)
            assert (i1_min(p) > i1_max(p.alpha, p.delta_rel)) == (xi < bound)

    def test_i1_min_requires_xi_above_one(self):
        with pytest.raises(ValueError):
            i1_min(base_params(xi=1.0))
        assert math.isinf(derive(base_params(xi=1.0)).i1_min)


class TestBoundaryAndPower:
    def test_boundary_branches(self):
        z_c = std_normal_quantile(0.85)
        assert base_params(i1=0.25, delta_rel=1.0, alpha_c=0.15).z_f == z_c
        assert base_params(i1=9.0, delta_rel=1.0, alpha_c=0.15).z_f == 3.0

    def test_boundary_is_positive_over_the_whole_domain(self):
        # The stage-two rule divides by z1^2 on Z1 >= z_f.  Only at
        # alpha_c = 0.5 - 2**-54, where 1 - alpha_c rounds to 0.5, could z_f
        # be 0; that level is rejected, and the next one down keeps z_f > 0
        # even when sqrt(I1) * delta_rel is subnormal.  A delta_rel of 1e-300
        # has no finite I_rel = eta_f^2 / delta_rel^2, so it is rejected.
        with pytest.raises(ValueError, match="got alpha=0.025, alpha_c="):
            base_params(alpha_c=0.5 - 2.0**-54)
        p = base_params(alpha_c=0.5 - 2.0**-53, i1=1e-310, delta_rel=1e-153)
        assert 0.0 < math.sqrt(p.i1) * p.delta_rel < 2.0**-1022
        assert p.z_f > 0
        with pytest.raises(ValueError, match="got delta_rel=1e-300"):
            base_params(alpha_c=0.5 - 2.0**-53, i1=1e-300, delta_rel=1e-300)

    def test_boundary_at_reference_point(self):
        p = params_at(EVAL_BASE, 0.6)
        assert derive(p).z_f == pytest.approx(1.0850, abs=5e-4)

    def test_power_is_target_at_i1_min(self):
        # Holds whichever of the two lower-bound branches is binding.
        for base in (
            {**EVAL_BASE},
            {**EVAL_BASE, "alpha_c": 0.05},
            {**EVAL_BASE, "xi": 1.75},
        ):
            p0 = DesignParams(i1=1.0, **base)
            p = replace(p0, i1=i1_min(p0))
            assert cond_registration_power(p) == pytest.approx(0.8, abs=1e-9)

    def test_power_is_half_at_relevance_effect(self):
        # xi = 1 and a boundary driven by the relevance requirement: the
        # estimate sits exactly on the boundary in expectation.
        p = base_params(xi=1.0, i1=4.0)
        assert cond_registration_power(p) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("sds", [6.0, 8.0])
    def test_power_in_the_upper_tail_to_thirteen_digits(self, sds):
        # z_f about `sds` above the mean: 1 - Phi(z_f - mean) would keep
        # only 8 digits.
        z_c = sds + 0.01
        p = DesignParams(alpha=0.25 * float(mp.ncdf(-z_c)), alpha_c=float(mp.ncdf(-z_c)),
                         beta=0.2, delta_rel=1.0, xi=1.0, i1=1e-4)
        want = mp.ncdf(mp.mpf(p.delta) * mp.sqrt(p.i1) - mp.mpf(p.z_f))
        assert float(abs(cond_registration_power(p) / want - 1)) <= 1e-13

    def test_z_f_at_i1_min(self):
        for xi, expected in ((1.75, 1.1222), (2.0, 1.0364)):
            p0 = base_params(xi=xi)
            p = replace(p0, i1=i1_min(p0))
            assert derive(p).z_f == pytest.approx(expected, abs=1e-3)


class TestExampleCost:
    def test_reference_sizes(self):
        cost = ExampleCost(sigma=SIGMA)
        d = derive(base_params())
        assert abs(cost.group_size_of(d.i_rel) - 420) <= 1
        assert abs(cost.group_size_of(d.i_delta) - 105) <= 1

    def test_rounding_modes(self):
        cost = ExampleCost(sigma=1.0)
        assert cost.group_size_of(1.2) == 3
        assert cost.group_size_nearest(1.2) == 2
        # Exact integers are not pushed up by the ceiling guard.
        assert cost.group_size_of(1.5) == 3

    def test_strictly_increasing(self):
        cost = ExampleCost(sigma=SIGMA)
        infos = np.linspace(0.1, 5.0, 50)
        sizes = [cost.group_size_of(i) for i in infos]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            ExampleCost(sigma=0.0)


class TestValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(alpha=0.0),
            dict(alpha=0.2, alpha_c=0.1),
            dict(alpha_c=0.6),
            dict(beta=0.0),
            dict(beta=0.5),
            dict(delta_rel=0.0),
            dict(xi=0.9),
            dict(i1=0.0),
        ],
    )
    def test_rejects_bad_parameters(self, overrides):
        with pytest.raises(ValueError):
            base_params(**overrides)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(alpha=1e-17), "alpha"),
            (dict(beta=1e-17), "beta"),
            (dict(alpha=1e-17, alpha_c=2e-17), "alpha"),
        ],
    )
    def test_rejects_levels_that_round_away(self, overrides, field):
        # 1 - level == 1 in float64: no quantile of the level exists.
        with pytest.raises(ValueError, match=f"got {field}="):
            base_params(**overrides)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(delta_rel=1e160), "delta_rel"),  # delta_rel**2 overflows
            (dict(delta_rel=1e-200), "delta_rel"),  # delta_rel**2 is 0
            (dict(delta_rel=1e-160), "delta_rel"),  # eta_f^2 / delta_rel^2 is inf
            (dict(xi=1e200), "xi"),  # delta**2 overflows
            (dict(xi=1e200, delta_rel=1e200), "delta_rel"),
            (dict(xi=1e200, delta_rel=1e120), "xi"),  # delta is inf, I_delta 0
        ],
    )
    def test_rejects_effects_without_a_finite_positive_information(self, overrides, field):
        with pytest.raises(ValueError, match=f"need {field} with a finite positive information"):
            base_params(**overrides)

    @pytest.mark.parametrize("delta_rel", [1e-150, 1e150])
    def test_extreme_effects_with_finite_informations_are_valid(self, delta_rel):
        derived = derive(base_params(delta_rel=delta_rel, xi=1.0))
        assert 0 < derived.i_delta == derived.i_rel < math.inf

    @pytest.mark.parametrize("i1", [0.0, math.inf, math.nan])
    def test_rejects_an_information_outside_zero_to_inf(self, i1):
        with pytest.raises(ValueError, match=f"need 0 < i1 < inf, got i1={i1}"):
            base_params(i1=i1)

    def test_largest_finite_information_with_the_largest_effect_is_valid(self):
        # sqrt(max float) is the largest delta_rel with a finite square; at
        # the largest finite i1 the mean of Z1, delta sqrt(i1), and z_f stay finite.
        big = sys.float_info.max
        p = base_params(i1=big, delta_rel=math.sqrt(big), xi=1.0)
        with pytest.raises(ValueError, match="need delta_rel with a finite"):
            replace(p, delta_rel=math.nextafter(p.delta_rel, math.inf))
        derived = derive(p)
        assert 0 < derived.z_f <= p.delta * math.sqrt(p.i1) < math.inf
        assert 0 < derived.i_delta < math.inf
        assert cond_registration_power(p) == 0.5  # the mean sits on z_f
