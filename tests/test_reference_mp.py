"""The level integral, the waive-branch success and the upper branch's power,
mean and maximum stage-two information against thirty-digit references
computed from each design's constants alone (see reference_mp)."""

import math

import pytest
from mpmath import mp

import reference_mp as ref
from conftest import COMBO_BASE, EVAL_BASE, i_delta_of, params_at, params_near_i1_max
from fasttrack.cef import (
    FAMILIES,
    FASTTRACK_FAMILIES,
    constant_cef,
    family_cef,
    level_integral,
)
from fasttrack.cef import kinks as cef_kinks
from fasttrack.combination import build_combination, lower_branch_success, waive_branches
from fasttrack.design import DesignParams
from fasttrack.numerics import normal_window
from fasttrack.power import (
    _floor_kink,
    build_fasttrack,
    max_stage2_info,
    mean_stage2_info,
    overall_power,
)

ALPHA = 0.025


def test_level_and_waive_branch_success_match_the_reference():
    p = params_at(EVAL_BASE, 0.6)
    z_f = p.z_f
    saturated = family_cef("inverse_normal", ALPHA, 3.0)
    assert saturated.level_used < ALPHA
    checks = [
        ("constant", constant_cef(ALPHA), ref.constant(ALPHA), -math.inf),
        ("saturated", saturated, ref.inverse_normal(saturated.c, 3.0), 3.0),
    ]
    for z0 in (-math.inf, z_f):  # non-binding, binding
        cef = family_cef("inverse_normal", ALPHA, z0)
        checks.append(("inverse normal", cef, ref.inverse_normal(cef.c, z0), z0))
        cef = family_cef("fisher", ALPHA, z0)
        checks.append(("Fisher", cef, ref.fisher(cef.c, z0), z0))
    combo = build_combination(params_at(COMBO_BASE, 0.5), "z_combination")
    cp = combo.params
    reference = ref.z_combination(
        cp.i1, combo.i2_const, combo.branch_boundary, ALPHA, combo.cef.alpha_prime
    )
    checks.append(("z-combination", combo.cef, reference, -math.inf))
    for name, cef, reference, lower in checks:
        want = ref.level_integral(reference, lower)
        assert level_integral(cef, lower) == pytest.approx(want, abs=1e-10), (name, lower)

    # The waive branch where the pilot lands far above z_f (xi = 6, I1 =
    # 0.99 * I1_max): the mass of Z1 below z_f sits just below z_f.
    p = params_near_i1_max({**COMBO_BASE, "xi": 6.0})
    z_f = p.z_f
    (cef,), (i2_const,) = waive_branches([p], "inverse_normal")
    got = lower_branch_success(p, i2_const, cef)
    want = ref.waive_branch_success(ref.inverse_normal(cef.c), i2_const, p.i1, p.delta, z_f)
    assert got == pytest.approx(want, abs=1e-9)
    assert want == pytest.approx(1.0 - p.beta, abs=1e-8)


@pytest.mark.parametrize("c, z0", [
    (4.35e-3, -math.inf), (1.37e-4, 1.04), (3.64e-14, 2.0), (8.11e-9, 3.0),
    (1e-2, 2.2),  # 2c above 1 - Phi(z0): A is capped from z0 on
])
def test_fisher_level_integral_is_the_closed_form(c, z0):
    # The closed form family_cef solves Fisher's c with.  On the segment
    # from z0 to the cap mp.quad keeps only about 22 of DPS digits at
    # c = 3.64e-14, so it integrates with ten guard digits.
    with mp.workdps(ref.DPS):
        got = ref.level_integral_mp(ref.fisher(c, z0), z0, dps=ref.DPS + 10)
        want = ref.fisher_level(c, z0)
        assert abs(got / want - 1) <= mp.mpf(10) ** (1 - ref.DPS), (got, want)


@pytest.fixture(scope="module")
def upper_branches():
    """(name, design, reference CEF) of three upper branches whose rule kinks
    where the formula meets the floor."""
    p = params_at(EVAL_BASE, 0.6)
    checks = []
    # Binding Fisher, whose floor kink the package finds by a root search,
    # and binding inverse normal, whose kink is closed-form.
    for family, reference in (("fisher", ref.fisher),
                              ("inverse_normal", ref.inverse_normal)):
        design = build_fasttrack(p, family)
        checks.append((family, design, reference(design.cef.c, design.branch_boundary)))
    # The z-combination upper branch of the worked example.
    combo = build_combination(params_at(COMBO_BASE, 0.5), "z_combination")
    cp = combo.params
    reference = ref.z_combination(
        cp.i1, combo.i2_const, combo.branch_boundary, ALPHA, combo.cef.alpha_prime
    )
    checks.append(("z-combination", combo, reference))
    return checks


def test_upper_branch_power_and_mean_information_match_the_reference(upper_branches):
    for name, design, reference in upper_branches:
        q, z_f = design.params, design.branch_boundary
        assert design.i2_min > 0, name  # the rule kinks where the formula meets it
        want_power, want_info = ref.upper_branch(
            reference, design.i2_min, q.beta, q.i1, q.delta, z_f
        )
        got_power = overall_power(q, design.rule)
        got_info = mean_stage2_info(q, design.rule)
        assert got_power == pytest.approx(want_power, abs=1e-10), name
        assert got_info == pytest.approx(want_info, abs=1e-10), name


def test_floor_kink_matches_the_reference(upper_branches):
    # On the window the power integrals split: a root search on the formula
    # at thirty digits against the package's kink (closed-form for the
    # tables and for Fisher where A is capped, a root search on
    # z_beta + q(z) = slope * z for Fisher below the cap).
    drawn = _drawn_design("non-binding Fisher")
    checks = [*upper_branches, ("drawn Fisher", drawn, ref.design_cef(drawn))]
    for name, design, reference in checks:
        q, z_f = design.params, design.branch_boundary
        want = ref.floor_kink(reference, design.i2_min, q.beta, q.i1, z_f)
        window = normal_window(q.delta * math.sqrt(q.i1), z_f)
        got = _floor_kink(q, design.rule, *window)
        assert want is not None and got is not None, name
        assert got == pytest.approx(float(want), abs=1e-9), name
    # The drawn non-binding Fisher design's kink, the last one checked, lies
    # above its cap (3.80 against 2.41): it is z_beta / slope itself.
    q = drawn.params
    assert got > cef_kinks(drawn.cef)[-1]
    assert got == q.z_beta / math.sqrt(drawn.i2_min / q.i1)


# Designs away from the paper scenarios, one per mode: cases 6, 1 and 29 of
# the benchmark's ``draw_cases(seed=1, batch=0, n=100)``, whose parameters
# are drawn from the whole valid domain.  Each has a positive upper-branch
# floor, so the rule kinks where the formula meets it.
DRAWN = {
    "binding inverse normal": ("fasttrack_binding", "inverse_normal", dict(
        alpha=0.007805731061744403, alpha_c=0.20237158321014653,
        beta=0.2631582096201642, delta_rel=1.389411527156426,
        xi=1.6708867565463326, i1=2.617441687508917)),
    "non-binding Fisher": ("fasttrack_nonbinding", "fisher", dict(
        alpha=0.02341396113661226, alpha_c=0.18443202844096446,
        beta=0.056889778310767095, delta_rel=1.6302696630122098,
        xi=2.619347762282001, i1=0.730761254988223)),
    "combination z-combination": ("combination", "z_combination", dict(
        alpha=0.03225574168950669, alpha_c=0.2519464602225876,
        beta=0.20757943886086955, delta_rel=1.0440452855867726,
        xi=2.5888618073367713, i1=0.37619096945354696)),
}


# The rest of item 2's subset, one design per mode x family: the first case
# of each in ``draw_cases(seed=1, batch=0, n=100)``, beyond those of DRAWN,
# that builds with a positive upper-branch floor (its index in the comment).
# They take about 16 s, so they run only with ``-m slow``.
DRAWN_SUBSET = {
    "binding constant": ("fasttrack_binding", "constant", dict(  # 0
        alpha=0.028031973111511555, alpha_c=0.28751843530389687,
        beta=0.08603990317990844, delta_rel=1.9229741707058658,
        xi=2.2060948382944066, i1=0.6177796599274946)),
    "binding inverse normal": ("fasttrack_binding", "inverse_normal", dict(  # 21
        alpha=0.046296151572691076, alpha_c=0.22746537289219715,
        beta=0.17508910768421776, delta_rel=0.6156257127508081,
        xi=2.304064084240824, i1=2.6946795551587996)),
    "binding Fisher": ("fasttrack_binding", "fisher", dict(  # 9
        alpha=0.026235937371145563, alpha_c=0.1157795698226538,
        beta=0.05177295715079157, delta_rel=1.4685813433624217,
        xi=2.9296204645615953, i1=1.5278246311936534)),
    "non-binding constant": ("fasttrack_nonbinding", "constant", dict(  # 10
        alpha=0.017684502231404397, alpha_c=0.09413956287960462,
        beta=0.20983284501664695, delta_rel=1.7075822497175146,
        xi=2.8300476151082505, i1=0.39244743827763584)),
    "non-binding inverse normal": ("fasttrack_nonbinding", "inverse_normal", dict(  # 4
        alpha=0.029355208499634543, alpha_c=0.11875654660587165,
        beta=0.09016300219378172, delta_rel=1.954888119824199,
        xi=2.4993711562825096, i1=0.34371213367802744)),
    "non-binding Fisher": ("fasttrack_nonbinding", "fisher", dict(  # 13
        alpha=0.007822306515684573, alpha_c=0.2525016755645536,
        beta=0.09112681661852533, delta_rel=1.0627204947449629,
        xi=2.048151126315734, i1=4.018964897819984)),
    "combination constant": ("combination", "constant", dict(  # 23
        alpha=0.04842354847908811, alpha_c=0.1614330400094495,
        beta=0.12380856391567395, delta_rel=1.7704975559505944,
        xi=1.9127341098215234, i1=0.7815059422690249)),
    "combination inverse normal": ("combination", "inverse_normal", dict(  # 14
        alpha=0.013035734517846738, alpha_c=0.1388219698068815,
        beta=0.05145614877699524, delta_rel=0.8937420691251523,
        xi=2.3847830649279227, i1=2.2090928438284996)),
    "combination Fisher": ("combination", "fisher", dict(  # 38
        alpha=0.009397204591297552, alpha_c=0.22989884488011594,
        beta=0.21266810739991254, delta_rel=1.4097621359618937,
        xi=1.4162354450217876, i1=2.2459768342453876)),
    "combination z-combination": ("combination", "z_combination", dict(  # 50
        alpha=0.007629010233071073, alpha_c=0.20194931946334144,
        beta=0.06163330051871478, delta_rel=0.6026144533125835,
        xi=1.7852395973170851, i1=12.130516643296989)),
}


def _drawn_design(name, drawn=DRAWN):
    mode, family, values = drawn[name]
    p = DesignParams(**values)
    if mode == "combination":
        return build_combination(p, family)
    return build_fasttrack(p, family, binding=mode == "fasttrack_binding")


def _assert_matches_the_reference(design):
    """The level integral, the upper branch's power and E[I2], and a
    combination design's waive-branch success, against the oracle."""
    p, cef, z_f = design.params, design.cef, design.branch_boundary
    reference = ref.design_cef(design)
    want = ref.level_integral(reference, cef.z0)
    assert level_integral(cef, cef.z0) == pytest.approx(want, abs=1e-10)
    want_power, want_info = ref.upper_branch(
        reference, design.i2_min, p.beta, p.i1, p.delta, z_f
    )
    assert overall_power(p, design.rule) == pytest.approx(want_power, abs=1e-10)
    assert mean_stage2_info(p, design.rule) == pytest.approx(want_info, abs=1e-10)
    if design.i2_const is not None:
        want = ref.waive_branch_success(reference, design.i2_const, p.i1, p.delta, z_f)
        got = lower_branch_success(p, design.i2_const, cef)
        assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("name", DRAWN)
def test_drawn_designs_match_the_reference(name):
    _assert_matches_the_reference(_drawn_design(name))


@pytest.mark.slow
@pytest.mark.parametrize("name", DRAWN_SUBSET)
def test_drawn_subset_matches_the_reference(name):
    # Every quantity the oracle computes, the floor kink and the largest
    # stage-two information too.
    design = _drawn_design(name, DRAWN_SUBSET)
    _assert_matches_the_reference(design)
    q, z_f, reference = design.params, design.branch_boundary, ref.design_cef(design)
    want = ref.floor_kink(reference, design.i2_min, q.beta, q.i1, z_f)
    got = _floor_kink(q, design.rule, *normal_window(q.delta * math.sqrt(q.i1), z_f))
    assert want is not None and got == pytest.approx(float(want), abs=1e-10)
    want = ref.max_stage2_info(reference, design.i2_min, q.beta, q.i1, z_f)
    assert max_stage2_info(q, design.rule) == pytest.approx(want, rel=1e-10, abs=0)


def test_max_stage2_info_matches_the_reference():
    # The seven paper designs (three fast-track, four combination) and the
    # drawn ones: max(I2min, formula(z_f)) at thirty digits.
    p = params_at(EVAL_BASE, 0.6)
    designs = [build_fasttrack(p, family) for family in FASTTRACK_FAMILIES]
    p = params_at(COMBO_BASE, 0.5)
    designs += [build_combination(p, family) for family in FAMILIES]
    designs += [_drawn_design(name) for name in DRAWN]
    for design in designs:
        q = design.params
        want = ref.max_stage2_info(
            ref.design_cef(design), design.i2_min, q.beta, q.i1, design.branch_boundary
        )
        got = max_stage2_info(q, design.rule)
        assert got == pytest.approx(want, rel=1e-10, abs=0), (design.family, q)


def test_inverse_normal_max_information_digits():
    # The digits tests/test_acceptance.py's inverse-normal discrepancy
    # cites: at thirty digits, the package's binding design at t = 0.6 has
    # t(i2_max) = 2.7518 (2.751753), against a reference of 2.78.
    p = params_at(EVAL_BASE, 0.6)
    design = build_fasttrack(p, "inverse_normal")
    z_f = design.branch_boundary
    i2_max = ref.max_stage2_info(ref.inverse_normal(design.cef.c, z_f),
                                 design.i2_min, p.beta, p.i1, z_f)
    assert round(i2_max / i_delta_of(EVAL_BASE), 4) == 2.7518


def test_fisher_fixed_information_crossing_digits():
    # The digits tests/test_acceptance.py's Fisher discrepancy cites: at
    # thirty digits, the waive branch of Fisher's non-binding test succeeds
    # with probability 1 - beta at I2_const = I_delta between t = 0.4877
    # and 0.4879 (-1.7e-5 and +3.8e-5), against a reference crossing of 0.5.
    c = family_cef("fisher", ALPHA).c
    i_delta = i_delta_of(COMBO_BASE)

    def excess(t):
        p = params_at(COMBO_BASE, t)
        return ref.waive_branch_success(ref.fisher(c), i_delta, p.i1, p.delta,
                                        p.z_f) - (1.0 - p.beta)

    assert excess(0.4877) < 0.0 < excess(0.4879)
