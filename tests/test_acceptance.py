"""Acceptance suite.

Every stated acceptance criterion is exercised here and reports one
``ACCEPTANCE <n>: PASS/FAIL`` line (run pytest with ``-s`` to see them).
Two reference values could not be reproduced at the stated tolerance by
independent high-precision quadrature; those checks are kept as strict
expected failures with the measured values printed, and are analysed in the
project decision ledger.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import COMBO_BASE, EVAL_BASE, SIGMA, i_delta_of, params_at
from fasttrack import cef as cef_mod
from fasttrack import combination as comb_mod
from fasttrack import montecarlo as mc_mod
from fasttrack import power as power_mod
from fasttrack.design import (
    DesignParams,
    ExampleCost,
    cond_registration_power,
    derive,
    i1_max,
    i1_min,
    noncentrality_target,
    xi_min,
)
from fasttrack.numerics import find_root, std_normal_quantile
from reference_formulas import atilde_z, naive_inflation

ALPHA, BETA = 0.025, 0.2
MC_REPS = 1_000_000
MC_SEED = 20260823

DURATIONS = {"non_mc": 0.0, "mc": 0.0}

_EVAL_CACHE: dict = {}
_COMBO_CACHE: dict = {}


@contextmanager
def timed(bucket: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        DURATIONS[bucket] += time.perf_counter() - start


def eval_design(family: str, binding: bool = True, t: float = 0.6):
    key = (family, binding, t)
    if key not in _EVAL_CACHE:
        p = params_at(EVAL_BASE, t)
        _EVAL_CACHE[key] = power_mod.build_fasttrack(p, family, binding=binding)
    return _EVAL_CACHE[key]


def combo_design(family: str, t: float = 0.5):
    key = (family, t)
    if key not in _COMBO_CACHE:
        p = params_at(COMBO_BASE, t)
        _COMBO_CACHE[key] = comb_mod.build_combination(p, family)
    return _COMBO_CACHE[key]


def report(label: str, checks: list) -> None:
    failures = [(name, detail) for name, ok, detail in checks if not ok]
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {label}: {status} ({len(checks)} checks)")
    for name, detail in failures:
        print(f"  failed: {name}: {detail}")
    assert not failures, failures


def close(got, want, tol):
    return abs(got - want) <= tol, f"got {got!r}, want {want!r} +- {tol}"


def test_criterion1_closed_form_landmarks():
    with timed("non_mc"):
        checks = []
        eta = noncentrality_target(ALPHA, BETA)
        checks.append(("eta_f", *close(eta, 2.8016, 5e-4)))
        t_rel = i1_max(ALPHA, 1.0) / (eta**2)
        checks.append(("t_rel(i1_max)", *close(t_rel, 0.4895, 5e-4)))
        checks.append(("xi_min", *close(xi_min(ALPHA, BETA), 1.4294, 5e-4)))
        checks.append(
            ("quantile(0.85)", *close(std_normal_quantile(0.85), 1.0364, 5e-4))
        )
        checks.append(
            (
                "naive inflation",
                *close(naive_inflation(ALPHA, 0.15), 0.04625, 5e-4),
            )
        )
    report("1 (closed-form landmarks)", checks)


def test_criterion2_pilot_example_numbers():
    with timed("non_mc"):
        checks = []
        cost = ExampleCost(sigma=SIGMA)
        p = params_at(EVAL_BASE, 0.6)
        d = derive(p)
        checks.append(("i_rel", *close(d.i_rel, 7.84, 0.01)))
        checks.append(("i_delta", *close(d.i_delta, 1.96, 0.01)))
        checks.append(("n_rel", *close(cost.group_size_of(d.i_rel), 420, 1)))
        checks.append(("n_delta", *close(cost.group_size_of(d.i_delta), 105, 1)))
        checks.append(("n1_max", *close(cost.group_size_of(d.i1_max), 206, 1)))
        checks.append(("n1_min(0.15)", *close(cost.group_size_of(d.i1_min), 48, 1)))
        p05 = DesignParams(**{**EVAL_BASE, "alpha_c": 0.05, "i1": 1.0})
        checks.append(("n1_min(0.05)", *close(cost.group_size_of(i1_min(p05)), 84, 1)))
        checks.append(("z_f at t=0.6", *close(d.z_f, 1.09, 0.01)))
    report("2 (pilot-sizing example numbers)", checks)


def test_criterion3_stage_two_solver_landmarks():
    with timed("non_mc"):
        checks = []
        cost = ExampleCost(sigma=SIGMA)
        i_delta = i_delta_of(EVAL_BASE)
        p = params_at(EVAL_BASE, 0.6)
        want = {
            # family: (t of floor, t of mean, t of max or None, n_min, n_max)
            "constant": (1.41, 1.41, 4.0, 148, 420),
            "inverse_normal": (0.33, 0.47, None, 35, None),
            "fisher": (0.29, 0.47, 3.0, 31, 315),
        }
        for family, (t_min, t_mean, t_max, n_min, n_max) in want.items():
            design = eval_design(family)
            res = power_mod.evaluate_design(p, design.rule)
            checks.append(
                (f"{family} t(i2_min)", *close(res.i2_min / i_delta, t_min, 0.01))
            )
            checks.append(
                (f"{family} t(mean i2)", *close(res.i2_mean / i_delta, t_mean, 0.01))
            )
            checks.append(
                (f"{family} n(i2_min)", *close(cost.group_size_of(res.i2_min), n_min, 1))
            )
            if t_max is not None:
                checks.append(
                    (f"{family} t(i2_max)", *close(res.i2_max / i_delta, t_max, 0.01))
                )
                checks.append(
                    (
                        f"{family} n(i2_max)",
                        *close(cost.group_size_of(res.i2_max), n_max, 1),
                    )
                )
            checks.append(
                (f"{family} power", *close(res.overall_power, 0.8, 1e-6))
            )
    report("3 (stage-two solver landmarks)", checks)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "reference value 2.78 (per-group 292) appears to be read off a "
        "plotted curve; the thirty-digit oracle (test_reference_mp.py::"
        "test_inverse_normal_max_information_digits) and an independent "
        "scipy oracle both give t(i2_max) = 2.7518 (per-group 289)"
    ),
)
def test_criterion3_inverse_normal_max_documented_discrepancy():
    with timed("non_mc"):
        i_delta = i_delta_of(EVAL_BASE)
        p = params_at(EVAL_BASE, 0.6)
        design = eval_design("inverse_normal")
        res = power_mod.evaluate_design(p, design.rule)
        got = res.i2_max / i_delta
        print(
            f"ACCEPTANCE 3 (inverse normal max info): FAIL (documented) "
            f"got {got:.4f}, reference 2.78 +- 0.01"
        )
        assert abs(got - 2.78) <= 0.01


def test_criterion4_calibration_constants():
    with timed("non_mc"):
        checks = []
        inv = cef_mod.family_cef("inverse_normal", ALPHA)
        fis = cef_mod.family_cef("fisher", ALPHA)
        checks.append(("c (inverse normal)", *close(inv.c, 0.0253, 5e-4)))
        checks.append(("c (Fisher)", *close(fis.c, 0.0044, 5e-4)))
        z_inv = find_root(lambda z: cef_mod.eval_cef(inv, float(z)) - ALPHA, 0.0, 2.0)
        z_fis = find_root(lambda z: cef_mod.eval_cef(fis, float(z)) - ALPHA, 0.0, 2.0)
        checks.append(("alpha crossing (inverse normal)", *close(z_inv, 0.8041, 1e-3)))
        checks.append(("alpha crossing (Fisher)", *close(z_fis, 0.9382, 1e-3)))
        for xi, expected in ((1.75, 1.1222), (2.0, 1.0364)):
            p0 = DesignParams(**{**EVAL_BASE, "xi": xi, "i1": 1.0})
            p = DesignParams(**{**EVAL_BASE, "xi": xi, "i1": i1_min(p0)})
            checks.append(
                (f"z_f at i1_min (xi={xi})", *close(derive(p).z_f, expected, 1e-3))
            )
    report("4 (calibration constants)", checks)


def test_criterion5_combination_strategy():
    with timed("non_mc"):
        checks = []
        cost = ExampleCost(sigma=SIGMA)
        p = params_at(COMBO_BASE, 0.5)
        table = {
            "constant": (137, 130, 215, 139),
            "inverse_normal": (137, 14, 137, 68),
            "fisher": (137, 12, 141, 70),
            "z_combination": (124, 22, 124, 70),
        }
        for family, expected in table.items():
            design = combo_design(family)
            m = comb_mod.branch_metrics(design)
            got = (
                cost.group_size_of(design.i2_const),
                cost.group_size_of(design.i2_min),
                cost.group_size_of(m.max_i2_both),
                cost.group_size_of(m.e_i2_both),
            )
            for cell, (g, e) in zip(
                ("n2_const", "n2_min", "n2_max", "E(n2)"), zip(got, expected)
            ):
                checks.append((f"table {family} {cell}", *close(g, e, 1)))
        checks.append(
            (
                "P(conditional registration)",
                *close(cond_registration_power(p), 0.65, 0.005),
            )
        )
        gambling = {
            "constant": 0.137,
            "inverse_normal": 0.0813,
            "fisher": 0.0854,
            "z_combination": 0.1128,
        }
        for family, want_t in gambling.items():
            got_t = comb_mod.gambling_threshold(p, family)
            checks.append((f"gambling threshold {family}", *close(got_t, want_t, 2e-3)))

        i_delta = i_delta_of(COMBO_BASE)

        def i2_const_excess(t, family):
            pp = params_at(COMBO_BASE, float(t))
            return comb_mod.build_combination(pp, family).i2_const / i_delta - 1.0

        t_inv = find_root(lambda t: i2_const_excess(t, "inverse_normal"), 0.3, 0.7)
        t_az = find_root(lambda t: i2_const_excess(t, "z_combination"), 0.2, 0.5)
        checks.append(("i2_const crossing (inverse normal)", *close(t_inv, 0.5, 0.01)))
        checks.append(("i2_const crossing (combined z)", *close(t_az, 0.33, 0.01)))
    report("5 (combination strategy)", checks)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "reference crossing 0.5 appears to be read off a plotted curve; "
        "the thirty-digit oracle (test_reference_mp.py::"
        "test_fisher_fixed_information_crossing_digits) and an independent "
        "scipy oracle both put the Fisher fixed-information crossing at 0.4878"
    ),
)
def test_criterion5_fisher_crossing_documented_discrepancy():
    with timed("non_mc"):
        i_delta = i_delta_of(COMBO_BASE)

        def excess(t):
            p = params_at(COMBO_BASE, float(t))
            return comb_mod.build_combination(p, "fisher").i2_const / i_delta - 1.0

        got = find_root(excess, 0.3, 0.7)
        print(
            f"ACCEPTANCE 5 (Fisher fixed-information crossing): FAIL "
            f"(documented) got {got:.4f}, reference 0.5 +- 0.01"
        )
        assert abs(got - 0.5) <= 0.01


LEVEL_MATRIX_SCENARIOS = (
    dict(alpha_c=0.15, delta_rel=1.0, xi=2.0, t=0.6),
    dict(alpha_c=0.10, delta_rel=1.0, xi=2.0, t=0.9),
    dict(alpha_c=0.15, delta_rel=1.0, xi=1.75, t=0.7),
    dict(alpha_c=0.15, delta_rel=1.4, xi=1.25, t=0.5),
    dict(alpha_c=0.20, delta_rel=0.8, xi=1.5, t=0.5),
)


def test_criterion6a_level_condition_matrix():
    with timed("non_mc"):
        checks = []
        for sc in LEVEL_MATRIX_SCENARIOS:
            base = dict(alpha=ALPHA, beta=BETA, alpha_c=sc["alpha_c"],
                        delta_rel=sc["delta_rel"], xi=sc["xi"])
            p = params_at(base, sc["t"])
            z_f = p.z_f
            tag = f"(xi={sc['xi']}, t={sc['t']}, alpha_c={sc['alpha_c']})"

            flat = cef_mod.constant_cef(ALPHA)
            checks.append(
                (
                    f"constant {tag}",
                    *close(cef_mod.level_integral(flat, -math.inf), ALPHA, 1e-8),
                )
            )
            for name, family, lower in (
                ("inv normal binding", "inverse_normal", z_f),
                ("Fisher binding", "fisher", z_f),
                ("inv normal unrestricted", "inverse_normal", -math.inf),
                ("Fisher unrestricted", "fisher", -math.inf),
            ):
                calibrated = cef_mod.family_cef(family, ALPHA, lower)
                checks.append(
                    (
                        f"{name} {tag}",
                        *close(cef_mod.level_integral(calibrated, lower), ALPHA, 1e-8),
                    )
                )
            az = comb_mod.build_combination(p, "z_combination").cef
            checks.append(
                (
                    f"combined z {tag}",
                    *close(cef_mod.level_integral(az, -math.inf), ALPHA, 1e-8),
                )
            )
    report("6a (level condition, 30-scenario matrix)", checks)


def test_criterion6b_monte_carlo_type_one_error():
    with timed("mc"):
        checks = []
        bound = ALPHA + 3.0 * math.sqrt(ALPHA * (1.0 - ALPHA) / MC_REPS)
        designs = []
        for family in ("constant", "inverse_normal", "fisher"):
            designs.append((f"fasttrack binding {family}", eval_design(family)))
            designs.append(
                (f"fasttrack nonbinding {family}", eval_design(family, binding=False))
            )
        for family in cef_mod.FAMILIES:
            designs.append((f"combination {family}", combo_design(family)))
        for idx, (name, design) in enumerate(designs):
            cfg = mc_mod.SimConfig(n_reps=MC_REPS, seed=MC_SEED, theta=0.0)
            rep = mc_mod.simulate(design, cfg, substream=idx)
            checks.append(
                (
                    name,
                    rep.p_reject_hat <= bound,
                    f"type I {rep.p_reject_hat:.5f} vs bound {bound:.5f}",
                )
            )
    report("6b (Monte Carlo type I error, 1e6 reps)", checks)


def _power_scenarios():
    scenarios = []
    for family in ("constant", "inverse_normal", "fisher"):
        for t in (0.5, 0.6, 0.9, 1.5):
            scenarios.append((f"binding {family} t={t}", family, True, t, None))
    for family in ("inverse_normal", "fisher"):
        for t in (0.6, 1.0):
            scenarios.append((f"nonbinding {family} t={t}", family, False, t, None))
    for family in ("fisher", "z_combination"):
        for t in (0.3, 0.5):
            scenarios.append((f"combination {family} t={t}", family, None, t, "combo"))
    return scenarios


def test_criterion6c_power_agreement():
    with timed("mc"):
        checks = []
        scenarios = _power_scenarios()
        assert len(scenarios) == 20
        for idx, (name, family, binding, t, kind) in enumerate(scenarios):
            if kind == "combo":
                design = combo_design(family, t)
                want = comb_mod.branch_metrics(design).overall_power
                theta = design.params.delta
            else:
                design = eval_design(family, binding=binding, t=t)
                res = power_mod.evaluate_design(design.params, design.rule)
                want = res.overall_power
                theta = design.params.delta
            cfg = mc_mod.SimConfig(n_reps=MC_REPS, seed=MC_SEED + 1, theta=theta)
            rep = mc_mod.simulate(design, cfg, substream=idx)
            gap = abs(rep.p_reject_hat - want)
            tol = 4.0 * rep.p_reject_se
            checks.append(
                (name, gap <= tol, f"|{rep.p_reject_hat:.5f} - {want:.5f}| vs 4se={tol:.5f}")
            )
    report("6c (quadrature vs Monte Carlo power, 20 scenarios)", checks)


def test_criterion6d_max_information_dominance():
    with timed("non_mc"):
        checks = []
        for xi in (1.75, 2.0):
            base = {**EVAL_BASE, "xi": xi}
            d0 = derive(DesignParams(i1=1.0, **base))
            t_lo = d0.i1_min / d0.i_delta
            t_hi = d0.i1_max / d0.i_delta
            for t in np.linspace(t_lo * 1.05, t_hi * 0.95, 5):
                p = params_at(base, float(t))
                z_f = p.z_f
                flat = power_mod.build_fasttrack(p, "constant")
                max_flat = power_mod.max_stage2_info(p, flat.rule)
                for family in ("inverse_normal", "fisher"):
                    design = power_mod.build_fasttrack(p, family)
                    a_bound = cef_mod.eval_cef(design.rule.cef, z_f + 1e-12)
                    if a_bound <= ALPHA:
                        continue  # dominance is only claimed above the flat level
                    max_adapt = power_mod.max_stage2_info(p, design.rule)
                    checks.append(
                        (
                            f"xi={xi} t={t:.3f} {family}",
                            max_adapt < max_flat,
                            f"adaptive {max_adapt:.4f} vs flat {max_flat:.4f}",
                        )
                    )
        assert len(checks) >= 16
    report("6d (maximum-information dominance)", checks)


def test_criterion6e_waive_branch_monotonicity():
    with timed("non_mc"):
        checks = []
        grid = (0.25, 0.5, 1.0, 2.0, 4.0)
        for t in (0.3, 0.5):
            p = params_at(COMBO_BASE, t)
            for name, family in (
                ("inverse normal", "inverse_normal"),
                ("Fisher", "fisher"),
            ):
                calibrated = cef_mod.family_cef(family, ALPHA)
                vals = [
                    comb_mod.lower_branch_success(p, x, calibrated)
                    for x in grid
                ]
                ok = all(b > a for a, b in zip(vals, vals[1:]))
                checks.append((f"{name} t={t}", ok, f"sequence {vals}"))
            vals = [
                comb_mod.lower_branch_success(
                    p, x, cef_mod.z_combination_cef(p.i1, x, p.z_f, ALPHA, ALPHA)
                )
                for x in grid
            ]
            ok = all(b > a for a, b in zip(vals, vals[1:]))
            checks.append((f"combined z base t={t}", ok, f"sequence {vals}"))
    report("6e (waive-branch success monotone in information)", checks)


def test_criterion6f_combined_test_identity():
    with timed("non_mc"):
        p = params_at(COMBO_BASE, 0.5)
        design = combo_design("z_combination")
        i1, i2c = p.i1, design.i2_const
        w1 = math.sqrt(i1 / (i1 + i2c))
        w2 = math.sqrt(i2c / (i1 + i2c))
        z_alpha = std_normal_quantile(1.0 - ALPHA)
        z1 = np.linspace(-5.0, 5.0, 200)
        z2 = np.linspace(-5.0, 5.0, 200)
        a = atilde_z(z1, ALPHA, i1, i2c)
        cutoff = std_normal_quantile(1.0 - np.clip(a, 1e-300, 1.0 - 1e-16))
        combined = w1 * z1[:, None] + w2 * z2[None, :] >= z_alpha
        conditional = z2[None, :] >= cutoff[:, None]
        disagreements = int(np.sum(combined != conditional))
    report(
        "6f (combined-test decision identity, 200x200 grid)",
        [("disagreements", disagreements == 0, f"{disagreements} of 40000")],
    )


def test_criterion7_runtime():
    checks = [
        (
            "non Monte Carlo suite",
            DURATIONS["non_mc"] < 120.0,
            f"{DURATIONS['non_mc']:.1f}s vs 120s budget",
        ),
        (
            "Monte Carlo suite",
            DURATIONS["mc"] < 600.0,
            f"{DURATIONS['mc']:.1f}s vs 600s budget",
        ),
    ]
    print(
        f"acceptance suite timings: non-MC {DURATIONS['non_mc']:.1f}s, "
        f"MC {DURATIONS['mc']:.1f}s"
    )
    report("7 (runtime budget)", checks)
