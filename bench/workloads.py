"""The benchmark's three workloads and their correctness gates.

Each workload runs its fixed unit of work as a *pass*; the runner repeats
passes until the run's time is up.  A pass is a list of timed calls into the
package; everything else a pass does (drawing inputs, reading outputs,
comparing them) happens between calls and is not timed.  ``check`` runs the
correctness gates after the timed passes.

The package is reached through module attributes only (``comb_mod.x``, never
``from ... import x``), so a traced run's wrappers see every call.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from fasttrack import cef as cef_mod
from fasttrack import cli
from fasttrack import combination as comb_mod
from fasttrack import montecarlo as mc_mod
from fasttrack import power as power_mod
from fasttrack.design import DesignParams
from fasttrack.scenario import load_scenario

import clock as clock_mod
import generator

DATA = Path(__file__).resolve().parent / "data"
FASTTRACK_SCENARIO = DATA / "fasttrack_binding_fisher.txt"
COMBINATION_SCENARIO = DATA / "combination_example.txt"

FASTTRACK_FAMILIES = ("constant", "inverse_normal", "fisher")
COMBINATION_FAMILIES = ("constant", "inverse_normal", "fisher", "z_combination")

# Gate tolerances.  Quadrature and root searches work to about 1e-10 in
# probability; the observed worst errors over thousands of designs are below
# 1e-9, so these leave a factor of ten.
LEVEL_TOL = 1e-8
POWER_TOL = 1e-8
# Curve cells are printed with 10 significant digits on the t_xi scale,
# where values are of order one.
GOLDEN_TOL = 1e-7
# gambling_threshold refines its bracket to 5e-4 only.
THRESHOLD_TOL = 5e-4
MC_MAX_SE = 4.0
# Calibrations at the end of their bracket (c = 1, or alpha' = 1 - 1e-12)
# are saturated: the family cannot spend all of alpha.
SATURATED_ALPHA_PRIME = 1.0 - 1e-9


@dataclass
class Pass:
    """One pass of a workload: its timed calls, as [kind, seconds,
    reference seconds]."""

    calls: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def seconds(self) -> float:
        return sum(c[2] for c in self.calls)


@dataclass
class Checks:
    """What the correctness gates found."""

    level_errs: list = field(default_factory=list)
    power_errs: list = field(default_factory=list)
    golden_dev_max: float = 0.0
    mc_gap_se_max: float = 0.0
    designs: int = 0
    saturated: int = 0
    zero_floor: int = 0
    infeasible: int = 0
    problems: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.problems.append(message)
        print(f"gate failed: {message}", file=sys.stderr)

    def summary(self) -> dict:
        return {
            "level_err_max": max(self.level_errs, default=0.0),
            "power_err_max": max(self.power_errs, default=0.0),
            "golden_dev_max": self.golden_dev_max,
            "mc_gap_se_max": self.mc_gap_se_max,
            "designs": self.designs,
            "saturated_frac": self.saturated / self.designs if self.designs else 0.0,
            "zero_floor_frac": self.zero_floor / self.designs if self.designs else 0.0,
            "infeasible_frac": self.infeasible / self.designs if self.designs else 0.0,
            "failed_gates": len(self.problems),
        }


def _check_level(cef, alpha: float, checks: Checks, where: str) -> None:
    """Level condition: the integral equals alpha, unless the family is
    saturated at the end of its bracket, and never exceeds it."""
    level = cef_mod.level_integral(cef)
    if level > alpha + LEVEL_TOL:
        checks.fail(f"{where}: level {level!r} exceeds alpha {alpha!r}")
    elif level < alpha - LEVEL_TOL:
        if cef.c >= 1.0 or cef.alpha_prime >= SATURATED_ALPHA_PRIME:
            checks.saturated += 1
        else:
            checks.fail(f"{where}: level {level!r} below alpha {alpha!r} "
                        "without a saturated calibration")
    else:
        checks.level_errs.append(abs(level - alpha))


def _check_power(achieved: float, target: float, floor_positive: bool,
                 checks: Checks, where: str) -> None:
    """Power equals the target when the floor is positive, else exceeds it."""
    if floor_positive:
        err = abs(achieved - target)
        checks.power_errs.append(err)
        if err > POWER_TOL:
            checks.fail(f"{where}: power {achieved!r} misses target {target!r}")
    elif achieved < target - POWER_TOL:
        checks.fail(f"{where}: zero-floor power {achieved!r} below {target!r}")


def build_and_evaluate(params: DesignParams, mode: str, family: str):
    """Build one design and measure it, as a single-design user would."""
    if mode == "combination":
        design = comb_mod.build_combination(params, family)
        return design, comb_mod.branch_metrics(design)
    design = power_mod.build_fasttrack(
        params, family, binding=mode == "fasttrack_binding"
    )
    return design, power_mod.evaluate_design(params, design.rule)


def check_design(params, mode, family, design, metrics, checks, where) -> None:
    """Level and power invariants of one built and evaluated design."""
    checks.designs += 1
    target = 1.0 - params.beta
    if mode == "combination":
        _check_level(design.cef, params.alpha, checks, where)
        _check_power(metrics.p_success_given_upper, target, design.i2_min > 0,
                     checks, f"{where} upper branch")
        _check_power(metrics.p_success_given_lower, target, True,
                     checks, f"{where} waive branch")
        checks.zero_floor += design.i2_min == 0
        return
    # The separate-studies design tests at alpha and is never calibrated.
    if family != "constant":
        _check_level(design.rule.cef, params.alpha, checks, where)
    _check_power(metrics.overall_power, target, design.rule.i2_min > 0,
                 checks, where)
    checks.zero_floor += design.rule.i2_min == 0


def check_paper_designs(checks: Checks) -> None:
    """Invariants of the paper-scenario designs behind the curves."""
    ft = load_scenario(FASTTRACK_SCENARIO).design_params()
    combo = load_scenario(COMBINATION_SCENARIO).design_params()
    for params, mode, families in (
        (ft, "fasttrack_binding", FASTTRACK_FAMILIES),
        (combo, "combination", COMBINATION_FAMILIES),
    ):
        for family in families:
            design, metrics = build_and_evaluate(params, mode, family)
            check_design(params, mode, family, design, metrics, checks,
                         f"{mode} {family}")


def warm_up() -> None:
    """Run each code path once on a small input, so lazy set-up inside
    numpy and scipy is done before timing starts."""
    params = load_scenario(FASTTRACK_SCENARIO).design_params()
    design, _ = build_and_evaluate(params, "fasttrack_binding", "fisher")
    cfg = mc_mod.SimConfig(n_reps=10_000, seed=0, theta=params.delta)
    mc_mod.simulate(design, cfg)


class CurveGrid:
    """Two figure curves through ``cli.main`` plus the gambling thresholds.

    Neighbouring grid points solve nearly identical problems, so this is
    where per-call overhead, warm starts and lockstep solving act.  The
    inputs are the paper's scenarios and do not depend on the seed.
    """

    STEP = 0.02
    probe = staticmethod(clock_mod.small_array_slowness)
    CURVES = (
        ("i2_min", FASTTRACK_SCENARIO),
        ("i2_const", COMBINATION_SCENARIO),
    )

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        self.combo = load_scenario(COMBINATION_SCENARIO).design_params()
        self.golden = {kind: _read_csv(DATA / f"golden_{kind}.csv")
                       for kind, _ in self.CURVES}
        self.golden_thresholds = json.loads(
            (DATA / "golden_thresholds.json").read_text(encoding="utf-8"))
        self.checks = Checks()

    def run_pass(self, index: int, clock: clock_mod.Clock) -> Pass:
        result = Pass()
        for kind, scenario in self.CURVES:
            out = self.out_dir / f"curve_{kind}.csv"
            argv = ["curve", "--scenario", str(scenario), "--kind", kind,
                    "--out", str(out), "--grid-step", repr(self.STEP)]
            result.attempted += 1
            try:
                code = clock.call(result, f"curve_{kind}", cli.main, argv)
            except Exception as exc:  # a crash is a failed call, not a stop
                code = repr(exc)
            if code != 0:
                result.failed += 1
                self.checks.fail(f"curve {kind} exited with {code}")
            elif not self._matches_golden(kind, _read_csv(out)):
                result.failed += 1
        for family in COMBINATION_FAMILIES:
            result.attempted += 1
            try:
                value = clock.call(result, f"threshold_{family}",
                                   comb_mod.gambling_threshold, self.combo, family)
            except Exception as exc:
                result.failed += 1
                self.checks.fail(f"gambling_threshold {family}: {exc!r}")
                continue
            dev = abs(value - self.golden_thresholds[family])
            self.checks.golden_dev_max = max(self.checks.golden_dev_max, dev)
            if dev > THRESHOLD_TOL:
                result.failed += 1
                self.checks.fail(f"threshold {family} {value!r} deviates by {dev!r}")
        return result

    def _matches_golden(self, kind: str, rows: list) -> bool:
        golden = self.golden[kind]
        if len(rows) != len(golden) or rows[0] != golden[0]:
            self.checks.fail(f"curve {kind}: shape or header differs from golden")
            return False
        ok = True
        for got_row, want_row in zip(rows[1:], golden[1:]):
            for got, want in zip(got_row, want_row):
                if got == want:
                    continue
                try:
                    dev = abs(float(got) - float(want))
                except ValueError:  # "infeasible" against a number
                    dev = math.inf
                self.checks.golden_dev_max = max(self.checks.golden_dev_max, dev)
                if dev > GOLDEN_TOL:
                    ok = False
        if not ok:
            self.checks.fail(f"curve {kind}: cells deviate from golden by "
                             f"{self.checks.golden_dev_max!r}")
        return ok

    def check(self) -> Checks:
        check_paper_designs(self.checks)
        return self.checks


def _read_csv(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


class DesignSweep:
    """Independent seeded designs from the whole valid domain, each used once.

    No two inputs share work, so grid warm starts and caches should change
    nothing here; per-design latency is what a single-design user waits for.
    """

    BATCH = 100
    probe = staticmethod(clock_mod.small_array_slowness)

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.results: dict = {}
        self.checks = Checks()

    def run_pass(self, index: int, clock: clock_mod.Clock) -> Pass:
        cases = generator.draw_cases(self.seed, index, self.BATCH)
        result = Pass()
        done = []
        for case in cases:
            params = DesignParams(**case.param_dict())
            result.attempted += 1
            try:
                design, metrics = clock.call(result, "design", build_and_evaluate,
                                             params, case.mode, case.family)
            except power_mod.InfeasiblePowerError:
                design = metrics = None  # a valid answer: no floor reaches 1 - beta
            except Exception as exc:
                result.failed += 1
                print(f"design failed: {case}: {exc!r}", file=sys.stderr)
                continue
            done.append((case, params, design, metrics))
        self.results[index] = done
        return result

    def check(self) -> Checks:
        for index, done in sorted(self.results.items()):
            for i, (case, params, design, metrics) in enumerate(done):
                if design is None:
                    self.checks.designs += 1
                    self.checks.infeasible += 1
                    continue
                check_design(params, case.mode, case.family, design, metrics,
                             self.checks, f"batch {index} case {i} {case}")
        return self.checks


class MonteCarlo:
    """``montecarlo.simulate`` at 10^6 replications, at theta = 0 and delta,
    for one fast-track and one combination design.

    Here the CEF and stage-two rule run once on 10^6-element arrays and the
    Philox sampler dominates: the opposite regime to the grid workloads.
    """

    REPS = 1_000_000
    probe = staticmethod(clock_mod.large_array_slowness)

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        ft = load_scenario(FASTTRACK_SCENARIO).design_params()
        combo = load_scenario(COMBINATION_SCENARIO).design_params()
        ft_design, ft_eval = build_and_evaluate(ft, "fasttrack_binding", "fisher")
        co_design, co_eval = build_and_evaluate(combo, "combination", "z_combination")
        self.designs = (
            (ft, "fasttrack_binding", "fisher", ft_design, ft_eval),
            (combo, "combination", "z_combination", co_design, co_eval),
        )
        # (name, design, theta, quadrature rejection probability)
        self.jobs = (
            ("fasttrack_theta0", ft_design, 0.0,
             cef_mod.level_integral(ft_design.rule.cef, ft_design.branch_boundary)),
            ("fasttrack_delta", ft_design, ft.delta, ft_eval.overall_power),
            ("combination_theta0", co_design, 0.0,
             cef_mod.level_integral(co_design.cef)),
            ("combination_delta", co_design, combo.delta, co_eval.overall_power),
        )
        self.rejections: dict = {}
        self.checks = Checks()

    def run_pass(self, index: int, clock: clock_mod.Clock) -> Pass:
        result = Pass()
        counts = []
        for j, (name, design, theta, _) in enumerate(self.jobs):
            cfg = mc_mod.SimConfig(n_reps=self.REPS, seed=self.seed, theta=theta)
            result.attempted += 1
            try:
                report = clock.call(result, name, mc_mod.simulate, design, cfg,
                                    substream=len(self.jobs) * index + j)
            except Exception as exc:
                result.failed += 1
                self.checks.fail(f"simulate {name}: {exc!r}")
                continue
            counts.append((round(report.p_reject_hat * report.n_reps), report.n_reps))
        # Keyed by pass index: a repeated pass replays the same substreams
        # and must not be pooled twice.
        if len(counts) == len(self.jobs):
            self.rejections[index] = counts
        return result

    def check(self) -> Checks:
        for params, mode, family, design, metrics in self.designs:
            check_design(params, mode, family, design, metrics, self.checks,
                         f"{mode} {family}")
        for j, (name, _, _, p) in enumerate(self.jobs):
            hits = sum(c[j][0] for c in self.rejections.values())
            n = sum(c[j][1] for c in self.rejections.values())
            if n == 0:
                continue
            gap = abs(hits / n - p) / math.sqrt(p * (1.0 - p) / n)
            self.checks.mc_gap_se_max = max(self.checks.mc_gap_se_max, gap)
            if gap > MC_MAX_SE:
                self.checks.fail(f"{name}: Monte Carlo rejection rate {hits / n!r} "
                                 f"is {gap:.2f} SE from quadrature {p!r}")
        return self.checks


WORKLOADS = {
    "curve_grid": CurveGrid,
    "design_sweep": DesignSweep,
    "monte_carlo": MonteCarlo,
}
