"""Tests of the benchmark's own code: span arithmetic, wrapper lifetime,
the reference clock, the scenario generator and the output contract of
``bench/run.py``."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import clock
import fasttrack
import generator
import tracing
import workloads
from fasttrack import design as design_mod
from fasttrack import power as power_mod
from fasttrack.design import DesignParams

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


# -- spans ------------------------------------------------------------------

def test_self_times_subtract_children_only():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx({"root": 3.0, "a": 2.0, "c": 1.0, "b": 4.0})
    assert sum(got.values()) == pytest.approx(10.0)


def test_self_times_sum_over_spans_of_one_name():
    spans = [
        ["f", 0.0, 2.0, None],
        ["g", 0.5, 1.0, 0],
        ["f", 3.0, 4.0, None],
        ["g", 3.2, 3.3, 2],
        ["g", 3.5, 3.6, 2],
    ]
    got = tracing.self_times(spans)
    assert got["f"] == pytest.approx(1.5 + 0.8)
    assert got["g"] == pytest.approx(0.7)


def test_initial_panels_cut_at_interior_kinks():
    assert tracing.initial_panels(0.0, 1.0, 8.5, ()) == 1
    assert tracing.initial_panels(0.0, 1.0, 8.5, (0.5, 2.0, -1.0, 0.0)) == 2
    assert tracing.initial_panels(-math.inf, math.inf, 8.5, (0.0, 9.0)) == 2


# -- wrappers ---------------------------------------------------------------

def _traced_build(tracer):
    params = DesignParams(alpha=0.025, alpha_c=0.15, beta=0.2, delta_rel=1.0,
                          xi=2.0, i1=1.2)
    tracer.reset()
    with tracer:
        design = power_mod.build_fasttrack(params, "fisher")
        power_mod.evaluate_design(params, design.rule)
    return tracer.counts, tracer.spans


def test_wrappers_are_removed_after_a_traced_run():
    modules = tracing.package_modules(fasttrack)
    before = {name: dict(vars(m)) for name, m in modules.items()}
    tracer = tracing.Tracer(fasttrack)
    counts, spans = _traced_build(tracer)
    assert counts["power.solve_i2_min.calls"] == 1
    assert counts["numerics.integrate.evals"] > 0
    assert spans and all(end >= start for _, start, end, _ in spans)
    for name, module in modules.items():
        for attr, value in before[name].items():
            assert vars(module)[attr] is value, f"{name}.{attr} still wrapped"


def test_wrappers_rebind_every_importing_module():
    tracer = tracing.Tracer(fasttrack)
    original = fasttrack.numerics.integrate
    with tracer:
        for mod in ("cef", "power", "combination", "numerics"):
            wrapped = getattr(tracer.modules[mod], "integrate")
            assert wrapped is not original and wrapped.__wrapped__ is original
    assert fasttrack.power.integrate is original


def test_traced_counts_repeat_exactly():
    tracer = tracing.Tracer(fasttrack)
    first, _ = _traced_build(tracer)
    second, _ = _traced_build(tracer)
    assert first == second


def test_floor_kink_evaluations_are_attributed_to_power_integrals():
    counts, _ = _traced_build(tracing.Tracer(fasttrack))
    assert 0 < counts["power.floor_kink.f_evals"] <= counts["numerics.find_root.f_evals"]


# -- clock ------------------------------------------------------------------

def test_clock_scales_by_probes_around_each_call_and_drops_probe_time():
    now = [0.0]
    slowness = iter([1.0, 2.0, 2.0, 2.0, 3.0])

    def probe():
        now[0] += 0.004
        return next(slowness)

    c = clock.Clock(probe, every=None, now=lambda: now[0])

    def work(seconds, probes):
        for _ in range(probes):
            now[0] += seconds / (probes + 1)
            c._sample()  # as the timer signal would, mid-call
        now[0] += seconds / (probes + 1)

    result = workloads.Pass()
    with c:  # probes 1.0 on entry and 3.0 on exit
        c.call(result, "a", work, 0.06, 3)  # probes 2.0, 2.0, 2.0 inside
        now[0] += 0.01
        c.call(result, "b", work, 0.02, 0)
    (_, raw_a, ref_a), (_, raw_b, ref_b) = result.calls
    assert raw_a == pytest.approx(0.06) and raw_b == pytest.approx(0.02)
    assert ref_a == pytest.approx(0.06 / 2.0)  # mean of 1, 2, 2, 2, 3
    assert ref_b == pytest.approx(0.02 / 2.5)  # mean of 2 before, 3 after
    assert result.seconds == pytest.approx(ref_a + ref_b)


# -- generator --------------------------------------------------------------

def test_generator_is_deterministic_per_seed_and_batch():
    assert generator.draw_cases(7, 0, 30) == generator.draw_cases(7, 0, 30)
    assert generator.draw_cases(7, 0, 30) != generator.draw_cases(8, 0, 30)
    assert generator.draw_cases(7, 0, 30) != generator.draw_cases(7, 1, 30)


def test_generator_yields_only_valid_parameters():
    cases = [c for seed in range(5) for c in generator.draw_cases(seed, 0, 60)]
    for case in cases:
        lo, hi = generator.i1_bounds(case.alpha, case.alpha_c, case.beta,
                                     case.delta_rel, case.xi)
        assert 0.0 < case.alpha < case.alpha_c < 0.5, case
        assert 0.0 < case.beta < 0.5 and case.delta_rel > 0.0, case
        assert case.xi > generator.xi_min(case.alpha, case.beta), case
        assert lo <= case.i1 <= hi, case
        assert case.family in generator.FAMILIES[case.mode], case
        DesignParams(**case.param_dict())  # the program accepts every draw
    modes = [c.mode for c in cases]
    assert {modes.count(m) for m in generator.MODES} == {len(cases) // 3}
    assert {c.family for c in cases if c.mode == "combination"} == set(
        generator.FAMILIES["combination"])


def test_generator_bounds_match_the_package():
    for case in generator.draw_cases(3, 0, 30):
        params = DesignParams(**case.param_dict())
        lo, hi = generator.i1_bounds(case.alpha, case.alpha_c, case.beta,
                                     case.delta_rel, case.xi)
        assert lo == pytest.approx(design_mod.i1_min(params), rel=1e-12)
        assert hi == pytest.approx(design_mod.i1_max(case.alpha, case.delta_rel), rel=1e-12)
        assert generator.xi_min(case.alpha, case.beta) == pytest.approx(
            design_mod.xi_min(case.alpha, case.beta), rel=1e-12)


# -- runner -----------------------------------------------------------------

def test_parse_importtime_reads_self_and_cumulative():
    import run

    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        500 |   numpy\n"
        "import time:        30 |         40 | fasttrack.cli\n"
    )
    assert run.parse_importtime(text) == {
        "numpy": (120e-6, 500e-6), "fasttrack.cli": (30e-6, 40e-6)}


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "monte_carlo", "--seed", "3",
         "--seconds", "0.1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_declared_metric(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
