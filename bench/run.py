"""Benchmark of the fasttrack package, run against the checkout's ``src/``.

    python3 bench/run.py --workload curve_grid --seed 1 --seconds 25 --trace 0

Workloads: ``curve_grid``, ``design_sweep``, ``monte_carlo`` (see
``bench/README.md``).  One process, closed loop, no threads.  The run times
whole passes of the workload until ``--seconds`` have passed (at least
three), then runs the correctness gates.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it alternates plain and traced passes
of the same input and prints the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits 2 without a result when the package cannot
be imported from this checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import clock as clock_mod
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

WORKLOAD_NAMES = ("curve_grid", "design_sweep", "monte_carlo")
SETUP_RUNS = 5
SETUP_TRACE_RUNS = 3
SETUP_SCENARIO = BENCH / "data" / "fasttrack_binding_fisher.txt"
# reference_child.py's time on an unloaded core of the 2-vCPU VM used to
# define the benchmark.
REFERENCE_IMPORT_S = 0.37
MIN_PASSES = 3
# Errors below the quadrature's absolute tolerance count as that tolerance:
# smaller differences are luck, not accuracy, and the metric stays finite.
ERR_FLOOR = 1e-10


class CheckoutError(RuntimeError):
    """The package cannot be imported from this checkout's ``src/``."""


def import_checkout():
    """Import ``fasttrack`` from ``src/`` and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import fasttrack
    except ImportError as exc:
        raise CheckoutError(f"cannot import fasttrack from {SRC}: {exc}") from None
    found = Path(fasttrack.__file__ or "").resolve().parent
    if found != (SRC / "fasttrack").resolve():
        raise CheckoutError(f"fasttrack resolves to {found}, not to {SRC}")
    return fasttrack


def commit_of(root: Path) -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "commit": commit_of(ROOT),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


def parse_importtime(text: str) -> dict:
    """``-X importtime`` lines as module -> (self seconds, cumulative seconds)."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        out.setdefault(name, (int(fields[0]) / 1e6, int(fields[1]) / 1e6))
    return out


def _child(script: Path, *args: str, importtime: bool = False):
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(script), *args]
    return subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120, check=True)


def measure_setup(runs: int, importtime: bool) -> list:
    """Start ``runs`` fresh interpreters that import the package and load a
    scenario (its bytecode is already compiled by this process's import).

    A reference child runs before and after each one; ``setup_s`` is the
    child's time over the mean of the two, times the reference's nominal
    time, so the host's import speed at that moment cancels out.
    """
    samples = []
    before = float(_child(BENCH / "reference_child.py").stdout)
    for _ in range(runs):
        proc = _child(BENCH / "setup_child.py", str(SETUP_SCENARIO), importtime=importtime)
        after = float(_child(BENCH / "reference_child.py").stdout)
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(info["file"]).resolve().parent != (SRC / "fasttrack").resolve():
            raise CheckoutError(f"setup child imported {info['file']}")
        info["modules"] = parse_importtime(proc.stderr) if importtime else {}
        info["setup_s"] = ((info["import_s"] + info["load_s"])
                           * REFERENCE_IMPORT_S / (0.5 * (before + after)))
        samples.append(info)
        before = after
    return samples


def percentile(values, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def geometric_mean_over_kinds(passes, p: int) -> float:
    """The p-th percentile of call latency per call kind, in ms, combined as
    a geometric mean over the workload's kinds of call."""
    by_kind = defaultdict(list)
    for result in passes:
        for kind, _, seconds in result.calls:
            by_kind[kind].append(seconds * 1e3)
    return statistics.geometric_mean([percentile(v, p) for v in by_kind.values()])


def digits(errors) -> float:
    """Accuracy as -log10 of the worst error, at most 10."""
    return -math.log10(max(max(errors, default=ERR_FLOOR), ERR_FLOOR))


def run_pass(workload, index: int, clock):
    with clock:
        return workload.run_pass(index, clock)


def timed_passes(workload, seconds: float, clock) -> list:
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(run_pass(workload, len(passes), clock))
    return passes


def traced_passes(workload, seconds: float, clock, tracer, spans_path) -> tuple:
    """Alternate plain and traced passes of pass 0 until time is up.

    Counts and the spans written out come from the first traced pass (counts
    repeat exactly); self times are medians over the traced passes.
    """
    plain, traced, selfs, passes = [], [], [], []
    first = first_spans = None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        passes.append(run_pass(workload, 0, clock))
        plain.append(passes[-1].seconds)
        tracer.reset()
        with tracer:
            passes.append(run_pass(workload, 0, clock))
        traced.append(passes[-1].seconds)
        selfs.append(tracing.self_times(tracer.spans))
        if first is None:
            first, first_spans = tracer.counts, tracer.spans
    tracing.write_spans(spans_path, first_spans)
    names = set().union(*selfs)
    self_s = {n: statistics.median(s.get(n, 0.0) for s in selfs) for n in names}
    metrics = tracing.layer_metrics(first, self_s)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    return passes, metrics


def setup_layer_metrics(samples) -> dict:
    def median_of(fn):
        return statistics.median(fn(s) for s in samples)

    def cumulative(module):
        return lambda s: s["modules"].get(module, (0.0, 0.0))[1]

    return {
        "setup.numpy_s": (median_of(cumulative("numpy")), "s"),
        "setup.scipy_optimize_s": (median_of(cumulative("scipy.optimize")), "s"),
        "setup.scipy_special_s": (median_of(cumulative("scipy.special")), "s"),
        "setup.fasttrack_s": (median_of(lambda s: sum(
            own for name, (own, _) in s["modules"].items()
            if name == "fasttrack" or name.startswith("fasttrack."))), "s"),
        "scenario.load_scenario.s": (median_of(lambda s: s["load_s"]), "s"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        fasttrack = import_checkout()
    except CheckoutError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import workloads  # only now: it imports fasttrack, which must come from SRC

    OUT.mkdir(exist_ok=True)
    prov = provenance(args.seed)
    print(json.dumps({"provenance": prov}), flush=True)

    samples = measure_setup(SETUP_TRACE_RUNS if args.trace else SETUP_RUNS,
                            importtime=bool(args.trace))
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    workloads.warm_up()

    if args.trace:
        tracer = tracing.Tracer(fasttrack)
        # No probes inside calls: spans must not contain probe time.
        clock = clock_mod.Clock(workload.probe, every=None)
        passes, layer = traced_passes(workload, args.seconds, clock, tracer,
                                      OUT / f"spans_{args.workload}.tsv")
        layer.update(setup_layer_metrics(samples))
    else:
        passes = timed_passes(workload, args.seconds, clock_mod.Clock(workload.probe))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks = workload.checks
    before = len(checks.problems)
    workload.check()
    summary = checks.summary()
    print(json.dumps({"checks": summary}), flush=True)

    if args.trace:
        layer.update({
            "check.level_err_max": (summary["level_err_max"], "prob"),
            "check.power_err_max": (summary["power_err_max"], "prob"),
            "check.golden_dev_max": (summary["golden_dev_max"], "t_xi"),
            "check.mc_gap_se_max": (summary["mc_gap_se_max"], "se"),
        })
        metrics = layer
    else:
        metrics = {
            "setup_s": (statistics.median(s["setup_s"] for s in samples), "s"),
            "wall_s": (statistics.median(p.seconds for p in passes), "s"),
            "call_ms_p50": (geometric_mean_over_kinds(passes, 50), "ms"),
            "call_ms_p99": (geometric_mean_over_kinds(passes, 99), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "level_err_digits": (digits(checks.level_errs), "digits"),
            "power_err_digits": (digits(checks.power_errs), "digits"),
        }

    failed = sum(p.failed for p in passes) + len(checks.problems) - before
    result = {
        "correct": failed == 0 and not checks.problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"provenance": prov, "checks": summary, "result": result,
              "setup": samples, "passes": [p.calls for p in passes]}
    (OUT / f"run_{args.workload}_trace{args.trace}.json").write_text(
        json.dumps(record), encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
