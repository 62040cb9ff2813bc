"""Per-layer tracing for the benchmark's traced runs.

Layers are the fasttrack modules, measured from outside: each function in
``LAYERS`` is replaced, in every fasttrack module that holds a reference to
it, by a wrapper that records a span (name, start, end, parent) and the
layer's counts.  Integrands, root objectives and monotone targets passed to
the numerics are wrapped too, to count evaluations.  Spans are kept in
memory; ``write_spans`` writes them out.  Untraced runs never install the
wrappers, so they measure the program as shipped.
"""

from __future__ import annotations

import importlib
import inspect
import math
import pkgutil
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function) pairs wrapped in a traced run.
LAYERS = (
    ("numerics", "integrate"),
    ("numerics", "find_root"),
    ("numerics", "solve_monotone"),
    ("cef", "eval_cef"),
    ("cef", "level_integral"),
    ("cef", "calibrate"),
    ("power", "overall_power"),
    ("power", "mean_stage2_info"),
    ("power", "solve_i2_min"),
    ("power", "build_fasttrack"),
    ("power", "evaluate_design"),
    ("combination", "lower_branch_success"),
    ("combination", "solve_i2_const"),
    ("combination", "build_combination"),
    ("combination", "branch_metrics"),
    ("combination", "gambling_threshold"),
    ("montecarlo", "simulate"),
    ("cli", "cmd_curve"),
)

# find_root calls made directly by these spans are the floor-kink searches.
_FLOOR_KINK_PARENTS = ("power.overall_power", "power.mean_stage2_info")


def package_modules(package) -> dict:
    """Every submodule of ``package``, imported, by short name."""
    return {
        info.name: importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    }


def self_times(spans) -> dict:
    """Self time per span name: each span's duration minus the part of it
    covered by its child spans, summed over spans of that name.

    ``spans`` holds (name, start, end, parent) entries, where ``parent`` is
    the index of the enclosing span or None.  Children of one span never
    overlap (the program is single-threaded), so their durations add up.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - covered[i]
    return dict(out)


def initial_panels(lo: float, hi: float, tail_halfwidth: float, split_points) -> int:
    """Panels ``numerics.integrate`` starts from: [lo, hi] cut at the kinks,
    with infinite ends truncated as the integrator documents."""
    lo = -tail_halfwidth if math.isinf(lo) else lo
    hi = tail_halfwidth if math.isinf(hi) else hi
    return len({lo, hi, *(p for p in split_points if lo < p < hi)}) - 1


class Tracer:
    """Installs the layer wrappers and collects spans and counts."""

    def __init__(self, package):
        self.modules = package_modules(package)
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._saved: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for home, attr in LAYERS:
            original = getattr(self.modules[home], attr)
            wrapper = self._wrap(f"{home}.{attr}", original)
            for module in self.modules.values():
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    # -- wrappers -----------------------------------------------------------

    def _parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _counted(self, fn, *keys, points: str | None = None):
        counts = self.counts

        def counted(x, *args, **kwargs):
            for key in keys:
                counts[key] += 1
            if points is not None:
                counts[points] += np.size(x)
            return fn(x, *args, **kwargs)

        return counted

    def _before(self, name, sig, args, kwargs):
        """Count the call's inputs and wrap its callable arguments."""
        c = self.counts
        if name == "cef.eval_cef":
            z = args[1] if len(args) > 1 else kwargs["z1"]
            c["cef.eval_cef.points"] += np.size(z)
            return args, kwargs
        if name not in (
            "numerics.integrate", "numerics.find_root",
            "numerics.solve_monotone", "montecarlo.simulate",
        ):
            return args, kwargs
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if name == "numerics.integrate":
            c["numerics.integrate.initial_panels"] += initial_panels(
                a["lo"], a["hi"], a["settings"].tail_halfwidth, a["split_points"]
            )
            a["f"] = self._counted(
                a["f"], "numerics.integrate.panels",
                points="numerics.integrate.evals",
            )
        elif name == "numerics.find_root":
            keys = ["numerics.find_root.f_evals"]
            if self._parent_name() in _FLOOR_KINK_PARENTS:
                keys.append("power.floor_kink.f_evals")
            a["f"] = self._counted(a["f"], *keys)
        elif name == "numerics.solve_monotone":
            a["g"] = self._counted(a["g"], "numerics.solve_monotone.g_evals")
        elif name == "montecarlo.simulate":
            c["montecarlo.simulate.reps"] += a["cfg"].n_reps
        return bound.args, bound.kwargs

    def _after(self, name, sig, args, kwargs, result, error):
        c = self.counts
        if name == "power.solve_i2_min":
            if error is not None and type(error).__name__ == "InfeasiblePowerError":
                c["power.solve_i2_min.infeasible"] += 1
            elif error is None and result == 0.0:
                c["power.solve_i2_min.zero_floor"] += 1
        elif name == "cef.calibrate" and error is None:
            alpha = sig.bind(*args, **kwargs).arguments["alpha"]
            if result.level_used < alpha * (1.0 - 1e-6):
                c["cef.calibrate.saturated"] += 1
        elif name == "combination.build_combination":
            if self._parent_name() == "combination.gambling_threshold":
                c["combination.gambling_threshold.builds"] += 1

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)
        calls_key = f"{name}.calls"

        def traced(*args, **kwargs):
            # Read the containers per call: reset() replaces them between passes.
            spans, stack = self.spans, self._stack
            self.counts[calls_key] += 1
            args, kwargs = self._before(name, sig, args, kwargs)
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None])
            stack.append(index)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
                self._after(name, sig, args, kwargs, result, error)

        traced.__wrapped__ = fn
        return traced


def write_spans(path, spans) -> None:
    """Write spans as tab-separated name, start, end and parent index."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name\tstart\tend\tparent\n")
        for name, start, end, parent in spans:
            fh.write(f"{name}\t{start!r}\t{end!r}\t{'' if parent is None else parent}\n")


def layer_metrics(counts: Counter, self_s: dict) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""

    def ratio(a, b):
        return a / b if b else 0.0

    c = counts
    m = {}
    panels, initial = c["numerics.integrate.panels"], c["numerics.integrate.initial_panels"]
    m["numerics.integrate.calls"] = (c["numerics.integrate.calls"], "count")
    m["numerics.integrate.panels"] = (panels, "count")
    m["numerics.integrate.evals"] = (c["numerics.integrate.evals"], "count")
    m["numerics.integrate.evals_per_call"] = (
        ratio(c["numerics.integrate.evals"], c["numerics.integrate.calls"]), "evals/call")
    # Each refinement replaces one panel by two, costing two panel
    # evaluations, so final panels = (evaluations + initial panels) / 2.
    m["numerics.integrate.refine_ratio"] = (ratio((panels + initial) / 2, initial), "ratio")
    m["numerics.find_root.calls"] = (c["numerics.find_root.calls"], "count")
    m["numerics.find_root.f_evals"] = (c["numerics.find_root.f_evals"], "count")
    m["numerics.solve_monotone.calls"] = (c["numerics.solve_monotone.calls"], "count")
    m["numerics.solve_monotone.g_evals"] = (c["numerics.solve_monotone.g_evals"], "count")
    m["power.floor_kink.f_evals"] = (c["power.floor_kink.f_evals"], "count")
    solves = c["power.solve_i2_min.calls"]
    m["power.zero_floor_frac"] = (ratio(c["power.solve_i2_min.zero_floor"], solves), "ratio")
    m["power.infeasible_frac"] = (ratio(c["power.solve_i2_min.infeasible"], solves), "ratio")
    m["cef.calibrate.saturated_frac"] = (
        ratio(c["cef.calibrate.saturated"], c["cef.calibrate.calls"]), "ratio")
    m["cef.eval_cef.points"] = (c["cef.eval_cef.points"], "count")
    m["combination.gambling_threshold.builds"] = (
        c["combination.gambling_threshold.builds"], "count")
    m["montecarlo.simulate.reps"] = (c["montecarlo.simulate.reps"], "count")
    for home, attr in LAYERS:
        name = f"{home}.{attr}"
        m.setdefault(f"{name}.calls", (c[f"{name}.calls"], "count"))
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    return m
