"""Command-line interface: scenario ingestion, figure-data CSV emission,
table reproduction and Monte Carlo runs.

Exit codes: 0 success, 2 invalid input, 3 numerical failure, 4 infeasible
power target (a fast-track pilot information at or below I1_min).
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import astuple, fields, replace

from . import combination as comb_mod
from . import montecarlo as mc_mod
from . import power as power_mod
from .cef import FAMILIES, FASTTRACK_FAMILIES
from .design import DerivedDesign, ExampleCost, cond_registration_power, derive
from .numerics import BracketError, ConvergenceError
from .scenario import Scenario, ScenarioError, load_scenario

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_INFEASIBLE = 4

INFEASIBLE = "infeasible"

def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    return f"{x:.10g}"


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    except OSError as exc:
        raise ScenarioError(f"cannot write {path}: {exc}") from exc


def _check_out(path: str) -> None:
    """Raise the error :func:`_write_csv` would, before anything is computed,
    where ``path`` is a directory or its directory is missing or read-only."""
    folder = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        reason = "it is a directory"
    elif not os.path.isdir(folder):
        reason = f"no directory {folder}"
    elif not os.access(folder, os.W_OK):
        reason = f"directory {folder} is not writable"
    else:
        return
    raise ScenarioError(f"cannot write {path}: {reason}")


def _group_size(sigma: float, rounding: str):
    """Per-group sample size of an information, rounded up or to nearest."""
    cost = ExampleCost(sigma=sigma)
    return cost.group_size_of if rounding == "ceil" else cost.group_size_nearest


# The closed-form quantities derive prints, in order.
DERIVE_KEYS = (
    "alpha", "alpha_c", "beta", "delta_rel", "xi", "delta", "i1", "eta_f",
    "i_rel", "i_delta", "z_f", "alpha_rel", "alpha_f", "i1_min", "i1_max",
    "xi_min", "t_rel_i1", "t_xi_i1", "p_cond_reg",
)


def cmd_derive(scenario: Scenario, rounding: str) -> int:
    params = scenario.design_params()
    d = derive(params)
    values = {**vars(params), **vars(d),
              "p_cond_reg": cond_registration_power(params)}
    record = [(key, _fmt(values[key])) for key in DERIVE_KEYS]
    if scenario.sigma is not None:
        size = _group_size(scenario.sigma, rounding)
        infos = [("n1", params.i1), ("n_rel", d.i_rel), ("n_delta", d.i_delta),
                 ("n1_max", d.i1_max), ("n1_min", d.i1_min)]
        record += [(key, size(info)) for key, info in infos
                   if key != "n1_min" or math.isfinite(info)]
    for key, value in record:
        print(f"{key:<13}= {value}")
    if params.xi < d.xi_min:
        print("warning: xi below xi_min — fast-track with required conditional "
              "registration infeasible", file=sys.stderr)
    return EXIT_OK


# Abscissas a curve may have: the default step gives at most about a
# thousand, and a list of a much finer step's floats need not fit in memory.
_MAX_GRID = 10**6


def _grid(lo: float, hi: float, step: float) -> list[float]:
    steps = (hi - lo) / step + 1e-9
    # Counted before anything is built; floor(steps) + 1 abscissas.
    if steps < 0:
        raise ScenarioError(f"--grid-step {step!r} gives no grid point from {lo!r} to {hi!r}")
    if not steps < _MAX_GRID:
        raise ScenarioError(f"--grid-step {step!r} would give more than "
                            f"{_MAX_GRID:,} grid points")
    n = int(math.floor(steps))
    return [lo + k * step for k in range(n + 1)]


def _t_grid(base: DerivedDesign, step: float) -> list[float]:
    """Pilot informations t_xi(I1) up to the feasibility bound I1_max."""
    return _grid(step, base.i1_max / base.i_delta, step)


def _xi_grid(base: DerivedDesign, step: float) -> list[float]:
    return _grid(1.0 + step, 3.0, step)


def _alpha_rel_row(scenario: Scenario, base: DerivedDesign, kind: str, t: float):
    return [t, derive(scenario.design_params(i1=t * base.i_rel)).alpha_rel]


def _i1_bounds_row(scenario: Scenario, base: DerivedDesign, kind: str, xi: float):
    d = derive(replace(scenario.design_params(), xi=xi))
    scale = d.i_rel if kind == "i1_min_trel" else d.i_delta
    return [xi, d.i1_min / scale, d.i1_max / scale]


def _mean_i2s(ds: list[power_mod.Design]) -> list[float]:
    return power_mod.mean_stage2_infos([d.params for d in ds], [d.rule for d in ds])


def _max_i2(d: power_mod.Design) -> float:
    return power_mod.max_stage2_info(d.params, d.rule)


# Fast-track curve kind -> its statistic of each built design of a column, in
# information.
_FASTTRACK_STATS = {
    "i2_min": lambda ds: [d.i2_min for d in ds],
    "i2_mean": _mean_i2s,
    "i2_max": lambda ds: [_max_i2(d) for d in ds],
    "total_mean": lambda ds: [d.params.i1 + x for d, x in zip(ds, _mean_i2s(ds))],
    "total_max": lambda ds: [d.params.i1 + _max_i2(d) for d in ds],
}


def _pointwise(row):
    return lambda scenario, base, kind, xs: [row(scenario, base, kind, x) for x in xs]


def _fasttrack_rows(scenario: Scenario, base: DerivedDesign, kind: str, ts: list):
    """One statistic per fast-track family, each family's column built at
    once; INFEASIBLE where no floor reaches the power target."""
    params = [scenario.design_params(i1=t * base.i_delta) for t in ts]
    binding = scenario.mode == "fasttrack_binding"
    columns = []
    for family in FASTTRACK_FAMILIES:
        designs = power_mod.build_fasttrack_many(params, family, binding)
        stats = iter(_FASTTRACK_STATS[kind]([d for d in designs if d is not None]))
        columns.append([INFEASIBLE if d is None else next(stats) / base.i_delta
                        for d in designs])
    return [list(row) for row in zip(ts, *columns)]


def _i2_const_rows(scenario: Scenario, base: DerivedDesign, kind: str, ts: list):
    # I2_const alone: the z-combination alpha_prime is not calibrated.
    params = [scenario.design_params(i1=t * base.i_delta) for t in ts]
    columns = [comb_mod.solve_i2_const_many(params, comb_mod.waive_tests(params, f))
               for f in FAMILIES]
    return [[t, *(x / base.i_delta for x in row)] for t, *row in zip(ts, *columns)]


def _combo_panel_rows(scenario: Scenario, base: DerivedDesign, kind: str, ts: list):
    params = [scenario.design_params(i1=t * base.i_delta) for t in ts]
    return [[t, *(x / base.i_delta for x in (d.i2_const, d.i2_min, _max_i2(d))),
             cond_registration_power(d.params)]
            for t, d in zip(ts, comb_mod.build_combination_many(params, scenario.family))]


# kind -> (mode = combination required: True, False, or None for either;
#          abscissas; CSV columns; rows at the abscissas)
_CURVES = {
    "alpha_rel": (None, lambda base, step: _grid(step, 1.0, step),
                  ["t_rel_i1", "alpha_rel"], _pointwise(_alpha_rel_row)),
    "i1_min_trel": (None, _xi_grid, ["xi", "t_i1_min", "t_i1_max"],
                    _pointwise(_i1_bounds_row)),
    "i1_min_txi": (None, _xi_grid, ["xi", "t_i1_min", "t_i1_max"],
                   _pointwise(_i1_bounds_row)),
    **{
        kind: (False, _t_grid,
               ["t_xi_i1"] + [f"t_xi_{kind}_{f}" for f in FASTTRACK_FAMILIES],
               _fasttrack_rows)
        for kind in _FASTTRACK_STATS
    },
    "i2_const": (True, _t_grid,
                 ["t_xi_i1"] + [f"t_xi_i2_const_{f}" for f in FAMILIES],
                 _i2_const_rows),
    "combo_panel": (True, _t_grid,
                    ["t_xi_i1", "t_xi_i2_const", "t_xi_i2_min", "t_xi_i2_max",
                     "p_cond_reg"],
                    _combo_panel_rows),
}
CURVE_KINDS = tuple(_CURVES)


def cmd_curve(kind: str, scenario: Scenario, grid_step: float, out_path: str) -> int:
    base = derive(scenario.design_params())
    if kind not in _CURVES:
        raise ScenarioError(f"unknown curve kind {kind!r}")
    combination, grid, columns, rows_at = _CURVES[kind]
    if combination is not None and combination != (scenario.mode == "combination"):
        need = "mode = combination" if combination else "a fasttrack mode"
        raise ScenarioError(f"kind {kind!r} requires {need}")
    _write_csv(out_path, columns, rows_at(scenario, base, kind, grid(base, grid_step)))
    return EXIT_OK


TABLE1_SCENARIO = Scenario(
    alpha=0.025,
    alpha_c=0.15,
    beta=0.2,
    delta_rel=1.4,
    xi=1.25,
    sigma=5.17,
    t_xi_i1=0.5,
    family="z_combination",
    mode="combination",
)


def cmd_table1(out_path: str, rounding: str = "ceil") -> int:
    """Per-group sample sizes of the worked combination example, one row per
    conditional error family, with +n1 totals."""
    scenario = TABLE1_SCENARIO
    params = scenario.design_params()
    size = _group_size(scenario.sigma, rounding)
    n1 = size(params.i1)
    header = [
        "family",
        "n2_const", "n2_const_total",
        "n2_min", "n2_min_total",
        "n2_max", "n2_max_total",
        "e_n2", "e_n2_total",
    ]
    rows = []
    for family in FAMILIES:
        design = comb_mod.build_combination(params, family)
        metrics = comb_mod.branch_metrics(design)
        cells = [
            size(design.i2_const),
            size(design.i2_min),
            # Maximum over both branches: the waive branch can dominate when
            # its fixed information exceeds the adaptive branch maximum.
            size(metrics.max_i2_both),
            size(metrics.e_i2_both),
        ]
        row: list = [family]
        for c in cells:
            row.extend([c, c + n1])
        rows.append(row)
    _write_csv(out_path, header, rows)
    return EXIT_OK


def _build_design(scenario: Scenario, params):
    if scenario.mode == "combination":
        return comb_mod.build_combination(params, scenario.family)
    return power_mod.build_fasttrack(
        params,
        scenario.family,
        binding=scenario.mode == "fasttrack_binding",
    )


def cmd_simulate(scenario: Scenario, n_reps: int, seed: int, out_path: str) -> int:
    params = scenario.design_params()
    # Built first, so an invalid seed fails before the design is solved.
    configs = [mc_mod.SimConfig(n_reps=n_reps, seed=seed, theta=theta)
               for theta in (0.0, params.delta)]
    design = _build_design(scenario, params)
    rows = []
    for substream, cfg in enumerate(configs):
        rep = mc_mod.simulate(design, cfg, substream=substream)
        rows.append([cfg.theta, *astuple(rep)])
        print(
            f"theta={_fmt(cfg.theta)}: p_cond_reg={_fmt(rep.p_cond_reg_hat)} "
            f"(se {_fmt(rep.p_cond_reg_se)}), "
            f"p_reject={_fmt(rep.p_reject_hat)} (se {_fmt(rep.p_reject_se)})"
        )
    header = ["theta", *(f.name for f in fields(mc_mod.SimReport))]
    _write_csv(out_path, header, rows)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fasttrack",
        description="Design and evaluate two-stage fast-track registration studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_derive = sub.add_parser("derive", help="print derived design quantities")
    p_derive.add_argument("--scenario", required=True)
    p_derive.add_argument("--round", choices=("ceil", "nearest"), default="ceil")

    p_curve = sub.add_parser("curve", help="emit figure data as CSV")
    p_curve.add_argument("--scenario", required=True)
    p_curve.add_argument("--kind", required=True, choices=CURVE_KINDS)
    p_curve.add_argument("--out", required=True)
    p_curve.add_argument("--grid-step", type=float, default=0.002)

    p_table = sub.add_parser("table1", help="reproduce the worked example table")
    p_table.add_argument("--out", required=True)
    p_table.add_argument("--round", choices=("ceil", "nearest"), default="ceil")

    p_sim = sub.add_parser("simulate", help="Monte Carlo check of a scenario")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--reps", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=20260823)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if hasattr(args, "out"):  # curve, table1 and simulate write a CSV
            _check_out(args.out)
        if args.command == "derive":
            scenario = load_scenario(args.scenario)
            return cmd_derive(scenario, args.round)
        if args.command == "curve":
            scenario = load_scenario(args.scenario)
            if not (0 < args.grid_step < math.inf):
                raise ScenarioError("--grid-step must be a positive finite number")
            return cmd_curve(args.kind, scenario, args.grid_step, args.out)
        if args.command == "table1":
            return cmd_table1(args.out, args.round)
        if args.command == "simulate":
            scenario = load_scenario(args.scenario)
            if args.reps < 1:
                raise ScenarioError("--reps must be positive")
            return cmd_simulate(scenario, args.reps, args.seed, args.out)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConvergenceError, BracketError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except power_mod.InfeasiblePowerError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
