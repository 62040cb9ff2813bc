"""Curve CSVs built one grid point at a time.

``fasttrack curve`` solves each family's column over the whole grid in
lockstep.  This script writes the CSV of the same command the slow way:
every grid point and family on its own, through ``build_fasttrack`` for the
five fast-track kinds, through ``solve_i2_const_many`` of one design for
``i2_const`` and through ``build_combination`` for ``combo_panel``, so that
each design calibrates afresh.  A column of one design must solve to the
floats of the same design in a whole column, so the two CSVs must be equal
byte for byte:

    PYTHONPATH=src python tests/pointwise_curve.py --scenario S --kind i2_min --out ref.csv
    PYTHONPATH=src python -m fasttrack.cli curve --scenario S --kind i2_min --out out.csv
    cmp ref.csv out.csv

``--grid-step`` defaults to the CLI's 0.002.
"""

from __future__ import annotations

import argparse

from fasttrack import cli
from fasttrack import combination as comb_mod
from fasttrack import power as power_mod
from fasttrack.cef import FAMILIES, FASTTRACK_FAMILIES
from fasttrack.design import cond_registration_power, derive
from fasttrack.scenario import load_scenario


def _mean(d: power_mod.Design) -> float:
    return power_mod.mean_stage2_info(d.params, d.rule)


def _max(d: power_mod.Design) -> float:
    return power_mod.max_stage2_info(d.params, d.rule)


STATS = {
    "i2_min": lambda d: d.i2_min,
    "i2_mean": _mean,
    "i2_max": _max,
    "total_mean": lambda d: d.params.i1 + _mean(d),
    "total_max": lambda d: d.params.i1 + _max(d),
}
KINDS = (*STATS, "i2_const", "combo_panel")
COMBO_PANEL = ["t_xi_i1", "t_xi_i2_const", "t_xi_i2_min", "t_xi_i2_max", "p_cond_reg"]


def row(scenario, base, kind: str, t: float) -> list:
    """The CSV row of ``kind`` at pilot information t * I_delta."""
    p = scenario.design_params(i1=t * base.i_delta)
    if kind == "i2_const":
        return [t] + [comb_mod.solve_i2_const_many([p], comb_mod.waive_tests([p], f))[0]
                      / base.i_delta for f in FAMILIES]
    if kind == "combo_panel":
        d = comb_mod.build_combination(p, scenario.family)
        infos = (d.i2_const, d.i2_min, _max(d))
        return [t, *(x / base.i_delta for x in infos), cond_registration_power(p)]
    cells = [t]
    for family in FASTTRACK_FAMILIES:
        binding = scenario.mode == "fasttrack_binding"
        try:
            design = power_mod.build_fasttrack(p, family, binding=binding)
        except power_mod.InfeasiblePowerError:
            cells.append(cli.INFEASIBLE)
        else:
            cells.append(STATS[kind](design) / base.i_delta)
    return cells


def write(scenario_path: str, kind: str, out_path: str, grid_step: float = 0.002) -> None:
    """Write the CSV of ``curve --kind kind`` built one point at a time."""
    scenario = load_scenario(scenario_path)
    base = derive(scenario.design_params())
    families = FAMILIES if kind == "i2_const" else FASTTRACK_FAMILIES
    header = ["t_xi_i1"] + [f"t_xi_{kind}_{f}" for f in families]
    if kind == "combo_panel":
        header = COMBO_PANEL
    rows = [row(scenario, base, kind, t) for t in cli._t_grid(base, grid_step)]
    cli._write_csv(out_path, header, rows)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--kind", required=True, choices=KINDS)
    parser.add_argument("--out", required=True)
    parser.add_argument("--grid-step", type=float, default=0.002)
    args = parser.parse_args(argv)
    write(args.scenario, args.kind, args.out, args.grid_step)


if __name__ == "__main__":
    main()
