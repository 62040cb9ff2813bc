"""Drift report: what a change moves in the program's outputs, and how far.

``snapshot`` imports the package of the tree at ROOT (``ROOT/src``) and
writes a manifest, a JSON object of quantity name -> text, of:

- every ``curve`` kind on the scenarios in ``SCENARIOS`` at the steps in
  ``STEPS`` (a kind the scenario's mode does not allow records its exit
  code);
- ``derive`` at both roundings and ``simulate`` at a fixed seed, on the same
  scenarios, and ``table1`` at both roundings;
- the four gambling thresholds by ``float.hex``, on the worked combination
  example and on the drawn designs of ``THRESHOLD_SOURCES``;
- the ``repr`` of built and evaluated designs of a fixed ``draw_cases`` set;
- for the seven paper designs (the binding fast-track families at the
  first scenario's t_xi = 0.6 and the combination families at the second's
  t_xi = 0.5, as the benchmark's ``check_paper_designs`` builds them), the
  level integral, the upper branch's power and E[I2] and the waive-branch
  success, each beside its 30-digit value from ``tests/reference_mp.py``.

The inputs (scenario files, draws) come from the tree this script lives in,
so two trees are snapshot on the same inputs.  ``compare`` prints
"identical", or each quantity that moved with its largest relative move
(for a paper-design quantity, the move of its value and its distance
|A - oracle| and |B - oracle| to each side's oracle) and how many moved,
and exits 1 when anything moved::

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python tests/drift.py snapshot /tmp/parent /tmp/parent.json
    python tests/drift.py snapshot . /tmp/change.json
    python tests/drift.py compare /tmp/parent.json /tmp/change.json

A snapshot takes 15-20 s on a 2-vCPU host; the 0.002 curves take most of
it, and the oracle's 30-digit integrals about 7 s.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import re
import sys
import tempfile
from pathlib import Path

import reference_mp as ref

HERE = Path(__file__).resolve().parent
SCENARIOS = (
    HERE.parent / "bench" / "data" / "fasttrack_binding_fisher.txt",
    HERE.parent / "bench" / "data" / "combination_example.txt",
    HERE / "data" / "fasttrack_nonbinding_fisher.txt",
)
STEPS = (0.05, 0.02, 0.002)
SIM_REPS, SIM_SEED = 20_000, 7
THRESHOLD_SOURCES = (1, 2, 3, 6, 10)
DRAWS = ((2, 0, 40), (2, 1, 40))  # draw_cases(seed, batch, n)
ORACLE = "oracle"  # the name prefix of the paper-design quantities

_NUMBER = re.compile(r"[-+]?0x[0-9a-f.]+p[-+]?\d+|[-+]?inf|nan|"
                     r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?", re.IGNORECASE)


def drawn_params(params_type, seed: int):
    """The drawn combination designs of the gambling-threshold tests."""
    rng = random.Random(seed)
    return params_type(alpha=rng.choice((0.01, 0.025, 0.05)),
                       alpha_c=rng.choice((0.1, 0.15, 0.3)), beta=rng.uniform(0.05, 0.3),
                       delta_rel=rng.uniform(1.1, 2.0), xi=rng.uniform(1.1, 2.5), i1=1.0)


def _cli(cli, argv: list[str], out: Path | None = None) -> str:
    """Exit code, stdout and the written file of one ``fasttrack`` command."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    text = f"exit {code}\n{stdout.getvalue()}{stderr.getvalue()}"
    if out is not None and code == 0:
        text += out.read_text(encoding="utf-8")
    return text


def _design(power_mod, comb_mod, case, params) -> str:
    try:
        if case.mode == "combination":
            design = comb_mod.build_combination(params, case.family)
            return repr((design, comb_mod.branch_metrics(design)))
        design = power_mod.build_fasttrack(params, case.family,
                                           binding=case.mode == "fasttrack_binding")
        return repr((design, power_mod.evaluate_design(params, design.rule)))
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return repr(exc)


def _oracle(cef_mod, power_mod, comb_mod, params, mode: str, family: str) -> dict[str, str]:
    """Each quantity of one paper design that the oracle covers, as the text
    "value oracle reference"."""
    if mode == "combination":
        design = comb_mod.build_combination(params, family)
    else:
        design = power_mod.build_fasttrack(params, family, binding=True)
    q, cef, z_f = design.params, design.cef, design.branch_boundary
    reference = ref.design_cef(design)
    power, mean_i2 = ref.upper_branch(reference, design.i2_min, q.beta, q.i1, q.delta, z_f)
    pairs = {
        "level": (cef_mod.level_integral(cef, cef.z0), ref.level_integral(reference, cef.z0)),
        "power": (power_mod.overall_power(q, design.rule), power),
        "mean_i2": (power_mod.mean_stage2_info(q, design.rule), mean_i2),
    }
    if mode == "combination":
        pairs["waive_success"] = (
            comb_mod.lower_branch_success(q, design.i2_const, cef),
            ref.waive_branch_success(reference, design.i2_const, q.i1, q.delta, z_f))
    return {f"{ORACLE} {mode} {family} {name}": f"{x!r} oracle {y!r}"
            for name, (x, y) in pairs.items()}


def snapshot(root: Path) -> dict[str, str]:
    """The manifest of the tree at ``root``."""
    sys.path[:0] = [str(root / "src"), str(HERE.parent / "bench")]
    from fasttrack import cef as cef_mod
    from fasttrack import cli
    from fasttrack import combination as comb_mod
    from fasttrack import power as power_mod
    from fasttrack.design import DesignParams
    from fasttrack.scenario import load_scenario
    from generator import draw_cases

    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "out.csv"
        for scenario in SCENARIOS:
            name = scenario.stem
            for kind in cli.CURVE_KINDS:
                for step in STEPS:
                    out[f"curve {kind} {name} {step}"] = _cli(
                        cli, ["curve", "--scenario", str(scenario), "--kind", kind,
                              "--out", str(csv), "--grid-step", repr(step)], csv)
            for rounding in ("ceil", "nearest"):
                out[f"derive {name} {rounding}"] = _cli(
                    cli, ["derive", "--scenario", str(scenario), "--round", rounding])
            out[f"simulate {name}"] = _cli(
                cli, ["simulate", "--scenario", str(scenario), "--out", str(csv),
                      "--reps", str(SIM_REPS), "--seed", str(SIM_SEED)], csv)
        for rounding in ("ceil", "nearest"):
            out[f"table1 {rounding}"] = _cli(
                cli, ["table1", "--out", str(csv), "--round", rounding], csv)

    example = load_scenario(str(SCENARIOS[1])).design_params()
    sources = {"example": example,
               **{str(s): drawn_params(DesignParams, s) for s in THRESHOLD_SOURCES}}
    for source, params in sources.items():
        for family in ("constant", "inverse_normal", "fisher", "z_combination"):
            out[f"threshold {family} {source}"] = comb_mod.gambling_threshold(
                params, family).hex()

    for seed, batch, n in DRAWS:
        for i, case in enumerate(draw_cases(seed, batch, n)):
            params = DesignParams(alpha=case.alpha, alpha_c=case.alpha_c, beta=case.beta,
                                  delta_rel=case.delta_rel, xi=case.xi, i1=case.i1)
            out[f"design {seed} {batch} {i}"] = _design(power_mod, comb_mod, case, params)

    for scenario, mode, families in (
            (SCENARIOS[0], "fasttrack_binding", cef_mod.FASTTRACK_FAMILIES),
            (SCENARIOS[1], "combination", cef_mod.FAMILIES)):
        params = load_scenario(str(scenario)).design_params()
        for family in families:
            out.update(_oracle(cef_mod, power_mod, comb_mod, params, mode, family))
    return out


def _numbers(text: str) -> list[float]:
    return [float.fromhex(x) if "x" in x.lower() else float(x) for x in _NUMBER.findall(text)]


def _move(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude; 0 for equal values, NaNs
    included, and inf where one side is not finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """One line per quantity that differs between manifests ``a`` and ``b``:
    its largest relative move, or why no move can be read.  A paper-design
    quantity's line gives the move of its value and its distance to the
    oracle on each side."""
    lines = []
    for name in sorted(a.keys() | b.keys()):
        if name not in b or name not in a:
            lines.append(f"{name}: only in {'A' if name in a else 'B'}")
        elif a[name] != b[name]:
            xs, ys = _numbers(a[name]), _numbers(b[name])
            if len(xs) != len(ys):
                lines.append(f"{name}: text differs ({len(xs)} against {len(ys)} numbers)")
            elif name.startswith(ORACLE) and len(xs) == 2:
                lines.append(f"{name}: relative move {_move(xs[0], ys[0]):.3g}; |A - oracle| "
                             f"{abs(xs[0] - xs[1]):.3g}, |B - oracle| {abs(ys[0] - ys[1]):.3g}")
            else:
                move = max((_move(x, y) for x, y in zip(xs, ys)), default=0.0)
                lines.append(f"{name}: largest relative move {move:.3g}"
                             if move else f"{name}: text differs, numbers equal")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_snap = sub.add_parser("snapshot", help="write the manifest of a tree")
    p_snap.add_argument("root", type=Path)
    p_snap.add_argument("out", type=Path)
    p_cmp = sub.add_parser("compare", help="compare two manifests")
    p_cmp.add_argument("a", type=Path)
    p_cmp.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "snapshot":
        manifest = snapshot(args.root.resolve())
        args.out.write_text(json.dumps(manifest, indent=0, sort_keys=True), encoding="utf-8")
        print(f"{len(manifest)} quantities written to {args.out}")
        return 0
    a, b = (json.loads(p.read_text(encoding="utf-8")) for p in (args.a, args.b))
    lines = compare(a, b)
    print("\n".join([*lines, f"{len(lines)} of {len(a.keys() | b.keys())} quantities differ"])
          if lines else f"identical ({len(a)} quantities)")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
