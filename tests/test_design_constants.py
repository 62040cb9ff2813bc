"""Built design constants against a frozen copy in
``tests/data/design_constants.json``.

The CLI outputs are frozen as printed, to about seven digits.  This check
compares each design's calibrated constants, its floor and its operating
characteristics within 1e-10 relative, for both reference settings at three
pilot sizes and every mode and family.  A change meant to move these numbers
regenerates the file with ``PYTHONPATH=src python tests/test_design_constants.py``
and says why in CHANGES.md.  That rewrites only the designs that fail this
check, and designs new to ``KEYS``, and prints each rewritten key with the
largest relative move among its values; the last bits of the other designs'
values stay as frozen, so that a change's moves stay visible.
"""

import dataclasses
import json
import math
import pathlib

import pytest

from conftest import COMBO_BASE, EVAL_BASE, params_at
from fasttrack.cef import FAMILIES, FASTTRACK_FAMILIES
from fasttrack.combination import branch_metrics, build_combination
from fasttrack.power import InfeasiblePowerError, build_fasttrack, evaluate_design

FROZEN = pathlib.Path(__file__).parent / "data" / "design_constants.json"
BASES = {"eval": EVAL_BASE, "combo": COMBO_BASE}
MODES = {
    "fasttrack_binding": FASTTRACK_FAMILIES,
    "fasttrack_nonbinding": FASTTRACK_FAMILIES,
    "combination": FAMILIES,
}
KEYS = [
    f"{base}/{t_xi}/{mode}/{family}"
    for base in BASES
    for t_xi in (0.3, 0.6, 0.9)
    for mode, families in MODES.items()
    for family in families
]


def design_constants(key: str):
    """The constants and operating characteristics of the design named by
    ``key`` (base/t_xi/mode/family), None where one is undefined, or
    "infeasible" when the power target cannot be reached."""
    base, t_xi, mode, family = key.split("/")
    p = params_at(BASES[base], float(t_xi))
    try:
        if mode == "combination":
            design = build_combination(p, family)
            metrics = branch_metrics(design)
        else:
            design = build_fasttrack(p, family, binding=mode == "fasttrack_binding")
            metrics = evaluate_design(p, design.rule)
    except InfeasiblePowerError:
        return "infeasible"
    cef = design.cef
    values = {
        "c": cef.c,
        "alpha_prime": cef.alpha_prime,
        "level_used": cef.level_used,
        "i2_min": design.i2_min,
        "i2_const": design.i2_const,
        **dataclasses.asdict(metrics),
    }
    return {k: None if v is None or math.isnan(v) else v for k, v in values.items()}


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FROZEN.read_text())


def test_frozen_file_covers_every_design(frozen):
    assert sorted(frozen) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_design_constants_unchanged(key, frozen):
    want, got = frozen[key], design_constants(key)
    if want == "infeasible" or got == "infeasible":
        assert got == want
        return
    assert got.keys() == want.keys()
    for name, value in want.items():
        if value is None:
            assert got[name] is None, name
        else:
            assert math.isclose(got[name], value, rel_tol=1e-10, abs_tol=0.0), (
                f"{name}: {got[name]!r}, frozen {value!r}"
            )


def largest_move(want, got) -> tuple[float, bool]:
    """The largest relative move |got - want| / max(|got|, |want|) among the
    values of a design, inf where a value appears, disappears or turns
    infeasible, and whether every value passes the check above."""
    if want == "infeasible" or got == "infeasible" or got.keys() != want.keys():
        return (0.0, True) if got == want else (math.inf, False)
    move, passes = 0.0, True
    for name, value in want.items():
        if value is None or got[name] is None:
            if value is not got[name]:
                return math.inf, False
            continue
        if got[name] != value:
            move = max(move, abs(got[name] - value) / max(abs(got[name]), abs(value)))
        passes = passes and math.isclose(got[name], value, rel_tol=1e-10, abs_tol=0.0)
    return move, passes


if __name__ == "__main__":
    table = json.loads(FROZEN.read_text())
    rewritten = False
    for key in KEYS:
        got = design_constants(key)
        if key not in table:
            print(f"{key}: new")
        else:
            move, passes = largest_move(table[key], got)
            if passes:
                continue
            print(f"{key}: largest relative move {move:.3g}")
        table[key], rewritten = got, True
    if rewritten or sorted(table) != sorted(KEYS):
        FROZEN.write_text(json.dumps({key: table[key] for key in KEYS}, indent=1) + "\n")
