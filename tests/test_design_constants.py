"""Built design constants against a frozen copy in
``tests/data/design_constants.json``.

The CLI outputs are frozen as printed, to about seven digits.  This check
compares each design's calibrated constants, its floor and its operating
characteristics within 1e-10 relative, for both reference settings at three
pilot sizes and every mode and family.  A change meant to move these numbers
regenerates the file with ``PYTHONPATH=src python tests/test_design_constants.py``
and says why in CHANGES.md.
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


if __name__ == "__main__":
    table = {key: design_constants(key) for key in KEYS}
    FROZEN.write_text(json.dumps(table, indent=1) + "\n")
