"""Write the ``curve_grid`` golden outputs into ``bench/data``.

The committed goldens were frozen from the package as first imported, before
any change to ``src/``.  Re-running this script overwrites them; do so only
when an output change is intended and explained.

    python3 bench/make_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fasttrack import cli  # noqa: E402
from fasttrack import combination as comb_mod  # noqa: E402
from fasttrack.scenario import load_scenario  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    for kind, scenario in workloads.CurveGrid.CURVES:
        out = workloads.DATA / f"golden_{kind}.csv"
        code = cli.main(["curve", "--scenario", str(scenario), "--kind", kind,
                         "--out", str(out), "--grid-step", repr(workloads.CurveGrid.STEP)])
        if code != 0:
            return code
    params = load_scenario(workloads.COMBINATION_SCENARIO).design_params()
    thresholds = {f: comb_mod.gambling_threshold(params, f)
                  for f in workloads.COMBINATION_FAMILIES}
    (workloads.DATA / "golden_thresholds.json").write_text(
        json.dumps(thresholds, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
