"""Scenario file ingestion.

Format: flat UTF-8 ``key = value`` lines, ``#`` comments, unknown keys are
errors.  Exactly one of ``i1``, ``t_xi_i1``, ``t_rel_i1`` fixes the pilot
information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .cef import FAMILIES
from .design import DesignParams, derive

MODES = ("fasttrack_binding", "fasttrack_nonbinding", "combination")

_FLOAT_KEYS = ("alpha", "alpha_c", "beta", "delta_rel", "xi", "sigma",
               "i1", "t_xi_i1", "t_rel_i1")
_STR_KEYS = ("family", "mode")
_INFO_KEYS = ("i1", "t_xi_i1", "t_rel_i1")


class ScenarioError(ValueError):
    """Invalid scenario file; message names the offending field."""


@dataclass(frozen=True)
class Scenario:
    alpha: float
    alpha_c: float
    beta: float
    delta_rel: float
    xi: float
    family: str
    mode: str
    sigma: Optional[float] = None
    i1: Optional[float] = None
    t_xi_i1: Optional[float] = None
    t_rel_i1: Optional[float] = None

    def resolved_i1(self) -> float:
        """Absolute first-stage information from whichever key was given."""
        if self.i1 is not None:
            return self.i1
        # The information scales do not depend on I1; the probe validates the
        # levels before their quantiles are taken.
        scales = derive(self.design_params(i1=1.0))
        if self.t_xi_i1 is not None:
            return self.t_xi_i1 * scales.i_delta
        return self.t_rel_i1 * scales.i_rel

    def design_params(self, i1: Optional[float] = None) -> DesignParams:
        return DesignParams(
            alpha=self.alpha,
            alpha_c=self.alpha_c,
            beta=self.beta,
            delta_rel=self.delta_rel,
            xi=self.xi,
            i1=self.resolved_i1() if i1 is None else i1,
        )


def parse_scenario_text(text: str) -> Scenario:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in _FLOAT_KEYS and key not in _STR_KEYS:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    for key in ("alpha", "alpha_c", "beta", "delta_rel", "xi", "family", "mode"):
        if key not in raw:
            raise ScenarioError(f"missing required key {key!r}")

    values: dict[str, object] = {}
    for key, text_value in raw.items():
        if key in _STR_KEYS:
            values[key] = text_value
            continue
        try:
            x = float(text_value)
        except ValueError:
            raise ScenarioError(f"key {key!r}: not a number: {text_value!r}") from None
        if not math.isfinite(x):
            raise ScenarioError(f"key {key!r}: must be finite, got {text_value!r}")
        values[key] = x

    info_given = [k for k in _INFO_KEYS if k in values]
    if len(info_given) != 1:
        raise ScenarioError(
            f"exactly one of {_INFO_KEYS} must be present, got {info_given or 'none'}"
        )
    family = values["family"]
    mode = values["mode"]
    if family not in FAMILIES:
        raise ScenarioError(f"key 'family': {family!r} not in {FAMILIES}")
    if mode not in MODES:
        raise ScenarioError(f"key 'mode': {mode!r} not in {MODES}")
    if family == "z_combination" and mode != "combination":
        raise ScenarioError(
            "family 'z_combination' is only valid with mode = combination"
        )

    return Scenario(**values)  # type: ignore[arg-type]


def load_scenario(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    scenario = parse_scenario_text(text)
    # Validate the numeric invariants eagerly so errors surface at load time.
    scenario.design_params()
    return scenario
