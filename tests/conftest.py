"""Shared fixtures and helpers for the test suite.

Two reference settings recur throughout:

- the single-arm evaluation setting: delta_rel = 1, xi = 2, alpha_c = 0.15,
  pilot information given on the t_xi scale;
- the worked combination example: delta_rel = 1.4, xi = 1.25, alpha_c = 0.15,
  sigma = 5.17, t_xi(I1) = 0.5.
"""

from __future__ import annotations

import contextlib
import warnings

import pytest

from fasttrack.design import DesignParams, derive

# A failing hypothesis property imports hypothesis.extra._patching to report
# its example, and that imports libcst, whose TypedDicts raise
# mypy_extensions' DeprecationWarning.  Under -W error that warning would
# replace the falsifying example with an INTERNALERROR, so the module is
# imported once here with that warning alone ignored.  libcst is optional.
with contextlib.suppress(ImportError), warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

SIGMA = 5.17

EVAL_BASE = dict(alpha=0.025, alpha_c=0.15, beta=0.2, delta_rel=1.0, xi=2.0)
COMBO_BASE = dict(alpha=0.025, alpha_c=0.15, beta=0.2, delta_rel=1.4, xi=1.25)


def params_at(base: dict, t_xi: float) -> DesignParams:
    """Design parameters with the pilot information set to t_xi * I_delta."""
    probe = DesignParams(i1=1.0, **base)
    i_delta = derive(probe).i_delta
    return DesignParams(i1=t_xi * i_delta, **base)


def params_near_i1_max(base: dict) -> DesignParams:
    """Design parameters with the pilot information at 0.99 * I1_max."""
    i1_max = derive(DesignParams(i1=1.0, **base)).i1_max
    return DesignParams(i1=0.99 * i1_max, **base)


def i_delta_of(base: dict) -> float:
    return derive(DesignParams(i1=1.0, **base)).i_delta


SCENARIO_DEFAULTS = dict(
    alpha=0.025,
    alpha_c=0.15,
    beta=0.2,
    delta_rel=1.0,
    xi=2.0,
    t_xi_i1=0.6,
    family="fisher",
    mode="fasttrack_binding",
)


def scenario_text(**overrides) -> str:
    """Render a scenario file body from keyword overrides.

    A value of None removes the key entirely.
    """
    merged = {**SCENARIO_DEFAULTS, **overrides}
    lines = [f"{k} = {v}" for k, v in merged.items() if v is not None]
    return "\n".join(lines) + "\n"


@pytest.fixture
def write_scenario(tmp_path):
    def _write(name="scenario.txt", text=None, **overrides):
        path = tmp_path / name
        path.write_text(text if text is not None else scenario_text(**overrides))
        return str(path)

    return _write
