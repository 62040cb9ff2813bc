"""Seeded scenario generator for the ``design_sweep`` workload.

Scenarios are drawn from the whole valid parameter domain so that no two
designs share work: alpha, alpha_c, beta and delta_rel vary, xi lies above
xi_min, and I1 is uniform on [I1_min, I1_max].  Modes cycle so that each of
binding fast-track, non-binding fast-track and combination gets a third of
the scenarios; the family is uniform within the mode.

The domain bounds are computed here from their closed forms rather than
taken from ``fasttrack.design``, so a change to the program cannot change
the inputs it is measured on.  The benchmark's tests check that both agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

MODES = ("fasttrack_binding", "fasttrack_nonbinding", "combination")
FAMILIES = {
    "fasttrack_binding": ("constant", "inverse_normal", "fisher"),
    "fasttrack_nonbinding": ("constant", "inverse_normal", "fisher"),
    "combination": ("constant", "inverse_normal", "fisher", "z_combination"),
}

ALPHA = (0.005, 0.05)
ALPHA_C_GAP = 0.02  # alpha_c is at least this far above alpha
ALPHA_C_MAX = 0.3
BETA = (0.05, 0.3)
DELTA_REL = (0.5, 2.0)
XI_MARGIN = 1.02  # xi starts this factor above xi_min
XI_SPAN = 1.5  # and ends this far above it


@dataclass(frozen=True)
class Case:
    """One generated scenario: the six DesignParams scalars, mode and family."""

    alpha: float
    alpha_c: float
    beta: float
    delta_rel: float
    xi: float
    i1: float
    mode: str
    family: str

    def param_dict(self) -> dict:
        return dict(
            alpha=self.alpha, alpha_c=self.alpha_c, beta=self.beta,
            delta_rel=self.delta_rel, xi=self.xi, i1=self.i1,
        )


def z_upper(p: float) -> float:
    """Upper-tail standard normal quantile, Phi^{-1}(1 - p)."""
    return float(ndtri(1.0 - p))


def xi_min(alpha: float, beta: float) -> float:
    return 1.0 + z_upper(beta) / z_upper(alpha)


def i1_bounds(alpha, alpha_c, beta, delta_rel, xi) -> tuple[float, float]:
    """[I1_min, I1_max], the admissible pilot informations."""
    eta = z_upper(beta) + z_upper(alpha)
    i_rel = eta**2 / delta_rel**2
    relevance = (z_upper(beta) / ((xi - 1.0) * eta)) ** 2
    level = ((z_upper(alpha_c) + z_upper(beta)) / (xi * eta)) ** 2
    return max(relevance, level) * i_rel, z_upper(alpha) ** 2 / delta_rel**2


def draw_cases(seed: int, batch: int, n: int) -> list[Case]:
    """The ``batch``-th block of ``n`` scenarios for ``seed``.

    Blocks are independent streams, so a run can draw as many as it needs
    and the same (seed, batch) always gives the same block.
    """
    rng = np.random.default_rng([seed, batch])
    cases = []
    for i in range(n):
        alpha = rng.uniform(*ALPHA)
        alpha_c = rng.uniform(alpha + ALPHA_C_GAP, ALPHA_C_MAX)
        beta = rng.uniform(*BETA)
        delta_rel = rng.uniform(*DELTA_REL)
        x_min = xi_min(alpha, beta)
        xi = rng.uniform(x_min * XI_MARGIN, x_min + XI_SPAN)
        lo, hi = i1_bounds(alpha, alpha_c, beta, delta_rel, xi)
        i1 = rng.uniform(lo, hi)
        mode = MODES[i % len(MODES)]
        family = FAMILIES[mode][rng.integers(len(FAMILIES[mode]))]
        cases.append(Case(alpha, alpha_c, beta, delta_rel, xi, i1, mode, family))
    return cases

