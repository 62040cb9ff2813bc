"""Scenario parameters and closed-form derived quantities of a two-stage
fast-track registration design.

Conventions: all significance levels are one-sided, ``information`` means
Fisher information of a stage (for the balanced two-arm normal example,
I = n / (2 sigma^2) per group size n), and the effect is parameterized by
the ratio ``xi = delta / delta_rel`` with the absolute effect derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .numerics import std_normal_cdf, std_normal_quantile


@dataclass(frozen=True)
class DesignParams:
    """The five scenario scalars plus the first-stage information.

    alpha      one-sided level for permanent registration
    alpha_c    one-sided level for conditional registration
    beta       1 - beta is the target (overall or conditional) power
    delta_rel  minimal clinically relevant effect, outcome units
    xi         effect ratio delta / delta_rel, >= 1
    i1         first-stage information
    """

    alpha: float
    alpha_c: float
    beta: float
    delta_rel: float
    xi: float
    i1: float

    def __post_init__(self):
        # A level of 2**-54 or less has 1 - level == 1.0, so no quantile; at
        # alpha_c = 0.5 - 2**-54, 1 - alpha_c == 0.5, so z_f could be 0.
        if not 2.0**-54 < self.alpha < self.alpha_c < 0.5 - 2.0**-54:
            raise ValueError(
                f"need 2**-54 < alpha < alpha_c < 0.5 - 2**-54, "
                f"got alpha={self.alpha}, alpha_c={self.alpha_c}"
            )
        if not 2.0**-54 < self.beta < 0.5:
            raise ValueError(f"need 2**-54 < beta < 0.5, got beta={self.beta}")
        if not self.delta_rel > 0:
            raise ValueError(f"need delta_rel > 0, got {self.delta_rel}")
        if not self.xi >= 1.0:
            raise ValueError(f"need xi >= 1, got {self.xi}")
        if not 0 < self.i1 < math.inf:
            raise ValueError(f"need 0 < i1 < inf, got i1={self.i1}")
        # derive's I_rel and I_delta: a square that overflows raises, one that underflows is 0.
        eta_f = noncentrality_target(self.alpha, self.beta)
        for field, effect in (("delta_rel", self.delta_rel), ("xi", self.delta)):
            try:
                info = eta_f**2 / effect**2
            except (OverflowError, ZeroDivisionError):
                info = 0.0
            if not 0.0 < info < math.inf:
                raise ValueError(f"need {field} with a finite positive information "
                                 f"eta_f^2 / effect^2, got {field}={getattr(self, field)}")

    @property
    def delta(self) -> float:
        return self.xi * self.delta_rel

    @cached_property
    def z_beta(self) -> float:
        """Phi^{-1}(1 - beta), read by every power integrand and floor kink."""
        return std_normal_quantile(1.0 - self.beta)

    @cached_property
    def z_f(self) -> float:
        """The conditional-registration boundary on the z-scale, > 0."""
        return max(
            math.sqrt(self.i1) * self.delta_rel,
            std_normal_quantile(1.0 - self.alpha_c),
        )


@dataclass(frozen=True)
class DerivedDesign:
    """All closed-form quantities derived from a :class:`DesignParams`."""

    eta_f: float
    i_rel: float
    i_delta: float
    delta: float
    z_f: float
    alpha_rel: float
    alpha_f: float
    i1_min: float
    i1_max: float
    xi_min: float
    t_rel_i1: float
    t_xi_i1: float


@dataclass(frozen=True)
class ExampleCost:
    """Per-group sample sizes from informations, n = 2 sigma^2 I."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"need sigma > 0, got {self.sigma}")

    def group_size_of(self, information: float) -> int:
        return math.ceil(2.0 * self.sigma**2 * information - 1e-9)

    def group_size_nearest(self, information: float) -> int:
        return round(2.0 * self.sigma**2 * information)


def noncentrality_target(alpha: float, beta: float) -> float:
    """eta_f, the noncentrality needed for power 1-beta at one-sided alpha."""
    return std_normal_quantile(1.0 - beta) + std_normal_quantile(1.0 - alpha)


def alpha_rel(i1: float, delta_rel: float) -> float:
    """Type I error rate of requiring a point estimate >= delta_rel."""
    if not i1 > 0:
        raise ValueError(f"need i1 > 0, got {i1}")
    # The survival function as Phi(-x): 1 - Phi(x) cancels in the upper tail.
    return std_normal_cdf(-delta_rel * math.sqrt(i1))


def i1_max(alpha: float, delta_rel: float) -> float:
    """Universal upper bound on the pilot information.

    Above it, the relevance requirement is at least as strict as the
    significance requirement for permanent registration.
    """
    return std_normal_quantile(1.0 - alpha) ** 2 / delta_rel**2


def i1_min(params: DesignParams) -> float:
    """Universal lower bound on the pilot information.

    Smallest I1 with conditional-registration power above 1-beta at
    delta = xi * delta_rel; undefined (raises) for xi <= 1, where that power
    cannot exceed 0.5.
    """
    if not params.xi > 1.0:
        raise ValueError(
            f"conditional-registration power above 0.5 requires xi > 1, "
            f"got xi={params.xi}"
        )
    eta_f = noncentrality_target(params.alpha, params.beta)
    z_beta = params.z_beta
    z_c = std_normal_quantile(1.0 - params.alpha_c)
    i_rel = eta_f**2 / params.delta_rel**2
    relevance_branch = (z_beta / ((params.xi - 1.0) * eta_f)) ** 2
    level_branch = ((z_c + z_beta) / (params.xi * eta_f)) ** 2
    return max(relevance_branch, level_branch) * i_rel


def xi_min(alpha: float, beta: float) -> float:
    """Smallest effect ratio for which the fast-track procedure with a
    required conditional registration can be powered at 1-beta."""
    return 1.0 + std_normal_quantile(1.0 - beta) / std_normal_quantile(1.0 - alpha)


def derive(params: DesignParams) -> DerivedDesign:
    """Populate every closed-form derived quantity for a scenario."""
    eta_f = noncentrality_target(params.alpha, params.beta)
    delta = params.delta
    i_rel = eta_f**2 / params.delta_rel**2
    i_delta = eta_f**2 / delta**2
    a_rel = alpha_rel(params.i1, params.delta_rel)
    i1min = i1_min(params) if params.xi > 1.0 else math.inf
    return DerivedDesign(
        eta_f=eta_f,
        i_rel=i_rel,
        i_delta=i_delta,
        delta=delta,
        z_f=params.z_f,
        alpha_rel=a_rel,
        alpha_f=min(a_rel, params.alpha_c),
        i1_min=i1min,
        i1_max=i1_max(params.alpha, params.delta_rel),
        xi_min=xi_min(params.alpha, params.beta),
        t_rel_i1=params.i1 / i_rel,
        t_xi_i1=params.i1 / i_delta,
    )


def cond_registration_power(params: DesignParams) -> float:
    """P_delta(Z1 >= z_f), the probability of conditional registration."""
    return std_normal_cdf(params.delta * math.sqrt(params.i1) - params.z_f)
