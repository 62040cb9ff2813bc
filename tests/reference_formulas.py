"""Closed-form references that the tests compare the package against.

No command prints these; they are textbook formulas from the paper, kept here
so that the package holds only what a command reaches.
"""

import math

import numpy as np

from fasttrack.numerics import std_normal_cdf, std_normal_quantile


def atilde_z(z1, level: float, i1: float, i2c: float):
    """Conditional error function of the fixed-size combined z-test at
    ``level``, before 0.5-truncation.  Vectorized in ``z1``."""
    if not (i1 > 0 and i2c > 0):
        raise ValueError("atilde_z requires positive informations")
    w1 = math.sqrt(i1 / (i1 + i2c))
    w2 = math.sqrt(i2c / (i1 + i2c))
    z_alpha = std_normal_quantile(1.0 - level)
    return 1.0 - std_normal_cdf((z_alpha - w1 * np.asarray(z1, dtype=float)) / w2)


def naive_inflation(alpha: float, alpha_c: float) -> float:
    """Overall type I error rate of naively restarting at level alpha after a
    failed (binding) conditional-registration attempt."""
    z_f = std_normal_quantile(1.0 - alpha_c)
    return (1.0 + std_normal_cdf(z_f)) * alpha
