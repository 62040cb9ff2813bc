"""Thirty-digit reference values for the level integral and the waive-branch
success of a conditional error function, and for the upper branch's overall
power, mean and maximum stage-two information, computed from a design's
constants alone.

Each CEF is written here from its definition, as a function z -> A(z) at
mpmath precision together with its kinks, and integrated with ``mp.quad``
with the kinks as breakpoints.  The normal survival function is written as
``mp.ncdf(-z)``.  Nothing here calls ``fasttrack``, so the package's
critical-value tables, its quadrature, its conditional density and its
stage-two rule with its floor kink are checked against an independent
computation.
"""

from __future__ import annotations

from mpmath import mp

DPS = 30
# mp.quad over one wide segment can keep fewer than DPS digits (about 22 on
# Fisher's segment up to a tiny cap), so the integrals run with this many
# more.
GUARD = 10


def _upper_quantile(p):
    """Phi^{-1}(1 - p), infinite at p = 0 and minus infinite at p = 1."""
    return mp.sqrt(2) * mp.erfinv(1 - 2 * mp.mpf(p))


def _capped(a):
    return min(a, mp.mpf(1) / 2)


def constant(level):
    """A(z) = level everywhere."""
    return (lambda z: _capped(mp.mpf(level))), []


def inverse_normal(c, z0=-mp.inf):
    """Inverse normal combination with equal weights, zero below ``z0``:
    reject when (z1 + z2) / sqrt(2) >= Phi^{-1}(1 - c)."""
    with mp.workdps(DPS):
        z_c = _upper_quantile(c)
        w = mp.sqrt(mp.mpf(1) / 2)

        def a(z):
            return _capped(mp.ncdf(-(z_c - w * z) / w)) if z >= z0 else mp.zero

        return a, [z0, z_c / w]


def fisher(c, z0=-mp.inf):
    """Fisher's product test, zero below ``z0``: A = c / (1 - Phi(z)).  With
    c >= 1/2 (a saturated design) A is capped wherever it is positive."""
    with mp.workdps(DPS):

        def a(z):
            return _capped(mp.mpf(c) / mp.ncdf(-z)) if z >= z0 else mp.zero

        return a, [z0, _upper_quantile(2 * mp.mpf(c))] if 2 * c < 1 else [z0]


def z_combination(i1, i2_const, z_split, alpha, alpha_prime):
    """The combined z-test of informations i1 and i2_const at level alpha
    below z_split and at alpha_prime above it."""
    with mp.workdps(DPS):
        i1, i2_const = mp.mpf(i1), mp.mpf(i2_const)
        w1 = mp.sqrt(i1 / (i1 + i2_const))
        w2 = mp.sqrt(i2_const / (i1 + i2_const))
        z_lo, z_hi = _upper_quantile(alpha), _upper_quantile(alpha_prime)

        def a(z):
            z_level = z_lo if z < z_split else z_hi
            return _capped(mp.ncdf(-(z_level - w1 * z) / w2))

        return a, [z_split, z_lo / w1, z_hi / w1]


def design_cef(design):
    """The reference CEF of a built design (its ``family``, ``params``,
    ``cef``, ``i2_const`` and ``branch_boundary``), from its constants."""
    p, cef = design.params, design.cef
    if design.family == "constant":
        return constant(p.alpha)
    if design.family == "z_combination":
        return z_combination(
            p.i1, design.i2_const, design.branch_boundary, p.alpha, cef.alpha_prime
        )
    if design.family == "fisher":
        return fisher(cef.c, cef.z0)
    return inverse_normal(cef.c, cef.z0)


def _quad(f, lo, hi, points):
    inner = sorted({mp.mpf(x) for x in points if lo < x < hi})
    return mp.quad(f, [lo, *inner, hi])


def level_integral_mp(cef, lower=-mp.inf, dps=DPS):
    """Integral of A(z) phi(z) from ``lower`` to infinity, as an mpf of
    ``dps`` digits."""
    a, kinks = cef
    with mp.workdps(dps):
        return _quad(lambda z: a(z) * mp.npdf(z), mp.mpf(lower), mp.inf, kinks)


def level_integral(cef, lower=-mp.inf) -> float:
    """Integral of A(z) phi(z) from ``lower`` to infinity."""
    return float(level_integral_mp(cef, lower))


def fisher_level(c, z0=-mp.inf):
    """Fisher's level integral from ``z0`` in closed form (Bauer & Koehne
    1994), as an mpf of DPS digits: with S = 1 - Phi(z0), c (1 + ln(S / 2c))
    when 2c < S, else S / 2."""
    with mp.workdps(DPS):
        c, s = mp.mpf(c), mp.ncdf(-mp.mpf(z0))
        return c * (1 + mp.log(s / (2 * c))) if 2 * c < s else s / 2


def waive_branch_success(cef, i2c, i1, delta, z_split) -> float:
    """P_delta(Z2 >= Phi^{-1}(1 - A(Z1)) | Z1 < z_split) at stage-two
    information i2c, where Z1 ~ N(delta * sqrt(i1), 1)."""
    a, kinks = cef
    with mp.workdps(DPS + GUARD):
        z_split, mean = mp.mpf(z_split), mp.mpf(delta) * mp.sqrt(i1)
        drift = mp.mpf(delta) * mp.sqrt(i2c)
        # The conditional density is normalised before it is integrated:
        # mp.quad's tolerance is absolute, and phi(z - mean) may be tiny.
        p_lower = mp.ncdf(z_split - mean)

        def f(z):
            q = _upper_quantile(a(z))
            return mp.ncdf(-(q - drift)) * mp.npdf(z - mean) / p_lower

        # Z1 given Z1 < z_split lies within a few 1 / (mean - z_split) of
        # z_split when the mean is far above it.
        scale = 1 / max(mean - z_split, 1)
        near = [z_split - k * scale for k in (1, 4, 16, 64)]
        return float(_quad(f, -mp.inf, z_split, [*kinks, *near]))


def _formula(a, i1, beta):
    """z -> i1 (z_beta + q(z))^2 / z^2 with q = Phi^{-1}(1 - A(z)), the
    conditional-power formula of the stage-two information."""
    z_beta = _upper_quantile(beta)
    return lambda z: i1 * (z_beta + _upper_quantile(a(z))) ** 2 / z**2


def floor_kink(cef, i2_min, beta, i1, z_f):
    """Abscissa above z_f where the conditional-power formula falls to the
    floor i2_min, found by a root search on the formula; None when it does
    not lie above the floor at z_f."""
    a, _ = cef
    with mp.workdps(DPS):
        i2_min, z_f = mp.mpf(i2_min), mp.mpf(z_f)
        formula = _formula(a, mp.mpf(i1), beta)
        if not (i2_min > 0 and formula(z_f) > i2_min):
            return None
        # The formula falls to 0 as z grows, so doubling the distance to z_f
        # brackets its one crossing of the floor.
        hi = z_f + 1
        while formula(hi) > i2_min:
            hi = z_f + 2 * (hi - z_f)
        return mp.findroot(lambda z: formula(z) - i2_min, (z_f, hi), solver="anderson")


def max_stage2_info(cef, i2_min, beta, i1, z_f) -> float:
    """Largest stage-two information of the upper branch, max(i2_min,
    formula(z_f)): the formula falls as z grows (see floor_kink)."""
    a, _ = cef
    with mp.workdps(DPS):
        formula = _formula(a, mp.mpf(i1), beta)
        return float(max(mp.mpf(i2_min), formula(mp.mpf(z_f))))


def upper_branch(cef, i2_min, beta, i1, delta, z_f) -> tuple[float, float]:
    """Overall power P_delta(Z1 >= z_f, Z2 >= q(Z1)) and mean stage-two
    information E_delta[I2(Z1); Z1 >= z_f] of the upper branch, where Z2 is
    observed at information I2(z) = max(i2_min, i1 (z_beta + q(z))^2 / z^2)
    with q = Phi^{-1}(1 - A(z)), and Z1 ~ N(delta * sqrt(i1), 1).

    The breakpoints are the CEF's kinks and the floor kink (see floor_kink).
    """
    a, kinks = cef
    with mp.workdps(DPS + GUARD):
        i1, i2_min, z_f = mp.mpf(i1), mp.mpf(i2_min), mp.mpf(z_f)
        delta = mp.mpf(delta)
        mean = delta * mp.sqrt(i1)
        formula = _formula(a, i1, beta)
        kink = floor_kink(cef, i2_min, beta, i1, z_f)
        points = list(kinks) + ([] if kink is None else [kink])

        # Both integrals run on the same breakpoints, so mp.quad asks for
        # the same nodes: each node's q and I2 are computed once.
        seen = {}

        def q_i2(z):
            if z not in seen:
                seen[z] = _upper_quantile(a(z)), max(i2_min, formula(z))
            return seen[z]

        def power(z):
            q, i2 = q_i2(z)
            return mp.ncdf(-(q - mp.sqrt(i2) * delta)) * mp.npdf(z - mean)

        def info(z):
            return q_i2(z)[1] * mp.npdf(z - mean)

        return tuple(float(_quad(f, z_f, mp.inf, points)) for f in (power, info))
