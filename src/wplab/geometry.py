r"""
Closed-form hyperbolic-geometry calculus: collar widths, neighboring
curves, the collar-sweep objective, the regime threshold constants and
the Cheeger bound of a punctured sphere.

Everything here is an explicit analytic formula, so plain floats are
used throughout; the threshold constants are additionally reported to 30
digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import mpmath

__all__ = [
    "collar_halfwidth",
    "neighbor_curve",
    "phi",
    "phi_min",
    "RegimeConstants",
    "regime_constants",
    "sphere_h_upper",
]


def collar_halfwidth(l: float) -> float:
    """Half-width arcsinh(1/sinh(l/2)) of the embedded collar; decreasing in l."""
    if l <= 0:
        raise ValueError("geodesic length must be positive")
    return math.asinh(1.0 / math.sinh(l / 2.0))


def neighbor_curve(l: float, t: float) -> Tuple[float, float, bool]:
    """
    Equidistant curve at distance t from a geodesic of length l: returns
    (length l*cosh t, unsigned area offset l*sinh t, in_collar).  The
    caller adds the offset to or subtracts it from the base area 2*pi;
    outside the collar half-width the embedding hypothesis fails and
    in_collar is False.
    """
    if l <= 0:
        raise ValueError("geodesic length must be positive")
    if t < 0:
        raise ValueError("distance must be non-negative")
    return l * math.cosh(t), l * math.sinh(t), t <= collar_halfwidth(l)


def phi(H: float, t: float) -> float:
    """Collar-sweep objective H*cosh(t) / (1 + H*sinh(t))."""
    if H <= 0:
        raise ValueError("H must be positive")
    if t < 0:
        raise ValueError("t must be non-negative")
    return H * math.cosh(t) / (1.0 + H * math.sinh(t))


_PHI_EPS = 1e-9
_PHI_RISE = (1.0 + _PHI_EPS) / (1.0 - _PHI_EPS)


def _phi_grid_min(H: float, step: float, count: int) -> float:
    """
    Minimum of phi(H, i*step) over 0 <= i < count, equal float for float
    to taking min over phi, found by walking out from arcsinh(H).

    phi'(t) has the sign of sinh(t) - H, so the exact phi falls up to
    arcsinh(H) and rises after it.  The walk starts at the grid point
    nearest arcsinh(H), clamped to the grid, and goes outward on each side
    until a computed value exceeds the running minimum m times
    (1+eps)/(1-eps), where eps = _PHI_EPS bounds the relative error of one
    computed phi (libm's cosh and sinh and four roundings give a few ulps).
    That value's exact phi is above m/(1-eps) and every exact value further
    out larger still, so no computed value there can be the minimum.
    """
    if H <= 0 or step <= 0 or count < 1:
        raise ValueError("needs H > 0, step > 0 and count >= 1")
    start = min(round(math.asinh(H) / step), count - 1)
    best = phi(H, start * step)
    for stop, di in ((-1, -1), (count, 1)):
        for i in range(start + di, stop, di):
            value = phi(H, i * step)
            if value > best * _PHI_RISE:
                break
            best = min(best, value)
    return best


def phi_min(H: float) -> float:
    """Minimum of phi over t >= 0, attained at t = arcsinh(H): H/sqrt(1+H^2)."""
    if H <= 0:
        raise ValueError("H must be positive")
    return H / math.sqrt(1.0 + H * H)


@dataclass(frozen=True)
class RegimeConstants:
    """Threshold constants of the probabilistic regimes, to 30 digits."""

    poisson_regime: float        # log2 / sqrt(4 pi (log2 + pi))
    spectral_gap: float          # (1/4) (log2 / (log2 + 2 pi))^2
    cheeger_regime: float        # log2 / (2 pi)
    h_threshold_at_zero: float   # log2 / (2 pi + log2)
    poisson_regime_str: str
    spectral_gap_str: str
    cheeger_regime_str: str
    h_threshold_at_zero_str: str


_DIGITS = 30


def regime_constants() -> RegimeConstants:
    with mpmath.workdps(_DIGITS + 10):
        l2 = mpmath.log(2)
        pi = mpmath.pi
        pr = l2 / mpmath.sqrt(4 * pi * (l2 + pi))
        sg = (l2 / (l2 + 2 * pi)) ** 2 / 4
        cr = l2 / (2 * pi)
        ht = l2 / (2 * pi + l2)
        return RegimeConstants(
            poisson_regime=float(pr),
            spectral_gap=float(sg),
            cheeger_regime=float(cr),
            h_threshold_at_zero=float(ht),
            poisson_regime_str=mpmath.nstr(pr, _DIGITS),
            spectral_gap_str=mpmath.nstr(sg, _DIGITS),
            cheeger_regime_str=mpmath.nstr(cr, _DIGITS),
            h_threshold_at_zero_str=mpmath.nstr(ht, _DIGITS),
        )


def sphere_h_upper(n: int) -> float:
    """
    Cheeger upper bound for an n-punctured sphere from the Bers-constant
    pants curve: 30 sqrt(2 pi (n-2)) over area 2 pi floor((n-2)/2).
    """
    if n < 4:
        raise ValueError("needs n >= 4")
    return 30.0 * math.sqrt(2.0 * math.pi * (n - 2)) / (2.0 * math.pi * ((n - 2) // 2))

