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
from typing import List, Sequence, Tuple

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


_GRID_BLOCK = 2000


def _phi_grid_min(hs: Sequence[float], step: float, count: int) -> List[float]:
    """
    For each H in hs, the minimum of phi(H, i*step) over 0 <= i < count,
    equal float for float to taking min over phi.  cosh and sinh of each
    grid point are computed once and shared across hs, one block of grid
    points at a time so memory stays flat.
    """
    best = [math.inf] * len(hs)
    for start in range(0, count, _GRID_BLOCK):
        ts = [i * step for i in range(start, min(start + _GRID_BLOCK, count))]
        cs = list(map(math.cosh, ts))
        ss = list(map(math.sinh, ts))
        best = [
            min(b, min([H * c / (1.0 + H * s) for c, s in zip(cs, ss)]))
            for b, H in zip(best, hs)
        ]
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

