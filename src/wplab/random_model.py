r"""
Exact expected values of multi-curve counting statistics under the
volume-normalized measure, Poisson-limit diagnostics, the second-moment
machinery, and the explicit probability upper-bound sums.

Cut-off lengths are kept exact (rational, or rational multiple of pi) so
that every expectation integral -- a polynomial integrated against
prod x_i dx over a box or a simplex -- stays inside the pi-graded
rational ring.  Out-of-regime inputs are computed anyway and flagged
with warnings, except where the defining series itself requires the
constraint.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Dict, Iterator, List, Optional, Tuple, Union

import mpmath

from .exact import NumInterval, PiPoly, Rat, _rat_sum, eval_float, eval_numeric
from .brackets import BracketCache, _cached_q, _require_stable, default_cache, stable
from .topology import SplitPair, enumerate_splits, pairing_multiplicity
from .volumes import partitions_upto, ratio_R, volume, volume_float

__all__ = [
    "ARCSINH1",
    "BudgetExceeded",
    "CutoffLength",
    "ExpectationResult",
    "SecondMomentResult",
    "TwoCurveResult",
    "expected_pants_count",
    "poisson_lambda",
    "second_moment_bound",
    "length_scale",
    "cheeger_prob_upper",
    "pvol2_sum",
    "two_curve_expectation_bound",
    "box_count_integral",
]

ARCSINH1 = math.asinh(1.0)
_LOG2_OVER_2PI = math.log(2.0) / (2.0 * math.pi)
_POISSON_REGIME = math.log(2.0) / math.sqrt(4.0 * math.pi * (math.log(2.0) + math.pi))


class BudgetExceeded(RuntimeError):
    """A needed volume lies beyond the configured recursion budget."""

    def __init__(self, g: int, n: int, budget: int):
        self.signature = (g, n)
        self.budget = budget
        super().__init__(
            f"signature ({g},{n}) needs budget {3 * g - 3 + n} > {budget}"
        )


def _ensure_budget(g: int, n: int, budget: Optional[int]) -> None:
    if budget is not None and 3 * g - 3 + n > budget:
        raise BudgetExceeded(g, n, budget)


_CUTOFF_RE = re.compile(r"^(-?\d+)(?:/(0*[1-9]\d*))?(pi)?$")


@dataclass(frozen=True)
class CutoffLength:
    """Exact positive cut-off: `value` or `value * pi`."""

    kind: str  # "rational" | "rational_pi"
    value: Fraction

    def __post_init__(self):
        if self.kind not in ("rational", "rational_pi"):
            raise ValueError(f"unknown cutoff kind {self.kind!r}")
        if self.value <= 0:
            raise ValueError("cutoff must be positive")

    @staticmethod
    def rational(value) -> "CutoffLength":
        return CutoffLength("rational", Fraction(value))

    @staticmethod
    def pi_multiple(value) -> "CutoffLength":
        return CutoffLength("rational_pi", Fraction(value))

    @staticmethod
    def parse(text: str) -> "CutoffLength":
        m = _CUTOFF_RE.match(text.strip())
        if not m:
            raise ValueError(f"malformed cutoff {text!r} (expected RAT or RATpi)")
        num, den, pi_tag = m.groups()
        value = Fraction(int(num), int(den) if den else 1)
        return CutoffLength("rational_pi" if pi_tag else "rational", value)

    def as_poly(self) -> PiPoly:
        return PiPoly({1 if self.kind == "rational_pi" else 0: self.value})

    def __float__(self) -> float:
        x = float(self.value)
        return x * math.pi if self.kind == "rational_pi" else x

    def render(self) -> str:
        suffix = "pi" if self.kind == "rational_pi" else ""
        return f"{self.value.numerator}/{self.value.denominator}{suffix}"


@dataclass
class ExpectationResult:
    exact: PiPoly
    numeric: NumInterval
    main_term: float
    rel_deviation: float
    warnings: List[str] = field(default_factory=list)


def _arrangements(part: Tuple[int, ...], k: int) -> int:
    """Distinct placements of the multiset `part` into k labelled slots."""
    counts: Dict[int, int] = {}
    for v in part:
        counts[v] = counts.get(v, 0) + 1
    d = factorial(k - len(part))
    for c in counts.values():
        d *= factorial(c)
    return factorial(k) // d


@lru_cache(maxsize=None)
def _weight_factors(top: int, kmax: int, k: int, triangle: bool) -> Tuple[tuple, ...]:
    """
    (part, (m, 2(top - s)), arr(part, k), den) over partitions_upto(top,
    kmax), s = |part|: (m, den) = (s + k, 2^(2s+k-len(part)) prod (2v+2)!)
    for a box weight and (2s + 4, 4^s (2s+4)!) for a triangle weight.
    """
    out = []
    for part in partitions_upto(top, kmax):
        s = sum(part)
        if triangle:
            m, den = 2 * s + 4, 4 ** s * factorial(2 * s + 4)
        else:
            m, den = s + k, 2 ** (2 * s + k - len(part)) * prod(factorial(2 * v + 2) for v in part)
        out.append((part, (m, 2 * (top - s)), _arrangements(part, k), den))
    return tuple(out)


def box_count_integral(
    g: int, n: int, k: int, L: CutoffLength, cache: BracketCache | None = None
) -> PiPoly:
    """
    Exact integral over [0, L]^k of V_{g,n}(x_1..x_k,0..0) prod x_i dx.  A
    part of s = |part| in l = len(part) variables has the coefficient
    q / (4^s prod (2v+1)!), q = [prod tau_v]_{g,n}; x^(2v+1) integrates to
    L^(2v+2)/(2v+2), so its weight is q arr(part, k) / (2^(2s+k-l) prod
    (2v+2)!) on (L^2)^(s+k) at pi-degree 2(3g-3+n-s).  The weights are
    summed per (s+k, pi-degree); they do not depend on L and are kept in
    `cache.box_weights` until `cache.clear()`.
    """
    cache = default_cache() if cache is None else cache
    groups = cache.box_weights.get((g, n, k))
    if groups is None:
        groups = cache.box_weights[(g, n, k)] = _bracket_weights(g, n, k, False, cache)
    return _power_sum(groups, L.as_poly() ** 2)


def _bracket_weights(g: int, n: int, k: int, triangle: bool, cache: BracketCache | None) -> Dict[Tuple[int, int], Rat]:
    """
    {(m, pideg): sum of q(g, n, part) arr / den} over the parts of at most
    min(k, n) entries, with the factors of `_weight_factors`: one Rat per
    group, over the lcm of its denominators.
    """
    _require_stable(g, n)
    groups: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for part, key, arr, den in _weight_factors(3 * g - 3 + n, min(k, n), k, triangle):
        q = _cached_q(g, n, part, cache)
        groups.setdefault(key, []).append((q.numerator * arr, q.denominator * den))
    return {key: _rat_sum(terms) for key, terms in groups.items()}


def _power_sum(groups: Dict[Tuple[int, int], Rat], base: PiPoly) -> PiPoly:
    """Sum of w * pi^pideg * base^m over {(m, pideg): w}, by one running power of base."""
    total = PiPoly.zero()
    power, at = PiPoly.constant(1), 0
    for (m, pideg), w in sorted(groups.items()):
        for _ in range(m - at):
            power = power * base
        at = m
        total = total + PiPoly({pideg: w}) * power
    return total


def expected_pants_count(
    g: int,
    n: int,
    k: int,
    L: Union[CutoffLength, float],
    digits: int = 30,
    budget: Optional[int] = None,
    cache: BracketCache | None = None,
) -> ExpectationResult:
    """
    Exact expected number of k-families of disjoint pants curves, each of
    length <= L, on a random (g, n) surface, with the product main term
    prod_{i<2k} (n-i) * (V_{g,n-k}/V_{g,n}) * (2 cosh(L/2) - 2)^k and the
    relative deviation from it.  It is the k-th factorial moment of the
    pants-curve count while L < 2 arcsinh 1 (disjointness); a longer L is
    computed anyway and flagged.
    """
    warnings: List[str] = []
    if isinstance(L, float):
        L = CutoffLength.rational(Fraction(L))
        warnings.append("float-cutoff")
    if k < 1 or n < 2 * k:
        raise ValueError(f"need n >= 2k >= 2, got n={n}, k={k}")
    _require_stable(g, n - k)
    _ensure_budget(g, n, budget)

    mult = pairing_multiplicity(n, k)
    integral = box_count_integral(g, n - k, k, L, cache)
    vol = volume(g, n, cache)
    exact = PiPoly.constant(mult) * integral * (1 / vol).to_poly()

    box = eval_numeric(exact, digits)
    Lf = float(L)
    main = 1.0
    for i in range(2 * k):
        main *= n - i
    main *= volume_float(g, n - k, digits, cache) / volume_float(g, n, digits, cache)
    main *= (2.0 * math.cosh(Lf / 2.0) - 2.0) ** k
    mid = float(box.mid())
    rel = abs(mid / main - 1.0) if main else math.inf
    if Lf >= 2 * ARCSINH1:
        warnings.append("collar-hypothesis: L >= 2 arcsinh 1")
    return ExpectationResult(exact, box, main, rel, warnings)


def poisson_lambda(a: float, C: float) -> Tuple[float, List[str]]:
    """
    Limit intensity a^2 (cosh(pi C) - 1) / (4 pi^2); flags C outside the
    proved regime [0, log2/sqrt(4 pi (log2 + pi))).
    """
    if a < 0 or C < 0:
        raise ValueError("a and C must be non-negative")
    lam = a * a / (4.0 * math.pi ** 2) * (math.cosh(math.pi * C) - 1.0)
    warnings = []
    if C >= _POISSON_REGIME:
        warnings.append(f"C={C} >= poisson regime bound {_POISSON_REGIME:.6f}")
    return lam, warnings


@dataclass
class SecondMomentResult:
    first: ExpectationResult
    second_factorial: ExpectationResult
    second_moment_exact: PiPoly  # E[N^2] = E[N] + E[(N)_2] by disjointness
    bound: float                 # E[N]^2 / (E[N] + E[(N)_2]) in [0, 1]
    target: Rat                  # V_{g,n-1}^2 / (V_{g,n} V_{g,n-2}), exact
    gap: float
    warnings: List[str] = field(default_factory=list)


def second_moment_bound(
    g: int,
    n: int,
    L: Union[CutoffLength, float],
    digits: int = 30,
    budget: Optional[int] = None,
    cache: BracketCache | None = None,
) -> SecondMomentResult:
    """
    Second-moment lower bound for seeing at least one short pants curve,
    with the volume-ratio target it approaches as E[N] grows.
    """
    if n < 4:
        raise ValueError("second moment needs n >= 4")
    e1 = expected_pants_count(g, n, 1, L, digits, budget, cache)
    e2 = expected_pants_count(g, n, 2, L, digits, budget, cache)
    sm = e1.exact + e2.exact
    v1 = float(e1.numeric.mid())
    v2 = float(e2.numeric.mid())
    bound = v1 * v1 / (v1 + v2) if v1 + v2 > 0 else 0.0
    target = ratio_R(g, n - 1, cache)
    warnings = sorted(set(e1.warnings) | set(e2.warnings))
    return SecondMomentResult(e1, e2, sm, bound, target, abs(float(target) - bound), warnings)


_SCALE_DIGITS = 6


def length_scale(g: int, n: int) -> CutoffLength:
    """Rational approximation (10^-6) of the sweep scale (sqrt(g)/n)^(1/2)."""
    if g < 1 or n < 1:
        raise ValueError("need g, n >= 1")
    with mpmath.workdps(_SCALE_DIGITS + 20):
        x = (mpmath.sqrt(g) / n) ** mpmath.mpf("0.5")
        scaled = int(mpmath.nint(x * 10 ** _SCALE_DIGITS))
    return CutoffLength.rational(Fraction(scaled, 10 ** _SCALE_DIGITS))


def _binomial_weight(m: int, n: int) -> int:
    """max_{0 <= i <= m+1} C(n, i)."""
    return max(comb(n, i) for i in range(0, min(m + 1, n) + 1))


def cheeger_prob_upper(
    g: int,
    n: int,
    C: float,
    digits: int = 30,
    budget: Optional[int] = None,
    cache: BracketCache | None = None,
) -> Tuple[float, List[str]]:
    """
    Explicit upper bound for the probability of a separating system with
    length-over-area ratio <= C: the triple sum over split sizes m,
    splits in I_m and cut sizes k of
    C(m,n) (V_{g1,n1} V_{g2,n2} / V_{g,n}) (2 pi m C)^{2k}/(k!(2k)!) e^{2 pi m C}.
    """
    if C <= 0:
        raise ValueError("C must be positive")
    warnings: List[str] = []
    if C >= _LOG2_OVER_2PI:
        warnings.append(f"C={C} >= log2/(2 pi) = {_LOG2_OVER_2PI:.6f}")
    total = 0.0
    for m, weight, sp, v1, v2, vgn in _split_volumes(g, n, 1, digits, budget, cache):
        boost = math.exp(2.0 * math.pi * m * C)
        vv = v1 * v2 / vgn
        for k in range(1, sp.n1 + 1):
            x = (2.0 * math.pi * m * C) ** (2 * k) / (
                factorial(k) * factorial(2 * k)
            )
            total += weight * vv * x * boost
    return total, warnings


def pvol2_sum(
    g: int,
    n: int,
    u: float,
    digits: int = 30,
    budget: Optional[int] = None,
    cache: BracketCache | None = None,
) -> float:
    """
    Normalized split-volume sum sum_{m>=2} sum_{I_m} C(m,n) V V e^{L_m}
    / V_{g,n} with L_m = 2 pi m u + 3 (2 pi m u)^(2/3); requires
    0 < u < log2/(2 pi).  The lab checks sqrt(g) times this stays bounded.
    """
    if not (0.0 < u < _LOG2_OVER_2PI):
        raise ValueError(f"u must lie in (0, log2/(2 pi) = {_LOG2_OVER_2PI:.6f})")
    total = 0.0
    for m, weight, sp, v1, v2, vgn in _split_volumes(g, n, 2, digits, budget, cache):
        lm = 2.0 * math.pi * m * u
        boost = math.exp(lm + 3.0 * lm ** (2.0 / 3.0))
        total += weight * v1 * v2 / vgn * boost
    return total


def _split_volumes(
    g: int, n: int, m_min: int, digits: int, budget: Optional[int], cache: BracketCache | None
) -> Iterator[Tuple[int, int, SplitPair, float, float, float]]:
    """
    (m, C(m,n), split, V_{g1,n1}, V_{g2,n2}, V_{g,n}) for every split in
    I_m, m = m_min..chi/2, each volume checked against the budget.
    """
    vgn = _vol_float(g, n, digits, budget, cache)
    for m in range(m_min, (2 * g - 2 + n) // 2 + 1):
        weight = _binomial_weight(m, n)
        for sp in enumerate_splits(m, g, n):
            v1 = _vol_float(sp.g1, sp.n1, digits, budget, cache)
            v2 = _vol_float(sp.g2, sp.n2, digits, budget, cache)
            yield m, weight, sp, v1, v2, vgn


def _vol_float(
    g: int, n: int, digits: int, budget: Optional[int], cache: BracketCache | None
) -> float:
    _ensure_budget(g, n, budget)
    return volume_float(g, n, digits, cache)


@dataclass
class TwoCurveResult:
    exact: PiPoly
    value: float
    scaled: float  # value * (g + n), the trend normalization


def two_curve_expectation_bound(
    g: int,
    n: int,
    C: Union[Fraction, float],
    digits: int = 30,
    budget: Optional[int] = None,
    cache: BracketCache | None = None,
) -> TwoCurveResult:
    """
    Exact triangle integral (1/V_{g,n}) int_{x+y <= T} V_{g-1,n+1}(x,y,0,...)
    x y dx dy, T = 2 pi C, bounding the two-curve family that cuts off one
    puncture; reported with the (g+n) normalization.  x^a y^b (a, b = 2d+1)
    gives a! b! / (2s+4)! T^(2s+4); a! b! cancels the coefficient's, so a
    part of s = |part| and at most min(2, n+1) entries (a 2-entry key on one
    puncture is no bracket) weighs q arr(part, 2) / (4^s (2s+4)!).
    """
    if not stable(g - 1, n + 1) or not stable(g, n):
        raise ValueError(f"unstable signature ({g - 1},{n + 1}) or ({g},{n})")
    CF = Fraction(C)
    if CF <= 0:
        raise ValueError("C must be positive")
    _ensure_budget(g, n, budget)
    _ensure_budget(g - 1, n + 1, budget)
    T = PiPoly({1: 2 * CF})  # 2 pi C
    groups = _bracket_weights(g - 1, n + 1, 2, True, cache)
    total = _power_sum(groups, T)
    vol = volume(g, n, cache)
    total = total * (1 / vol).to_poly()
    value = eval_float(total, digits)
    return TwoCurveResult(total, value, value * (g + n))
