r"""
Volume polynomials of moduli spaces assembled from the bracket engine,
exact volume values, and the volume-ratio diagnostics used by the lab.

A volume polynomial is stored as a symmetric coefficient table: the
multiset d = (d_1 >= d_2 >= ...) keys the coefficient of the monomial
orbit prod x_i^(2 d_i), and that coefficient equals

    [prod tau_{d_i}]_{g,n} / (2^(2|d|) * prod (2 d_i + 1)!)

in the undoubled boundary variables.  The constant term is V_{g,n}.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from .exact import PiPoly, PiScalar, Rat, _coeff_b_rat, eval_numeric, factorial
from .brackets import (
    BracketCache,
    _cached_q,
    _insert_sorted,
    _require_stable,
    c_m,
    default_cache,
)
from .topology import SplitPair

__all__ = [
    "VolumePolynomial",
    "volume",
    "volume_float",
    "volume_rat",
    "volume_poly",
    "volume_at",
    "mz_ratio",
    "ratio_R",
    "identity_check",
    "cor1_bound_check",
    "lratio_check",
    "partitions_upto",
]


def partitions_upto(max_sum: int, max_parts: int) -> Iterator[Tuple[int, ...]]:
    """Non-increasing positive tuples with sum <= max_sum, length <= max_parts."""
    yield ()

    def rec(prefix: List[int], cap: int, rem: int, slots: int):
        if slots == 0:
            return
        for v in range(1, min(cap, rem) + 1):
            prefix.append(v)
            yield tuple(prefix)
            yield from rec(prefix, v, rem - v, slots - 1)
            prefix.pop()

    yield from rec([], max_sum, max_sum, max_parts)


def volume_rat(g: int, n: int, cache: BracketCache | None = None) -> Rat:
    """Rational part of V_{g,n} (pi-power 2*(3g-3+n))."""
    _require_stable(g, n)
    return _cached_q(g, n, (), cache)


def volume(g: int, n: int, cache: BracketCache | None = None) -> PiScalar:
    """Exact Weil-Petersson volume V_{g,n} = [tau_0^n]_{g,n}."""
    return PiScalar(volume_rat(g, n, cache), 2 * (3 * g - 3 + n))


def volume_float(g: int, n: int, digits: int, cache: BracketCache | None = None) -> float:
    """
    float(eval_numeric(volume(g, n), digits).mid()), evaluated at most once
    per table: the value is kept in `cache.floats` until `cache.clear()`.
    """
    cache = default_cache() if cache is None else cache
    key = (g, n, digits)
    x = cache.floats.get(key)
    if x is None:
        x = cache.floats[key] = float(eval_numeric(volume(g, n, cache), digits).mid())
    return x


class VolumePolynomial:
    """Even symmetric polynomial V_{g,n}(x_1,...,x_n) as a coefficient table."""

    __slots__ = ("g", "n", "coeffs")

    def __init__(self, g: int, n: int, coeffs: Dict[Tuple[int, ...], PiScalar]):
        self.g = g
        self.n = n
        self.coeffs = coeffs

    def coefficient(self, d: Sequence[int]) -> PiScalar:
        """Coefficient of the monomial orbit of prod x_i^(2 d_i)."""
        key = tuple(sorted((x for x in d if x), reverse=True))
        return self.coeffs.get(key, PiScalar.zero())

    def constant(self) -> PiScalar:
        return self.coeffs[()]

    def at(self, lengths: Sequence) -> PiPoly:
        """
        Exact evaluation at a list of n exact values (PiPoly-convertible).

        One dynamic program over the variables.  A state is the descending
        tuple of nonzero exponents assigned so far; its value sums
        prod x_i^(2 e_i) over the assignments that reach it, starting from
        {(): 1}.  A nonzero length x takes state s to s (exponent 0) and to
        s + {e} for 1 <= e <= D - |s|, D = 3g-3+n, with the powers
        (x^2)^e built once per length; a zero length keeps every state and
        is skipped.  The value is sum_s coeffs[s] * dp[s].
        """
        if len(lengths) != self.n:
            raise ValueError(f"expected {self.n} lengths, got {len(lengths)}")
        top = 3 * self.g - 3 + self.n
        dp: Dict[Tuple[int, ...], PiPoly] = {(): PiPoly.constant(1)}
        for x in map(_to_poly, lengths):
            if not x:
                continue
            x2 = x * x
            powers = [PiPoly.constant(1)]
            for _ in range(top):
                powers.append(powers[-1] * x2)
            nxt = dict(dp)
            for state, acc in dp.items():
                for e in range(1, top - sum(state) + 1):
                    key = _insert_sorted(state, e)
                    term = acc * powers[e]
                    prev = nxt.get(key)
                    nxt[key] = term if prev is None else prev + term
            dp = nxt
        total = PiPoly.zero()
        for state, acc in dp.items():
            coeff = self.coeffs.get(state)
            if coeff is not None:
                total = total + coeff.to_poly() * acc
        return total

    def __repr__(self):
        return f"VolumePolynomial(g={self.g}, n={self.n}, terms={len(self.coeffs)})"


def _to_poly(x) -> PiPoly:
    if isinstance(x, PiPoly):
        return x
    if isinstance(x, PiScalar):
        return x.to_poly()
    return PiPoly.constant(Rat(x))


def _coeff_table(
    g: int, n: int, max_parts: int, cache: BracketCache | None
) -> Dict[Tuple[int, ...], PiScalar]:
    """
    Nonzero coefficients of V_{g,n} on the monomials in at most max_parts
    variables, i.e. of V_{g,n}(x_1..x_k, 0..0) for k = max_parts.
    """
    _require_stable(g, n)
    budget = 3 * g - 3 + n
    coeffs: Dict[Tuple[int, ...], PiScalar] = {}
    for part in partitions_upto(budget, min(max_parts, n)):
        s = sum(part)
        q = _cached_q(g, n, part, cache)
        if q == 0:
            continue
        den = 4 ** s
        for v in part:
            den *= factorial(2 * v + 1)
        coeffs[part] = PiScalar(q / Rat(den), 2 * (budget - s))
    return coeffs


def volume_poly(g: int, n: int, cache: BracketCache | None = None) -> VolumePolynomial:
    """Complete coefficient table of V_{g,n} over all |d| <= 3g-3+n."""
    return VolumePolynomial(g, n, _coeff_table(g, n, n, cache))


def volume_at(
    g: int, n: int, lengths: Sequence, cache: BracketCache | None = None
) -> PiPoly:
    """Exact V_{g,n}(x_1,...,x_n) at exact boundary lengths."""
    return volume_poly(g, n, cache).at(lengths)


def mz_ratio(g: int, n: int, cache: BracketCache | None = None) -> PiScalar:
    """(2g-2+n) V_{g,n} / V_{g,n+1}; exact, pi-degree -2."""
    q = (2 * g - 2 + n) * volume_rat(g, n, cache) / volume_rat(g, n + 1, cache)
    return PiScalar(q, -2)


def ratio_R(g: int, n: int, cache: BracketCache | None = None) -> Rat:
    """V_{g,n}^2 / (V_{g,n-1} V_{g,n+1}); the pi-degrees cancel exactly."""
    if n < 1:
        raise ValueError("ratio_R needs n >= 1 (V_{g,n-1} must exist)")
    lower = volume_rat(g, n - 1, cache)  # the first of the three to be unstable
    return volume_rat(g, n, cache) ** 2 / (lower * volume_rat(g, n + 1, cache))


def identity_check(
    g: int, n: int, cache: BracketCache | None = None
) -> Tuple[bool, PiScalar]:
    """
    Exact check of (2g-2+n) V_{g,n} / V_{g,n+1} against the alternating
    sum (1/2) sum_{m=1}^{3g-2+n} (-1)^(m-1) b_m c_m(g,n).  Returns
    (equal, residual); the residual is the exact difference.
    """
    lhs = mz_ratio(g, n, cache)
    rhs = Rat(0)
    for m in range(1, 3 * g - 2 + n + 1):
        # b_m c_m has pi-degree (2m-2) + (-2m) = -2 for every m
        rhs += (-1) ** (m - 1) * _coeff_b_rat(m) * c_m(g, n, m, cache).coeff
    rhs /= 2
    residual = lhs - PiScalar(rhs, -2)
    return residual.is_zero(), residual


def cor1_bound_check(
    g: int, n: int, digits: int = 30, cache: BracketCache | None = None
) -> float:
    """
    eval(V_{g,n}) divided by (2g-3+n)! (4 pi^2)^(2g-3+n) / sqrt(2g-2+n).
    Finite and positive on every stable signature.
    """
    chi = 2 * g - 2 + n
    box = eval_numeric(volume(g, n, cache), digits)
    import mpmath

    with mpmath.workdps(digits):
        denom = mpmath.mpf(factorial(2 * g - 3 + n)) * (4 * mpmath.pi ** 2) ** (
            2 * g - 3 + n
        )
        return float(box.mid() * mpmath.sqrt(chi) / denom)


def lratio_check(
    m: int,
    split: SplitPair,
    g: int,
    n: int,
    digits: int = 30,
    cache: BracketCache | None = None,
) -> Tuple[float, float]:
    """
    Pair (eval(V_{g1,n1} V_{g2,n2} / V_{g,n}),
          m^m (chi-m)^(chi-m) / chi^chi) for a split in I_m of (g,n).
    """
    split.validate(g, n)
    if split.m != m:
        raise ValueError(f"split has m={split.m}, expected {m}")
    chi = 2 * g - 2 + n
    num = volume_rat(split.g1, split.n1, cache) * volume_rat(split.g2, split.n2, cache)
    den = volume_rat(g, n, cache)
    # pi-degree of the ratio: 2*(3g1-3+n1 + 3g2-3+n2 - (3g-3+n)) = 2*(k-3)
    pideg = 2 * (
        (3 * split.g1 - 3 + split.n1)
        + (3 * split.g2 - 3 + split.n2)
        - (3 * g - 3 + n)
    )
    lhs = float(eval_numeric(PiScalar(num / den, pideg), digits).mid())
    rhs = float(
        Rat(m ** m * (chi - m) ** (chi - m), chi ** chi)
    )
    return lhs, rhs
