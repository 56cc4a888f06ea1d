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

from math import factorial, lcm
from typing import Dict, Iterator, List, Sequence, Tuple

import mpmath

from .exact import PiPoly, PiScalar, Rat, _as_poly, _coeff_b_rat, eval_numeric
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


def _volume_mid(g: int, n: int, digits: int, cache: BracketCache | None) -> mpmath.mpf:
    """
    The exact midpoint of eval_numeric(volume(g, n), digits), evaluated at
    most once per table: it is kept in `cache.floats` until `cache.clear()`.
    """
    cache = default_cache() if cache is None else cache
    key = (g, n, digits)
    mid = cache.floats.get(key)
    if mid is None:
        box = eval_numeric(volume(g, n, cache), digits)
        mid = cache.floats[key] = mpmath.ldexp(mpmath.fadd(box.lo, box.hi, exact=True), -1)
    return mid


def volume_float(g: int, n: int, digits: int, cache: BracketCache | None = None) -> float:
    """float(eval_numeric(volume(g, n), digits).mid()), from the memoized midpoint."""
    # unary + rounds to the working precision, as mid() does
    return float(+_volume_mid(g, n, digits, cache))


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
        Exact evaluation at a list of n exact values (PiPoly, PiScalar,
        Rat or int; another type raises TypeError).

        One dynamic program over the variables, on integers.  Each squared
        nonzero length is written as integer numerators per pi-degree over
        one shared denominator lam, the lcm of the squares' denominators.
        A state is the descending tuple of nonzero exponents assigned so
        far; its value sums prod x_i^(2 e_i) over the assignments that
        reach it, and every such product has denominator lam^|s|, so
        dp[s] holds numerators over lam^|s|, starting from {(): 1}.  A
        nonzero length takes s to s (exponent 0) and to s + {e} for
        1 <= e <= D - |s|, D = 3g-3+n, with the numerator powers built once
        per length; a zero length keeps every state and is skipped.  The
        value sum_s coeffs[s] * dp[s] / lam^|s| is put over
        lcm(coefficient denominators) * lam^D, one Rat per pi-degree.
        """
        if len(lengths) != self.n:
            raise ValueError(f"expected {self.n} lengths, got {len(lengths)}")
        top = 3 * self.g - 3 + self.n
        squares = []
        for x in lengths:
            poly = _as_poly(x)
            if poly is NotImplemented:
                raise TypeError(f"cannot use {type(x).__name__} as a length")
            if poly:
                squares.append(poly * poly)
        lam = lcm(*(q.denominator for sq in squares for q in sq.terms.values()))
        dp: Dict[Tuple[int, ...], Dict[int, int]] = {(): {0: 1}}
        for sq in squares:
            x2 = {k: q.numerator * (lam // q.denominator) for k, q in sq.terms.items()}
            powers = [{0: 1}]
            for _ in range(top):
                powers.append(_int_mul(powers[-1], x2))
            nxt = dict(dp)
            for state, acc in dp.items():
                for e in range(1, top - sum(state) + 1):
                    key = _insert_sorted(state, e)
                    term = _int_mul(acc, powers[e])
                    prev = nxt.get(key)
                    nxt[key] = term if prev is None else _int_add(prev, term)
            dp = nxt
        coeffs = self.coeffs
        cden = lcm(*(coeffs[s].coeff.denominator for s in dp if s in coeffs))
        total: Dict[int, int] = {}
        for state, acc in dp.items():
            c = coeffs.get(state)
            if c is None:
                continue
            w = c.coeff.numerator * (cden // c.coeff.denominator) * lam ** (top - sum(state))
            for k, v in acc.items():
                total[c.pideg + k] = total.get(c.pideg + k, 0) + w * v
        den = cden * lam ** top
        return PiPoly({k: Rat(v, den) for k, v in total.items() if v})

    def __repr__(self):
        return f"VolumePolynomial(g={self.g}, n={self.n}, terms={len(self.coeffs)})"


def _int_mul(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
    """Product of two pideg -> integer numerator tables."""
    out: Dict[int, int] = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = k1 + k2
            out[k] = out.get(k, 0) + v1 * v2
    return out


def _int_add(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
    """Sum of two pideg -> integer numerator tables, as a new table."""
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return out


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
        coeffs[part] = PiScalar(Rat(q.numerator, q.denominator * den), 2 * (budget - s))
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
    mid = _volume_mid(g, n, digits, cache)
    with mpmath.workdps(digits):
        denom = mpmath.mpf(factorial(2 * g - 3 + n)) * (4 * mpmath.pi ** 2) ** (
            2 * g - 3 + n
        )
        return float(+mid * mpmath.sqrt(chi) / denom)


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
