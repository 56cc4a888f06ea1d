"""
Reference routes for the lab's exact sums, as `wplab` computed them
before it summed them on integers straight from the bracket table; kept
as oracles for those sums.

* The box weights of `random_model.box_count_integral` and the triangle
  weights of `random_model.two_curve_expectation_bound`, through a
  coefficient table of `PiScalar`s q / (4^s prod (2v+1)!), one `Fraction`
  per part and one `Fraction` add per term.
* The simplex integral the triangle weights used.
* The residual of `volumes.identity_check`, one `c_m` call and one
  `Fraction` add per m.

They read brackets through the public `bracket_rat` and `c_m` only, and
count arrangements and sum powers on their own.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial
from typing import Dict, Sequence, Tuple

from wplab.brackets import BracketCache, bracket_rat, c_m
from wplab.exact import PiPoly, PiScalar, Rat, _coeff_b_rat
from wplab.volumes import mz_ratio, partitions_upto, volume

Weights = Dict[Tuple[int, int], Rat]


def coeff_table(g: int, n: int, max_parts: int, cache: BracketCache) -> Dict[Tuple[int, ...], PiScalar]:
    """Nonzero coefficients of V_{g,n} on the monomials in at most max_parts variables."""
    top = 3 * g - 3 + n
    coeffs = {}
    for part in partitions_upto(top, min(max_parts, n)):
        q = bracket_rat(g, list(part) + [0] * (n - len(part)), cache)
        if q == 0:
            continue
        den = 4 ** sum(part)
        for v in part:
            den *= factorial(2 * v + 1)
        coeffs[part] = PiScalar(Rat(q.numerator, q.denominator * den), 2 * (top - sum(part)))
    return coeffs


def arrangements(part: Tuple[int, ...], k: int) -> int:
    """Distinct placements of the multiset `part` into k labelled slots."""
    d = factorial(k - len(part))
    for c in Counter(part).values():
        d *= factorial(c)
    return factorial(k) // d


def simplex_monomial_integral(exponents: Sequence[int]) -> Rat:
    """
    Rational factor of int_{sum x_i <= T} prod x_i^(a_i) dx: the value is
    that factor times T^(sum a_i + k).
    """
    num = 1
    s = 0
    for a in exponents:
        num *= factorial(a)
        s += a
    return Rat(num, factorial(s + len(exponents)))


def box_weights(g: int, n: int, k: int, cache: BracketCache) -> Weights:
    """{(|part|+k, pideg): w} with w = coeff arr(part, k) / (2^(k-len) prod (2v+2))."""
    groups: Weights = {}
    for part, coeff in coeff_table(g, n, k, cache).items():
        den = 2 ** (k - len(part))
        for v in part:
            den *= 2 * v + 2
        q = coeff.coeff
        key = (sum(part) + k, coeff.pideg)
        w = Rat(q.numerator * arrangements(part, k), q.denominator * den)
        groups[key] = groups.get(key, 0) + w
    return groups


def triangle_weights(g: int, n: int, cache: BracketCache) -> Weights:
    """{(a+b+2, pideg): w} of V_{g-1,n+1}(x, y, 0..0) x y over the triangle, a, b = 2d+1."""
    groups: Weights = {}
    for part, coeff in coeff_table(g - 1, n + 1, 2, cache).items():
        exps = list(part) + [0] * (2 - len(part))
        a, b = 2 * exps[0] + 1, 2 * exps[1] + 1
        key = (a + b + 2, coeff.pideg)
        w = coeff.coeff * simplex_monomial_integral((a, b)) * arrangements(part, 2)
        groups[key] = groups.get(key, 0) + w
    return groups


def two_curve_exact(g: int, n: int, C: Fraction, cache: BracketCache) -> PiPoly:
    """The exact value of `two_curve_expectation_bound(g, n, C)`, one power of T per group."""
    T = PiPoly({1: 2 * Fraction(C)})
    total = PiPoly.zero()
    for (m, pideg), w in triangle_weights(g, n, cache).items():
        total = total + PiPoly({pideg: w}) * T ** m
    return total * (1 / volume(g, n, cache)).to_poly()


def identity_residual(g: int, n: int, cache: BracketCache) -> PiScalar:
    """(2g-2+n) V_{g,n} / V_{g,n+1} minus (1/2) sum_m (-1)^(m-1) b_m c_m(g, n), term by term."""
    rhs = Rat(0)
    for m in range(1, 3 * g - 2 + n + 1):
        rhs += (-1) ** (m - 1) * _coeff_b_rat(m) * c_m(g, n, m, cache).coeff
    return mz_ratio(g, n, cache) - PiScalar(rhs / 2, -2)
