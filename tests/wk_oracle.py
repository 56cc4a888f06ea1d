r"""
Independent oracle for the bracket table, by a different theorem than the
engine's recursion.  It imports nothing from wplab.

* Witten-Kontsevich numbers <tau_{d_1} ... tau_{d_n}>_g come from the
  DVV/Virasoro recursion (Dijkgraaf-Verlinde-Verlinde 1991; Witten 1991;
  Kontsevich 1992), with the largest entry tau_K as the distinguished one:

    (2K+1)!! <tau_K tau_S>_g
      = sum_{j in S} (2K+2d_j-1)!!/(2d_j-1)!! <tau_{K+d_j-1} tau_{S-j}>_g
      + 1/2 sum_{r+s=K-2} (2r+1)!!(2s+1)!! ( <tau_r tau_s tau_S>_{g-1}
          + sum_{g1+g2=g, I+J=S} <tau_r tau_I>_{g1} <tau_s tau_J>_{g2} ),

  with <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24.  The splits I+J of S are
  grouped by value, with binomial weights.
* Powers of kappa_1 come from the pushforward formula (Arbarello-Cornalba
  1996; Kaufmann-Manin-Zagier 1996):

    int psi^d kappa_1^m = sum_{lambda |- m} (-1)^(m - len(lambda))
        m! / (prod mult(lambda)! prod lambda_i!) <tau_d prod_i tau_{lambda_i+1}>_g.

* The wplab normalization of a bracket is

    q(g, n, d) = 2^m / m! prod_i 4^{d_i} (2d_i+1)!! int psi^d kappa_1^m,

  m = 3g-3+n-|d|, so [tau_0]_{1,1} = 1/12, [tau_1]_{1,1} = 1/2 and
  q(2, 0, ()) = 43/2160, the rational part of V_{2,0} = 43 pi^6 / 2160.

Mulase-Safnuk (2008) and Liu-Xu (2009) prove that both routes give the
same numbers, so any mismatch with the engine is a bug in one of them.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, prod
from typing import Iterator, List, Tuple


def _double_factorial(k: int) -> int:
    """k!! for odd k >= -1, with (-1)!! = 1."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _canon(d) -> Tuple[int, ...]:
    return tuple(sorted(d, reverse=True))


def _groups(d: Tuple[int, ...]) -> List[Tuple[int, int]]:
    return sorted(Counter(d).items(), reverse=True)


def _submultisets(d: Tuple[int, ...]) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...], int]]:
    """(I, J, weight) for every split I + J of the multiset d."""
    groups = _groups(d)
    for takes in product(*(range(c + 1) for _, c in groups)):
        left: List[int] = []
        right: List[int] = []
        weight = 1
        for (value, count), t in zip(groups, takes):
            left += [value] * t
            right += [value] * (count - t)
            weight *= comb(count, t)
        yield tuple(left), tuple(right), weight


@lru_cache(maxsize=None)
def wk(g: int, d: Tuple[int, ...]) -> Fraction:
    """<tau_{d_1} ... tau_{d_n}>_g for d sorted descending."""
    n = len(d)
    if g < 0 or 2 * g - 2 + n <= 0 or sum(d) != 3 * g - 3 + n:
        return Fraction(0)
    if g == 0 and n == 3:
        return Fraction(1)
    if g == 1 and n == 1:
        return Fraction(1, 24)
    big, rest = d[0], d[1:]
    total = Fraction(0)
    for value, count in _groups(rest):
        sub = list(rest)
        sub.remove(value)
        ratio = Fraction(
            _double_factorial(2 * big + 2 * value - 1), _double_factorial(2 * value - 1)
        )
        total += count * ratio * wk(g, _canon(sub + [big + value - 1]))
    for r in range(big - 1):
        s = big - 2 - r
        inner = wk(g - 1, _canon(rest + (r, s)))
        for left, right, weight in _submultisets(rest):
            # <tau_r tau_I>_{g1} vanishes unless r + sum(I) = 3 g1 - 2 + len(I)
            g1, off = divmod(r + sum(left) - len(left) + 2, 3)
            if not off and 0 <= g1 <= g:
                inner += weight * wk(g1, _canon(left + (r,))) * wk(g - g1, _canon(right + (s,)))
        total += Fraction(_double_factorial(2 * r + 1) * _double_factorial(2 * s + 1), 2) * inner
    return total / _double_factorial(2 * big + 1)


def _partitions(m: int, largest: int | None = None) -> Iterator[Tuple[int, ...]]:
    largest = m if largest is None else largest
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest), 0, -1):
        for tail in _partitions(m - first, first):
            yield (first,) + tail


def psi_kappa(g: int, d: Tuple[int, ...], m: int) -> Fraction:
    """int over M_{g,n} of psi^d kappa_1^m, by the pushforward formula."""
    total = Fraction(0)
    for lam in _partitions(m):
        coef = Fraction(
            factorial(m),
            prod(factorial(c) for c in Counter(lam).values()) * prod(factorial(p) for p in lam),
        )
        sign = -1 if (m - len(lam)) % 2 else 1
        total += sign * coef * wk(g, _canon(d + tuple(p + 1 for p in lam)))
    return total


def bracket_oracle(g: int, d) -> Fraction:
    """Rational part of the wplab bracket [prod tau_{d_i}]_{g,n}; n = 0 is V_{g,0}."""
    d = _canon(d)
    m = 3 * g - 3 + len(d) - sum(d)
    if m < 0:
        return Fraction(0)
    scale = Fraction(2**m, factorial(m))
    for x in d:
        scale *= 4**x * _double_factorial(2 * x + 1)
    return scale * psi_kappa(g, d, m)
