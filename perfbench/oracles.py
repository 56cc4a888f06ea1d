"""
Exactness gates of the benchmark, run outside the timed region.

* Recorded digests (`digests.json`): the sha256 of `brackets.txt` after a
  cold warm, and of each lab experiment's CSV at budget 12, both taken
  from the engine before any optimisation.  A later engine must
  reproduce them byte for byte.
* Independent exact evaluations for the seed-drawn inputs of the
  exact-ring workload.  They read only the raw bracket table and use
  Python's `fractions`, so any seed is checked, not only recorded ones:
  - the coefficient table of V_{g,n} from the bracket formula;
  - V_{g,n}(r_1 pi, ..., r_n pi) by direct monomial expansion;
  - the expected pants count by a termwise box integral.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

import mpmath

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_digests(path=DIGESTS_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_table(path) -> Dict[Tuple[int, int, Tuple[int, ...]], Fraction]:
    """
    The rational parts of a `wpbracket v1` file, parsed here rather than by
    `cache_load`: lines `g|v:c,...|num/den*pi^k`, keyed (g, n, nonzero
    entries descending).
    """
    table = {}
    with open(path, "r", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            g, counts, value = line.rstrip("\n").split("|")
            n, dnz = 0, []
            for pair in filter(None, counts.split(",")):
                v, c = map(int, pair.split(":"))
                n += c
                dnz += [v] * c if v else []
            num, den = value.split("*")[0].split("/")
            table[(int(g), n, tuple(dnz))] = Fraction(int(num), int(den))
    return table


def frac(q) -> Fraction:
    """A rational of either backend as a `fractions.Fraction`."""
    return Fraction(int(q.numerator), int(q.denominator))


def partitions(max_sum: int, max_parts: int) -> Iterator[Tuple[int, ...]]:
    """Descending positive tuples with sum <= max_sum and <= max_parts parts."""
    def rec(prefix: Tuple[int, ...], cap: int, rem: int):
        yield prefix
        if len(prefix) == max_parts:
            return
        for v in range(min(cap, rem), 0, -1):
            yield from rec(prefix + (v,), v, rem - v)

    yield from rec((), max_sum, max_sum)


def distinct_perms(items: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Every distinct ordering of a multiset."""
    counts: Dict[int, int] = {}
    for x in items:
        counts[x] = counts.get(x, 0) + 1
    n = len(items)

    def rec(prefix: List[int]):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in counts:
            if counts[v]:
                counts[v] -= 1
                prefix.append(v)
                yield from rec(prefix)
                prefix.pop()
                counts[v] += 1

    yield from rec([])


def coefficient(entries, g: int, n: int, part: Tuple[int, ...]) -> Fraction:
    """Rational part of the x^(2 part) coefficient of V_{g,n}: bracket / (4^|d| prod (2d+1)!)."""
    den = 4 ** sum(part)
    for v in part:
        den *= factorial(2 * v + 1)
    return entries[(g, n, part)] / den


def check_volume_poly(poly, entries, g: int, n: int) -> bool:
    """The whole coefficient table of volume_poly(g, n), term by term."""
    budget = 3 * g - 3 + n
    expected = {}
    for part in partitions(budget, n):
        c = coefficient(entries, g, n, part)
        if c:
            expected[part] = (c, 2 * (budget - sum(part)))
    got = {p: (frac(c.coeff), c.pideg) for p, c in poly.coeffs.items()}
    return got == expected


def volume_at_oracle(entries, g: int, n: int, ratios: Sequence[Fraction]) -> Fraction:
    """
    V_{g,n}(r_1 pi, ..., r_n pi) / pi^(2(3g-3+n)), by summing every
    monomial of every coefficient orbit over common denominator
    prod q_i^(2B).
    """
    budget = 3 * g - 3 + n
    weights = [
        [r.numerator ** (2 * e) * r.denominator ** (2 * (budget - e)) for e in range(budget + 1)]
        for r in ratios
    ]
    den = 1
    for r in ratios:
        den *= r.denominator ** (2 * budget)
    total = Fraction(0)
    for part in partitions(budget, n):
        c = coefficient(entries, g, n, part)
        if not c:
            continue
        orbit = 0
        for exps in distinct_perms(part + (0,) * (n - len(part))):
            term = 1
            for w, e in zip(weights, exps):
                term *= w[e]
            orbit += term
        total += c * orbit
    return total / den


def pants_oracle(entries, g: int, n: int, k: int, r: Fraction) -> Fraction:
    """
    Expected number of k-families of pants curves of length <= r pi on a
    (g, n) surface: n!/(2^k (n-2k)!) times the integral over [0, r pi]^k of
    V_{g,n-k}(x_1..x_k, 0..0) prod x_i dx, over V_{g,n}.  Every term has
    pi-degree 0, so the result is rational.
    """
    m = n - k
    budget = 3 * g - 3 + m
    mult = factorial(n) // (2 ** k * factorial(n - 2 * k))
    total = Fraction(0)
    for part in partitions(budget, k):
        c = coefficient(entries, g, m, part)
        if not c:
            continue
        for exps in distinct_perms(part + (0,) * (k - len(part))):
            term = c
            for e in exps:
                term *= r ** (2 * e + 2) / (2 * e + 2)
            total += term
    return mult * total / entries[(g, n, ())]


def poly_is(value, expected: Fraction, pideg: int) -> bool:
    """A PiPoly equals expected * pi^pideg exactly."""
    terms = {k: frac(v) for k, v in value.terms.items()}
    return terms == ({pideg: expected} if expected else {})


def interval_holds(box, expected: Fraction, pideg: int, digits: int) -> bool:
    """A certified enclosure contains expected * pi^pideg and is 10^-digits tight."""
    with mpmath.workdps(digits + 30):
        v = mpmath.mpf(expected.numerator) / expected.denominator * mpmath.pi ** pideg
        tol = abs(v) * mpmath.mpf(10) ** (-digits)
        return box.lo - tol <= v <= box.hi + tol and box.hi - box.lo <= tol
