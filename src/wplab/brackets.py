r"""
Memoized exact computation of the normalized psi-class brackets
[tau_{d_1} ... tau_{d_n}]_{g,n} by topological recursion, with a
persistent text-format cache.

Every bracket is homogeneous: its value is a rational multiple of
pi^(2*d0) with d0 = 3g-3+n-|d|.  The engine therefore memoizes only the
rational part; the pi-power is implied by the key.  Keys are canonical
multisets (g, n, nonzero entries sorted descending).

The recursion removes a distinguished entry d1 = max(d) and assembles
three groups of contributions:

* a merge with each remaining entry (surface loses one marked point),
* a pair-creation term on genus g-1 with two new entries {k1, k2}, each
  unordered pair visited once,
* products over splittings of the remaining entries between two
  stable pieces whose genera sum to g.

Remaining entries are grouped by value, and splittings are enumerated as
sub-multisets with binomial weights, which keeps the cost polynomial for
the zero-heavy inputs that dominate volume computations.  Each unordered
split {(left, g_left), (right, g_right)} is visited once, the
off-diagonal ones with weight 2.  Every child is read through a slice
vector T[(g', n', base)][k] = q(g', n', base + {k}),
k = 0..3g'-3+n'-|base|, which the BracketCache memoizes beside the table
it reads: the merge term is a dot product of one slice vector with a_L,
the pair-creation term one per k1 with the k2 >= k1 tail of a slice
vector, and the split term a short convolution of two slice vectors
against a_L.  Slice vectors and the a_L table are integer numerators over
one common denominator each, and the three terms are summed as integers
per denominator, so a new bracket builds one rational.  Slice vectors
end at the top dimension and split pieces are kept only when stable, so
every child is a stable key with n >= 1 and |d| <= 3g-3+n; `_cached_q`,
the one entry from outside, is the only place that checks keys
(unstable or over-full ones are zero there).
The closed surface case n = 0 is unreachable by the recursion and is
produced from the (g, 1) brackets through the alternating-sum identity
(2g-2) V_{g,0} = 1/2 sum_m (-1)^(m-1) b_m [tau_m]_{g,1}.
"""

from __future__ import annotations

import os
from functools import lru_cache
from math import comb, lcm
from operator import mul
from typing import Dict, Iterator, List, Sequence, Tuple

from .exact import PiScalar, Rat, _coeff_a_rat, _coeff_b_rat

__all__ = [
    "BracketCache",
    "BracketKey",
    "bracket",
    "bracket_rat",
    "c_m",
    "cache_save",
    "cache_load",
    "default_cache",
    "canonical_key",
    "stable",
    "pideg_of_key",
]

CACHE_VERSION = "wpbracket v1"

Key = Tuple[int, int, Tuple[int, ...]]
# integer numerators over one common denominator
Slice = Tuple[Tuple[int, ...], int]


def stable(g: int, n: int) -> bool:
    """Signature test: the moduli space is nontrivial iff 2g-2+n > 0."""
    return 2 * g - 2 + n > 0


def canonical_key(g: int, d: Sequence[int]) -> Key:
    """Canonical (g, n, nonzero-descending) key for an exponent multiset."""
    if g < 0:
        raise ValueError("negative genus")
    n = len(d)
    nz = []
    for x in d:
        if x < 0:
            raise ValueError(f"negative tau index {x}")
        if x:
            nz.append(x)
    return (g, n, tuple(sorted(nz, reverse=True)))


def pideg_of_key(key: Key) -> int:
    """Homogeneity degree 2*d0 = 2*(3g-3+n-|d|) of a stored bracket."""
    g, n, dnz = key
    return 2 * (3 * g - 3 + n - sum(dnz))


class BracketKey:
    """Canonical identifier (g, exponent multiset) of a bracket."""

    __slots__ = ("g", "n", "dnz")

    def __init__(self, g: int, d: Sequence[int]):
        g_, n_, dnz_ = canonical_key(g, d)
        if not stable(g_, n_):
            raise ValueError(f"unstable signature ({g_},{n_})")
        object.__setattr__(self, "g", g_)
        object.__setattr__(self, "n", n_)
        object.__setattr__(self, "dnz", dnz_)

    def __setattr__(self, name, value):
        raise AttributeError("BracketKey is immutable")

    @property
    def key(self) -> Key:
        return (self.g, self.n, self.dnz)

    @property
    def pideg(self) -> int:
        return pideg_of_key(self.key)

    def counts(self) -> List[Tuple[int, int]]:
        """(value, count) pairs, descending value, tau_0 count explicit."""
        return _value_counts(self.key)

    def __eq__(self, other):
        return isinstance(other, BracketKey) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"BracketKey(g={self.g}, n={self.n}, d={self.dnz})"


class BracketCache:
    """
    Append-only table Key -> rational part.  Insertion is idempotent
    (the recursion is pure, so duplicate computation is bit-identical).
    `slices` holds the kernel's slice vectors, built from `entries` only.
    """

    def __init__(self):
        self.entries: Dict[Key, Rat] = {}
        self.slices: Dict[Key, Slice] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def insert(self, key: Key, value: Rat) -> None:
        old = self.entries.get(key)
        if old is not None and old != value:
            raise AssertionError(f"cache collision at {key}: {old} != {value}")
        self.entries[key] = value

    def clear(self) -> None:
        self.entries.clear()
        self.slices.clear()


_default_cache = BracketCache()


def default_cache() -> BracketCache:
    return _default_cache


def _q(
    g: int, n: int, dnz: Tuple[int, ...], memo: Dict[Key, Rat], slices: Dict[Key, Slice]
) -> Rat:
    """
    Rational part of the bracket at a canonical key.  The key must be
    stable with n >= 1 and |d| <= 3g-3+n: `_cached_q` checks that for
    outside callers, and every child read through `_slice` satisfies it.
    """
    key = (g, n, dnz)
    v = memo.get(key)
    if v is not None:
        return v
    if g == 0 and n == 3:
        memo[key] = Rat(1)
        return memo[key]
    if g == 1 and n == 1:
        memo[key] = Rat(1, 12) if not dnz else Rat(1, 2)
        return memo[key]

    d0 = 3 * g - 3 + n - sum(dnz)
    d1 = dnz[0] if dnz else 0
    rest = dnz[1:]
    items = _value_counts((g, n - 1, rest))
    a_num, a_den = _a_table(d0)
    # a[k1 + k2] is a_L at L = k1 + k2 - d1 + 2
    a = (0,) * (d1 - 2) + a_num if d1 >= 2 else a_num[2 - d1 :]
    # all three terms as integer numerators over a_den * d, keyed by d
    parts: Dict[int, int] = {}

    # merge d1 with one remaining entry of value v_ (count c of them):
    # sum_L a_L x[d1 + v_ - 1 + L] over the slice x of the other entries
    for v_, c in items:
        if v_:
            sub = list(rest)
            sub.remove(v_)
            base = tuple(sub)
        else:
            base = rest
        x, x_den = _slice(g, n - 1, base, memo, slices)
        off = d1 + v_ - 1
        t = sum(map(mul, x[max(off, 0) :], a_num[max(-off, 0) :]))
        if t:
            parts[x_den] = parts.get(x_den, 0) + 8 * c * (2 * v_ + 1) * t

    # create an entry pair {k1, k2} on genus g-1; k1 <= k2, k1 < k2 doubled.
    # Past the base cases, g >= 1 leaves (g-1, n+1) stable.
    if g:
        for k1 in range((d0 + d1 - 2) // 2 + 1):
            base = _insert_sorted(rest, k1) if k1 else rest
            y, y_den = _slice(g - 1, n + 1, base, memo, slices)
            t = y[k1] * a[2 * k1] + 2 * sum(map(mul, y[k1 + 1 :], a[2 * k1 + 1 :]))
            if t:
                parts[y_den] = parts.get(y_den, 0) + 16 * t

    # unordered splits {(left, g_left), (right, g_right)} of the remaining
    # entries; the sum over L and k1 + k2 = L + d1 - 2 is a convolution
    # of the two pieces' slice vectors x, y: sum x_k1 y_k2 a[k1 + k2]
    for base_left, n_left, base_right, n_right, weight in _splits(items):
        diagonal = (base_left, n_left) == (base_right, n_right)
        if not diagonal and (base_left, n_left) < (base_right, n_right):
            continue  # visited as its mirror image
        n_left += 1
        n_right += 1
        for g_left in range(g + 1):
            g_right = g - g_left
            if diagonal and g_left > g_right:
                continue
            if not stable(g_left, n_left) or not stable(g_right, n_right):
                continue
            x, x_den = _slice(g_left, n_left, base_left, memo, slices)
            y, y_den = _slice(g_right, n_right, base_right, memo, slices)
            t = 0
            for k1, xk in enumerate(x):
                if xk:
                    t += xk * sum(map(mul, y, a[k1:]))
            if t:
                den = x_den * y_den
                w = 16 if diagonal and g_left == g_right else 32
                parts[den] = parts.get(den, 0) + w * weight * t

    den = lcm(*parts)
    total = Rat(sum(v * (den // d) for d, v in parts.items()), den * a_den)
    memo[key] = total
    return total


def _q_closed(g: int, memo: Dict[Key, Rat], slices: Dict[Key, Slice]) -> Rat:
    """V_{g,0} rational part (g >= 2): alternating sum over (g,1) brackets."""
    key = (g, 0, ())
    v = memo.get(key)
    if v is not None:
        return v
    total = Rat(0)
    for m in range(1, 3 * g - 2 + 1):
        t = _q(g, 1, (m,), memo, slices)
        if t:
            total += (-1) ** (m - 1) * _coeff_b_rat(m) * t
    total /= 2 * (2 * g - 2)
    memo[key] = total
    return total


def _slice(
    g: int, n: int, base: Tuple[int, ...], memo: Dict[Key, Rat], slices: Dict[Key, Slice]
) -> Slice:
    """
    Slice vector of a child: q(g, n, base + {k}) for k = 0..3g-3+n-|base|
    as integer numerators over their least common denominator.
    """
    key = (g, n, base)
    sv = slices.get(key)
    if sv is None:
        # a loop, not a comprehension: before Python 3.12 a comprehension
        # is one more stack frame per recursion level
        values = []
        for k in range(3 * g - 3 + n - sum(base) + 1):
            values.append(_q(g, n, _insert_sorted(base, k) if k else base, memo, slices))
        sv = slices[key] = _over_lcm(values)
    return sv


@lru_cache(maxsize=None)
def _a_table(m: int) -> Slice:
    """a_0..a_m (rational parts) as integer numerators over their lcm."""
    return _over_lcm([_coeff_a_rat(L) for L in range(m + 1)])


def _over_lcm(values: List[Rat]) -> Slice:
    """Rationals as integer numerators over their least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def _insert_sorted(base: Tuple[int, ...], x: int) -> Tuple[int, ...]:
    # descending order; linear scan is fine at these lengths
    for i, y in enumerate(base):
        if x >= y:
            return base[:i] + (x,) + base[i:]
    return base + (x,)


def _splits(
    items: List[Tuple[int, int]],
) -> Iterator[Tuple[Tuple[int, ...], int, Tuple[int, ...], int, int]]:
    """
    Every ordered split of the multiset `items` ((value, count) pairs,
    descending, zeros last) as (left nonzero entries, left size, right
    nonzero entries, right size, product-of-binomials weight).
    """
    if not items:
        yield (), 0, (), 0, 1
        return
    (v, c), tail = items[0], items[1:]
    for left, n_left, right, n_right, w in _splits(tail):
        for t in range(c + 1):
            if v:
                left_t, right_t = (v,) * t + left, (v,) * (c - t) + right
            else:
                left_t, right_t = left, right
            yield left_t, n_left + t, right_t, n_right + c - t, w * comb(c, t)


def _cached_q(g: int, n: int, dnz: Tuple[int, ...], cache: BracketCache | None) -> Rat:
    """The one entry into the recursion: the only place that checks a key."""
    cache = _default_cache if cache is None else cache
    if not stable(g, n) or sum(dnz) > 3 * g - 3 + n:
        return Rat(0)
    if n == 0:
        return _q_closed(g, cache.entries, cache.slices)
    return _q(g, n, dnz, cache.entries, cache.slices)


def bracket_rat(g: int, d: Sequence[int], cache: BracketCache | None = None) -> Rat:
    """Rational part of [prod tau_{d_i}]_{g,n}; pi-power is 2*d0."""
    key = BracketKey(g, d)
    return _cached_q(key.g, key.n, key.dnz, cache)


def bracket(g: int, d: Sequence[int], cache: BracketCache | None = None) -> PiScalar:
    """
    Exact bracket [prod tau_{d_i}]_{g,n} for n = len(d).  Returns 0 when
    |d| > 3g-3+n; raises on unstable signatures and negative entries.
    """
    key = BracketKey(g, d)
    q = _cached_q(key.g, key.n, key.dnz, cache)
    if q == 0:
        return PiScalar.zero()
    return PiScalar(q, key.pideg)


def c_m(g: int, n: int, m: int, cache: BracketCache | None = None) -> PiScalar:
    """
    Bracket-to-volume ratio [tau_m tau_0^n]_{g,n+1} / V_{g,n+1}; exact,
    pi-degree -2m, with c_0 = 1.  Requires 0 <= m <= 3g-2+n.
    """
    if not stable(g, n + 1):
        raise ValueError(f"unstable signature ({g},{n + 1})")
    if m < 0 or m > 3 * g - 2 + n:
        raise ValueError(f"c_m index m={m} outside [0, {3 * g - 2 + n}]")
    num = _cached_q(g, n + 1, (m,) if m else (), cache)
    den = _cached_q(g, n + 1, (), cache)
    return PiScalar(num / den, -2 * m)


# ---------------------------------------------------------------------------
# Persistent cache format
# ---------------------------------------------------------------------------


def _value_counts(key: Key) -> List[Tuple[int, int]]:
    g, n, dnz = key
    pairs: List[Tuple[int, int]] = []
    prev = None
    for v in dnz:
        if v == prev:
            pairs[-1] = (v, pairs[-1][1] + 1)
        else:
            pairs.append((v, 1))
            prev = v
    zeros = n - len(dnz)
    if zeros:
        pairs.append((0, zeros))
    return pairs


def _decode_counts(text: str) -> Tuple[int, Tuple[int, ...]]:
    if not text:
        return 0, ()
    n = 0
    nz: List[int] = []
    prev = None
    for piece in text.split(","):
        v_s, _, c_s = piece.partition(":")
        v, c = int(v_s), int(c_s)
        if c <= 0 or v < 0:
            raise ValueError(f"bad multiset pair {piece!r}")
        if prev is not None and v >= prev:
            raise ValueError("multiset pairs must be strictly descending")
        prev = v
        n += c
        if v:
            nz.extend([v] * c)
    return n, tuple(nz)


def cache_save(path, cache: BracketCache | None = None) -> int:
    """
    Write every entry in canonical order; returns the entry count.  The
    table goes to a temporary file beside `path` that then replaces it,
    so a failed write leaves the previous file intact.
    """
    cache = _default_cache if cache is None else cache
    keys = sorted(cache.entries)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CACHE_VERSION + "\n")
            for key in keys:
                g, n, dnz = key
                counts = ",".join(f"{v}:{c}" for v, c in _value_counts(key))
                value = PiScalar(cache.entries[key], pideg_of_key(key))
                fh.write(f"{g}|{counts}|{value.render()}\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return len(keys)


def cache_load(path, cache: BracketCache | None = None) -> int:
    """
    Load entries, verifying the version header, that each key's exponents
    sum to at most 3g-3+n, and per-line homogeneity.  Malformed input
    reports its line number.  Returns entries read.
    """
    cache = _default_cache if cache is None else cache
    count = 0
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != CACHE_VERSION:
            raise ValueError(f"cache version mismatch: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                g_s, counts_s, value_s = line.split("|")
                g = int(g_s)
                n, dnz = _decode_counts(counts_s)
                value = PiScalar.parse(value_s)
                key = (g, n, dnz)
                if not stable(g, n):
                    raise ValueError("unstable signature")
                expected = pideg_of_key(key)
                if expected < 0:
                    raise ValueError(
                        f"exponent sum {sum(dnz)} exceeds 3g-3+n = {3 * g - 3 + n}"
                    )
                if value.is_zero():
                    q = Rat(0)
                elif value.pideg != expected:
                    raise ValueError(
                        f"pi-degree {value.pideg} violates homogeneity {expected}"
                    )
                else:
                    q = value.coeff
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            cache.insert(key, q)
            count += 1
    return count
