r"""
Memoized exact computation of the normalized psi-class brackets
[tau_{d_1} ... tau_{d_n}]_{g,n} by topological recursion, with a
persistent text-format cache.

Every bracket is homogeneous: its value is a rational multiple of
pi^(2*d0) with d0 = 3g-3+n-|d|.  The engine therefore memoizes only the
rational part; the pi-power is implied by the key.  Keys are canonical
multisets (g, n, nonzero entries sorted descending).

The table is built one slice vector at a time:
slice(g, n, base)[k] = q(g, n, base + {k}) for k = 0..D, D = 3g-3+n-|base|.
Mirzakhani's recursion holds with any boundary as the distinguished one,
and the kernel takes the inserted point k.  Then every child is the same
for all D+1 entries, and only the shift of a_L depends on k.  Every term
lands in one accumulator T[t], t = 0..D, and entry k is
sum_{t >= k} T[t] a_{t-k}:

* merge: for each remaining entry v (c of them), the slice x of the
  other entries on (g, n-1) gives 8c(2v+1) sum_L a_L x[k+v-1+L], so
  8c(2v+1) x[t+v-1] lands at each t = k+L >= max(0, 1-v);
* pair creation: two new entries {k1, k2} on genus g-1, read from the
  slices (g-1, n+1, base + {k1}), each unordered pair visited once;
* splits: the remaining entries shared between two stable pieces whose
  genera sum to g, each unordered split {(left, g_left), (right, g_right)}
  visited once, with one convolution x * y of the pieces' slices.

Pair creation and splits only depend on j = k1 + k2 <= D-2, and land at
t = j + 2.  Remaining entries are grouped by value, and splits are
enumerated as sub-multisets with binomial weights, which keeps the cost
polynomial for the zero-heavy inputs that dominate volume computations.
Slice vectors and the a_L table are integer numerators over one common
denominator each; T holds one integer vector per denominator, the
vectors are folded over one denominator before the per-entry loop, and
each entry is one dot product with a and one rational.  The BracketCache
keeps the slices beside the table they are read from.  An entry already
in the table wins over the value a slice recomputes, and a slice whose
entries are all in the table is read, not computed.

`stable` is the signature rule, and `canonical_key` validates public
exponent lists against it.  `_cached_q` is the one entry into the
recursion: it takes a canonical key, answers it from the slice that leaves
out its largest entry, and reads an unstable or over-full key as zero.

The closed surface case n = 0 is unreachable by the recursion and is
produced from the (g, 1) slice through the alternating-sum identity
(2g-2) V_{g,0} = 1/2 sum_m (-1)^(m-1) b_m [tau_m]_{g,1}; V_{g,1} itself
is one dimension higher and enters the table only when asked for.
"""

from __future__ import annotations

import os
from functools import lru_cache
from math import comb, lcm
from operator import mul
from typing import Dict, Iterator, List, Sequence, Tuple

from .exact import _SCALAR_RE, PiScalar, Rat, _coeff_a_rat, _coeff_b_rat

__all__ = [
    "BracketCache",
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
    """The signature rule: M_{g,n} is nontrivial iff g, n >= 0 and 2g-2+n > 0."""
    return g >= 0 and n >= 0 and 2 * g - 2 + n > 0


def _require_stable(g: int, n: int) -> None:
    if not stable(g, n):
        raise ValueError(f"unstable signature ({g},{n})")


def canonical_key(g: int, d: Sequence[int]) -> Key:
    """
    Canonical (g, n, nonzero-descending) key for an exponent multiset;
    rejects a negative entry, then an unstable signature.
    """
    n = len(d)
    nz = []
    for x in d:
        if x < 0:
            raise ValueError(f"negative tau index {x}")
        if x:
            nz.append(x)
    _require_stable(g, n)
    return (g, n, tuple(sorted(nz, reverse=True)))


def pideg_of_key(key: Key) -> int:
    """Homogeneity degree 2*d0 = 2*(3g-3+n-|d|) of a stored bracket."""
    g, n, dnz = key
    return 2 * (3 * g - 3 + n - sum(dnz))


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


def _slice(
    g: int, n: int, base: Tuple[int, ...], memo: Dict[Key, Rat], slices: Dict[Key, Slice]
) -> Slice:
    """
    Slice vector q(g, n, base + {k}) for k = 0..3g-3+n-|base|, as integer
    numerators over their least common denominator; empty past the top
    dimension.  (g, n) must be stable with n >= 1.  An entry already in
    `memo` wins over the value `_slice_values` computes for it.
    """
    key = (g, n, base)
    sv = slices.get(key)
    if sv is None:
        top = 3 * g - 3 + n - sum(base)
        if top < 0:
            return (), 1
        keys = [key] + [(g, n, _insert_sorted(base, k)) for k in range(1, top + 1)]
        values = [memo.get(k) for k in keys]
        if None in values:
            fresh = _slice_values(g, n, base, top, memo, slices)
            values = list(map(memo.setdefault, keys, fresh))
        sv = slices[key] = _over_lcm(values)
    return sv


def _slice_values(
    g: int,
    n: int,
    base: Tuple[int, ...],
    top: int,
    memo: Dict[Key, Rat],
    slices: Dict[Key, Slice],
) -> List[Rat]:
    """
    q(g, n, base + {k}) for k = 0..top in one pass, with the inserted point
    k as the distinguished entry, so every child slice is shared by all k.
    """
    if g == 0 and n == 3:
        return [Rat(1)]
    if g == 1 and n == 1:
        return [Rat(1, 12), Rat(1, 2)]
    items = _value_counts((g, n - 1, base))
    a, a_den = _a_table(top)
    # one integer vector per denominator d: T[d][t] over d, and entry k is
    # sum_{t >= k} T[t] a_{t-k}
    T: Dict[int, List[int]] = {}

    # merge k with one remaining entry of value v (c of them):
    # sum_L a_L x[k + v - 1 + L] over the slice x of the other entries,
    # so x[t + v - 1] lands at t = k + L >= max(0, 1 - v)
    for v, c in items:
        if v:
            sub = list(base)
            sub.remove(v)
            rest = tuple(sub)
        else:
            rest = base
        x, x_den = _slice(g, n - 1, rest, memo, slices)
        w = 8 * c * (2 * v + 1)
        acc = T.setdefault(x_den, [0] * (top + 1))
        lo = 0 if v else 1
        for t, xt in enumerate(x[lo + v - 1 :], lo):
            acc[t] += w * xt

    # create an entry pair {k1, k2} on genus g-1 at t = k1 + k2 + 2;
    # k1 <= k2, k1 < k2 doubled.  Past the base cases, g >= 1 leaves
    # (g-1, n+1) stable.
    if g:
        for k1 in range(top // 2):
            y, y_den = _slice(g - 1, n + 1, _insert_sorted(base, k1) if k1 else base, memo, slices)
            acc = T.setdefault(y_den, [0] * (top + 1))
            acc[2 * k1 + 2] += 16 * y[k1]
            for k2 in range(k1 + 1, len(y)):
                acc[k1 + k2 + 2] += 32 * y[k2]

    # unordered splits {(left, g_left), (right, g_right)} of the remaining
    # entries: one convolution of the two pieces' slice vectors x, y each,
    # at t = k1 + k2 + 2.  The pieces' top dimensions sum to top - 2, and a
    # piece with a nonnegative top dimension is stable.
    for base_left, n_left, base_right, n_right, weight, diagonal in _splits(items):
        top_zero = n_left - 2 - sum(base_left)  # the left top at g_left = 0
        for g_left in range(g + 1):
            top_left = top_zero + 3 * g_left
            if top_left < 0 or top_left > top - 2 or (diagonal and 2 * g_left > g):
                continue
            x, x_den = _slice(g_left, n_left + 1, base_left, memo, slices)
            y, y_den = _slice(g - g_left, n_right + 1, base_right, memo, slices)
            w = (16 if diagonal and 2 * g_left == g else 32) * weight
            acc = T.setdefault(x_den * y_den, [0] * (top + 1))
            # len(x) + len(y) = top, so k1 + k2 runs over 0..top-2
            ry = y[::-1]
            last = len(y) - 1
            for j in range(top - 1):
                lo = j - last if j > last else 0
                acc[j + 2] += w * sum(map(mul, x[lo : j + 1], ry[last - j + lo :]))

    # one denominator for every term, then a_L applied once per entry
    den = lcm(*T)
    T_num = _fold(T, den)
    den *= a_den
    return [Rat(sum(map(mul, T_num[k:], a)), den) for k in range(top + 1)]


def _fold(parts: Dict[int, List[int]], den: int) -> List[int]:
    """Sum integer vectors keyed by denominator over the common `den`."""
    scales = [den // d for d in parts]
    return [sum(map(mul, col, scales)) for col in zip(*parts.values())]


def _q_closed(g: int, memo: Dict[Key, Rat], slices: Dict[Key, Slice]) -> Rat:
    """V_{g,0} rational part (g >= 2): alternating sum over (g,1) brackets."""
    key = (g, 0, ())
    v = memo.get(key)
    if v is not None:
        return v
    one = (g, 1, ())
    had_one = one in memo
    x, den = _slice(g, 1, (), memo, slices)
    if not had_one:
        # V_{g,1} lies one dimension past V_{g,0}: keep the table to the
        # keys asked for, the slice stays
        memo.pop(one, None)
    total = Rat(0)
    for m in range(1, 3 * g - 2 + 1):
        if x[m]:
            total += (-1) ** (m - 1) * _coeff_b_rat(m) * x[m]
    total /= 2 * (2 * g - 2) * den
    memo[key] = total
    return total


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
) -> Iterator[Tuple[Tuple[int, ...], int, Tuple[int, ...], int, int, bool]]:
    """
    Every unordered split {left, right} of the multiset `items` ((value,
    count) pairs, descending, zeros last) once, as (left nonzero entries,
    left size, right nonzero entries, right size, product-of-binomials
    weight, diagonal).  The tail is split first; while its two pieces are
    tied (equal), the left piece takes at least half of the current value
    class.  A split still tied after the first class is the diagonal one.
    """
    if not items:
        yield (), 0, (), 0, 1, True
        return
    (v, c), tail = items[0], items[1:]
    for left, n_left, right, n_right, w, tied in _splits(tail):
        for t in range((c + 1) // 2 if tied else 0, c + 1):
            if v:
                left_t, right_t = (v,) * t + left, (v,) * (c - t) + right
            else:
                left_t, right_t = left, right
            yield left_t, n_left + t, right_t, n_right + c - t, w * comb(c, t), tied and 2 * t == c


def _cached_q(g: int, n: int, dnz: Tuple[int, ...], cache: BracketCache | None) -> Rat:
    """The one entry into the recursion, on canonical keys; unstable or over-full ones are 0."""
    cache = _default_cache if cache is None else cache
    if not stable(g, n) or sum(dnz) > 3 * g - 3 + n:
        return Rat(0)
    memo = cache.entries
    if n == 0:
        return _q_closed(g, memo, cache.slices)
    key = (g, n, dnz)
    v = memo.get(key)
    if v is None:
        # the slice that leaves out the largest entry
        x, den = _slice(g, n, dnz[1:], memo, cache.slices)
        v = memo.setdefault(key, Rat(x[dnz[0] if dnz else 0], den))
    return v


def bracket_rat(g: int, d: Sequence[int], cache: BracketCache | None = None) -> Rat:
    """Rational part of [prod tau_{d_i}]_{g,n}; pi-power is 2*d0."""
    return _cached_q(*canonical_key(g, d), cache)


def bracket(g: int, d: Sequence[int], cache: BracketCache | None = None) -> PiScalar:
    """
    Exact bracket [prod tau_{d_i}]_{g,n} for n = len(d).  Returns 0 when
    |d| > 3g-3+n; raises on unstable signatures and negative entries.
    """
    key = canonical_key(g, d)
    q = _cached_q(*key, cache)
    if q == 0:
        return PiScalar.zero()
    return PiScalar(q, pideg_of_key(key))


def c_m(g: int, n: int, m: int, cache: BracketCache | None = None) -> PiScalar:
    """
    Bracket-to-volume ratio [tau_m tau_0^n]_{g,n+1} / V_{g,n+1}; exact,
    pi-degree -2m, with c_0 = 1.  Requires 0 <= m <= 3g-2+n.
    """
    _require_stable(g, n + 1)
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
    sum to at most 3g-3+n, that no key repeats, and per-line homogeneity.
    Malformed input reports its line number.  Returns entries read.
    """
    cache = _default_cache if cache is None else cache
    first_line: Dict[Key, int] = {}
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
                m = _SCALAR_RE.match(value_s.strip())
                if not m:
                    raise ValueError(f"malformed PiScalar {value_s!r}")
                num, den, pideg = map(int, m.groups())
                if not den:
                    raise ValueError(f"zero denominator in {value_s.strip()!r}")
                key = (g, n, dnz)
                first = first_line.setdefault(key, lineno)
                if first != lineno:
                    raise ValueError(f"duplicate key {g_s}|{counts_s}, first at line {first}")
                _require_stable(g, n)
                expected = pideg_of_key(key)
                if expected < 0:
                    raise ValueError(
                        f"exponent sum {sum(dnz)} exceeds 3g-3+n = {3 * g - 3 + n}"
                    )
                # a zero value keeps any pi-degree
                if num and pideg != expected:
                    raise ValueError(f"pi-degree {pideg} violates homogeneity {expected}")
                q = Rat(num, den)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            cache.insert(key, q)
    return len(first_line)
