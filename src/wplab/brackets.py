r"""
Memoized exact computation of the normalized psi-class brackets
[tau_{d_1} ... tau_{d_n}]_{g,n} by topological recursion, with a
persistent text-format cache and a derived binary sidecar beside it.

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
polynomial for the zero-heavy inputs that dominate volume computations:
`_splits` shares the nonzero classes, and the kernel shares the c0 zeros
in a loop of its own, z of them to the left piece with weight C(c0, z).

Slices are packed (Kronecker substitution).  Every bracket is a
nonnegative rational, so a slice is held as its integer numerators x[i]
over one common denominator, packed into one integer
X = sum_i x[i] 2^(S i) with byte-aligned S-bit slots, beside its
denominator, its length and its largest numerator.  Each term is then one
big-integer operation: a merge adds w (X >> S(v-1)), or w (X << S) for
v = 0; a pair creation 16 (Z + (Z >> S << S)) << S(2 k1 + 2) with
Z = Y >> S k1, which is 16 y[k1] and the doubled y[k2 > k1]; a split
w (X Y) << 2S, whose slot j is the convolution at j.  T holds one packed
accumulator per denominator d; they are summed over their lcm den, T is
unpacked once, and each entry the table lacks is one dot product with a
and one rational.

The slot width S is one per BracketCache and comes from proven bounds.
With nonnegative slots, a slot of a sum is at most the sum of the
bounds, and a slot of X Y at most min(len x, len y) max x max y.  Each
slice carries its largest entry; each accumulator adds w max x per
merge, 32 max y per pair creation and w min(len x, len y) max x max y
per split, and the sum over den scales each accumulator's bound by den/d.
A slice is packed, and T unpacked, only when its bound is below 2^S.  A
bound that is not widens S to its bit length rounded up to whole bytes
plus `_SLOT_HEADROOM`, re-packs every cached slice and recomputes the
slice at hand, so no digit of an overflowed slot is ever read.  A
negative entry cannot be packed: it raises AssertionError naming its key.

The BracketCache keeps the slices beside the table they are read from,
and beside them the read path's memos: each volume's certified float per
working precision (`floats`), coefficient tables by (g, n) (`coeffs`)
and box-integral weights (`box_weights`).  An entry already in the table
wins over the value a slice recomputes, and a slice whose entries are
all in the table is read, not computed.

`stable` is the signature rule, and `canonical_key` validates public
exponent lists against it.  `_cached_q` is the entry into the recursion
by key: it takes a canonical key, answers it from the slice that leaves
out its largest entry, and reads an unstable or over-full key as zero.
`lab.cache_warm` enters it by slice: it drives `_slice` over the
canonical bases of each signature, one call per slice, not per key.

The closed surface case n = 0 is unreachable by the recursion and is
produced from the (g, 1) slice through the alternating-sum identity
(2g-2) V_{g,0} = 1/2 sum_m (-1)^(m-1) b_m [tau_m]_{g,1}.  The slice's
entries [tau_m]_{g,1}, m >= 1, stay in the table, one dimension past
V_{g,0} (`5|13:1|...` is the last line of the budget-12 table); only
V_{g,1} itself is dropped unless it was asked for.
"""

from __future__ import annotations

import gc
import hashlib
import io
import marshal
import os
import re
import struct
import sys
from collections import defaultdict
from functools import lru_cache
from math import comb, gcd, lcm
from operator import mul
from typing import Dict, Iterator, List, Sequence, Tuple

from .exact import PiScalar, Rat, _coeff_a_rat, _coeff_b_rat, _coprime_rat

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
# (packed numerators, their common denominator, length, largest numerator)
Slice = Tuple[int, int, int, int]
_EMPTY: Slice = (0, 1, 0, 0)
# a load's memo of decoded `v:c` pieces: (v, c, the run of c nonzero v's)
Pieces = Dict[str, Tuple[int, int, Tuple[int, ...]]]

# the slot width of a fresh table, in bits, and what a widening adds past
# the bound that forced it
_FIRST_SLOT = 64
_SLOT_HEADROOM = 32


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
    Append-only table Key -> rational part: the kernel only adds entries
    (the recursion is pure, so a recomputed entry is bit-identical), and
    `cache_load` adds a file's entries only after checking all of them,
    raising on a key already held with another value.
    `slices` holds the kernel's packed slice vectors, built from `entries`
    only, in `slot`-bit slots; `bound_bits` is the bit length of the
    largest bound checked against that width.  The read path keeps three
    memos beside them, filled by `volumes` and `random_model`: `floats`
    maps (g, n, digits) and mpmath's (precision, rounding) to the float of
    the midpoint of the certified enclosure of V_{g,n} at that many digits,
    as `eval_float` gives it; `coeffs` maps (g, n) to the nonzero
    coefficients of V_{g,n}; `box_weights` maps (g, n, k) to
    the cutoff-free weights {(m, pideg): w} of the box integral over k
    variables.  A table entry never changes once added, so every memo, and
    `same_as` while the count holds, stays valid until `clear()` makes the
    cache new.  `same_as` is (real path, sha256, count) of a file that
    holds exactly the entries.
    """

    def __init__(self):
        self.entries: Dict[Key, Rat] = {}
        self.slices: Dict[Key, Slice] = {}
        self.floats: Dict[Tuple[int, int, int, int, str], float] = {}
        self.coeffs: Dict[Tuple[int, int], Dict[Tuple[int, ...], PiScalar]] = {}
        self.box_weights: Dict[Tuple[int, int, int], Dict[Tuple[int, int], Rat]] = {}
        self.slot = _FIRST_SLOT
        self.bound_bits = 0
        self.same_as: Tuple[str, bytes, int] | None = None

    def __len__(self) -> int:
        return len(self.entries)

    def clear(self) -> None:
        self.__init__()

    def saved_in(self, path) -> bool:
        """Whether `path` holds exactly this table: `same_as`, checked against the file's bytes now."""
        if self.same_as is None or self.same_as[2] != len(self.entries):
            return False
        try:
            with open(path, "rb") as fh:
                return self.same_as == (os.path.realpath(path), _sha256(fh), len(self.entries))
        except OSError:
            return False


_default_cache = BracketCache()


def default_cache() -> BracketCache:
    return _default_cache


def _slice(key: Key, cache: BracketCache) -> Slice:
    """
    Packed slice vector q(g, n, base + {k}) for k = 0..3g-3+n-|base| of
    key = (g, n, base); empty past the top dimension.  (g, n) must be
    stable with n >= 1.  Only the entries the table lacks are built from
    what `_slice_values` returns; an entry already in the table wins.
    """
    sv = cache.slices.get(key)
    if sv is None:
        g, n, base = key
        top = 3 * g - 3 + n - sum(base)
        if top < 0:
            return _EMPTY
        # one pass: k goes in after the i entries above it, i falling as k rises
        keys = [key]
        i = len(base)
        for k in range(1, top + 1):
            while i and base[i - 1] <= k:
                i -= 1
            keys.append((g, n, base[:i] + (k,) + base[i:]))
        memo = cache.entries
        values = [memo.get(k) for k in keys]
        if any(v is None for v in values):
            T_num, a, den = _slice_values(g, n, base, top, cache)
            for k, v in enumerate(values):
                if v is None:
                    num = sum(map(mul, T_num[k:], a))
                    c = gcd(num, den)
                    values[k] = memo.setdefault(keys[k], _coprime_rat(num // c, den // c))
        nums, den = _over_lcm(values)
        if min(nums) < 0:
            i = next(i for i, x in enumerate(nums) if x < 0)
            raise AssertionError(f"negative bracket {values[i]} at {keys[i]} cannot be packed")
        largest = max(nums)
        _fits(largest, cache)
        sv = cache.slices[key] = (_pack(nums, cache.slot), den, top + 1, largest)
    return sv


def _slice_values(
    g: int, n: int, base: Tuple[int, ...], top: int, cache: BracketCache
) -> Tuple[List[int], Tuple[int, ...], int]:
    """
    q(g, n, base + {k}) for k = 0..top in one pass, with the inserted point
    k as the distinguished entry, so every child slice is shared by all k.
    Returns (T, a, den): entry k is sum(T[k:] a) / den, a the a_L numerators.
    """
    if g == 0 and n == 3:
        return [1], (1,), 1
    if g == 1 and n == 1:
        return [1, 6], (1,), 12
    items = _value_counts((g, n - 1, base))
    # the c0 zeros among the remaining entries come last, and C(c0, z)
    # counts the ways z of them go to a split's left piece
    c0 = n - 1 - len(base)
    nonzero = items[:-1] if c0 else items
    zero_weights = [comb(c0, z) for z in range(c0 + 1)]
    slices = cache.slices
    while True:
        S = cache.slot
        # one packed accumulator T[d] per denominator d, slots t = 0..top,
        # and a bound on its slots; entry k is sum_{t >= k} T[t] a_{t-k}
        T: Dict[int, int] = defaultdict(int)
        bound: Dict[int, int] = defaultdict(int)

        # merge k with one remaining entry of value v (c of them):
        # sum_L a_L x[k + v - 1 + L] over the slice x of the other entries,
        # so x[t + v - 1] lands at t = k + L >= max(0, 1 - v)
        for v, c in items:
            if v:
                sub = list(base)
                sub.remove(v)
                key = (g, n - 1, tuple(sub))
            else:
                key = (g, n - 1, base)
            X, d, _, x_max = slices.get(key) or _slice(key, cache)
            w = 8 * c * (2 * v + 1)
            T[d] += w * (X >> S * (v - 1) if v else X << S)
            bound[d] += w * x_max

        # create an entry pair {k1, k2} on genus g-1 at t = k1 + k2 + 2;
        # k1 <= k2, k1 < k2 doubled.  Past the base cases, g >= 1 leaves
        # (g-1, n+1) stable.
        if g:
            for k1 in range(top // 2):
                key = (g - 1, n + 1, _insert_sorted(base, k1) if k1 else base)
                Y, d, _, y_max = slices.get(key) or _slice(key, cache)
                # y[k1] at slot 0, doubled y[k2] above it
                Z = Y >> S * k1
                T[d] += 16 * (Z + (Z >> S << S)) << S * (2 * k1 + 2)
                bound[d] += 32 * y_max

        # unordered splits {(left, g_left), (right, g_right)} of the remaining
        # entries: one product of the two pieces' packed slices each, at
        # t = k1 + k2 + 2.  `_splits` shares the nonzero entries, then z of
        # the c0 zeros go left, z >= c0 / 2 while the nonzero pieces are tied.
        # The pieces' top dimensions sum to top - 2, and a piece with a
        # nonnegative top dimension is stable.
        for base_left, sum_left, base_right, weight, tied in _splits(nonzero):
            for z in range((c0 + 1) // 2 if tied else 0, c0 + 1):
                n_left = len(base_left) + z
                diagonal = tied and 2 * z == c0
                # the left top dimension top_zero + 3 g_left lies in 0..top-2
                top_zero = n_left - 2 - sum_left
                lo = -(top_zero // 3) if top_zero < 0 else 0
                hi = (top - 2 - top_zero) // 3
                g_hi = g // 2 if diagonal else g
                w_z = weight * zero_weights[z]
                for g_left in range(lo, (hi if hi < g_hi else g_hi) + 1):
                    key = (g_left, n_left + 1, base_left)
                    X, x_den, x_len, x_max = slices.get(key) or _slice(key, cache)
                    key = (g - g_left, n - n_left, base_right)
                    Y, y_den, y_len, y_max = slices.get(key) or _slice(key, cache)
                    w = (16 if diagonal and 2 * g_left == g else 32) * w_z
                    d = x_den * y_den
                    # x_len + y_len = top, so k1 + k2 runs over 0..top-2
                    T[d] += w * X * Y << 2 * S
                    bound[d] += w * (x_len if x_len < y_len else y_len) * x_max * y_max

        if cache.slot != S:
            continue  # a child widened the slots: terms read before it are stale
        # one denominator for every term
        den = lcm(*T)
        acc = acc_bound = 0
        for d, t in T.items():
            acc += den // d * t
            acc_bound += den // d * bound[d]
        if _fits(acc_bound, cache):
            break
    # a_L is applied once per entry the caller builds
    a, a_den = _a_table(top)
    return _unpack(acc, top + 1, S), a, den * a_den


def _fits(bound: int, cache: BracketCache) -> bool:
    """
    Whether a slot bound fits the table's slot width.  When it does not,
    the width grows to the bound rounded up to whole bytes plus
    `_SLOT_HEADROOM`, every cached slice is re-packed, and the caller
    recomputes what it packed at the old width.
    """
    bits = bound.bit_length()
    cache.bound_bits = max(cache.bound_bits, bits)
    if bits <= cache.slot:
        return True
    old, cache.slot = cache.slot, -(-bits // 8) * 8 + _SLOT_HEADROOM
    for key, (X, den, length, largest) in cache.slices.items():
        cache.slices[key] = (_pack(_unpack(X, length, old), cache.slot), den, length, largest)
    return False


def _pack(nums: List[int], S: int) -> int:
    """Nonnegative integers below 2^S as one integer sum_i nums[i] 2^(S i)."""
    width = S // 8
    return int.from_bytes(b"".join([x.to_bytes(width, "little") for x in nums]), "little")


def _unpack(X: int, length: int, S: int) -> List[int]:
    """The `length` S-bit slots of a packed integer; the one reader of the format."""
    width = S // 8
    raw = X.to_bytes(length * width, "little")
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, length * width, width)]


def _q_closed(g: int, cache: BracketCache) -> Rat:
    """V_{g,0} rational part (g >= 2): alternating sum over (g,1) brackets."""
    memo = cache.entries
    key = (g, 0, ())
    v = memo.get(key)
    if v is not None:
        return v
    one = (g, 1, ())
    had_one = one in memo
    X, den, length, _ = _slice(one, cache)
    if not had_one:
        # V_{g,1} lies one dimension past V_{g,0} and leaves the table
        # unless asked for; the other (g,1) slice entries and the slice stay
        memo.pop(one, None)
    x = _unpack(X, length, cache.slot)
    total = Rat(0)
    for m in range(1, 3 * g - 2 + 1):
        if x[m]:
            total += (-1) ** (m - 1) * _coeff_b_rat(m) * x[m]
    total /= 2 * (2 * g - 2) * den
    memo[key] = total
    return total


@lru_cache(maxsize=None)
def _a_table(m: int) -> Tuple[Tuple[int, ...], int]:
    """a_0..a_m (rational parts) as integer numerators over their lcm."""
    return _over_lcm([_coeff_a_rat(L) for L in range(m + 1)])


def _over_lcm(values: List[Rat]) -> Tuple[Tuple[int, ...], int]:
    """Rationals as integer numerators over their least common denominator."""
    den = lcm(*(v._denominator for v in values))
    return tuple(v._numerator * (den // v._denominator) for v in values), den


def _insert_sorted(base: Tuple[int, ...], x: int) -> Tuple[int, ...]:
    # descending order; linear scan is fine at these lengths
    for i, y in enumerate(base):
        if x >= y:
            return base[:i] + (x,) + base[i:]
    return base + (x,)


def _splits(
    items: List[Tuple[int, int]],
) -> Iterator[Tuple[Tuple[int, ...], int, Tuple[int, ...], int, bool]]:
    """
    Every unordered split {left, right} of the multiset `items` ((value,
    count) pairs of nonzero values, descending) once, as (left entries,
    their sum, right entries, product-of-binomials weight, tied).  The
    tail is split first; while its two pieces are tied (equal), the left
    piece takes at least half of the current value class.  A split still
    tied after the first class has equal pieces; the kernel shares the
    zeros after it with the same rule.
    """
    if not items:
        yield (), 0, (), 1, True
        return
    (v, c), tail = items[0], items[1:]
    for left, sum_left, right, w, tied in _splits(tail):
        for t in range((c + 1) // 2 if tied else 0, c + 1):
            yield (v,) * t + left, sum_left + v * t, (v,) * (c - t) + right, w * comb(c, t), tied and 2 * t == c


def _cached_q(g: int, n: int, dnz: Tuple[int, ...], cache: BracketCache | None) -> Rat:
    """The one entry into the recursion, on canonical keys; unstable or over-full ones are 0."""
    cache = _default_cache if cache is None else cache
    if not stable(g, n) or sum(dnz) > 3 * g - 3 + n:
        return Rat(0)
    if n == 0:
        return _q_closed(g, cache)
    memo = cache.entries
    key = (g, n, dnz)
    v = memo.get(key)
    if v is None:
        # the slice that leaves out the largest entry
        X, den, length, _ = _slice((g, n, dnz[1:]), cache)
        # building the slice adds its entries; only a key `_q_closed` popped is still missing
        v = memo.get(key)
        if v is None:
            v = memo[key] = Rat(_unpack(X, length, cache.slot)[dnz[0] if dnz else 0], den)
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
    return PiScalar(_cached_q(*key, cache), pideg_of_key(key))


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


def _decode_piece(piece: str) -> Tuple[int, int, Tuple[int, ...]]:
    """One `v:c` pair, written as `cache_save` writes it, as (v, c, the run of c nonzero v's)."""
    v_s, _, c_s = piece.partition(":")
    v, c = int(v_s), int(c_s)
    if c <= 0 or v < 0 or f"{v}:{c}" != piece:
        raise ValueError(f"bad multiset pair {piece!r}")
    return v, c, (v,) * c if v else ()


def _decode_counts(text: str, pieces: Pieces) -> Tuple[int, Tuple[int, ...]]:
    """
    (n, nonzero entries) of a `v:c,...` list; `pieces` memoizes the
    pieces that decoded, so each distinct one is parsed once per load.
    """
    if not text:
        return 0, ()
    n = 0
    dnz: Tuple[int, ...] = ()
    prev = None
    for piece in text.split(","):
        decoded = pieces.get(piece)
        if decoded is None:
            decoded = pieces[piece] = _decode_piece(piece)
        v, c, run = decoded
        if prev is not None and v >= prev:
            raise ValueError("multiset pairs must be strictly descending")
        prev = v
        n += c
        dnz += run
    return n, dnz


def cache_save(path, cache: BracketCache | None = None) -> int:
    """
    Write every entry in canonical order; returns the entry count.  The
    lines are streamed in one pass over the sorted keys, which builds the
    `v:c` text of each distinct nonzero part once.  The table goes to a
    temporary file beside `path` that then replaces it, so a failed write
    leaves the previous file intact.  It sets `cache.same_as`.
    """
    cache = _default_cache if cache is None else cache
    entries = cache.entries
    keys = sorted(entries)
    # nonzero part -> (its `v:c` text, that text and a comma if nonempty, size, sum)
    parts: Dict[Tuple[int, ...], Tuple[str, str, int, int]] = {}

    def lines() -> Iterator[str]:
        yield CACHE_VERSION + "\n"
        for key in keys:
            g, n, dnz = key
            part = parts.get(dnz)
            if part is None:
                text = ",".join(f"{v}:{c}" for v, c in _value_counts((g, len(dnz), dnz)))
                part = parts[dnz] = (text, text + "," if text else "", len(dnz), sum(dnz))
            text, head, size, total = part
            counts = f"{head}0:{n - size}" if n > size else text
            pideg = 2 * (3 * g - 3 + n - total)
            value = entries[key]
            # a Fraction's slots, read without its properties
            if type(value) is Rat and value._numerator:
                yield f"{g}|{counts}|{value._numerator}/{value._denominator}*pi^{pideg}\n"
            else:  # a zero, an int or a non-number, by PiScalar's rules
                yield f"{g}|{counts}|{PiScalar(value, pideg).render()}\n"

    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines())
        with open(tmp, "rb") as fh:
            digest = _sha256(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    cache.same_as = (os.path.realpath(path), digest, len(keys))
    return len(keys)


def _sha256(fh) -> bytes:
    """The sha256 of a binary file's bytes from where it stands, read in 64 KB chunks."""
    h = hashlib.sha256()
    while chunk := fh.read(1 << 16):
        h.update(chunk)
    return h.digest()


# cache_load reads the table in line-aligned blocks of about this many
# characters: one regex pass and one C-level conversion per column each
_BLOCK = 1 << 14
# one line `g|counts|num/den*pi^k`, the genus and the value's numbers in
# ASCII digits with no leading zero and no -0, as `cache_save` writes
# them; around the value, whitespace but no line break (what `str.strip`
# removes)
_INT = r"(-?[1-9][0-9]*|0)"
_LINE_RE = re.compile(rf"^{_INT}\|([^|\n]*)\|[^\S\n]*{_INT}/([1-9][0-9]*|0)\*pi\^{_INT}[^\S\n]*$", re.M)


def cache_load(path, cache: BracketCache | None = None, rank: int | None = None) -> int:
    """
    Load entries, verifying the version header, that each key is written
    as `cache_save` writes it (the genus and each `v:c` number in ASCII
    digits with no plus sign, space or leading zero), that its exponents
    sum to at most 3g-3+n, that no key repeats, that each value is
    positive (every bracket with |d| <= 3g-3+n is a positive multiple of
    a power of pi) and in the form `cache_save` writes (ASCII digits with
    no leading zero, lowest terms), and per-line homogeneity.  The whole
    file is checked before the table changes, so a failed load leaves it
    as it was: a fault, named as `{path}: line N: ...` for the first
    faulty line, then a key the table holds with another value
    (AssertionError, the least such key, which in a file `cache_save`
    wrote is also the first in file order).  Each distinct `v:c` piece
    is decoded once per call.  Returns entries read.

    With `rank`, only the keys with at most `rank` nonzero exponents go
    into the table, and only they are checked for a collision; every
    check on the text, or on its sidecar, still covers the whole file.
    The default reads every key.

    Values are built with no second normalization: the positivity and
    lowest-terms checks make num/den equal to `Fraction(num, den)`.  The
    cyclic collector is paused for the call and restored as found, also on
    a fault: the load makes only acyclic objects, which a collection never frees.

    A load that parsed every line and raised nothing writes a derived
    sidecar `<path>.idx` of the whole table, split by rank and bound to the
    text's sha256; a later load reads only the ranks it asks for from it,
    and only if its tag and both its digests match.  Trust: the digests
    catch staleness and accidental corruption; whoever can write the cache
    directory can already write a well-formed wrong value into the text.
    The collision check runs on both paths.  A load that leaves the table
    equal to the file sets `cache.same_as`.
    """
    cache = _default_cache if cache is None else cache
    pieces: Pieces = {}
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        # one handle to hash and parse, which a writer's replace leaves intact
        with open(path, "rb") as raw:
            digest = _sha256(raw)
            sidecar = _read_sidecar(path, digest, rank)
            if sidecar is None:
                raw.seek(0)
                fh = io.TextIOWrapper(raw, encoding="utf-8")
                header = fh.readline().rstrip("\n")
                if header != CACHE_VERSION:
                    raise ValueError(f"cache version mismatch: {header!r}")
                full = {}
                try:
                    while block := fh.read(_BLOCK):
                        _load_block(block + fh.readline(), full, pieces, {})
                except ValueError:
                    # an undecodable byte too: the hashed bytes again, line by line
                    fh.detach()
                    raw.seek(0)
                    full = _load_lines(path, io.TextIOWrapper(raw, encoding="utf-8"), pieces)
                count = len(full)
                table = full if rank is None else {k: v for k, v in full.items() if len(k[2]) <= rank}
            else:
                table, count = sidecar
        entries = cache.entries
        if entries:
            clash = [key for key, value in table.items() if (old := entries.get(key)) is not None and old != value]
            if clash:
                key = min(clash)
                raise AssertionError(f"cache collision at {key}: {entries[key]} != {table[key]}")
        if sidecar is None:
            _write_sidecar(path, digest, full)
        entries.update(table)
        if len(entries) == len(table) == count:
            cache.same_as = (os.path.realpath(path), digest, count)
    finally:
        if gc_enabled:
            gc.enable()
    return len(table)


# The sidecar: this tag, the sha256 of the text and of the rest, then the
# rest: a header (the entry count and the number of blobs R + 1, then each
# blob's size, as little-endian 8-byte words), then blob r = 0..R, the
# (keys, numerators, denominators) of the entries with r nonzero exponents,
# in marshal format 2, whose write keeps no ref table.
_IDX_TAG = f"{CACHE_VERSION} idx3 {sys.implementation.cache_tag} marshal 2\n".encode()


def _read_sidecar(path, digest: bytes, rank: int | None) -> Tuple[Dict[Key, Rat], int] | None:
    """
    The entries of at most `rank` nonzero exponents (all by default) in
    `<path>.idx`, and the file's entry count, if the sidecar is bound to
    text of sha256 `digest`; else None.
    """
    try:
        with open(f"{path}.idx", "rb") as fh:
            data = fh.read()
        at, view = len(_IDX_TAG) + 64, memoryview(data)
        if data[: at - 32] != _IDX_TAG + digest or hashlib.sha256(view[at:]).digest() != data[at - 32 : at]:
            return None
        count, blobs = struct.unpack_from("<2Q", data, at)
        sizes = struct.unpack_from(f"<{blobs}Q", data, at + 16)
        at += 16 + 8 * blobs
        if at + sum(sizes) != len(data):
            return None
        table: Dict[Key, Rat] = {}
        for size in sizes if rank is None else sizes[: rank + 1]:
            keys, nums, dens = marshal.loads(view[at : at + size])
            at += size
            table.update(zip(keys, map(_coprime_rat, nums, dens)))
        # a key repeated across the blobs leaves a full read short
        return None if at == len(data) and len(table) != count else (table, count)
    except (OSError, ValueError, TypeError, EOFError, struct.error):
        return None


def _write_sidecar(path, digest: bytes, table: Dict[Key, Rat]) -> None:
    """`<path>.idx` for `table`, checked from text of sha256 `digest`; a failed write leaves no file."""
    columns: Dict[int, Tuple[List[Key], List[int], List[int]]] = defaultdict(lambda: ([], [], []))
    # the parse built every value with `_coprime_rat`, so its slots hold
    # what the `numerator` and `denominator` properties would return
    for key, value in table.items():
        keys, nums, dens = columns[len(key[2])]
        keys.append(key)
        nums.append(value._numerator)
        dens.append(value._denominator)
    blobs = [marshal.dumps(columns[r], 2) for r in range(max(columns, default=-1) + 1)]
    header = struct.pack(f"<{len(blobs) + 2}Q", len(table), len(blobs), *map(len, blobs))
    h = hashlib.sha256(header)
    for blob in blobs:
        h.update(blob)
    tmp = f"{path}.idx.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_IDX_TAG + digest + h.digest() + header)
            fh.writelines(blobs)
        os.replace(tmp, f"{path}.idx")
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_lines(path, fh, pieces: Pieces) -> Dict[Key, Rat]:
    """`_load_block` one line at a time from line 2 of the text handle `fh`, naming the line of `path` at fault."""
    table: Dict[Key, Rat] = {}
    first_line: Dict[Key, int] = {}
    fh.readline()
    for lineno, line in enumerate(fh, start=2):
        try:
            for key in _load_block(line, table, pieces, first_line):
                first_line[key] = lineno
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return table


def _load_block(text: str, table: Dict[Key, Rat], pieces: Pieces, first_line: Dict[Key, int]) -> List[Key]:
    """
    Check the non-blank lines of line-aligned text column by column and
    add their entries to `table`; returns their keys.  A fault raises
    ValueError, whose message is exact for one line: the checks run in the
    order fields, genus, pieces, scalar, zero denominator, positivity,
    lowest terms, stability, exponent sum, duplicate (naming the line
    `first_line` holds for the key), homogeneity.  A repeated key
    was read and checked on its first line, so checking stability before
    repetition names the same fault.
    """
    rows = _LINE_RE.findall(text)
    lines = text.split("\n")
    if len(rows) != len(lines) - lines.count(""):
        # a line the regex does not take: name why, in check order
        g_s, counts_s, value_s = text.rstrip("\n").split("|")
        if str(int(g_s)) != g_s:
            raise ValueError(f"malformed genus {g_s!r}")
        _decode_counts(counts_s, pieces)
        raise ValueError(f"malformed PiScalar {value_s!r}")
    if not rows:
        return []
    g_col, counts_col, num_col, den_col, pideg_col = zip(*rows)
    gs = list(map(int, g_col))
    decoded = [_decode_counts(counts_s, pieces) for counts_s in counts_col]
    nums = list(map(int, num_col))
    dens = list(map(int, den_col))
    pidegs = list(map(int, pideg_col))
    if 0 in dens:
        raise ValueError(f"zero denominator in {_value(rows[dens.index(0)])!r}")
    if min(nums) <= 0:
        raise ValueError(f"value {_value(rows[nums.index(min(nums))])!r} is not positive")
    # the form `cache_save` writes, so a load then a save gives back the bytes
    gcds = list(map(gcd, nums, dens))
    if max(gcds) != 1:
        raise ValueError(f"value {_value(rows[gcds.index(max(gcds))])!r} is not in lowest terms")
    keys = []
    expected = []
    for g, (n, dnz) in zip(gs, decoded):
        _require_stable(g, n)
        top = 3 * g - 3 + n - sum(dnz)
        if top < 0:
            raise ValueError(f"exponent sum {sum(dnz)} exceeds 3g-3+n = {3 * g - 3 + n}")
        keys.append((g, n, dnz))
        expected.append(2 * top)
    size = len(table)
    # the checks above prove each num/den positive and in lowest terms
    table.update(zip(keys, map(_coprime_rat, nums, dens)))
    if len(table) != size + len(keys):
        raise ValueError(f"duplicate key {g_col[0]}|{counts_col[0]}, first at line {first_line.get(keys[0])}")
    if pidegs != expected:
        pideg, e = next((p, e) for p, e in zip(pidegs, expected) if p != e)
        raise ValueError(f"pi-degree {pideg} violates homogeneity {e}")
    return keys


def _value(row: Tuple[str, ...]) -> str:
    """The value field of a line the regex took, stripped."""
    return f"{row[2]}/{row[3]}*pi^{row[4]}"
