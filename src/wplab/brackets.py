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
* a pair-creation term on genus g-1 with two new entries,
* products over ordered splittings of the remaining entries between two
  stable pieces whose genera sum to g.

Remaining entries are grouped by value, and splittings are enumerated as
sub-multisets with binomial weights, which keeps the cost polynomial for
the zero-heavy inputs that dominate volume computations.  Sub-brackets
with a negative entry or an unstable signature contribute zero.  The
closed surface case n = 0 is unreachable by the recursion and is
produced from the (g, 1) brackets through the alternating-sum identity
(2g-2) V_{g,0} = 1/2 sum_m (-1)^(m-1) b_m [tau_m]_{g,1}.
"""

from __future__ import annotations

import os
from math import comb
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
    """

    def __init__(self):
        self.entries: Dict[Key, Rat] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def insert(self, key: Key, value: Rat) -> None:
        old = self.entries.get(key)
        if old is not None and old != value:
            raise AssertionError(f"cache collision at {key}: {old} != {value}")
        self.entries[key] = value

    def clear(self) -> None:
        self.entries.clear()


_default_cache = BracketCache()


def default_cache() -> BracketCache:
    return _default_cache


def _q(g: int, n: int, dnz: Tuple[int, ...], memo: Dict[Key, Rat]) -> Rat:
    """Rational part of the bracket at a canonical key (0 when it vanishes)."""
    if not stable(g, n):
        return Rat(0)
    if n == 0:
        return _q_closed(g, memo)
    d0 = 3 * g - 3 + n - sum(dnz)
    if d0 < 0:
        return Rat(0)
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

    d1 = dnz[0] if dnz else 0
    rest = dnz[1:]
    zeros = n - 1 - len(rest)

    counts: Dict[int, int] = {}
    for x in rest:
        counts[x] = counts.get(x, 0) + 1
    if zeros:
        counts[0] = zeros

    total = Rat(0)

    # merge d1 with one remaining entry of value v_ (count c of them)
    for v_, c in counts.items():
        if v_:
            sub = list(rest)
            sub.remove(v_)
            base = tuple(sub)
        else:
            base = rest
        acc = Rat(0)
        for L in range(d0 + 1):
            e = d1 + v_ + L - 1
            if e < 0:
                continue
            child = _insert_sorted(base, e) if e else base
            t = _q(g, n - 1, child, memo)
            if t:
                acc += _coeff_a_rat(L) * t
        if acc:
            total += 8 * c * (2 * v_ + 1) * acc

    # create an entry pair on genus g-1
    if g >= 1 and stable(g - 1, n + 1):
        acc = Rat(0)
        for L in range(d0 + 1):
            s = L + d1 - 2
            if s < 0:
                continue
            inner = Rat(0)
            for k1 in range(s + 1):
                k2 = s - k1
                child = rest
                if k1:
                    child = _insert_sorted(child, k1)
                if k2:
                    child = _insert_sorted(child, k2)
                t = _q(g - 1, n + 1, child, memo)
                if t:
                    inner += t
            if inner:
                acc += _coeff_a_rat(L) * inner
        if acc:
            total += 16 * acc

    # ordered splittings of the remaining multiset between two pieces
    items = sorted(counts.items())
    acc = Rat(0)
    for take, weight in _weighted_submultisets(items):
        left: List[int] = []
        right: List[int] = []
        z_left = z_right = 0
        for (v_, c), t in zip(items, take):
            if v_:
                left += [v_] * t
                right += [v_] * (c - t)
            else:
                z_left, z_right = t, c - t
        n_left = len(left) + z_left + 1
        n_right = len(right) + z_right + 1
        base_left = tuple(sorted(left, reverse=True))
        base_right = tuple(sorted(right, reverse=True))
        for g_left in range(g + 1):
            g_right = g - g_left
            if not stable(g_left, n_left) or not stable(g_right, n_right):
                continue
            for L in range(d0 + 1):
                s = L + d1 - 2
                if s < 0:
                    continue
                inner = Rat(0)
                for k1 in range(s + 1):
                    k2 = s - k1
                    c1 = _insert_sorted(base_left, k1) if k1 else base_left
                    t1 = _q(g_left, n_left, c1, memo)
                    if not t1:
                        continue
                    c2 = _insert_sorted(base_right, k2) if k2 else base_right
                    t2 = _q(g_right, n_right, c2, memo)
                    if t2:
                        inner += t1 * t2
                if inner:
                    acc += _coeff_a_rat(L) * weight * inner
    if acc:
        total += 16 * acc

    memo[key] = total
    return total


def _q_closed(g: int, memo: Dict[Key, Rat]) -> Rat:
    """V_{g,0} rational part via the alternating sum over (g,1) brackets."""
    if g < 2:
        return Rat(0)
    key = (g, 0, ())
    v = memo.get(key)
    if v is not None:
        return v
    total = Rat(0)
    for m in range(1, 3 * g - 2 + 1):
        t = _q(g, 1, (m,), memo)
        if t:
            total += (-1) ** (m - 1) * _coeff_b_rat(m) * t
    total /= 2 * (2 * g - 2)
    memo[key] = total
    return total


def _insert_sorted(base: Tuple[int, ...], x: int) -> Tuple[int, ...]:
    # descending order; linear scan is fine at these lengths
    for i, y in enumerate(base):
        if x >= y:
            return base[:i] + (x,) + base[i:]
    return base + (x,)


def _weighted_submultisets(
    items: List[Tuple[int, int]],
) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """All (per-value take counts, product-of-binomials weight) pairs."""
    if not items:
        yield (), 1
        return
    (v, c), tail = items[0], items[1:]
    for rest_take, rest_w in _weighted_submultisets(tail):
        for t in range(c + 1):
            yield (t,) + rest_take, rest_w * comb(c, t)


def bracket_rat(g: int, d: Sequence[int], cache: BracketCache | None = None) -> Rat:
    """Rational part of [prod tau_{d_i}]_{g,n}; pi-power is 2*d0."""
    key = BracketKey(g, d)
    return _q(key.g, key.n, key.dnz, (_default_cache if cache is None else cache).entries)


def bracket(g: int, d: Sequence[int], cache: BracketCache | None = None) -> PiScalar:
    """
    Exact bracket [prod tau_{d_i}]_{g,n} for n = len(d).  Returns 0 when
    |d| > 3g-3+n; raises on unstable signatures and negative entries.
    """
    key = BracketKey(g, d)
    q = _q(key.g, key.n, key.dnz, (_default_cache if cache is None else cache).entries)
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
    memo = (_default_cache if cache is None else cache).entries
    num = _q(g, n + 1, (m,) if m else (), memo)
    den = _q(g, n + 1, (), memo)
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
    Load entries, verifying the version header and per-line homogeneity.
    Malformed input reports its line number.  Returns entries read.
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
