"""
Reference loader for `brackets.txt`: the line-at-a-time `cache_load` that
the block loader in `wplab.brackets` replaced, kept as an oracle for it.

It reads one line at a time, runs every check on that line in the order
fields, genus, pieces, scalar, zero denominator, sign, lowest terms, zero
as 0/1*pi^0, duplicate, stability, exponent sum, homogeneity (which a
zero, at pi-degree 0, is exempt from), and inserts the entry before it
reads the next line.  It shares no parsing or checking code with the
package: only the rational type and the version header.
"""

from __future__ import annotations

import re
from typing import Dict, Tuple

from wplab.brackets import CACHE_VERSION
from wplab.exact import Rat

Key = Tuple[int, int, Tuple[int, ...]]

_SCALAR_RE = re.compile(r"^(-?\d+)/(\d+)\*pi\^(-?\d+)$")


def _decode_piece(piece: str) -> Tuple[int, int, Tuple[int, ...]]:
    v_s, _, c_s = piece.partition(":")
    v, c = int(v_s), int(c_s)
    if c <= 0 or v < 0:
        raise ValueError(f"bad multiset pair {piece!r}")
    return v, c, (v,) * c if v else ()


def _decode_counts(text: str) -> Tuple[int, Tuple[int, ...]]:
    if not text:
        return 0, ()
    n = 0
    dnz: Tuple[int, ...] = ()
    prev = None
    for piece in text.split(","):
        v, c, run = _decode_piece(piece)
        if prev is not None and v >= prev:
            raise ValueError("multiset pairs must be strictly descending")
        prev = v
        n += c
        dnz += run
    return n, dnz


def reference_load(path, cache) -> int:
    """Load `path` into `cache.entries` line by line; returns entries read."""
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
                # each number as `cache_save` writes it: ASCII digits, no
                # leading zero, no -0
                if f"{num}/{den}*pi^{pideg}" != value_s.strip():
                    raise ValueError(f"malformed PiScalar {value_s!r}")
                if not den:
                    raise ValueError(f"zero denominator in {value_s.strip()!r}")
                if num < 0:
                    raise ValueError(f"negative value {value_s.strip()!r}")
                q = Rat(num, den)
                if (q.numerator, q.denominator) != (num, den):
                    raise ValueError(f"value {value_s.strip()!r} is not in lowest terms")
                if not num and pideg:
                    raise ValueError(f"zero value {value_s.strip()!r} is not written 0/1*pi^0")
                key = (g, n, dnz)
                first = first_line.setdefault(key, lineno)
                if first != lineno:
                    raise ValueError(f"duplicate key {g_s}|{counts_s}, first at line {first}")
                if not (g >= 0 and n >= 0 and 2 * g - 2 + n > 0):
                    raise ValueError(f"unstable signature ({g},{n})")
                expected = 2 * (3 * g - 3 + n - sum(dnz))
                if expected < 0:
                    raise ValueError(
                        f"exponent sum {sum(dnz)} exceeds 3g-3+n = {3 * g - 3 + n}"
                    )
                if num and pideg != expected:
                    raise ValueError(f"pi-degree {pideg} violates homogeneity {expected}")
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            old = cache.entries.get(key)
            if old is not None and old != q:
                raise AssertionError(f"cache collision at {key}: {old} != {q}")
            cache.entries[key] = q
    return len(first_line)
