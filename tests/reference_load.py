"""
Reference loader for `brackets.txt`: the line-at-a-time `cache_load` that
the block loader in `wplab.brackets` replaced, kept as an oracle for it.

It reads one line at a time, runs every check on that line in the order
fields, genus, pieces, scalar, zero denominator, positivity, lowest
terms, duplicate, stability, exponent sum, homogeneity, and inserts the
entry before it reads the next line.  It shares no parsing or checking
code with the package: only the rational type and the version header.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Tuple

from wplab.brackets import CACHE_VERSION
from wplab.exact import Rat

Key = Tuple[int, int, Tuple[int, ...]]

_SCALAR_RE = re.compile(r"^(-?\d+)/(\d+)\*pi\^(-?\d+)$")
# an integer as `cache_save` writes it: ASCII digits, no leading zero,
# a sign only on a nonzero negative number
_SAVED_INT = re.compile(r"-?[1-9][0-9]*|0")


def _decode_piece(piece: str) -> Tuple[int, int, Tuple[int, ...]]:
    v_s, _, c_s = piece.partition(":")
    v, c = int(v_s), int(c_s)
    if c <= 0 or v < 0 or not (_SAVED_INT.fullmatch(v_s) and _SAVED_INT.fullmatch(c_s)):
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


def _decoded(path, raw_lines: List[bytes]) -> Iterator[str]:
    """Each line decoded on its own, so that an undecodable byte is named by its line."""
    for lineno, raw in enumerate(raw_lines, start=1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None


def reference_load(path, cache) -> int:
    """Load `path` into `cache.entries` line by line; returns entries read."""
    first_line: Dict[Key, int] = {}
    with open(path, "rb") as fh:
        # bytes.splitlines splits at the universal newlines of text mode
        lines = _decoded(path, fh.read().splitlines())
        header = next(lines, "")
        if header != CACHE_VERSION:
            raise ValueError(f"cache version mismatch: {header!r}")
        for lineno, line in enumerate(lines, start=2):
            if not line:
                continue
            try:
                g_s, counts_s, value_s = line.split("|")
                g = int(g_s)
                if not _SAVED_INT.fullmatch(g_s):
                    raise ValueError(f"malformed genus {g_s!r}")
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
                if num <= 0:
                    raise ValueError(f"value {value_s.strip()!r} is not positive")
                q = Rat(num, den)
                if (q.numerator, q.denominator) != (num, den):
                    raise ValueError(f"value {value_s.strip()!r} is not in lowest terms")
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
                if pideg != expected:
                    raise ValueError(f"pi-degree {pideg} violates homogeneity {expected}")
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            old = cache.entries.get(key)
            if old is not None and old != q:
                raise AssertionError(f"cache collision at {key}: {old} != {q}")
            cache.entries[key] = q
    return len(first_line)
