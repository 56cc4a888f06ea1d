"""
Reference walk for `lab.cache_warm`: the key-by-key walk that the slice
walk in `wplab.lab` replaced, kept as an oracle for it.

It asks `_cached_q` for every closure key, one call per key in
`partitions_upto` order, signature by signature.  Each call builds the
slice that leaves out the key's largest entry when the table lacks the
key, so the table it leaves is the closure the slice walk must leave.
It saves nothing and returns the table's size before and after.
"""

from __future__ import annotations

from wplab.brackets import BracketCache, _cached_q, stable
from wplab.volumes import partitions_upto


def reference_warm(budget: int, cache: BracketCache) -> tuple[int, int]:
    """Every bracket with |d| <= 3g-3+n <= budget, key by key; (size before, size after)."""
    before = len(cache)
    for g in range(0, budget // 3 + 2):
        nmax = budget - (3 * g - 3)
        for n in range(0, nmax + 1):
            if not stable(g, n):
                continue
            for part in partitions_upto(3 * g - 3 + n, n):
                _cached_q(g, n, part, cache)
    return before, len(cache)
