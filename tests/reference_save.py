"""
Reference writer for `brackets.txt`: the line-at-a-time `cache_save` that
the streaming writer in `wplab.brackets` replaced, kept as an oracle for it.

Every line is built from scratch: the key's `v:c` pairs from
`_value_counts`, joined, and the value through `PiScalar(...).render()`
at the key's pi-degree.  It keeps no memo across lines and takes no
shortcut for any kind of value, so each line of the streaming writer
must match it byte for byte.
"""

from __future__ import annotations

from wplab.brackets import CACHE_VERSION, BracketCache, _value_counts, pideg_of_key
from wplab.exact import PiScalar


def reference_save(path, cache: BracketCache) -> int:
    """Write the table as the line-at-a-time writer wrote it; returns the entry count."""
    keys = sorted(cache.entries)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CACHE_VERSION + "\n")
        for key in keys:
            g, n, dnz = key
            counts = ",".join(f"{v}:{c}" for v, c in _value_counts(key))
            value = PiScalar(cache.entries[key], pideg_of_key(key))
            fh.write(f"{g}|{counts}|{value.render()}\n")
    return len(keys)
