"""
The midpoint of a volume's certified enclosure as `wplab` took it before
it added the raw endpoints itself: mpmath's exact `fadd` of the two
endpoints of `eval_numeric`, halved by `ldexp`.  Kept as an oracle for
the midpoints that `volumes.volume_float` and `volumes.cor1_bound_check`
round.
"""

from __future__ import annotations

import mpmath

from wplab.brackets import BracketCache
from wplab.exact import eval_numeric
from wplab.volumes import volume


def volume_mid(g: int, n: int, digits: int, cache: BracketCache) -> mpmath.mpf:
    """The exact midpoint of eval_numeric(volume(g, n), digits)."""
    box = eval_numeric(volume(g, n, cache), digits)
    return mpmath.ldexp(mpmath.fadd(box.lo, box.hi, exact=True), -1)
