"""
In-memory span recorder for the traced benchmark run.

Spans are recorded only from the benchmark's side: `Tracer.wrap` swaps a
public callable for a timing wrapper at the place its caller looks it up
(for example `wplab.random_model.eval_numeric`), and `Tracer.restore`
puts every original back.  Each span keeps its name, start, end, parent
and root; the roots are the benchmark's own pass spans, so per-pass
totals of self time (duration minus the time covered by child spans) can
be read off after the run.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Union

Name = Union[str, Callable[..., str]]
SELF, CALLS, TOTAL = 0, 1, 2


class Tracer:
    def __init__(self):
        # [name, parent, root, start, end]; the list index is the span id
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else sid
        self.spans.append([name, parent, root, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)

    def wrap(self, module, attr: str, name: Name) -> None:
        """Record a span around every call of `module.attr` until restore()."""
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._open(name(*args, **kwargs) if callable(name) else name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(sid)

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def duration(self, sid: int) -> float:
        s = self.spans[sid]
        return s[4] - s[3]

    def self_times(self) -> List[float]:
        out = [self.duration(i) for i in range(len(self.spans))]
        for i, s in enumerate(self.spans):
            if s[1] is not None:
                out[s[1]] -= self.duration(i)
        return out

    def per_root(self, scales: Dict[int, float]) -> Dict[int, Dict[str, List[float]]]:
        """
        root id -> span name -> [self seconds, calls, seconds], summed in
        that root, for the roots in `scales`; the seconds of each root are
        multiplied by its scale (see speed.SpeedClock.scale).
        """
        selfs = self.self_times()
        out: Dict[int, Dict[str, List[float]]] = {r: {} for r in scales}
        for i, s in enumerate(self.spans):
            bucket = out.get(s[2])
            if bucket is None:
                continue
            acc = bucket.setdefault(s[0], [0.0, 0, 0.0])
            acc[0] += selfs[i] * scales[s[2]]
            acc[1] += 1
            acc[2] += self.duration(i) * scales[s[2]]
        return out

    def names(self) -> List[str]:
        return sorted({s[0] for s in self.spans})

    def dump(self, path) -> None:
        t0 = self.spans[0][3] if self.spans else 0.0
        records = [
            {
                "id": i,
                "name": s[0],
                "parent": s[1],
                "start": s[3] - t0,
                "end": s[4] - t0,
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh)
            fh.write("\n")


def median_over(table: Dict[int, Dict[str, List[float]]], names: List[str], field: int = SELF) -> float:
    """Median over the roots of `per_root` of one summed field (SELF, CALLS or TOTAL) of the named spans."""
    totals = [sum(t[n][field] for n in names if n in t) for t in table.values()]
    return statistics.median(totals) if totals else 0.0


def eval_numeric_name(x, precision_digits: int = 30) -> str:
    """Span name of one eval_numeric call, tagged with its digits."""
    return f"exact.eval_numeric.d{precision_digits}"
