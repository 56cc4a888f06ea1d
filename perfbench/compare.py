"""
Compare result records saved by `run.py --save` for two commits:

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Prints, per metric, each side's median and quartiles and the change of
the medians as a share of the base median.  Refuses (exit 2) to compare
records taken under different rational backends, workloads or trace
settings, since their numbers do not measure the same thing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(paths):
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare saved benchmark results")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    for key in ("workload", "trace"):
        seen = {r[key] for r in base + new}
        if len(seen) > 1:
            print(f"compare: refusing to mix {key} values {sorted(map(str, seen))}", file=sys.stderr)
            return 2
    backends = {r["machine"]["rat_backend"] for r in base + new}
    if len(backends) > 1:
        print(f"compare: refusing to compare across rational backends {sorted(backends)}", file=sys.stderr)
        return 2
    print(f"workload {base[0]['workload']}, backend {backends.pop()}, {len(base)} base and {len(new)} new runs")
    for name in sorted(base[0]["metrics"]):
        unit = base[0]["metrics"][name]["unit"]
        a = quartiles([r["metrics"][name]["value"] for r in base])
        b = quartiles([r["metrics"][name]["value"] for r in new])
        change = (b[1] - a[1]) / a[1] if a[1] else float("nan")
        print(
            f"{name:40s} base {a[1]:.6g} [{a[0]:.6g}, {a[2]:.6g}]  "
            f"new {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}] {unit}  change {change:+.2%}"
        )
    failed = sum(r["failed"] for r in base + new)
    print(f"failed operations: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
