"""
Summarise untraced result records saved by `run.py --save`, one file per
run, into the form of `results/baseline-fraction*.json`:

    python3 perfbench/summarise.py --out SUMMARY.json RECORD.json ...

Per workload it gives, for each end-to-end metric, the median, the
quartiles (`statistics.quantiles(values, n=4)`), the spread (q3 - q1 over
the median) and every run's value in seed order, and the same for the
plain wall time of each time metric.  Refuses (exit 2) traced records and
records from different machines or backends.
"""

from __future__ import annotations

import argparse
import json
import sys

from compare import load, quartiles


def spread(values):
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median, "values": values}


def summarise(records) -> dict:
    groups: dict = {}
    for r in records:
        groups.setdefault(r["workload"], []).append(r)
    out = {"machine": records[0]["machine"], "run_seconds": records[0]["seconds"], "workloads": {}}
    for workload, runs in groups.items():
        runs.sort(key=lambda r: r["seed"])
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            entry = {"unit": first["unit"], **spread([r["metrics"][name]["value"] for r in runs])}
            if name in runs[0]["wall"]:
                entry["wall"] = spread([r["wall"][name] for r in runs])
            metrics[name] = entry
        out["workloads"][workload] = {
            "seeds": [r["seed"] for r in runs],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="summarise saved benchmark results")
    parser.add_argument("--out", required=True)
    parser.add_argument("records", nargs="+")
    args = parser.parse_args(argv)
    records = load(args.records)
    if any(r["trace"] for r in records):
        print("summarise: traced records carry per-layer metrics only", file=sys.stderr)
        return 2
    machines = {json.dumps(r["machine"], sort_keys=True) for r in records}
    if len(machines) > 1:
        print(f"summarise: refusing to mix machines {sorted(machines)}", file=sys.stderr)
        return 2
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summarise(records), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
