"""
Ungated scaling ladder: keys and cold-warm seconds of `cache_warm` at
budgets 10, 12, 14 and 16, each from an empty table, plus the sha256 of
the saved `brackets.txt`.  `warm_s` is wall time; `warm_ref_s` is the
same time at the reference speed of speed.py, as the gated metrics report
it.  It reproduces the baseline table of ROADMAP item 1 and is kept out
of the gated workloads because budget 16 takes minutes.

    python3 perfbench/ladder.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

from run import ROOT, machine_record
from speed import SpeedClock

BUDGETS = (10, 12, 14, 16)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None, help="write the ladder as JSON here")
    args = parser.parse_args(argv)
    os.environ.setdefault("WPLAB_RAT", "fraction")
    sys.path.insert(0, str(ROOT / "src"))
    from wplab.brackets import BracketCache
    from wplab.exact import RAT_BACKEND
    from wplab.lab import LabConfig, cache_warm

    import oracles

    recorded = oracles.load_digests()["brackets"]
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    rows = []
    for budget in BUDGETS:
        d = tempfile.mkdtemp(dir=work_root)
        try:
            with SpeedClock() as clock:
                stats = cache_warm(LabConfig(budget=budget, cache_dir=d), budget=budget, cache=BracketCache())
            digest = oracles.sha256_file(stats.path)
        finally:
            shutil.rmtree(d, ignore_errors=True)
        row = {
            "budget": budget,
            "keys": stats.entries_total,
            "warm_s": clock.raw,
            "warm_ref_s": clock.seconds,
            "sha256": digest,
        }
        if str(budget) in recorded:
            row["matches_recorded"] = digest == recorded[str(budget)]
        rows.append(row)
        print(
            f"budget {budget:3d}  keys {stats.entries_total:7d}  warm_s {clock.raw:9.3f}  "
            f"warm_ref_s {clock.seconds:9.3f}  {digest[:16]}",
            flush=True,
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"machine": machine_record(RAT_BACKEND), "ladder": rows}, fh, indent=1)
            fh.write("\n")
    return 0 if all(r.get("matches_recorded", True) for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
