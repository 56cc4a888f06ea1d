"""
wplab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--save PATH]

Run it from the root of a checkout that holds `src/wplab`; everything runs
in this one process.  Workloads: warm-cold, lab-sweep, exact-ring (see
workloads.py).  With --trace 0 the metrics are the end-to-end ones
(setup_s, pass_s, peak_rss_mb); with --trace 1 they are the per-layer
ones, and the spans are written to .perfbench_out/.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it name every metric with its unit
(and each end-to-end time with its plain wall time), the error rate and
the machine.  --save writes the whole record, machine and the time of
every set-up and pass at reference speed and in wall time included, for
compare.py and summarise.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("warm-cold", "lab-sweep", "exact-ring")
IMPORT_REPEATS = 5
_TIME_IMPORT = """
import sys
sys.path[:0] = sys.argv[1:]
from speed import SpeedClock
with SpeedClock() as clock:
    import workloads
print(clock.seconds, clock.raw)
"""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="wplab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None, help="write the full result record here")
    return parser.parse_args(argv)


def machine_record(rat_backend: str) -> dict:
    try:
        import gmpy2  # noqa: F401

        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "rat_backend": rat_backend,
        "gmpy2": has_gmpy2,
    }


def import_times(first) -> list:
    """
    [seconds at reference speed, wall seconds] of importing the workloads
    and wplab: this process's import (`first`, a SpeedClock) and
    IMPORT_REPEATS - 1 imports in fresh interpreters run one after the
    other, since one import (mostly numpy's) varies by 20% and more.
    """
    out = [[first.seconds, first.raw]]
    for _ in range(IMPORT_REPEATS - 1):
        child = subprocess.run(
            [sys.executable, "-c", _TIME_IMPORT, str(HERE), str(ROOT / "src")],
            capture_output=True, text=True, check=True,
        )
        out.append([float(x) for x in child.stdout.split()])
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "wplab" / "__init__.py").is_file():
        print(f"perfbench: no wplab sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the pure-Python backend is the baseline; WPLAB_RAT may override it
    os.environ.setdefault("WPLAB_RAT", "fraction")
    sys.path.insert(0, str(ROOT / "src"))
    from speed import SpeedClock

    with SpeedClock() as clock:
        import workloads
    from wplab.exact import RAT_BACKEND

    import oracles

    imports = import_times(clock)

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    ctx = workloads.Context(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        workdir=Path(tempfile.mkdtemp(dir=work_root)),
        import_s=statistics.median(t[0] for t in imports),
        import_wall_s=statistics.median(t[1] for t in imports),
        digests=oracles.load_digests(),
    )
    try:
        result = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        ctx.tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.json")

    tally = ctx.tally
    machine = machine_record(RAT_BACKEND)
    print(f"machine: {json.dumps(machine)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {result.summary}")
    for name, (value, unit) in sorted(result.metrics.items()):
        wall = f"  (wall {result.wall[name]:.6g} {unit})" if name in result.wall else ""
        print(f"  {name} = {value:.6g} {unit}{wall}")
    print(f"  error_rate = {tally.failed}/{tally.attempted} failed/attempted")
    for reason in tally.reasons[:20]:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    record = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result.metrics.items()},
    }
    if args.save:
        full = dict(
            record, workload=args.workload, seed=args.seed, trace=args.trace,
            seconds=args.seconds, machine=machine, wall=result.wall,
            imports=imports,
            setups=[c.seconds for c in result.setups], setups_wall=[c.raw for c in result.setups],
            passes=[c.seconds for c in result.passes], passes_wall=[c.raw for c in result.passes],
        )
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(full, fh, indent=1)
            fh.write("\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
