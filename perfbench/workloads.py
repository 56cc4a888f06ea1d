"""
The benchmark's workloads.  Each runs passes of one kind of work until
`seconds` of pass time have accumulated, times every pass, and checks
every output outside the timed region.

* warm-cold: `cache_warm` at budget 14 from an empty table, persisting
  `brackets.txt` (the write path: `brackets._q` and `Rat`).
* lab-sweep: the 11 lab experiments through `wplab.cli.main` at budget 12
  against a persisted table, in-memory table emptied first (the read
  path: `eval_numeric`, split sums, emission).
* exact-ring: `volume_poly`, `volume_at` and `expected_pants_count` over
  every stable (g, n) of the budget-12 grid at seed-drawn exact lengths
  (PiPoly ring products and integrals).

A traced run builds its table level by level, measures untraced passes,
then wraps the public callables in `WRAPS` and runs the same passes
again; the per-layer numbers come from the traced passes only, at the
reference speed of each traced pass (see speed.py).
"""

from __future__ import annotations

import csv
import os
import random
import resource
import statistics
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

import wplab.brackets as brackets
import wplab.cli as cli
import wplab.exact as exact
import wplab.lab as lab
import wplab.random_model as random_model
import wplab.volumes as volumes

import oracles
from speed import INTERVAL_S, SpeedClock
from tracing import CALLS, SELF, TOTAL, Tracer, eval_numeric_name, median_over

COLD_BUDGET = 14
TABLE_BUDGET = 12
SETUP_REPEATS = 2
RING_DIGITS = 100
RING_MAX_N = 7
LEVELS = range(8, COLD_BUDGET + 1)
MICRO_PAIRS = 2000
MICRO_EVALS = 200
TRACED_INTERVAL_S = 0.5

SWEEP_EXPERIMENTS = (
    "cheeger-upper",
    "geometry-constants",
    "identity",
    "lratio",
    "mz-ratio",
    "poisson-moments",
    "pvol2",
    "ratio-R",
    "second-moment",
    "two-curve",
    "volume-table",
)

# (module, attribute, span name): each place where calling code looks up
# a layer's public callable.
WRAPS = [
    (exact, "eval_numeric", eval_numeric_name),
    (lab, "eval_numeric", eval_numeric_name),
    (volumes, "eval_numeric", eval_numeric_name),
    (random_model, "eval_numeric", eval_numeric_name),
    (cli, "rows_to_csv", "lab.rows_to_csv"),
    (lab, "cache_load", "brackets.load"),
    (lab, "cheeger_prob_upper", "random_model.cheeger_prob_upper"),
    (lab, "pvol2_sum", "random_model.pvol2_sum"),
    (lab, "enumerate_splits", "topology.enumerate_splits"),
    (random_model, "enumerate_splits", "topology.enumerate_splits"),
    (volumes, "volume_poly", "volumes.volume_poly"),
    (volumes, "volume_at", "volumes.volume_at"),
    (lab, "expected_pants_count", "random_model.expected_pants_count"),
    (random_model, "expected_pants_count", "random_model.expected_pants_count"),
    (random_model, "box_count_integral", "random_model.box_count_integral"),
]

Metrics = Dict[str, Tuple[float, str]]


@dataclass
class Tally:
    """Checked operations; every failure keeps a one-line reason."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    import_s: float
    import_wall_s: float
    digests: dict
    tally: Tally = field(default_factory=Tally)
    tracer: Tracer = field(default_factory=Tracer)
    tracing: bool = False


@dataclass
class Result:
    """
    End-to-end metrics when untraced, per-layer metrics when traced, the
    clocks of the set-ups and passes they come from, and for each
    end-to-end time its plain wall time.
    """

    metrics: Metrics
    setups: List[SpeedClock]
    passes: List[SpeedClock]
    wall: Dict[str, float]
    summary: str


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def measure(ctx: Context, prepare: Callable, one_pass: Callable, check: Callable):
    """
    Run passes until `ctx.seconds` of wall time accumulate, at least one.
    `prepare(i)` runs untimed before pass i and `check(state, out)` after
    it.  Returns the clock of each pass (see speed.py) and, while tracing,
    its root span.  Traced runs sample the speed less often, so its
    reference work adds under 1% to spans.
    """
    clocks: List[SpeedClock] = []
    roots: List[int] = []
    wall = 0.0
    while not clocks or wall < ctx.seconds:
        state = prepare(len(clocks))
        with SpeedClock(TRACED_INTERVAL_S if ctx.trace else INTERVAL_S) as clock:
            if ctx.tracing:
                with ctx.tracer.span("pass") as sid:
                    out = one_pass(state)
                roots.append(sid)
            else:
                out = one_pass(state)
        clocks.append(clock)
        wall += clock.raw
        check(state, out)
    return clocks, roots


def measure_traced(ctx: Context, *args) -> Tuple[List[SpeedClock], Dict[int, float]]:
    """`measure` with `WRAPS` in place; returns the clocks and the scale of each pass root."""
    for module, attr, name in WRAPS:
        ctx.tracer.wrap(module, attr, name)
    ctx.tracing = True
    try:
        clocks, roots = measure(ctx, *args)
    finally:
        ctx.tracing = False
        ctx.tracer.restore()
    return clocks, {r: c.scale for r, c in zip(roots, clocks)}


def median_s(clocks: List[SpeedClock]) -> float:
    return statistics.median(c.seconds for c in clocks)


def warm_table(ctx: Context, budget: int) -> Tuple[brackets.BracketCache, Path]:
    """Cold warm of a fresh table, persisted to a new directory."""
    d = tempfile.mkdtemp(dir=ctx.workdir)
    cache = brackets.BracketCache()
    lab.cache_warm(lab.LabConfig(budget=budget, cache_dir=d), budget=budget, cache=cache)
    return cache, Path(d) / "brackets.txt"


def ladder_table(ctx: Context, budget: int):
    """
    The same table built level by level: `cache_warm` at budgets 0..budget
    on one cache, each call in its own span, then saved.  Returns the
    cache, its file, the new keys per level and {enclosing span: scale}.
    """
    path = Path(tempfile.mkdtemp(dir=ctx.workdir)) / "brackets.txt"
    cache = brackets.BracketCache()
    cfg = lab.LabConfig(budget=budget)
    keys: Dict[int, int] = {}
    with SpeedClock(TRACED_INTERVAL_S) as clock, ctx.tracer.span("table") as sid:
        for b in range(budget + 1):
            with ctx.tracer.span(f"brackets.level.{b}"):
                keys[b] = lab.cache_warm(cfg, budget=b, cache=cache).entries_new
        with ctx.tracer.span("brackets.save"):
            brackets.cache_save(path, cache)
    return cache, path, keys, {sid: clock.scale}


def check_table(ctx: Context, path: Path, budget: int) -> None:
    digest = oracles.sha256_file(path)
    ctx.tally.check(
        digest == ctx.digests["brackets"][str(budget)],
        f"brackets.txt at budget {budget}: sha256 {digest}",
    )


def end_to_end(ctx: Context, preps: List[SpeedClock], passes: List[SpeedClock], what: str) -> Result:
    """The untraced result: medians at reference speed, and their plain wall times."""

    def median(clocks: List[SpeedClock], attr: str) -> float:
        return statistics.median(getattr(c, attr) for c in clocks)

    metrics = {
        "setup_s": (ctx.import_s + median(preps, "seconds"), "s"),
        "pass_s": (median(passes, "seconds"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    wall = {
        "setup_s": ctx.import_wall_s + median(preps, "raw"),
        "pass_s": median(passes, "raw"),
    }
    summary = f"{what} = {metrics['pass_s'][0]:.3f} s at reference speed, {len(passes)} pass(es)"
    return Result(metrics, preps, passes, wall, summary)


def timed_setups(prep: Callable[[], object]) -> Tuple[List[SpeedClock], object]:
    """Run the set-up SETUP_REPEATS times; returns the clocks and the last result."""
    clocks, out = [], None
    for _ in range(SETUP_REPEATS):
        out = None  # free the previous table first
        with SpeedClock() as clock:
            out = prep()
        clocks.append(clock)
    return clocks, out


def table_metrics(ctx: Context, cache: brackets.BracketCache) -> Metrics:
    """
    Rat mul/add and eval_numeric rates at reference speed on operands drawn
    from the table by the seed, and the table's largest numerator and
    denominator.
    """
    rng = random.Random(ctx.seed)
    keys = sorted(k for k, v in cache.entries.items() if v)
    picks = [rng.choice(keys) for _ in range(2 * MICRO_PAIRS)]
    values = [cache.entries[k] for k in picks]
    pairs = list(zip(values[::2], values[1::2]))

    def rate(body: Callable[[], None]) -> float:
        runs = []
        for _ in range(5):
            with SpeedClock() as clock:
                body()
            runs.append(len(pairs) / clock.seconds)
        return statistics.median(runs)

    def muls():
        for a, b in pairs:
            a * b

    def adds():
        for a, b in pairs:
            a + b

    scalars = [
        exact.PiScalar(cache.entries[k], brackets.pideg_of_key(k)) for k in picks[:MICRO_EVALS]
    ]

    def eval_us(digits: int) -> float:
        runs = []
        for _ in range(4):
            with SpeedClock() as clock:
                for s in scalars:
                    exact.eval_numeric(s, digits)
            runs.append(clock.seconds / len(scalars) * 1e6)
        return statistics.median(runs[1:])  # the first run fills mpmath's caches

    entries = cache.entries.values()
    return {
        "exact.rat_mul_per_s": (rate(muls), "1/s"),
        "exact.rat_add_per_s": (rate(adds), "1/s"),
        "exact.eval_numeric_us.d30": (eval_us(30), "us"),
        "exact.eval_numeric_us.d100": (eval_us(100), "us"),
        "brackets.max_num_bits": (max(abs(int(v.numerator)).bit_length() for v in entries), "bits"),
        "brackets.max_den_bits": (max(int(v.denominator).bit_length() for v in entries), "bits"),
    }


def layer_metrics(
    ctx: Context,
    roots: Dict[int, float],
    table_root: Dict[int, float],
    level_keys: Dict[int, int],
    rows: List[int],
    overhead: float,
) -> Metrics:
    """
    Every per-layer metric: medians over the traced passes (`roots`) and,
    for the level and save spans, the table build (`table_root`); each
    maps its root span to the scale of its clock, so span seconds are at
    reference speed like the end-to-end times.  A layer the workload
    never calls reads 0.
    """
    passes = ctx.tracer.per_root(roots)
    table = ctx.tracer.per_root(table_root)

    def per_pass(names: List[str], field: int = SELF) -> float:
        return median_over(passes, names, field)

    evals = [n for n in ctx.tracer.names() if n.startswith("exact.eval_numeric.")]
    out: Metrics = {}
    for b in LEVELS:
        out[f"brackets.level_s.{b}"] = (median_over(table, [f"brackets.level.{b}"]), "s")
        out[f"brackets.level_keys.{b}"] = (level_keys.get(b, 0), "count")
    out["brackets.save_s"] = (median_over(table, ["brackets.save"]), "s")
    out["brackets.load_s"] = (per_pass(["brackets.load"]), "s")
    out["brackets.load_calls"] = (per_pass(["brackets.load"], CALLS), "count")
    out["exact.eval_numeric_s"] = (per_pass(evals), "s")
    out["exact.eval_numeric_calls"] = (per_pass(evals, CALLS), "count")
    out["exact.eval_numeric_s.d100"] = (per_pass(["exact.eval_numeric.d100"]), "s")
    for exp in SWEEP_EXPERIMENTS:
        out[f"lab.exp_s.{exp}"] = (per_pass([f"lab.exp.{exp}"], TOTAL), "s")
    out["lab.csv_s"] = (per_pass(["lab.rows_to_csv"]), "s")
    out["lab.rows"] = (statistics.median(rows) if rows else 0, "count")
    out["random_model.split_sums_s"] = (
        per_pass(["random_model.cheeger_prob_upper", "random_model.pvol2_sum"]),
        "s",
    )
    out["topology.enumerate_splits_s"] = (per_pass(["topology.enumerate_splits"]), "s")
    out["topology.enumerate_splits_calls"] = (
        per_pass(["topology.enumerate_splits"], CALLS),
        "count",
    )
    out["volumes.volume_poly_s"] = (per_pass(["volumes.volume_poly"]), "s")
    out["volumes.volume_at_s"] = (per_pass(["volumes.volume_at"]), "s")
    out["random_model.expected_pants_count_s"] = (
        per_pass(["random_model.expected_pants_count"]),
        "s",
    )
    out["random_model.box_count_integral_s"] = (
        per_pass(["random_model.box_count_integral"]),
        "s",
    )
    out["trace.overhead"] = (overhead, "s")
    return out


# ---------------------------------------------------------------------------
# warm-cold
# ---------------------------------------------------------------------------


def warm_cold(ctx: Context) -> Result:
    def fresh(_i: int = 0):
        return brackets.BracketCache(), tempfile.mkdtemp(dir=ctx.workdir)

    def one_pass(state):
        cache, d = state
        cfg = lab.LabConfig(budget=COLD_BUDGET, cache_dir=d)
        return lab.cache_warm(cfg, budget=COLD_BUDGET, cache=cache)

    def check(state, stats) -> None:
        check_table(ctx, Path(stats.path), COLD_BUDGET)

    preps, _ = timed_setups(fresh)
    passes, _ = measure(ctx, fresh, one_pass, check)
    if not ctx.trace:
        return end_to_end(ctx, preps, passes, "warm_s")

    # The overhead compares the same cold warm traced and untraced; the
    # level breakdown comes from one level-by-level build of the table.
    traced, roots = measure_traced(ctx, fresh, one_pass, check)
    overhead = median_s(traced) - median_s(passes)
    cache, path, keys, table_root = ladder_table(ctx, COLD_BUDGET)
    check_table(ctx, path, COLD_BUDGET)
    metrics = layer_metrics(ctx, roots, table_root, keys, [], overhead)
    metrics.update(table_metrics(ctx, cache))
    summary = f"cold warm {median_s(passes):.3f} s untraced, {median_s(traced):.3f} s traced; level ladder built once"
    return Result(metrics, preps, traced, {}, summary)


# ---------------------------------------------------------------------------
# lab-sweep
# ---------------------------------------------------------------------------


def sweep_orders(seed: int) -> Iterator[List[str]]:
    """The experiment order of each successive pass, shuffled by the seed."""
    rng = random.Random(seed)
    while True:
        order = list(SWEEP_EXPERIMENTS)
        rng.shuffle(order)
        yield order


def run_cli(ctx: Context, exp: str, out_path: Path):
    """`wplab <exp> --budget 12 --out PATH` in process; an exception is returned, not raised."""
    argv = [exp, "--budget", str(TABLE_BUDGET), "--out", str(out_path)]
    brackets.default_cache().clear()
    try:
        if not ctx.tracing:
            return cli.main(argv)
        with ctx.tracer.span(f"lab.exp.{exp}"):
            return cli.main(argv)
    except Exception as exc:
        return exc


def check_csv(ctx: Context, exp: str, code, path: Path) -> int:
    """Exit code and CSV digest of one experiment; returns its row count and removes the file."""
    if code != 0 or not path.is_file():
        ctx.tally.check(False, f"{exp}: exit {code!r}")
        path.unlink(missing_ok=True)
        return 0
    digest = oracles.sha256_file(path)
    ctx.tally.check(digest == ctx.digests["csv"][exp], f"{exp}: CSV sha256 {digest}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1
    path.unlink()
    return rows


def setup_table(ctx: Context, load: bool):
    """
    The budget-12 table of lab-sweep and exact-ring: warmed and persisted
    (then loaded into a fresh cache when `load`), SETUP_REPEATS times
    untraced, or once level by level when tracing.
    Returns (set-up clocks, path, cache, level keys, {table span: scale}).
    """
    def prep():
        cache, path = warm_table(ctx, TABLE_BUDGET)
        if load:
            cache = brackets.BracketCache()
            brackets.cache_load(path, cache)
        return cache, path

    if ctx.trace:
        cache, path, keys, root = ladder_table(ctx, TABLE_BUDGET)
        preps = []
    else:
        preps, (cache, path) = timed_setups(prep)
        keys, root = {}, {}
    check_table(ctx, path, TABLE_BUDGET)
    return preps, path, cache, keys, root


def lab_sweep(ctx: Context) -> Result:
    preps, path, cache, keys, table_root = setup_table(ctx, load=False)
    out_dir = Path(tempfile.mkdtemp(dir=ctx.workdir))
    orders = sweep_orders(ctx.seed)
    rows: List[int] = []

    def one_pass(order):
        return [(exp, run_cli(ctx, exp, out_dir / f"{exp}.csv")) for exp in order]

    def check(_order, codes) -> None:
        rows.append(sum(check_csv(ctx, exp, code, out_dir / f"{exp}.csv") for exp, code in codes))

    previous = os.environ.get("WPLAB_CACHE")
    os.environ["WPLAB_CACHE"] = str(path.parent)
    try:
        passes, _ = measure(ctx, lambda i: next(orders), one_pass, check)
        if ctx.trace:
            traced, roots = measure_traced(ctx, lambda i: next(orders), one_pass, check)
    finally:
        if previous is None:
            del os.environ["WPLAB_CACHE"]
        else:
            os.environ["WPLAB_CACHE"] = previous
    if not ctx.trace:
        return end_to_end(ctx, preps, passes, "sweep_pass_s")
    overhead = median_s(traced) - median_s(passes)
    metrics = layer_metrics(ctx, roots, table_root, keys, rows[len(passes):], overhead)
    metrics.update(table_metrics(ctx, cache))
    return Result(metrics, preps, traced, {}, f"{len(passes)} untraced and {len(traced)} traced passes")


# ---------------------------------------------------------------------------
# exact-ring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingInput:
    """Seed-drawn inputs of one pass: lengths r_i (x_i = r_i pi) per (g, n), and L = cutoff pi."""

    lengths: Dict[Tuple[int, int], Tuple[Fraction, ...]]
    cutoff: Fraction


def ring_grid(budget: int = TABLE_BUDGET) -> List[Tuple[int, int]]:
    """Every stable (g, n) with 3g-3+n <= budget."""
    return [
        (g, n)
        for g in range(budget // 3 + 2)
        for n in range(max(0, budget - 3 * g + 4))
        if brackets.stable(g, n) and 3 * g - 3 + n <= budget
    ]


def ring_inputs(seed: int, grid: List[Tuple[int, int]]) -> Iterator[RingInput]:
    """Lengths (p/q) pi with p, q in 1..9 for n <= 7, and L = (p/30) pi with p in 1..15."""
    rng = random.Random(seed)
    while True:
        lengths = {
            (g, n): tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n))
            for g, n in grid
            if n <= RING_MAX_N
        }
        yield RingInput(lengths, Fraction(rng.randint(1, 15), 30))


def ring_pass(cache: brackets.BracketCache, grid, inp: RingInput):
    """One pass over the grid; calls go through module attributes so tracing sees them."""
    cutoff = random_model.CutoffLength.pi_multiple(inp.cutoff)
    out = []
    for g, n in grid:
        poly = volumes.volume_poly(g, n, cache)
        at = box = None
        if n <= RING_MAX_N:
            xs = [exact.PiScalar(exact.rat(r.numerator, r.denominator), 1) for r in inp.lengths[(g, n)]]
            at = volumes.volume_at(g, n, xs, cache)
            box = exact.eval_numeric(at, RING_DIGITS)
        pants = [
            (k, random_model.expected_pants_count(g, n, k, cutoff, RING_DIGITS, None, cache))
            for k in (1, 2, 3)
            if n >= 2 * k and brackets.stable(g, n - k)
        ]
        out.append((g, n, poly, at, box, pants))
    return out


def check_ring(tally: Tally, entries, inp: RingInput, out) -> None:
    """Every exact result of a pass against the oracles, which read `entries` only."""
    for g, n, poly, at, box, pants in out:
        sig = f"({g},{n})"
        tally.check(oracles.check_volume_poly(poly, entries, g, n), f"volume_poly{sig}")
        if at is not None:
            want = oracles.volume_at_oracle(entries, g, n, inp.lengths[(g, n)])
            pideg = 2 * (3 * g - 3 + n)
            tally.check(oracles.poly_is(at, want, pideg), f"volume_at{sig}")
            tally.check(oracles.interval_holds(box, want, pideg, RING_DIGITS), f"eval_numeric(volume_at{sig})")
        for k, res in pants:
            want = oracles.pants_oracle(entries, g, n, k, inp.cutoff)
            tally.check(oracles.poly_is(res.exact, want, 0), f"expected_pants_count{sig} k={k}")
            tally.check(
                oracles.interval_holds(res.numeric, want, 0, RING_DIGITS),
                f"expected_pants_count{sig} k={k} numeric",
            )


def exact_ring(ctx: Context) -> Result:
    preps, path, cache, keys, table_root = setup_table(ctx, load=True)
    entries = oracles.read_table(path)
    grid = ring_grid()
    inputs = ring_inputs(ctx.seed, grid)

    def one_pass(inp):
        try:
            return ring_pass(cache, grid, inp)
        except Exception as exc:
            return exc

    def check(inp, out) -> None:
        if isinstance(out, Exception):
            ctx.tally.check(False, f"ring pass raised {out!r}")
        else:
            check_ring(ctx.tally, entries, inp, out)

    passes, _ = measure(ctx, lambda i: next(inputs), one_pass, check)
    if not ctx.trace:
        return end_to_end(ctx, preps, passes, "ring_pass_s")
    traced, roots = measure_traced(ctx, lambda i: next(inputs), one_pass, check)
    overhead = median_s(traced) - median_s(passes)
    metrics = layer_metrics(ctx, roots, table_root, keys, [], overhead)
    metrics.update(table_metrics(ctx, cache))
    return Result(metrics, preps, traced, {}, f"{len(passes)} untraced and {len(traced)} traced passes")


WORKLOADS: Dict[str, Callable[[Context], Result]] = {
    "warm-cold": warm_cold,
    "lab-sweep": lab_sweep,
    "exact-ring": exact_ring,
}
