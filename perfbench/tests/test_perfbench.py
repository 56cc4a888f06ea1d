"""
Tests of the benchmark's own logic, on budget-8 tables so they stay fast:

    python3 -m pytest perfbench/tests -q
"""

import itertools
from fractions import Fraction

import pytest

import oracles
import workloads
from speed import SpeedClock
from tracing import CALLS, SELF, TOTAL, Tracer, median_over

SMALL = 8


@pytest.fixture
def ctx(tmp_path):
    return workloads.Context(
        seed=7, seconds=0.0, trace=True, workdir=tmp_path, import_s=0.0, import_wall_s=0.0,
        digests=oracles.load_digests(),
    )


@pytest.fixture
def table(ctx):
    """A budget-8 table warmed cold and persisted."""
    return workloads.warm_table(ctx, SMALL)


def corrupt_first_value(path):
    """Replace the numerator of the first nonzero entry by 1 more."""
    lines = path.read_text(encoding="utf-8").split("\n")
    for i, line in enumerate(lines[1:], start=1):
        g, counts, value = line.split("|")
        num, rest = value.split("/", 1)
        if num != "0":
            lines[i] = f"{g}|{counts}|{int(num) + 1}/{rest}"
            break
    path.write_text("\n".join(lines), encoding="utf-8")


def test_table_digest_passes_then_fails_on_a_corrupted_table(ctx, table):
    _, path = table
    workloads.check_table(ctx, path, SMALL)
    assert (ctx.tally.attempted, ctx.tally.failed) == (1, 0)
    corrupt_first_value(path)
    workloads.check_table(ctx, path, SMALL)
    assert (ctx.tally.attempted, ctx.tally.failed) == (2, 1)


def test_csv_check_fails_on_a_corrupted_row_or_a_bad_exit(ctx, tmp_path):
    path = tmp_path / "volume-table.csv"
    good = "experiment,input\nvolume-table,\"(0,3)\"\n"
    path.write_text(good, encoding="utf-8")
    ctx.digests["csv"]["volume-table"] = oracles.sha256_file(path)
    assert workloads.check_csv(ctx, "volume-table", 0, path) == 1
    path.write_text(good.replace("(0,3)", "(0,4)"), encoding="utf-8")
    workloads.check_csv(ctx, "volume-table", 0, path)
    path.write_text(good, encoding="utf-8")
    workloads.check_csv(ctx, "volume-table", 3, path)
    assert (ctx.tally.attempted, ctx.tally.failed) == (3, 2)


def test_level_ladder_reproduces_the_cold_table_bytes(ctx, table):
    _, cold = table
    _, path, keys, _ = workloads.ladder_table(ctx, SMALL)
    assert path.read_bytes() == cold.read_bytes()
    assert oracles.sha256_file(path) == ctx.digests["brackets"][str(SMALL)]
    assert sum(keys.values()) == len(oracles.read_table(path))


def test_independent_table_reader_matches_the_cache(table):
    cache, path = table
    parsed = oracles.read_table(path)
    assert parsed == {k: oracles.frac(v) for k, v in cache.entries.items()}


def test_ring_pass_meets_every_oracle(ctx, table):
    cache, path = table
    grid = workloads.ring_grid(SMALL)
    inp = next(workloads.ring_inputs(3, grid))
    out = workloads.ring_pass(cache, grid, inp)
    workloads.check_ring(ctx.tally, oracles.read_table(path), inp, out)
    assert ctx.tally.failed == 0, ctx.tally.reasons
    assert ctx.tally.attempted > 3 * len(grid)


def test_ring_oracles_fail_on_corrupted_results(ctx, table):
    cache, path = table
    entries = oracles.read_table(path)
    grid = [(1, 4)]
    inp = next(workloads.ring_inputs(5, grid))
    ((g, n, poly, at, box, pants),) = workloads.ring_pass(cache, grid, inp)
    exact = workloads.exact
    bump = exact.PiPoly({0: exact.rat(1, 10 ** 40)})
    poly.coeffs[(1,)] = poly.coeffs[(1,)] * 2
    k, res = pants[0]
    res.exact = res.exact + bump
    corrupted = [(g, n, poly, at + bump, box, [(k, res)])]
    workloads.check_ring(ctx.tally, entries, inp, corrupted)
    assert ctx.tally.reasons == [
        "volume_poly(1,4)",
        "volume_at(1,4)",
        "expected_pants_count(1,4) k=1",
    ]


def test_oracles_fail_on_a_corrupted_table(ctx, table):
    cache, path = table
    grid = [(1, 4)]
    inp = next(workloads.ring_inputs(5, grid))
    out = workloads.ring_pass(cache, grid, inp)
    entries = oracles.read_table(path)
    entries[(1, 4, (1,))] += 1
    workloads.check_ring(ctx.tally, entries, inp, out)
    assert ctx.tally.failed >= 3


def test_seeded_inputs_are_deterministic():
    grid = workloads.ring_grid()
    a = list(itertools.islice(workloads.ring_inputs(11, grid), 3))
    b = list(itertools.islice(workloads.ring_inputs(11, grid), 3))
    c = list(itertools.islice(workloads.ring_inputs(12, grid), 3))
    assert a == b and a != c
    assert all(0 < x.cutoff <= Fraction(1, 2) for x in a)
    assert all(len(v) == n for x in a for (g, n), v in x.lengths.items())
    orders = list(itertools.islice(workloads.sweep_orders(11), 4))
    assert orders == list(itertools.islice(workloads.sweep_orders(11), 4))
    assert orders != list(itertools.islice(workloads.sweep_orders(12), 4))
    assert all(sorted(o) == sorted(workloads.SWEEP_EXPERIMENTS) for o in orders)


def test_ring_grid_is_every_stable_signature_within_budget():
    grid = workloads.ring_grid(12)
    assert len(grid) == len(set(grid)) == 47
    assert (0, 15) in grid and (5, 0) in grid and (1, 0) not in grid


class _Mod:
    @staticmethod
    def leaf(x):
        return x

    @staticmethod
    def outer(x):
        return _Mod.leaf(x) + 1


def test_tracer_self_time_and_restore():
    tr = Tracer()
    original = _Mod.leaf
    tr.wrap(_Mod, "leaf", "leaf")
    with tr.span("pass") as root:
        with tr.span("outer"):
            _Mod.outer(1)
            _Mod.outer(2)
    tr.restore()
    assert _Mod.leaf is original
    table = tr.per_root({root: 1.0})
    assert median_over(table, ["leaf"], CALLS) == 2
    outer_total = median_over(table, ["outer"], TOTAL)
    leaf_total = median_over(table, ["leaf"], TOTAL)
    assert median_over(table, ["outer"], SELF) == pytest.approx(outer_total - leaf_total)
    doubled = tr.per_root({root: 2.0})
    assert median_over(doubled, ["leaf"], CALLS) == 2
    assert median_over(doubled, ["outer"], TOTAL) == pytest.approx(2 * outer_total)
    assert median_over(doubled, ["outer"], SELF) == pytest.approx(2 * (outer_total - leaf_total))


def test_benchmark_json_lists_exactly_the_metrics_the_runs_print(ctx, table):
    import json
    from pathlib import Path

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    with SpeedClock() as clock:
        pass
    e2e = workloads.end_to_end(ctx, [clock], [clock], "pass_s")
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {n: u for n, (_, u) in e2e.metrics.items()}
    assert set(e2e.wall) == {"setup_s", "pass_s"}
    layers = workloads.layer_metrics(ctx, {}, {}, {}, [], 0.0)
    layers.update(workloads.table_metrics(ctx, table[0]))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: u for n, (_, u) in layers.items()}


def test_speed_clock_leaves_out_its_samples_and_restores_the_handler():
    import gc
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with SpeedClock(0.01) as clock:
        while time.perf_counter() - t0 < 0.2:
            pass
    wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 5
    assert 0 < clock.raw < wall - clock.in_block + 1e-6
    assert clock.seconds == pytest.approx(clock.raw * clock.scale)
    assert gc.isenabled()


def test_speed_reference_runs_without_the_garbage_collector(monkeypatch):
    import gc

    import speed

    seen = []
    monkeypatch.setattr(speed, "_reference", lambda: seen.append(gc.isenabled()))
    clock = SpeedClock()
    clock._sample()
    gc.disable()
    try:
        clock._sample()
    finally:
        gc.enable()
    assert seen == [False, False] and gc.isenabled()


def test_compare_refuses_results_from_different_backends(tmp_path, capsys):
    import json

    import compare

    def record(name, backend, value):
        path = tmp_path / name
        path.write_text(json.dumps({
            "workload": "lab-sweep", "trace": 0, "failed": 0,
            "machine": {"rat_backend": backend},
            "metrics": {"pass_s": {"value": value, "unit": "s"}},
        }))
        return str(path)

    base = record("a.json", "fraction", 1.0)
    assert compare.main(["--base", base, "--new", record("b.json", "fraction", 1.1)]) == 0
    assert "+10.00%" in capsys.readouterr().out
    assert compare.main(["--base", base, "--new", record("c.json", "gmpy2", 0.2)]) == 2


def test_summarise_gives_quartiles_of_values_and_wall_times(tmp_path):
    import json

    import summarise

    paths = []
    for seed, value in zip(range(5), (1.0, 2.0, 3.0, 4.0, 5.0)):
        path = tmp_path / f"{seed}.json"
        path.write_text(json.dumps({
            "workload": "exact-ring", "seed": 4 - seed, "trace": 0, "seconds": 10,
            "attempted": 3, "failed": 0, "machine": {"rat_backend": "fraction"},
            "metrics": {"pass_s": {"value": value, "unit": "s"}, "peak_rss_mb": {"value": 40.0, "unit": "MB"}},
            "wall": {"pass_s": 2 * value},
        }))
        paths.append(str(path))
    out = tmp_path / "summary.json"
    assert summarise.main(["--out", str(out), *paths]) == 0
    ring = json.loads(out.read_text())["workloads"]["exact-ring"]
    assert ring["seeds"] == [0, 1, 2, 3, 4] and ring["attempted"] == 15
    pass_s = ring["metrics"]["pass_s"]
    assert pass_s["values"] == [5.0, 4.0, 3.0, 2.0, 1.0]
    assert (pass_s["q1"], pass_s["median"], pass_s["q3"]) == (1.5, 3.0, 4.5)
    assert pass_s["iqr_share"] == 1.0
    assert pass_s["wall"]["median"] == 6.0
    assert "wall" not in ring["metrics"]["peak_rss_mb"]
