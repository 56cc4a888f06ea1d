import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from wplab import brackets, cli, lab, random_model
from wplab.brackets import BracketCache, cache_load
from wplab.lab import (
    EXPERIMENTS,
    LabConfig,
    cache_warm,
    load_config_file,
    resolve_config,
    rows_to_csv,
    rows_to_json,
    run_experiment,
)


def _wplab(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("WPLAB_CACHE", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "wplab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def test_unknown_experiment_usage_error() -> None:
    proc = _wplab(["no-such-experiment"])
    assert proc.returncode == 1
    assert "valid names" in proc.stderr
    assert "identity" in proc.stderr


def test_bad_flag_usage_error() -> None:
    proc = _wplab(["identity", "--budget", "not-a-number"])
    assert proc.returncode == 1
    proc = _wplab(["identity", "--L", "2.5"])
    assert proc.returncode == 1
    proc = _wplab(["identity", "--budget", "0"])
    assert proc.returncode == 1


@pytest.mark.parametrize(
    "args, message",
    [
        (["identity", "--budget", "4", "--L", "1/0"], "malformed cutoff '1/0'"),
        (["cheeger-upper", "--budget", "4", "--C", "0"], "C must be positive"),
        (["pvol2", "--budget", "4", "--u", "1"], "u must lie in"),
        (["volume-table", "--budget", "4", "--gmin", "3", "--gmax", "1"], "gmin 3 > gmax 1"),
        (["volume-table", "--budget", "4", "--nmin", "5", "--nmax", "2"], "nmin 5 > nmax 2"),
        (["poisson-moments", "--budget", "8", "--a", "-4"], "a must be >= 0"),
        (["volume-table", "--budget", "6", "--gmin", "-1"], "gmin must be >= 0, got -1"),
        (["volume-table", "--budget", "6", "--gmax", "-1"], "gmax must be >= 0, got -1"),
        (["volume-table", "--budget", "6", "--nmin", "-3"], "nmin must be >= 0, got -3"),
        (["volume-table", "--budget", "6", "--nmax", "-2"], "nmax must be >= 0, got -2"),
        (
            ["volume-table", "--budget", "1", "--gmin", "1", "--gmax", "1", "--nmax", "0"],
            "no stable signature (g,n) with 1 <= g <= 1 and 0 <= n <= 0",
        ),
    ],
)
def test_bad_value_one_line_error(args, message) -> None:
    proc = _wplab(args)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("wplab: error:") and message in last


def test_unwritable_out_one_line_error(tmp_path) -> None:
    out = tmp_path / "missing-dir" / "x.csv"
    proc = _wplab(["identity", "--budget", "3", "--out", str(out)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("wplab: error: cannot write --out")
    assert not out.exists()


def test_out_checked_before_computing(tmp_path) -> None:
    # the grid is beyond the budget: a late --out check would exit 2
    out = tmp_path / "missing-dir" / "x.csv"
    proc = _wplab(["volume-table", "--budget", "4", "--gmin", "3", "--out", str(out)])
    assert proc.returncode == 1
    assert proc.stderr.startswith("wplab: error: cannot write --out")
    assert not out.exists()
    # a writable --out is left as it was when the experiment then fails
    out = tmp_path / "x.csv"
    out.write_text("previous\n")
    proc = _wplab(["volume-table", "--budget", "4", "--gmin", "3", "--out", str(out)])
    assert proc.returncode == 2
    assert out.read_text() == "previous\n"
    new = tmp_path / "new.csv"
    proc = _wplab(["volume-table", "--budget", "4", "--gmin", "3", "--out", str(new)])
    assert proc.returncode == 2
    assert not new.exists()


def test_budget_exceeded_exit_code() -> None:
    proc = _wplab(["volume-table", "--budget", "6", "--gmin", "20"])
    assert proc.returncode == 2
    assert "budget" in proc.stderr


def test_demand_driven_experiment_past_budget_22_prints_no_warning(capsys, monkeypatch) -> None:
    # the experiment builds only the slices its small grid reads, not the closure
    monkeypatch.delenv("WPLAB_CACHE", raising=False)
    monkeypatch.setattr(brackets, "_default_cache", BracketCache())
    assert cli.main(["volume-table", "--budget", "30", "--gmax", "2", "--nmax", "2"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    # the header and (1,1), (1,2), (2,0), (2,1), (2,2)
    assert out.count("\n") == 6


@pytest.mark.parametrize("budget, warned", [(22, False), (23, True)])
def test_cache_warm_past_budget_22_warns(budget, warned, capsys, monkeypatch) -> None:
    # the warning comes before the warm, so a stub stands in for a budget-23 closure
    monkeypatch.delenv("WPLAB_CACHE", raising=False)
    monkeypatch.setattr(lab, "cache_warm", lambda cfg: lab.WarmStats(0, 0, 0.0, None))
    assert cli.main(["cache-warm", "--budget", str(budget)]) == 0
    err = capsys.readouterr().err
    assert (f"budget {budget} > 22; the bracket closure grows steeply" in err) is warned
    assert err.count("\n") == warned


@pytest.mark.parametrize(
    "args, message",
    [
        (["volume-table", "--budget", "2", "--nmin", "0", "--nmax", "0"], "(2,0) needs budget 3 > 2"),
        (["mz-ratio", "--budget", "2", "--nmin", "0", "--nmax", "0"], "(2,1) needs budget 4 > 2"),
    ],
)
def test_empty_grid_names_least_stable_signature(args, message) -> None:
    proc = _wplab(args)
    assert proc.returncode == 2
    assert proc.stderr == f"wplab: budget exceeded: signature {message}\n"


def test_bad_config_value_names_its_key(tmp_path) -> None:
    cfg_file = tmp_path / "lab.cfg"
    cfg_file.write_text("budget = x\n", encoding="utf-8")
    proc = _wplab(["identity", "--config", str(cfg_file)])
    assert proc.returncode == 1
    assert proc.stderr == "wplab: error: config budget: expected an integer, got 'x'\n"


def test_identity_experiment_and_exit_codes(tmp_path) -> None:
    proc = _wplab(["identity", "--budget", "4", "--format", "csv"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("experiment,input,")
    assert all(",PASS," in line for line in lines[1:])


def test_poisoned_cache_fails_identity(tmp_path) -> None:
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    # value has the right pi-degree but a wrong coefficient
    (cache_dir / "brackets.txt").write_text(
        "wpbracket v1\n0|0:4|3/1*pi^2\n", encoding="utf-8"
    )
    proc = _wplab(
        ["identity", "--budget", "4"], env_extra={"WPLAB_CACHE": str(cache_dir)}
    )
    assert proc.returncode == 3
    assert "internal check" in proc.stderr
    # the first failing row, with its exact residual
    assert "identity row (0,4) failed, residual 1/19*pi^-2" in proc.stderr


def test_zero_denominator_cache_one_line_error(tmp_path) -> None:
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / "brackets.txt").write_text("wpbracket v1\n0|0:4|1/0*pi^2\n", encoding="utf-8")
    proc = _wplab(["identity", "--budget", "4"], env_extra={"WPLAB_CACHE": str(cache_dir)})
    assert proc.returncode == 1
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("wplab: error:")
    assert "brackets.txt: line 2: zero denominator" in lines[0]


def test_table_free_experiment_skips_the_table_load(tmp_path) -> None:
    # geometry-constants reads no bracket, so a corrupt table it never
    # uses neither fails it nor changes its rows
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / "brackets.txt").write_text("wpbracket v1\n0|0:4|1/0*pi^2\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "wplab.cli", "geometry-constants", "--budget", "12"],
        capture_output=True,
        env=dict(os.environ, WPLAB_CACHE=str(cache_dir)),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    golden = Path(__file__).resolve().parent / "golden" / "budget12" / "geometry-constants.csv"
    assert proc.stdout == golden.read_bytes()
    proc = _wplab(["identity", "--budget", "4"], env_extra={"WPLAB_CACHE": str(cache_dir)})
    assert proc.returncode == 1
    assert "brackets.txt: line 2: zero denominator" in proc.stderr


def test_negative_cache_value_one_line_error(tmp_path) -> None:
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / "brackets.txt").write_text("wpbracket v1\n0|0:4|-2/1*pi^2\n", encoding="utf-8")
    proc = _wplab(["identity", "--budget", "4"], env_extra={"WPLAB_CACHE": str(cache_dir)})
    assert proc.returncode == 1
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("wplab: error:")
    assert "brackets.txt: line 2: value '-2/1*pi^2' is not positive" in lines[0]


def test_noncanonical_zero_cache_one_line_error(tmp_path) -> None:
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    # V_{0,4} = 2 pi^2 read as a zero: at pi-degree 5, or in the form
    # cache_save writes a zero
    for value in ("0/1*pi^5", "0/1*pi^0"):
        (cache_dir / "brackets.txt").write_text(f"wpbracket v1\n0|0:4|{value}\n", encoding="utf-8")
        proc = _wplab(["volume-table", "--budget", "1"], env_extra={"WPLAB_CACHE": str(cache_dir)})
        assert proc.returncode == 1
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("wplab: error:")
        assert f"brackets.txt: line 2: value '{value}' is not positive" in lines[0]


def test_csv_byte_determinism_across_runs_and_threads() -> None:
    base = _wplab(["mz-ratio", "--budget", "5"])
    again = _wplab(["mz-ratio", "--budget", "5"])
    threaded = _wplab(["mz-ratio", "--budget", "5", "--threads", "4"])
    assert base.returncode == again.returncode == threaded.returncode == 0
    assert base.stdout == again.stdout == threaded.stdout


def test_json_output_and_out_file(tmp_path) -> None:
    out = tmp_path / "rows.json"
    proc = _wplab(["ratio-R", "--budget", "5", "--format", "json", "--out", str(out)])
    assert proc.returncode == 0
    import json

    rows = json.loads(out.read_text())
    assert rows and set(rows[0]) == {
        "experiment",
        "input",
        "exact",
        "numeric",
        "reference",
        "deviation",
        "status",
        "warnings",
    }
    assert all(r["status"] == "PASS" for r in rows)


def test_config_file_and_precedence(tmp_path) -> None:
    cfg_file = tmp_path / "lab.cfg"
    cache_a = tmp_path / "a"
    cfg_file.write_text(
        f"budget = 5\ncache_dir = {cache_a}\n# comment\nthreads = 2\n",
        encoding="utf-8",
    )
    values = load_config_file(cfg_file)
    assert values == {"budget": "5", "cache_dir": str(cache_a), "threads": "2"}

    cfg = resolve_config({"budget": None}, values)
    assert cfg.budget == 5 and cfg.threads == 2 and cfg.cache_dir == str(cache_a)

    # flag beats file
    cfg = resolve_config({"budget": 4}, values)
    assert cfg.budget == 4

    # file beats env
    os.environ["WPLAB_CACHE"] = str(tmp_path / "env")
    try:
        cfg = resolve_config({}, values)
        assert cfg.cache_dir == str(cache_a)
        cfg = resolve_config({}, None)
        assert cfg.cache_dir == str(tmp_path / "env")
    finally:
        del os.environ["WPLAB_CACHE"]

    with pytest.raises(ValueError, match="unknown config keys"):
        resolve_config({}, {"bogus": "1"})
    with pytest.raises(ValueError, match="key = value"):
        bad = tmp_path / "bad.cfg"
        bad.write_text("just some text\n", encoding="utf-8")
        load_config_file(bad)


def test_cache_warm_signature_closure(tmp_path) -> None:
    cache = BracketCache()
    cfg = LabConfig(budget=3, cache_dir=str(tmp_path / "warm"))
    stats = cache_warm(cfg, cache=cache)
    assert stats.entries_new == stats.entries_total == len(cache)
    assert stats.path and Path(stats.path).is_file()
    signatures = {(g, n) for (g, n, _) in cache.entries}
    assert signatures == {
        (0, 3),
        (0, 4),
        (1, 1),
        (0, 5),
        (1, 2),
        (0, 6),
        (1, 3),
        (2, 0),
    } | {(2, 1)}  # (2,1) brackets feed the closed-surface value at (2,0)

    again = cache_warm(cfg, cache=cache)
    assert again.entries_new == 0  # idempotent re-warm

    loaded = BracketCache()
    assert cache_load(Path(stats.path), loaded) == stats.entries_total


def test_cache_warm_budget_zero() -> None:
    cache = BracketCache()
    stats = cache_warm(LabConfig(budget=1), budget=0, cache=cache)
    assert {(g, n) for (g, n, _) in cache.entries} == {(0, 3)}
    assert stats.entries_total == 1


def test_experiment_registry_complete() -> None:
    assert set(EXPERIMENTS) == {
        "volume-table",
        "mz-ratio",
        "ratio-R",
        "identity",
        "poisson-moments",
        "second-moment",
        "cheeger-upper",
        "pvol2",
        "two-curve",
        "geometry-constants",
        "lratio",
        "cache-warm",
    }


def test_help_lists_every_experiment_in_table_order() -> None:
    help_text = cli.build_parser().format_help()
    lines = [f"  {name:<20} {exp.doc}" for name, exp in EXPERIMENTS.items()]
    assert help_text.endswith("\n".join(lines) + "\n")


def test_rows_render_and_sorting() -> None:
    rows = run_experiment("geometry-constants", LabConfig(budget=2))
    assert rows == sorted(rows, key=lambda r: r.input)
    csv_text = rows_to_csv(rows)
    json_text = rows_to_json(rows)
    assert csv_text.splitlines()[0] == (
        "experiment,input,exact,numeric,reference,deviation,status,warnings"
    )
    assert json_text.endswith("\n")


def test_run_experiment_unknown_name() -> None:
    with pytest.raises(KeyError):
        run_experiment("bogus", LabConfig())


def test_sidecar_is_shared_across_processes(tmp_path) -> None:
    # the first process parses brackets.txt and writes its sidecar; the
    # second reads the sidecar, rewrites nothing and gives the same bytes
    cache_dir = tmp_path / "cache"
    cache_warm(LabConfig(budget=8, cache_dir=str(cache_dir)), cache=BracketCache())
    table = cache_dir / "brackets.txt"
    sidecar = cache_dir / "brackets.txt.idx"
    digest = hashlib.sha256(table.read_bytes()).hexdigest()
    assert not sidecar.exists()
    outputs = []
    for run in range(2):
        out = tmp_path / f"mz-ratio-{run}.csv"
        proc = _wplab(["mz-ratio", "--budget", "8", "--out", str(out)], env_extra={"WPLAB_CACHE": str(cache_dir)})
        assert proc.returncode == 0, proc.stderr
        assert sidecar.is_file()
        outputs.append((out.read_bytes(), sidecar.stat().st_ino, sidecar.read_bytes()))
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(table.read_bytes()).hexdigest() == digest


def test_cache_warm_skips_only_a_save_that_would_rewrite_the_same_table(tmp_path) -> None:
    cache_dir = tmp_path / "cache"
    path = cache_dir / "brackets.txt"
    cache = BracketCache()
    cache_warm(LabConfig(budget=4, cache_dir=str(cache_dir)), cache=cache)
    small = path.read_bytes()
    # a warm that adds nothing over the file it saved leaves the file alone
    before = path.stat()
    assert cache_warm(LabConfig(budget=4, cache_dir=str(cache_dir)), cache=cache).entries_new == 0
    assert (path.stat().st_ino, path.stat().st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    # the table grows with no cache directory: the next warm adds nothing,
    # yet the file holds only the budget-4 table and must be saved
    cache_warm(LabConfig(budget=12), cache=cache)
    assert cache_warm(LabConfig(budget=12, cache_dir=str(cache_dir)), cache=cache).entries_new == 0
    assert path.read_bytes().count(b"\n") == 3322
    # a fresh table never read from the file saves over it too
    path.write_bytes(small)
    fresh = BracketCache()
    cache_warm(LabConfig(budget=12, cache_dir=str(cache_dir)), cache=fresh)
    assert path.read_bytes().count(b"\n") == 3322
    # and so does a table whose file was changed behind its back
    full = path.read_bytes()
    path.write_bytes(small)
    cache_warm(LabConfig(budget=12, cache_dir=str(cache_dir)), cache=fresh)
    assert path.read_bytes() == full


def test_second_cache_warm_process_leaves_the_file_alone(tmp_path) -> None:
    cache_dir = tmp_path / "cache"
    golden = Path(__file__).resolve().parent / "golden" / "budget12" / "cache-warm.csv"
    want = golden.read_text(encoding="utf-8").replace("<tmp>", str(cache_dir))
    table = cache_dir / "brackets.txt"
    seen = []
    for run in range(2):
        proc = _wplab(["cache-warm", "--budget", "12"], env_extra={"WPLAB_CACHE": str(cache_dir)})
        assert proc.returncode == 0, proc.stderr
        stat = table.stat()
        seen.append((stat.st_ino, stat.st_mtime_ns))
        # the second run loaded all 3 321 entries and added none
        assert proc.stdout == (want if run == 0 else want.replace(",3321,3321,", ",3321,0,"))
    assert seen[0] == seen[1]


def test_every_experiment_has_a_rank_reads_no_table_or_loads_in_full() -> None:
    ranks = {name: exp.rank for name, exp in EXPERIMENTS.items()}
    # only cache-warm loads the whole table, and only geometry-constants none
    assert [name for name, rank in ranks.items() if rank is None] == ["cache-warm"]
    assert [name for name, rank in ranks.items() if rank == -1] == ["geometry-constants"]
    assert set(ranks.values()) - {None, -1} <= {0, 1, 2, 3}
    # and only the identity exits 3 on a FAIL row
    assert [name for name, exp in EXPERIMENTS.items() if exp.hard_check] == ["identity"]


@pytest.fixture(scope="module", params=[12, 16])
def persisted(request, tmp_path_factory):
    """(budget, cache directory holding that budget's table)."""
    cache_dir = tmp_path_factory.mktemp(f"ranks{request.param}")
    cache_warm(LabConfig(budget=request.param, cache_dir=str(cache_dir)), cache=BracketCache())
    return request.param, cache_dir


def test_rank_limited_load_builds_no_slice_and_keeps_the_csv(persisted, monkeypatch) -> None:
    budget, cache_dir = persisted
    cfg = LabConfig(budget=budget, cache_dir=str(cache_dir))
    # every experiment but cache-warm, which loads the whole table; rank -1
    # loads nothing
    ranks = {name: exp.rank for name, exp in EXPERIMENTS.items() if exp.rank is not None}
    for name, rank in ranks.items():
        monkeypatch.setattr(brackets, "_default_cache", BracketCache())
        partial = rows_to_csv(run_experiment(name, cfg))
        table = brackets.default_cache()
        assert max((len(key[2]) for key in table.entries), default=-1) == rank, name
        assert not table.slices, f"{name} built {len(table.slices)} slices"
        # the same bytes from the whole table
        monkeypatch.setattr(brackets, "_default_cache", BracketCache())
        cache_load(cache_dir / "brackets.txt")
        assert rows_to_csv(run_experiment(name, cfg)) == partial, name


def test_table_short_of_the_budget_is_loaded_in_full(tmp_path, monkeypatch) -> None:
    cache_warm(LabConfig(budget=8, cache_dir=str(tmp_path)), cache=BracketCache())
    file = BracketCache()
    cache_load(tmp_path / "brackets.txt", file)
    volumes = [item for item in file.entries.items() if not item[0][2]]
    ranks = []

    def load(path, cache=None, rank=None):
        ranks.append(rank)
        return cache_load(path, cache, rank)

    monkeypatch.setattr(lab, "cache_load", load)
    # at budget 8 only the volumes; at 10 every entry of the file, beside
    # what the kernel adds
    for budget, loads in ((8, [0]), (10, [0, None])):
        ranks.clear()
        table = BracketCache()
        monkeypatch.setattr(brackets, "_default_cache", table)
        run_experiment("volume-table", LabConfig(budget=budget, cache_dir=str(tmp_path)))
        assert ranks == loads
        if budget == 8:
            assert list(table.entries.items()) == volumes
        else:
            assert file.entries.items() <= table.entries.items() and len(table) > len(file)


def test_weight_factor_memo_stays_bounded_over_every_experiment(persisted, monkeypatch) -> None:
    # the memo is keyed by (top, kmax, k, kind), top = 3g-3+n <= budget:
    # 9 box keys (kmax <= k <= 3) and 2 triangle keys (kmax 1, 2) per top
    budget, cache_dir = persisted
    memo = random_model._weight_factors
    memo.cache_clear()
    tracemalloc.start()
    try:
        for name in EXPERIMENTS:
            if name != "cache-warm":
                monkeypatch.setattr(brackets, "_default_cache", BracketCache())
                run_experiment(name, LabConfig(budget=budget, cache_dir=str(cache_dir)))
        monkeypatch.setattr(brackets, "_default_cache", BracketCache())
        size = memo.cache_info().currsize
        held = tracemalloc.get_traced_memory()[0]
        memo.cache_clear()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < size <= 11 * (budget + 1)
    # it holds about 18 KB at budget 12 and 46 KB at budget 16
    assert held < 256 * 1024
