import os
import subprocess
import sys
from pathlib import Path

import pytest

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
