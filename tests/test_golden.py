"""
Golden gate: `wplab <experiment> --budget 12` must reproduce the CSV bytes
committed in tests/golden/budget12 for every experiment, and the bracket
table that `cache-warm` persists must keep its sha256.

The tables that `cache_warm` persists at budgets 8, 10, 14, 16, 18 and
20 are pinned by sha256 as well, and so is the budget-12 table that a
ladder of warms on one cache leaves.

The cache-warm row names the cache path it wrote; its golden file holds
the placeholder `<tmp>` for that directory.  The other experiments run
against the table persisted by cache-warm, as `wplab` does with
WPLAB_CACHE set.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wplab.brackets import BracketCache
from wplab.lab import EXPERIMENTS, LabConfig, cache_warm

GOLDEN = Path(__file__).resolve().parent / "golden" / "budget12"
BRACKETS_SHA256 = "1c87a9c9364e6dbd73e1520891a8d7d0e165252d71428896cd37c049f6c70205"
BRACKETS_SHA256_BY_BUDGET = {
    8: "3fced0741298066889bb464f582f77a261a3868aa3b1e436a811e2cbb28b20c6",
    10: "ea142785cca904ded6bd979409262f741ce9bcaeb63b9a7568a9d70ea5a06fdf",
    14: "c76bf5b14a323d287afdad73011b2e0cd67e4e64340544e460fd39694790617a",
    16: "42b2739347ef09c6131f2f8e5e1a9ff72b4b1b85f5f26fbe0ba4f7e60abd669e",
    18: "fcb85b322cf49480d498b5dad8072b68c4cf3fa90144d57ad1caabd36b726f2a",
    20: "897f565c48a7c61a3d82e7bfee8b48c19c1c2dee073109582716e9eb5cb6cab7",
}


def _run(experiment: str, cache_dir: Path) -> bytes:
    env = dict(os.environ, WPLAB_CACHE=str(cache_dir))
    proc = subprocess.run(
        [sys.executable, "-m", "wplab.cli", experiment, "--budget", "12"],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0, (
        f"{experiment}: exit {proc.returncode}: {proc.stderr.decode()}"
    )
    return proc.stdout


def _check(experiment: str, got: bytes, golden: bytes) -> None:
    if got == golden:
        return
    want_lines = golden.decode().split("\n")
    got_lines = got.decode().split("\n")
    for lineno, (want, have) in enumerate(zip(want_lines, got_lines), start=1):
        if want != have:
            pytest.fail(
                f"{experiment}: first difference at line {lineno}\n"
                f"  golden: {want}\n  got:    {have}"
            )
    pytest.fail(
        f"{experiment}: golden has {len(want_lines)} lines, got {len(got_lines)}"
    )


@pytest.fixture(scope="module")
def warm_table(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("golden-cache")
    return cache_dir, _run("cache-warm", cache_dir)


def test_cache_warm_golden(warm_table) -> None:
    cache_dir, out = warm_table
    golden = (GOLDEN / "cache-warm.csv").read_bytes()
    _check("cache-warm", out, golden.replace(b"<tmp>", str(cache_dir).encode()))
    digest = hashlib.sha256((cache_dir / "brackets.txt").read_bytes()).hexdigest()
    assert digest == BRACKETS_SHA256, f"brackets.txt: sha256 {digest}"


@pytest.mark.parametrize("experiment", sorted(set(EXPERIMENTS) - {"cache-warm"}))
def test_experiment_golden(warm_table, experiment) -> None:
    cache_dir, _ = warm_table
    golden = (GOLDEN / f"{experiment}.csv").read_bytes()
    _check(experiment, _run(experiment, cache_dir), golden)


@pytest.mark.parametrize("budget", sorted(BRACKETS_SHA256_BY_BUDGET))
def test_cache_warm_table_sha256(tmp_path, budget) -> None:
    stats = cache_warm(LabConfig(budget=budget, cache_dir=str(tmp_path)), cache=BracketCache())
    digest = hashlib.sha256(Path(stats.path).read_bytes()).hexdigest()
    assert digest == BRACKETS_SHA256_BY_BUDGET[budget], f"budget {budget}: sha256 {digest}"


def test_cache_warm_ladder_table_sha256(tmp_path) -> None:
    # each warm starts from the table the one below left: every key it
    # adds, and none it should not, must come out as in one cold warm
    cache = BracketCache()
    cfg = LabConfig(budget=12, cache_dir=str(tmp_path))
    for budget in range(13):
        stats = cache_warm(cfg, budget=budget, cache=cache)
    digest = hashlib.sha256(Path(stats.path).read_bytes()).hexdigest()
    assert digest == BRACKETS_SHA256, f"budget-12 ladder: sha256 {digest}"
