"""
`brackets.cache_save` against the line-at-a-time reference writer: the same
bytes for warmed, scrambled and hand-built tables, and a streamed write
whose transient peak stays below the size of the file it writes.
"""

import random
import tracemalloc

import pytest

from wplab.brackets import BracketCache, cache_save
from wplab.exact import Rat
from wplab.lab import LabConfig, cache_warm

from reference_save import reference_save


@pytest.fixture(scope="module")
def warm14() -> BracketCache:
    """The budget-14 table, in the order a cold warm inserts it."""
    cache = BracketCache()
    cache_warm(LabConfig(budget=14), budget=14, cache=cache)
    return cache


def _same_bytes(cache: BracketCache, tmp_path) -> bytes:
    saved, reference = tmp_path / "saved.txt", tmp_path / "reference.txt"
    assert cache_save(saved, cache) == reference_save(reference, cache) == len(cache)
    assert saved.read_bytes() == reference.read_bytes()
    return saved.read_bytes()


def test_save_matches_reference_in_warm_order(warm14, tmp_path) -> None:
    assert len(warm14) == 7324
    _same_bytes(warm14, tmp_path)


def test_save_matches_reference_in_scrambled_order(warm14, tmp_path) -> None:
    items = list(warm14.entries.items())
    random.Random(14).shuffle(items)
    scrambled = BracketCache()
    scrambled.entries.update(items)
    assert list(scrambled.entries) != list(warm14.entries)
    _same_bytes(scrambled, tmp_path)


# hand-built tables; the writer checks no value against its key
SMALL = {
    "zero-value": {(0, 4, ()): Rat(0)},
    "int-value": {(0, 3, ()): 1},
    "negative-value": {(1, 1, ()): Rat(-1, 24)},
    "closed-surface": {(2, 0, ()): Rat(43, 2160)},
    "no-zeros": {(1, 1, (1,)): Rat(1, 24)},
    # one nonzero part under several genera and zero counts
    "shared-part": {(1, 2, (1,)): Rat(1, 12), (2, 1, (1,)): Rat(29, 5760), (1, 1, (1,)): Rat(1, 24)},
    "empty": {},
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_save_matches_reference_on_small_tables(name, tmp_path) -> None:
    cache = BracketCache()
    cache.entries.update(SMALL[name])
    data = _same_bytes(cache, tmp_path)
    assert data.count(b"\n") == len(cache) + 1


def test_small_table_lines(tmp_path) -> None:
    cache = BracketCache()
    for table in SMALL.values():
        cache.entries.update(table)
    path = tmp_path / "brackets.txt"
    cache_save(path, cache)
    assert path.read_text(encoding="utf-8").splitlines() == [
        "wpbracket v1",
        "0|0:3|1/1*pi^0",
        "0|0:4|0/1*pi^0",
        "1|0:1|-1/24*pi^2",
        "1|1:1|1/24*pi^0",
        "1|1:1,0:1|1/12*pi^2",
        "2||43/2160*pi^6",
        "2|1:1|29/5760*pi^6",
    ]


def test_save_streams_its_lines(warm14, tmp_path) -> None:
    # a writer that builds the whole file, or a list of its lines, before
    # writing holds more than the file's size at once
    path = tmp_path / "brackets.txt"
    cache_save(path, warm14)  # imports and first-call set-up first
    size = path.stat().st_size
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        current, _ = tracemalloc.get_traced_memory()
        cache_save(path, warm14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak - current < size, f"transient peak {peak - current} bytes for a {size}-byte file"
