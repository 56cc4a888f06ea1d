"""
`lab.cache_warm`, which walks the canonical slices, against the key-by-key
walk it replaced (`reference_warm`): the same table, key for key and
value for value, the same counts, and no more slices.
"""

import pytest

from wplab.brackets import BracketCache, cache_load
from wplab.lab import LabConfig, cache_warm

from reference_warm import reference_warm


def _same_table(budget: int, warmed: BracketCache, walked: BracketCache) -> None:
    stats = cache_warm(LabConfig(), budget=budget, cache=warmed)
    before, after = reference_warm(budget, walked)
    assert warmed.entries == walked.entries
    assert (stats.entries_new, stats.entries_total) == (after - before, after)
    assert len(warmed.slices) <= len(walked.slices)


# budgets 3, 6, 9 and 12 end on a V_{g,0} whose V_{g,1} leaves the table
@pytest.mark.parametrize("budget", range(15))
def test_slice_walk_builds_the_key_walk_table(budget) -> None:
    _same_table(budget, BracketCache(), BracketCache())


def test_slice_walk_over_a_loaded_table(tmp_path) -> None:
    cache_warm(LabConfig(budget=8, cache_dir=str(tmp_path)), cache=BracketCache())
    warmed, walked = BracketCache(), BracketCache()
    for cache in (warmed, walked):
        cache_load(tmp_path / "brackets.txt", cache)
    _same_table(12, warmed, walked)
    # a loaded table the budget already covers needs no slice
    loaded = BracketCache()
    cache_load(tmp_path / "brackets.txt", loaded)
    assert cache_warm(LabConfig(), budget=8, cache=loaded).entries_new == 0
    assert not loaded.slices
