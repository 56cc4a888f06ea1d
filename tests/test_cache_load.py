"""
`brackets.cache_load` against the line-at-a-time reference loader: the same
entries in the same order, the same exception and message on corrupt
files, a failed load that changes nothing, and a bounded transient peak.
"""

import re
import tracemalloc

import pytest

from wplab import brackets
from wplab.brackets import BracketCache, cache_load, cache_save
from wplab.lab import LabConfig, cache_warm

from reference_load import reference_load

HEADER = "wpbracket v1\n"
# the lines before the piece cases decode the valid pieces 1:1 and 0:3
PIECES = HEADER + "0|0:3|1/1*pi^0\n0|1:1,0:3|1/1*pi^0\n"


@pytest.fixture(scope="module")
def table_text(tmp_path_factory) -> str:
    """The budget-12 table (3 321 entries, lines 2..3322) as written by `cache_warm`."""
    stats = cache_warm(
        LabConfig(budget=12, cache_dir=str(tmp_path_factory.mktemp("warm"))), cache=BracketCache()
    )
    with open(stats.path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _replace_line(text: str, lineno: int, line: str) -> str:
    lines = text.split("\n")
    lines[lineno - 1] = line
    return "\n".join(lines)


# file contents, from the budget-12 table text where a case needs one
CASES = {
    "empty": lambda t: HEADER,
    "version": lambda t: "wpbracket v9\n",
    "malformed-scalar": lambda t: HEADER + "0|0:3|1/1*pi^0\n0|0:4|2/x*pi^2\n",
    "inhomogeneous": lambda t: HEADER + "0|0:3|1/1*pi^2\n",
    "over-full": lambda t: HEADER + "0|0:3|1/1*pi^0\n0|1:5|1/1*pi^-6\n",
    "over-full-zero": lambda t: HEADER + "0|0:3|1/1*pi^0\n0|1:5|0/1*pi^0\n",
    "zero-denominator": lambda t: HEADER + "0|0:4|1/0*pi^2\n",
    "negative-genus": lambda t: HEADER + "-1|0:7|1/1*pi^2\n",
    "unstable-torus": lambda t: HEADER + "1||1/1*pi^0\n",
    "closed-volume": lambda t: HEADER + "2||43/2160*pi^6\n",
    "loose": lambda t: HEADER + "0|0:4| 4/2*pi^2 \r\n0|1:1,0:3|0/5*pi^7\n",
    "negative-value": lambda t: HEADER + "0|0:3|1/1*pi^0\n0|0:4|-2/1*pi^2\n",
    "duplicate-other-value": lambda t: HEADER + "0|0:4|2/1*pi^2\n0|0:4|3/1*pi^2\n",
    "duplicate-same-value": lambda t: HEADER + "0|0:4|2/1*pi^2\n0|0:4|2/1*pi^2\n",
    "piece-zero-count": lambda t: PIECES + "1|0:0|1/1*pi^2\n",
    "piece-negative-value": lambda t: PIECES + "1|-1:2|1/1*pi^2\n",
    "piece-not-int": lambda t: PIECES + "1|1:x|1/1*pi^2\n",
    "piece-repeated": lambda t: PIECES + "1|1:1,1:1|1/1*pi^2\n",
    "piece-ascending": lambda t: PIECES + "1|0:3,1:1|1/1*pi^2\n",
    "later-block-last-line": lambda t: _replace_line(t, 3322, "5|13:1|14991840864000/1*pi^2"),
    "later-block-malformed": lambda t: _replace_line(t, 3322, "5|13:1|x"),
    "later-block-duplicate": lambda t: t + "0|0:3|1/1*pi^0\n",
    "later-block-blank-lines": lambda t: _replace_line(t, 2000, "\n\n" + t.split("\n")[1999]),
    # universal newlines: a CR LF may straddle two blocks
    "later-block-crlf": lambda t: t.replace("\n", "\r\n"),
    "later-block-cr": lambda t: t.replace("\n", "\r"),
    "two-faulty-lines": lambda t: HEADER + "0|0:3|1/1*pi^0\n0|0:4|1/0*pi^2\nx|0:3|1/1*pi^0\n",
    "two-faulty-later-blocks": lambda t: _replace_line(
        _replace_line(t, 3322, "5|13:1|-1/1*pi^0"), 2000, "0|0:1|1/1*pi^0"
    ),
    "genus-and-pieces": lambda t: HEADER + "x|0:0|1/0*pi^2\n",
    "pieces-and-scalar": lambda t: HEADER + "0|0:0|2/x*pi^2\n",
    "zero-denominator-and-sign": lambda t: HEADER + "0|0:4|-1/0*pi^2\n",
    "sign-and-stability": lambda t: HEADER + "0|0:2|-1/1*pi^0\n",
    "stability-and-exponent-sum": lambda t: HEADER + "0|5:1,0:1|1/1*pi^0\n",
    "exponent-sum-and-homogeneity": lambda t: HEADER + "0|1:5|1/1*pi^0\n",
    "duplicate-and-homogeneity": lambda t: HEADER + "0|0:4|2/1*pi^2\n0|0:4|3/1*pi^4\n",
    "fields-and-genus": lambda t: HEADER + "x|0:3|1|1\n",
    "blank-lines": lambda t: HEADER + "\n0|0:3|1/1*pi^0\n\n\n0|0:4|2/1*pi^2\n\n",
    "blank-lines-then-fault": lambda t: HEADER + "\n\n0|0:3|1/1*pi^0\n\n0|0:4|2/x*pi^2\n",
    "no-final-newline": lambda t: HEADER + "0|0:3|1/1*pi^0\n0|0:4|2/1*pi^2",
    "tab-and-form-feed": lambda t: HEADER + "0|0:4|\t2/1*pi^2\x0c\n",
    "lone-cr": lambda t: HEADER + "0|0:4|2/1*pi^2\r \n",
    "spaces-only-line": lambda t: HEADER + "0|0:3|1/1*pi^0\n   \n",
    "too-few-fields": lambda t: HEADER + "0|0:3\n",
    "too-many-fields": lambda t: HEADER + "0|0:3|1/1*pi^0|\n",
    "extra-leading-field": lambda t: HEADER + "7|0|0:3|1/1*pi^0\n",
    "genus-leading-space": lambda t: HEADER + " 1|0:1|1/12*pi^2\n",
    "genus-plus-sign": lambda t: HEADER + "+1|1:1|1/2*pi^0\n",
    "genus-leading-zero": lambda t: HEADER + "00|0:3|1/1*pi^0\n",
    "genus-minus-zero": lambda t: HEADER + "-0|0:3|1/1*pi^0\n",
    "piece-leading-zeros": lambda t: HEADER + "0|01:1,0:03|1/1*pi^0\n",
    "piece-count-leading-zero": lambda t: PIECES + "0|1:1,0:03|1/1*pi^0\n",
    "piece-plus-sign": lambda t: HEADER + "0|+1:1,0:3|1/1*pi^0\n",
    "genus-not-int": lambda t: HEADER + "x|0:3|1/1*pi^0\n",
    "unicode-digits": lambda t: HEADER + "١|0:1|١/١٢*pi^٢\n",
    "minus-zero": lambda t: HEADER + "0|1:1,0:3|-0/1*pi^7\n",
    "value-plus-sign": lambda t: HEADER + "0|0:3|+1/1*pi^0\n",
    "value-inner-space": lambda t: HEADER + "0|0:3|1 /1*pi^0\n",
    # past int()'s 4300-digit limit for a string: a ValueError of its own
    "long-number": lambda t: HEADER + "0|0:3|" + "1" * 5000 + "/1*pi^0\n",
    "pieces-and-long-number": lambda t: HEADER + "0|0:0|" + "1" * 5000 + "/1*pi^0\n",
    "not-utf8": lambda t: (HEADER + "0|0:3|1/1*pi^0\n").encode() + b"0|0:4|\xff\n",
    # a value in another form than `cache_save` writes
    "not-lowest-terms": lambda t: HEADER + "0|0:3|2/2*pi^0\n",
    "zero-over-seven": lambda t: HEADER + "0|0:3|1/1*pi^0\n0|0:4|0/7*pi^2\n",
    "zero-pi-degree": lambda t: HEADER + "0|0:3|1/1*pi^0\n0|0:4|0/1*pi^5\n",
    # V_{0,4} = 2 pi^2 read as a zero in the form `cache_save` writes a zero
    "zero-saved-form": lambda t: HEADER + "0|0:3|1/1*pi^0\n0|0:4|0/1*pi^0\n",
    # line 3000 is 3|4:1,2:1,0:4|3673192854080/1*pi^12
    "later-block-not-lowest-terms": lambda t: _replace_line(t, 3000, "3|4:1,2:1,0:4|7346385708160/2*pi^12"),
    "sign-and-lowest-terms": lambda t: HEADER + "0|0:3|-2/2*pi^0\n",
    "lowest-terms-and-stability": lambda t: HEADER + "0|0:2|2/2*pi^0\n",
    "zero-pi-degree-and-exponent-sum": lambda t: HEADER + "0|1:5|0/1*pi^2\n",
    "lowest-terms-and-duplicate": lambda t: HEADER + "0|0:4|2/1*pi^2\n0|0:4|4/2*pi^2\n",
    "leading-zero": lambda t: HEADER + "0|0:3|1/1*pi^0\n0|0:4|02/1*pi^2\n",
    "leading-zero-denominator": lambda t: HEADER + "0|0:4|2/01*pi^2\n",
    "leading-zero-pi-degree": lambda t: HEADER + "0|0:4|2/1*pi^02\n",
    "minus-zero-pi-degree": lambda t: HEADER + "0|0:3|1/1*pi^-0\n",
    "double-zero-denominator": lambda t: HEADER + "0|0:4|1/00*pi^2\n",
}


def _outcome(load, path, cache=None):
    cache = BracketCache() if cache is None else cache
    try:
        count = load(path, cache)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)
    return count, list(cache.entries.items())


def test_cache_load_matches_reference_loader(table_text, tmp_path) -> None:
    path = tmp_path / "brackets.txt"
    path.write_text(table_text, encoding="utf-8", newline="")
    count, items = _outcome(cache_load, path)
    assert count == 3321
    assert (count, items) == _outcome(reference_load, path)
    # into a table that already holds some entries: they keep their place
    outcomes = []
    for load in (cache_load, reference_load):
        cache = BracketCache()
        cache.entries.update([items[3000], items[5]])
        outcomes.append(_outcome(load, path, cache))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1][:2] == [items[3000], items[5]]


@pytest.mark.parametrize("name", list(CASES))
def test_cache_load_matches_reference_on_edge_files(name, table_text, tmp_path) -> None:
    data = CASES[name](table_text)
    path = tmp_path / "case.txt"
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    expected = _outcome(reference_load, path)
    assert _outcome(cache_load, path) == expected


def test_edge_file_messages(table_text, tmp_path) -> None:
    # what both loaders say where the line number or the check order
    # matters, pinned so that a change to both shows
    expected = {
        "later-block-last-line": "line 3322: pi-degree 2 violates homogeneity 0",
        "later-block-duplicate": "line 3323: duplicate key 0|0:3, first at line 2",
        "two-faulty-later-blocks": "line 2000: unstable signature (0,1)",
        "blank-lines-then-fault": "line 6: malformed PiScalar",
        "genus-and-pieces": "line 2: invalid literal for int() with base 10: 'x'",
        "stability-and-exponent-sum": "line 2: unstable signature (0,2)",
        "duplicate-and-homogeneity": "line 3: duplicate key 0|0:4, first at line 2",
        "lone-cr": "line 3: not enough values to unpack",
        "not-lowest-terms": "line 2: value '2/2*pi^0' is not in lowest terms",
        "zero-over-seven": "line 3: value '0/7*pi^2' is not positive",
        "zero-pi-degree": "line 3: value '0/1*pi^5' is not positive",
        "zero-saved-form": "line 3: value '0/1*pi^0' is not positive",
        "over-full-zero": "line 3: value '0/1*pi^0' is not positive",
        "later-block-not-lowest-terms": "line 3000: value '7346385708160/2*pi^12' is not in lowest terms",
        "sign-and-lowest-terms": "line 2: value '-2/2*pi^0' is not positive",
        "lowest-terms-and-stability": "line 2: value '2/2*pi^0' is not in lowest terms",
        "zero-pi-degree-and-exponent-sum": "line 2: value '0/1*pi^2' is not positive",
        "lowest-terms-and-duplicate": "line 3: value '4/2*pi^2' is not in lowest terms",
        "loose": "line 2: value '4/2*pi^2' is not in lowest terms",
        "minus-zero": "line 2: malformed PiScalar '-0/1*pi^7'",
        "unicode-digits": "line 2: malformed genus '١'",
        "genus-leading-space": "line 2: malformed genus ' 1'",
        "genus-plus-sign": "line 2: malformed genus '+1'",
        "genus-leading-zero": "line 2: malformed genus '00'",
        "genus-minus-zero": "line 2: malformed genus '-0'",
        "piece-leading-zeros": "line 2: bad multiset pair '01:1'",
        "piece-count-leading-zero": "line 4: bad multiset pair '0:03'",
        "piece-plus-sign": "line 2: bad multiset pair '+1:1'",
        "leading-zero": "line 3: malformed PiScalar '02/1*pi^2'",
    }
    for name, message in expected.items():
        path = tmp_path / "case.txt"
        path.write_text(CASES[name](table_text), encoding="utf-8", newline="")
        with pytest.raises(ValueError) as info:
            cache_load(path, BracketCache())
        assert f"{path}: {message}" in str(info.value), name


def test_load_then_save_gives_back_the_bytes(table_text, tmp_path) -> None:
    path = tmp_path / "brackets.txt"
    path.write_text(table_text, encoding="utf-8", newline="")
    cache = BracketCache()
    assert cache_load(path, cache) == 3321
    again = tmp_path / "again.txt"
    assert cache_save(again, cache) == 3321
    assert again.read_bytes() == path.read_bytes()

    # every edge file that loads: each value is saved as it was written
    loaded = []
    for name, case in CASES.items():
        data = case(table_text)
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        cache = BracketCache()
        try:
            cache_load(path, cache)
        except (ValueError, AssertionError):
            continue
        loaded.append(name)
        written = sorted(line.split("|")[2].strip() for line in data.splitlines()[1:] if line.strip())
        cache_save(again, cache)
        saved = sorted(line.split("|")[2] for line in again.read_text(encoding="utf-8").splitlines()[1:])
        assert saved == written, name
    assert loaded == [
        "empty",
        "closed-volume",
        "later-block-blank-lines",
        "later-block-crlf",
        "later-block-cr",
        "blank-lines",
        "no-final-newline",
        "tab-and-form-feed",
    ]


def test_failed_load_leaves_the_table_unchanged(table_text, tmp_path) -> None:
    lines = table_text.split("\n")  # lines[i] is line i + 1
    table = tmp_path / "table.txt"
    table.write_text(table_text, encoding="utf-8", newline="")
    past_first_block = tmp_path / "malformed.txt"
    past_first_block.write_text(_replace_line(table_text, 3322, "5|13:1|x"), encoding="utf-8", newline="")
    assert table_text.index("5|13:1|") > 4 * brackets._BLOCK

    def held(*entries: str) -> BracketCache:
        path = tmp_path / "held.txt"
        path.write_text(HEADER + "".join(e + "\n" for e in entries), encoding="utf-8")
        cache = BracketCache()
        cache_load(path, cache)
        return cache

    # the lines before the malformed one are not inserted
    cache = held(*lines[1:4])
    before = list(cache.entries.items())
    with pytest.raises(ValueError, match=r"malformed\.txt: line 3322: malformed PiScalar 'x'"):
        cache_load(past_first_block, cache)
    assert list(cache.entries.items()) == before

    # two held values that differ from the file's: the first colliding key
    # in file order (line 3000) is named, not the first one held
    wrong = [line.rsplit("|", 1) for line in (lines[3099], lines[2999])]
    cache = held(lines[1], *(f"{key}|7{value}" for key, value in wrong))
    before = list(cache.entries.items())
    key_3000 = before[2][0]
    with pytest.raises(AssertionError, match=re.escape(f"cache collision at {key_3000}: ")):
        cache_load(table, cache)
    assert list(cache.entries.items()) == before

    # a file that is malformed and also collides reports the malformed line
    with pytest.raises(ValueError, match=r"line 3322: malformed"):
        cache_load(past_first_block, cache)
    assert list(cache.entries.items()) == before


def test_load_transient_memory_is_bounded(table_text, tmp_path) -> None:
    # a whole-file parse keeps every line's fields at once (1.4 MB above
    # what a budget-12 load retains); the block loader stays near the
    # size of one table dict
    path = tmp_path / "brackets.txt"
    path.write_text(table_text, encoding="utf-8", newline="")
    cache_load(path, BracketCache())  # compiled patterns and imports first
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        cache = BracketCache()
        tracemalloc.reset_peak()
        current, peak = tracemalloc.get_traced_memory()
        cache_load(path, cache)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(cache) == 3321
    assert peak - current < 500_000, f"transient peak {peak - current} bytes"
