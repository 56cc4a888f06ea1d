"""
`brackets.cache_load` against the line-at-a-time reference loader: the same
entries, the same exception and message on corrupt files, a failed load
that changes nothing, and a bounded transient peak; then values equal to
`Fraction(num, den)` in every respect, and the cyclic collector paused
during a load and left as it was found; then the sidecar, and loads
limited to a rank, which give the reference's entries of at most that
many nonzero exponents.  Tables are compared as dicts: a load promises
no order.
"""

import gc
import hashlib
import marshal
import os
import re
import struct
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

from wplab import brackets
from wplab.brackets import BracketCache, cache_load, cache_save
from wplab.exact import _coprime_rat
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
    "not-utf8-value": lambda t: (HEADER + "0|0:3|1/1*pi^0\n").encode() + b"0|0:4|\xff/1*pi^2\n",
    "not-utf8-header": lambda t: b"wpbracket v1\xff\n0|0:3|1/1*pi^0\n",
    # a sequence cut short by the line break, and one past the first block
    "not-utf8-truncated": lambda t: (HEADER + "0|0:3|1/1*pi^0\n").encode() + b"0|0:4|2/1*pi^2\xe2\x82\r\n",
    "later-block-not-utf8": lambda t: _replace_line(t, 3000, "3|4:1,2:1,0:4|\udcff").encode("utf-8", "surrogateescape"),
    # the first fault in file order is named, a bad byte or not
    "fault-then-not-utf8": lambda t: (HEADER + "0|0:3|1/x*pi^0\n").encode() + b"0|0:4|\xff\n",
    "not-utf8-then-fault": lambda t: (HEADER + "0|0:3|1/1*pi^0\n").encode() + b"0|0:4|\xff\n0|0:5|x\n",
    "version-then-not-utf8": lambda t: b"wpbracket v9\n0|0:4|\xff\n",
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
    return count, dict(cache.entries)


def test_cache_load_matches_reference_loader(table_text, tmp_path) -> None:
    path = tmp_path / "brackets.txt"
    path.write_text(table_text, encoding="utf-8", newline="")
    count, table = _outcome(cache_load, path)
    reference = _outcome(reference_load, path)
    assert count == reference[0] == 3321
    _same_tables(table, reference[1])
    # into a table that already holds some of the entries
    items = list(reference[1].items())
    outcomes = []
    for load in (cache_load, reference_load):
        cache = BracketCache()
        cache.entries.update([items[3000], items[5]])
        outcomes.append(_outcome(load, path, cache))
    assert outcomes[0] == outcomes[1] == reference


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
        # an undecodable byte is named by its line, at its place in the line
        "not-utf8": "line 3: 'utf-8' codec can't decode byte 0xff in position 6: invalid start byte",
        "not-utf8-value": "line 3: 'utf-8' codec can't decode byte 0xff in position 6: invalid start byte",
        "not-utf8-header": "line 1: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte",
        "not-utf8-truncated": "line 3: 'utf-8' codec can't decode bytes in position 14-15: unexpected end of data",
        "later-block-not-utf8": "line 3000: 'utf-8' codec can't decode byte 0xff in position 14: invalid start byte",
        "fault-then-not-utf8": "line 2: malformed PiScalar '1/x*pi^0'",
        "not-utf8-then-fault": "line 3: 'utf-8' codec can't decode byte 0xff",
    }
    for name, message in expected.items():
        path = tmp_path / "case.txt"
        data = CASES[name](table_text)
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
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


@pytest.fixture(scope="module")
def table_14_text(tmp_path_factory) -> str:
    """The budget-14 table as written by `cache_warm`."""
    stats = cache_warm(
        LabConfig(budget=14, cache_dir=str(tmp_path_factory.mktemp("warm14"))), cache=BracketCache()
    )
    with open(stats.path, encoding="utf-8", newline="") as fh:
        return fh.read()


def test_fraction_keeps_its_slots() -> None:
    # `_coprime_rat` sets the two slots that `Fraction`'s own properties read
    q = Fraction(-6, 8)
    stored = (getattr(q, "_numerator", None), getattr(q, "_denominator", None))
    assert stored == (-3, 4), "Fraction no longer stores `_numerator`/`_denominator`"
    built = _coprime_rat(-3, 4)
    assert type(built) is Fraction
    assert (built.numerator, built.denominator, hash(built)) == (-3, 4, hash(q))
    assert built == q and str(built) == "-3/4"


@pytest.mark.parametrize("budget", [12, 14])
def test_loaded_values_are_canonical_fractions(budget, table_text, table_14_text, tmp_path) -> None:
    text = table_text if budget == 12 else table_14_text
    path = tmp_path / "brackets.txt"
    path.write_text(text, encoding="utf-8", newline="")
    # each value against `Fraction(num, den)` built from its own line
    expected = []
    for line in text.splitlines()[1:]:
        num, den = line.split("|")[2].split("*")[0].split("/")
        expected.append(Fraction(int(num), int(den)))
    cache = BracketCache()
    assert cache_load(path, cache) == len(expected)
    # block path, and the line-by-line fallback called on a good file
    with open(path, "rb") as fh:
        by_line = brackets._load_lines(path, fh, {})
    for values in (list(cache.entries.values()), list(by_line.values())):
        assert len(values) == len(expected)
        for value, want in zip(values, expected):
            assert type(value) is Fraction
            assert (value.numerator, value.denominator, hash(value)) == (want.numerator, want.denominator, hash(want))
            assert value == want


# name -> (file contents from the budget-12 table text, or None for no
# file; entries the table holds before the load; the exception expected)
GC_CASES = {
    "good": (lambda t: t, {}, None),
    "malformed-line": (CASES["later-block-malformed"], {}, ValueError),
    "version": (CASES["version"], {}, ValueError),
    "collision": (lambda t: HEADER + "0|0:3|1/1*pi^0\n", {(0, 3, ()): Fraction(2)}, AssertionError),
    "missing-file": (None, {}, OSError),
}


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("name", list(GC_CASES))
def test_cache_load_restores_the_collector_state(name, enabled, table_text, tmp_path) -> None:
    case, held, error = GC_CASES[name]
    path = tmp_path / "brackets.txt"
    if case is not None:
        path.write_text(case(table_text), encoding="utf-8", newline="")
    cache = BracketCache()
    cache.entries.update(held)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    try:
        if error is None:
            assert cache_load(path, cache) == 3321
        else:
            with pytest.raises(error):
                cache_load(path, cache)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_cache_load_runs_no_collection(table_text, tmp_path) -> None:
    # a budget-12 parse allocates enough to set off several collections
    # with the collector running; the load pauses it
    path = tmp_path / "brackets.txt"
    path.write_text(table_text, encoding="utf-8", newline="")
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(count)
    try:
        cache_load(path, BracketCache())
    finally:
        gc.callbacks.remove(count)
    assert starts == [], f"collections of generations {starts} during the load"


# ---------------------------------------------------------------------------
# The sidecar `<path>.idx`: written by a checked load, read back only when
# it matches the text's bytes, otherwise a full parse
# ---------------------------------------------------------------------------


def _idx(path):
    return path.with_name(path.name + ".idx")


def _no_parse(*args):
    """Stands in for `_load_block` where a load must read the sidecar."""
    raise AssertionError("the text was parsed")


def _same_tables(got, want) -> None:
    """The same keys, and under each the same `Fraction` in every slot; in any order."""
    assert got.keys() == want.keys()
    for key, value in got.items():
        expected = want[key]
        assert type(value) is Fraction
        assert (value.numerator, value.denominator, hash(value)) == (
            expected.numerator,
            expected.denominator,
            hash(expected),
        )


@pytest.mark.parametrize("budget", [12, 14])
def test_sidecar_parse_and_reference_give_the_same_table(budget, table_text, table_14_text, tmp_path, monkeypatch):
    path = tmp_path / "brackets.txt"
    path.write_text(table_text if budget == 12 else table_14_text, encoding="utf-8", newline="")
    parsed = BracketCache()
    count = cache_load(path, parsed)
    assert _idx(path).is_file()
    reference = BracketCache()
    assert reference_load(path, reference) == count
    with monkeypatch.context() as m:
        m.setattr(brackets, "_load_block", _no_parse)
        read = BracketCache()
        assert cache_load(path, read) == count
    _same_tables(parsed.entries, reference.entries)
    _same_tables(read.entries, reference.entries)


def _flip_payload_byte(data: bytes) -> bytes:
    at = len(data) // 2
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :]


# what happens to the text or its sidecar after a load wrote the sidecar
STALE = {
    # a value with another digit, the same size: only the digest tells
    "text-changed": lambda path, idx: path.write_bytes(
        path.read_bytes().replace(b"\n0|0:3|1/1*pi^0\n", b"\n0|0:3|3/1*pi^0\n", 1)
    ),
    "payload-byte-flipped": lambda path, idx: idx.write_bytes(_flip_payload_byte(idx.read_bytes())),
    "truncated": lambda path, idx: idx.write_bytes(idx.read_bytes()[:-100]),
    "foreign-tag": lambda path, idx: idx.write_bytes(
        idx.read_bytes().replace(brackets._IDX_TAG, brackets._IDX_TAG.upper(), 1)
    ),
    "garbage-after-header": lambda path, idx: idx.write_bytes(
        idx.read_bytes()[: len(brackets._IDX_TAG) + 64] + b"\x00garbage" * 100
    ),
    # payloads that pass their digest but do not unmarshal to a table
    "garbage-with-its-digest": lambda path, idx: idx.write_bytes(_bound(path, b"\x00garbage" * 100)),
    "wrong-shape-with-its-digest": lambda path, idx: idx.write_bytes(_bound(path, marshal.dumps((1, 2), 2))),
    # a true header and blobs, then one byte more, under a true digest
    "blob-sizes-short-of-the-payload": lambda path, idx: idx.write_bytes(
        _bound(path, idx.read_bytes()[len(brackets._IDX_TAG) + 64 :] + b"\x00")
    ),
    # a true layout, but one key moved into a second blob: a full read
    # comes out one key short of the entry count
    "key-in-two-blobs": lambda path, idx: idx.write_bytes(_key_in_two_blobs(path, idx)),
    # the `idx2` layout, with its rank byte per entry, under its own tag
    "previous-format": lambda path, idx: idx.write_bytes(_previous_format(path, b" idx2 ")),
    # and under the current tag, where its order bytes break the blob sizes
    "previous-payload-current-tag": lambda path, idx: idx.write_bytes(_previous_format(path, b" idx3 ")),
}


def _previous_format(path, name: bytes) -> bytes:
    """
    The text's table in the `idx2` layout, whose header ended in the file's
    order as one rank byte per entry, under the format name `name`, with
    both its digests true.
    """
    table = BracketCache()
    reference_load(path, table)
    order = bytes(len(key[2]) for key in table.entries)
    columns = [([], [], []) for _ in range(max(order) + 1)]
    for r, (key, value) in zip(order, table.entries.items()):
        for column, x in zip(columns[r], (key, value.numerator, value.denominator)):
            column.append(x)
    blobs = [marshal.dumps(c, 2) for c in columns]
    payload = struct.pack(f"<{len(blobs) + 2}Q", len(order), len(blobs), *map(len, blobs)) + order + b"".join(blobs)
    tag = brackets._IDX_TAG.replace(b" idx3 ", name)
    sha = hashlib.sha256
    return tag + sha(path.read_bytes()).digest() + sha(payload).digest() + payload


def _key_in_two_blobs(path, idx) -> bytes:
    """The sidecar at `idx` with blob 1's first key replaced by blob 0's, under both digests true."""
    data = idx.read_bytes()
    at = len(brackets._IDX_TAG) + 64
    count, blobs = struct.unpack_from("<2Q", data, at)
    at += 16 + 8 * blobs
    columns = []
    for size in struct.unpack_from(f"<{blobs}Q", data, at - 8 * blobs):
        columns.append(marshal.loads(data[at : at + size]))
        at += size
    columns[1][0][0] = columns[0][0][0]
    payload = [marshal.dumps(c, 2) for c in columns]
    return _bound(path, struct.pack(f"<{blobs + 2}Q", count, blobs, *map(len, payload)) + b"".join(payload))


def _bound(path, payload: bytes) -> bytes:
    """A sidecar for the text at `path` with this payload and its true digest."""
    sha = hashlib.sha256
    return brackets._IDX_TAG + sha(path.read_bytes()).digest() + sha(payload).digest() + payload


@pytest.mark.parametrize("name", list(STALE))
def test_stale_or_corrupt_sidecar_falls_back_to_the_parse(name, table_text, tmp_path, monkeypatch) -> None:
    path = tmp_path / "brackets.txt"
    path.write_text(table_text, encoding="utf-8", newline="")
    cache_load(path, BracketCache())
    size = path.stat().st_size
    STALE[name](path, _idx(path))
    assert path.stat().st_size == size
    reference = BracketCache()
    reference_load(path, reference)
    cache = BracketCache()
    with monkeypatch.context() as m:
        parses = _counting_parse(m)
        assert cache_load(path, cache) == 3321
    assert parses, "the sidecar was read"
    _same_tables(cache.entries, reference.entries)
    if name == "text-changed":
        assert cache.entries[(0, 3, ())] == 3
    # the parse wrote the sidecar again, and it now matches
    with monkeypatch.context() as m:
        m.setattr(brackets, "_load_block", _no_parse)
        again = BracketCache()
        cache_load(path, again)
    _same_tables(again.entries, reference.entries)


def test_faulty_text_never_gets_a_sidecar(table_text, tmp_path) -> None:
    for name, case in CASES.items():
        data = case(table_text)
        path = tmp_path / name / "brackets.txt"
        path.parent.mkdir()
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        try:
            cache_load(path, BracketCache())
        except ValueError:
            assert not _idx(path).exists(), name
        else:
            assert _idx(path).is_file(), name
    # a key held with another value: the load raises, and writes nothing
    path = tmp_path / "collision.txt"
    path.write_text(HEADER + "0|0:3|1/1*pi^0\n", encoding="utf-8")
    cache = BracketCache()
    cache.entries[(0, 3, ())] = Fraction(2)
    with pytest.raises(AssertionError, match="cache collision"):
        cache_load(path, cache)
    assert not _idx(path).exists()


def test_line_appended_behind_a_sidecar_is_still_named(table_text, tmp_path) -> None:
    path = tmp_path / "brackets.txt"
    path.write_text(table_text, encoding="utf-8", newline="")
    cache_load(path, BracketCache())
    sidecar = _idx(path).read_bytes()
    with open(path, "a", encoding="utf-8", newline="") as fh:
        fh.write("5|13:1|x\n")
    cache = BracketCache()
    with pytest.raises(ValueError, match=r"brackets\.txt: line 3323: malformed PiScalar 'x'"):
        cache_load(path, cache)
    assert len(cache) == 0
    assert _idx(path).read_bytes() == sidecar


def test_failed_sidecar_write_still_loads(table_text, tmp_path, monkeypatch) -> None:
    path = tmp_path / "brackets.txt"
    path.write_text(table_text, encoding="utf-8", newline="")

    def replace(src, dst):
        raise OSError("read-only directory")

    monkeypatch.setattr(brackets.os, "replace", replace)
    cache = BracketCache()
    assert cache_load(path, cache) == 3321
    reference = BracketCache()
    reference_load(path, reference)
    _same_tables(cache.entries, reference.entries)
    assert [p.name for p in tmp_path.iterdir()] == ["brackets.txt"]


def test_collision_is_caught_on_the_sidecar_path(tmp_path, monkeypatch) -> None:
    path = tmp_path / "brackets.txt"
    path.write_text(HEADER + "0|0:3|1/1*pi^0\n0|0:4|2/1*pi^2\n", encoding="utf-8")
    cache_load(path, BracketCache())
    monkeypatch.setattr(brackets, "_load_block", _no_parse)
    cache = BracketCache()
    cache.entries[(0, 4, ())] = Fraction(5)
    with pytest.raises(AssertionError, match=re.escape("cache collision at (0, 4, ()): 5 != 2")):
        cache_load(path, cache)
    assert list(cache.entries.items()) == [((0, 4, ()), Fraction(5))]


@pytest.mark.parametrize("enabled", [True, False])
def test_sidecar_load_keeps_the_collector_state_and_runs_no_collection(enabled, table_text, tmp_path, monkeypatch):
    path = tmp_path / "brackets.txt"
    path.write_text(table_text, encoding="utf-8", newline="")
    cache_load(path, BracketCache())
    monkeypatch.setattr(brackets, "_load_block", _no_parse)
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    try:
        assert cache_load(path, BracketCache()) == 3321
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
        gc.callbacks.remove(count)
    assert starts == [], f"collections of generations {starts} during the load"


def test_first_load_transient_memory_is_bounded(table_text, tmp_path) -> None:
    # the first load of a text parses it and then writes its sidecar; the
    # write's peak stays below the parse's
    first = tmp_path / "first" / "brackets.txt"
    path = tmp_path / "brackets.txt"
    first.parent.mkdir()
    for p in (first, path):
        p.write_text(table_text, encoding="utf-8", newline="")
    cache_load(first, BracketCache())  # compiled patterns and imports first
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
    assert _idx(path).is_file()
    assert peak - current < 500_000, f"transient peak {peak - current} bytes"


# ---------------------------------------------------------------------------
# Rank-limited loads: only the keys of at most `rank` nonzero exponents
# ---------------------------------------------------------------------------


def _within(table, rank):
    return {key: value for key, value in table.items() if len(key[2]) <= rank}


def _counting_parse(monkeypatch) -> list:
    """Counts the calls of `_load_block`, which only the parse makes."""
    calls = []
    load_block = brackets._load_block

    def counted(*args):
        calls.append(1)
        return load_block(*args)

    monkeypatch.setattr(brackets, "_load_block", counted)
    return calls


def _check_rank_limited_load(text, rank, tmp_path, monkeypatch) -> None:
    path = tmp_path / "brackets.txt"
    path.write_text(text, encoding="utf-8", newline="")
    reference = BracketCache()
    reference_load(path, reference)
    want = _within(reference.entries, rank)
    parses = _counting_parse(monkeypatch)
    # the parse, then the sidecar it wrote, then a load into a table that
    # already holds two of the entries
    for expect_parse in (True, False, False):
        cache = BracketCache()
        items = list(want.items())
        cache.entries.update([items[-1], items[0]] if not expect_parse else [])
        before = len(parses)
        assert cache_load(path, cache, rank=rank) == len(want)
        assert (len(parses) > before) is expect_parse
        _same_tables(cache.entries, want)
    # the sidecar a rank-limited parse wrote holds every rank
    monkeypatch.setattr(brackets, "_load_block", _no_parse)
    full = BracketCache()
    assert cache_load(path, full) == len(reference)
    _same_tables(full.entries, reference.entries)


@pytest.mark.parametrize("rank", [0, 1, 2, 3, 11, 12, 40])
def test_rank_limited_load_is_the_reference_filtered(rank, table_text, tmp_path, monkeypatch) -> None:
    _check_rank_limited_load(table_text, rank, tmp_path, monkeypatch)


@pytest.mark.parametrize("rank", [0, 1, 2, 3, 11, 12, 40])
def test_rank_limited_load_of_the_budget_14_table_is_the_reference_filtered(
    rank, table_14_text, tmp_path, monkeypatch
) -> None:
    _check_rank_limited_load(table_14_text, rank, tmp_path, monkeypatch)


def test_rank_limited_load_sets_no_same_as(table_text, tmp_path) -> None:
    from test_golden import BRACKETS_SHA256

    path = tmp_path / "brackets.txt"
    path.write_text(table_text, encoding="utf-8", newline="")
    for sidecar in (False, True):
        assert _idx(path).is_file() is sidecar
        cache = BracketCache()
        assert cache_load(path, cache, rank=2) == 1047
        assert cache.same_as is None and not cache.saved_in(path)
    # a later warm into that table builds the rest and still saves it
    inode = path.stat().st_ino
    stats = cache_warm(LabConfig(budget=12, cache_dir=str(tmp_path)), cache=cache)
    assert stats.entries_total == 3321
    assert path.stat().st_ino != inode
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BRACKETS_SHA256
    # a rank that covers every key loads the whole file, and records it
    cache = BracketCache()
    assert cache_load(path, cache, rank=12) == 3321
    assert cache.saved_in(path)


def test_collision_on_a_loaded_rank_names_the_first_in_file_order(table_text, tmp_path) -> None:
    path = tmp_path / "brackets.txt"
    path.write_text(table_text, encoding="utf-8", newline="")
    reference = BracketCache()
    reference_load(path, reference)
    keys = list(reference.entries)
    first_rank_3 = next(i for i, key in enumerate(keys) if len(key[2]) == 3)
    rank_1 = [i for i, key in enumerate(keys) if len(key[2]) == 1 and i > first_rank_3]
    # wrong values held for two rank-1 keys, the later one first, and for a
    # rank-3 key before both in the file
    wrong = [keys[rank_1[-1]], keys[rank_1[0]], keys[first_rank_3]]
    for sidecar in (False, True):
        assert _idx(path).is_file() is sidecar
        for rank, named in ((0, None), (1, keys[rank_1[0]]), (3, keys[first_rank_3])):
            cache = BracketCache()
            cache.entries.update((key, reference.entries[key] + 1) for key in wrong)
            before = list(cache.entries.items())
            if named is None:
                assert cache_load(path, cache, rank=rank) == 47
                continue
            with pytest.raises(AssertionError, match=re.escape(f"cache collision at {named}: ")):
                cache_load(path, cache, rank=rank)
            assert list(cache.entries.items()) == before
        # a clean load writes the sidecar for the second round
        cache_load(path, BracketCache(), rank=0)


def test_corrupt_unread_rank_falls_back_to_the_parse(table_text, tmp_path, monkeypatch) -> None:
    # a rank-0 load reads only the first blob, yet checks the digest over
    # all of them: a byte flipped in the last (highest-rank) blob is caught
    path = tmp_path / "brackets.txt"
    path.write_text(table_text, encoding="utf-8", newline="")
    cache_load(path, BracketCache())
    idx = _idx(path)
    data = idx.read_bytes()
    at = len(brackets._IDX_TAG) + 64
    count, blobs = struct.unpack_from("<2Q", data, at)
    last = struct.unpack_from("<Q", data, at + 16 + 8 * (blobs - 1))[0]
    assert (count, blobs) == (3321, 13) and last > 2
    flip = len(data) - last // 2
    idx.write_bytes(data[:flip] + bytes([data[flip] ^ 1]) + data[flip + 1 :])
    reference = BracketCache()
    reference_load(path, reference)
    parses = _counting_parse(monkeypatch)
    cache = BracketCache()
    assert cache_load(path, cache, rank=0) == 47
    assert parses
    _same_tables(cache.entries, _within(reference.entries, 0))
    # the parse wrote the sidecar again, and it now matches
    assert idx.read_bytes() == data


@pytest.mark.parametrize("rank", [0, 1, 2, 3, 11, 12, 40])
def test_rank_limited_load_unmarshals_only_the_ranks_it_reads(rank, table_text, tmp_path, monkeypatch) -> None:
    path = tmp_path / "brackets.txt"
    path.write_text(table_text, encoding="utf-8", newline="")
    full = BracketCache()
    cache_load(path, full)
    read = []

    def loads(data):
        keys, nums, dens = blob = marshal.loads(data)
        read.append({len(key[2]) for key in keys})
        return blob

    monkeypatch.setattr(brackets, "marshal", SimpleNamespace(loads=loads))
    cache = BracketCache()
    assert cache_load(path, cache, rank=rank) == len(_within(full.entries, rank))
    _same_tables(cache.entries, _within(full.entries, rank))
    # blob r holds the keys of rank r, and the budget-12 table has ranks 0..12
    assert read == [{r} for r in range(min(rank, 12) + 1)]


def test_key_of_rank_256_gets_a_sidecar(tmp_path, monkeypatch) -> None:
    # a well-formed key with more nonzero exponents than a byte holds
    path = tmp_path / "brackets.txt"
    path.write_text(HEADER + "0|1:256,0:3|1/1*pi^0\n0|0:3|1/1*pi^0\n", encoding="utf-8")
    cache = BracketCache()
    assert cache_load(path, cache) == 2
    assert _idx(path).is_file()
    monkeypatch.setattr(brackets, "_load_block", _no_parse)
    full = dict(cache.entries)
    assert full.keys() == {(0, 3, ()), (0, 259, (1,) * 256)}
    for rank, want in ((None, full), (255, _within(full, 255)), (256, full)):
        read = BracketCache()
        assert cache_load(path, read, rank=rank) == len(want)
        _same_tables(read.entries, want)


def test_fault_is_named_in_the_bytes_that_were_hashed(table_text, tmp_path, monkeypatch) -> None:
    # a faulty text that a good one replaces after the load hashed it: the
    # line-by-line pass that names the fault reads the same handle again
    path = tmp_path / "brackets.txt"
    path.write_text(CASES["later-block-malformed"](table_text), encoding="utf-8", newline="")
    good = tmp_path / "good.txt"
    good.write_text(table_text, encoding="utf-8", newline="")
    read_sidecar = brackets._read_sidecar

    def replaced(*args):
        os.replace(good, path)
        return read_sidecar(*args)

    with monkeypatch.context() as m:
        m.setattr(brackets, "_read_sidecar", replaced)
        cache = BracketCache()
        with pytest.raises(ValueError, match=r"brackets\.txt: line 3322: malformed PiScalar 'x'"):
            cache_load(path, cache)
    assert len(cache) == 0 and not _idx(path).exists()
    # the next load reads the good text that is now there
    assert cache_load(path, cache) == 3321
