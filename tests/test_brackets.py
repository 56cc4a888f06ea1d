import hashlib
import itertools
import math
import random
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wplab import brackets
from wplab.exact import PiScalar, eval_numeric, rat
from wplab.brackets import (
    BracketCache,
    _splits,
    _value_counts,
    bracket,
    c_m,
    cache_load,
    cache_save,
    canonical_key,
    pideg_of_key,
)
from wplab.lab import LabConfig, cache_warm
from wplab.random_model import CutoffLength, box_count_integral
from wplab.volumes import volume, volume_float, volume_poly

from reference_recursion import bracket_reference
from test_golden import BRACKETS_SHA256


def test_base_cases() -> None:
    assert bracket(0, (0, 0, 0)) == PiScalar(rat(1), 0)
    assert bracket(1, (0,)) == PiScalar(rat(1, 12), 2)
    assert bracket(1, (1,)) == PiScalar(rat(1, 2), 0)
    assert bracket(1, (2,)).is_zero()  # |d| = 2 > 3g-3+n = 1


def test_hand_expanded_values() -> None:
    assert bracket(0, (0, 0, 0, 0)) == PiScalar(rat(2), 2)
    assert bracket(0, (1, 0, 0, 0)) == PiScalar(rat(12), 0)
    assert bracket(0, (0, 0, 0, 0, 0)) == PiScalar(rat(10), 4)
    assert bracket(1, (1, 0)) == PiScalar(rat(2), 2)
    assert bracket(1, (2, 0)) == PiScalar(rat(10), 0)


def test_vanishing_and_errors() -> None:
    assert bracket(0, (4, 0, 0, 0)).is_zero()
    with pytest.raises(ValueError, match="unstable"):
        bracket(0, (0, 0))
    with pytest.raises(ValueError, match="unstable"):
        bracket(1, ())
    with pytest.raises(ValueError):
        bracket(1, (-1, 0))


def test_symmetry_under_input_order() -> None:
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(3, 6)
        g = rng.randint(0, 2)
        if 2 * g - 2 + n <= 0:
            continue
        d = [rng.randint(0, 2) for _ in range(n)]
        perm = d[:]
        rng.shuffle(perm)
        assert bracket(g, d) == bracket(g, perm)


def test_matches_reference_recursion_with_tie_breaks() -> None:
    rng = random.Random(2024)
    cases = [
        (0, (0, 0, 0, 0)),
        (0, (1, 0, 0, 0)),
        (0, (1, 1, 0, 0)),
        (0, (2, 0, 0, 0, 0)),
        (1, (0, 0)),
        (1, (1, 0)),
        (1, (1, 1)),
        (1, (0, 0, 0)),
        (2, (0,)),
        (2, (1,)),
    ]
    for g, d in cases:
        expected = bracket(g, d)
        for trial in range(3):
            shuffled = list(d)
            rng.shuffle(shuffled)
            pick = lambda maxima: rng.randint(0, len(maxima) - 1)
            q, pideg = bracket_reference(g, shuffled, pick)
            got = PiScalar(rat(q.numerator, q.denominator), pideg if q else 0)
            assert got == expected, (g, d, trial)


@st.composite
def _small_keys(draw):
    # dimension 3g-3+n <= 5 keeps the exponential oracle under ~1 s a key
    g = draw(st.integers(0, 2))
    n = draw(st.integers(3 if g == 0 else 1, min(6, 8 - 3 * g)))
    dim = 3 * g - 3 + n
    d = []
    for x in draw(st.lists(st.integers(0, dim), min_size=n, max_size=n)):
        d.append(min(x, dim - sum(d)))
    return g, tuple(d)


@settings(max_examples=60, deadline=None)
@given(_small_keys())
@example((0, (0, 0, 0, 0, 0)))  # rest {0,0,0,0}: diagonal split {0,0} | {0,0}
@example((2, (0, 0, 0)))  # rest {0,0}: diagonal split ({0}, g=1) | ({0}, g=1)
@example((1, (2, 0, 0, 0, 0)))  # rest {0,0,0,0}: ({0,0}, g=0) | ({0,0}, g=1) once
@example((1, (2, 1, 1, 0, 0)))  # off-diagonal splits only
@example((0, (1, 1, 1, 0, 0, 0, 0)))  # {1} | {1} tied, c0 = 4: diagonal at z = 2 only
@example((1, (2, 1, 1, 0, 0, 0)))  # {1} | {1} tied, c0 = 3: z from 2, not 1
def test_cold_bracket_matches_reference(key) -> None:
    g, d = key
    q, pideg = bracket_reference(g, d)
    got = bracket(g, d, BracketCache())
    assert got == PiScalar(rat(q.numerator, q.denominator), pideg if q else 0), key


def test_homogeneity_structural() -> None:
    for g, d in [(0, (0,) * 5), (1, (2, 0)), (2, (1, 1)), (3, ())]:
        b = bracket(g, d)
        if not b.is_zero():
            assert b.pideg == 2 * (3 * g - 3 + len(d) - sum(d))


def test_c_m_examples_and_guards() -> None:
    assert c_m(1, 1, 0) == PiScalar(rat(1), 0)
    assert c_m(0, 3, 1) == PiScalar(rat(6), -2)
    assert c_m(1, 0, 1) == PiScalar(rat(6), -2)
    with pytest.raises(ValueError):
        c_m(1, 1, 3)  # m > 3g-2+n = 2
    with pytest.raises(ValueError):
        c_m(0, 1, 0)  # (0,2) unstable


def test_c_m_monotone_and_c1_half() -> None:
    for g, n in [(0, 3), (0, 5), (1, 1), (1, 3), (2, 0), (2, 2)]:
        prev = None
        for m in range(0, 3 * g - 2 + n + 1):
            val = float(eval_numeric(c_m(g, n, m), 40).mid())
            if prev is not None:
                assert val <= prev + 1e-30
            prev = val
        c1 = float(eval_numeric(c_m(g, n, 1), 40).mid())
        assert c1 >= 0.5


def test_nonnegative_and_dominated_by_volume() -> None:
    rng = random.Random(5)
    for _ in range(30):
        g = rng.randint(0, 2)
        n = rng.randint(1, 6)
        if 2 * g - 2 + n <= 0:
            continue
        d = [rng.randint(0, 3) for _ in range(n)]
        b = bracket(g, d)
        assert float(eval_numeric(b, 30).mid()) >= 0.0
        diff = volume(g, n).to_poly() - b.to_poly()
        assert float(eval_numeric(diff, 40).mid()) >= -1e-30


def test_drop_index_and_one_minus_ratio_bounds() -> None:
    from wplab import recorded
    from wplab.volumes import partitions_upto

    drop_cap = omr_cap = 0.0
    for g, n in [(2, 1), (3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2)]:
        vol = float(eval_numeric(volume(g, n), 40).mid())
        for part in partitions_upto(min(3 * g - 3 + n, 6), n):
            if not part:
                continue
            d = list(part) + [0] * (n - len(part))
            s = sum(part)
            b_full = bracket(g, d)
            b_drop = bracket(g, [0] + d[1:])
            num = float(eval_numeric(b_drop.to_poly() - b_full.to_poly(), 40).mid())
            assert num >= -1e-25, (g, n, part)  # dropping an index never shrinks
            drop_cap = max(drop_cap, num * g / (vol * s * (s + n)))
            k = len(part)
            ratio = float(eval_numeric(b_full, 40).mid()) / vol
            assert 0.0 <= 1.0 - ratio + 1e-12, (g, n, part)
            omr_cap = max(omr_cap, (1 - ratio) * g / (k * (s * s + n * s)))
    assert drop_cap <= recorded.DROP_INDEX_CAP * (1 + 1e-9)
    assert drop_cap == pytest.approx(recorded.DROP_INDEX_CAP, rel=1e-6)
    assert omr_cap <= recorded.ONE_MINUS_RATIO_CAP * (1 + 1e-9)
    assert omr_cap == pytest.approx(recorded.ONE_MINUS_RATIO_CAP, rel=1e-6)


def test_cache_round_trip(tmp_path) -> None:
    cache = BracketCache()
    for g, d in [(0, (0, 0, 0)), (1, (1, 0)), (2, ())]:
        bracket(g, d, cache)
    path = tmp_path / "cache.txt"
    saved = cache_save(path, cache)
    assert saved == len(cache)

    fresh = BracketCache()
    loaded = cache_load(path, fresh)
    assert loaded == saved
    assert fresh.entries == cache.entries

    # idempotent re-load of identical values
    assert cache_load(path, fresh) == saved


def test_cache_small_round_trip_count(tmp_path) -> None:
    cache = BracketCache()
    bracket(1, (1, 0), cache)  # pulls in its closure
    three = BracketCache()
    for key in list(cache.entries)[:3]:
        three.entries[key] = cache.entries[key]
    path = tmp_path / "three.txt"
    assert cache_save(path, three) == 3
    out = BracketCache()
    assert cache_load(path, out) == 3


def test_cache_save_failure_keeps_previous_file(tmp_path) -> None:
    old = BracketCache()
    bracket(0, (0, 0, 0), old)
    path = tmp_path / "brackets.txt"
    cache_save(path, old)
    before = path.read_bytes()

    broken = BracketCache()
    bracket(1, (1, 0), broken)
    broken.entries[(9, 0, ())] = object()  # sorts last: fails after the others
    with pytest.raises(TypeError):
        cache_save(path, broken)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["brackets.txt"]


def test_recursion_depth_bounded_by_dimension() -> None:
    # every child of a bracket has lower dimension 3g-3+n, so a cold
    # V_{5,3} (dimension 15) needs no raised recursion limit
    code = (
        "import sys\n"
        "before = sys.getrecursionlimit()\n"
        "import wplab\n"
        "assert 'numpy' not in sys.modules\n"
        "assert sys.getrecursionlimit() == before, sys.getrecursionlimit()\n"
        "sys.setrecursionlimit(60)\n"
        "print(wplab.volume(5, 3, wplab.BracketCache()).render())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == volume(5, 3).render()


def test_cache_load_empty_and_errors(tmp_path) -> None:
    empty = tmp_path / "empty.txt"
    empty.write_text("wpbracket v1\n", encoding="utf-8")
    assert cache_load(empty, BracketCache()) == 0

    bad_version = tmp_path / "version.txt"
    bad_version.write_text("wpbracket v9\n", encoding="utf-8")
    with pytest.raises(ValueError, match="version"):
        cache_load(bad_version, BracketCache())

    corrupt = tmp_path / "corrupt.txt"
    corrupt.write_text(
        "wpbracket v1\n0|0:3|1/1*pi^0\n0|0:4|2/x*pi^2\n", encoding="utf-8"
    )
    with pytest.raises(ValueError, match="line 3"):
        cache_load(corrupt, BracketCache())

    inhomogeneous = tmp_path / "pideg.txt"
    inhomogeneous.write_text("wpbracket v1\n0|0:3|1/1*pi^2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        cache_load(inhomogeneous, BracketCache())

    # |d| = 5 > 3g-3+n = 2: rejected; a zero there fails positivity first
    for value, message in [
        ("1/1*pi^-6", "exponent sum 5"),
        ("0/1*pi^0", "value '0/1*pi^0' is not positive"),
    ]:
        over_full = tmp_path / "over_full.txt"
        over_full.write_text(
            f"wpbracket v1\n0|0:3|1/1*pi^0\n0|1:5|{value}\n", encoding="utf-8"
        )
        with pytest.raises(ValueError, match=re.escape(f"over_full.txt: line 3: {message}")):
            cache_load(over_full, BracketCache())

    # a zero denominator names its file and line, not a ZeroDivisionError
    zero_den = tmp_path / "zero_den.txt"
    zero_den.write_text("wpbracket v1\n0|0:4|1/0*pi^2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"zero_den\.txt: line 2: zero denominator"):
        cache_load(zero_den, BracketCache())

    # a negative genus fails the signature rule even where 2g-2+n > 0
    negative = tmp_path / "negative.txt"
    negative.write_text("wpbracket v1\n-1|0:7|1/1*pi^2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"negative\.txt: line 2: unstable signature \(-1,7\)"):
        cache_load(negative, BracketCache())

    # surrounding whitespace and a trailing CR are stripped
    loose = tmp_path / "loose.txt"
    loose.write_text("wpbracket v1\n0|0:4| 2/1*pi^2 \r\n0|1:1,0:3|12/1*pi^0\n", encoding="utf-8")
    out = BracketCache()
    assert cache_load(loose, out) == 2
    assert out.entries == {(0, 4, ()): 2, (0, 4, (1,)): 12}

    # a reducible fraction is not in the form cache_save writes; a zero,
    # in any form, is not a bracket of a key within 3g-3+n
    for value, message in [
        ("4/2*pi^2", "value '4/2*pi^2' is not in lowest terms"),
        ("0/5*pi^0", "value '0/5*pi^0' is not positive"),
        ("0/1*pi^7", "value '0/1*pi^7' is not positive"),
        ("0/1*pi^0", "value '0/1*pi^0' is not positive"),
    ]:
        noncanonical = tmp_path / "noncanonical.txt"
        noncanonical.write_text(f"wpbracket v1\n0|0:3|1/1*pi^0\n0|0:4|{value}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"noncanonical.txt: line 3: {message}")):
            cache_load(noncanonical, BracketCache())

    # a negative value is rejected as a zero is
    negative_value = tmp_path / "negative_value.txt"
    negative_value.write_text("wpbracket v1\n0|0:3|1/1*pi^0\n0|0:4|-2/1*pi^2\n", encoding="utf-8")
    with pytest.raises(
        ValueError, match=r"negative_value\.txt: line 3: value '-2/1\*pi\^2' is not positive"
    ):
        cache_load(negative_value, BracketCache())

    # a key repeated within one file, with another value or the same one
    for value in ("3/1*pi^2", "2/1*pi^2"):
        repeated = tmp_path / "repeated.txt"
        repeated.write_text(
            f"wpbracket v1\n0|0:4|2/1*pi^2\n0|0:4|{value}\n", encoding="utf-8"
        )
        with pytest.raises(
            ValueError, match=r"repeated\.txt: line 3: duplicate key 0\|0:4, first at line 2"
        ):
            cache_load(repeated, BracketCache())


def test_cache_load_then_save_is_byte_identical(tmp_path) -> None:
    stats = cache_warm(LabConfig(budget=12, cache_dir=str(tmp_path / "warm")), cache=BracketCache())
    loaded = BracketCache()
    assert cache_load(stats.path, loaded) == stats.entries_total
    again = tmp_path / "again.txt"
    cache_save(again, loaded)
    assert again.read_bytes() == (tmp_path / "warm" / "brackets.txt").read_bytes()


@pytest.mark.parametrize(
    "counts, message",
    [
        ("0:0", "bad multiset pair '0:0'"),
        ("-1:2", "bad multiset pair '-1:2'"),
        ("1:x", "invalid literal for int"),
        ("1:1,1:1", "strictly descending"),
        ("0:3,1:1", "strictly descending"),
    ],
)
def test_cache_load_checks_every_piece_on_every_line(tmp_path, counts, message) -> None:
    # the earlier lines decode the valid pieces 1:1 and 0:3 first
    bad = tmp_path / "bad.txt"
    bad.write_text(
        f"wpbracket v1\n0|0:3|1/1*pi^0\n0|1:1,0:3|1/1*pi^0\n1|{counts}|1/1*pi^2\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=rf"bad\.txt: line 4: .*{re.escape(message)}"):
        cache_load(bad, BracketCache())


def test_closed_volume_leaves_out_v_g1() -> None:
    # V_{2,0} is read off the slice (2, 1, ()), but V_{2,1} lies one
    # dimension past budget 3 and enters the table only at budget 4
    cache = BracketCache()
    cache_warm(LabConfig(budget=3), cache=cache)
    assert (2, 0, ()) in cache.entries
    assert (2, 1, ()) not in cache.entries, "budget 3 stored V_{2,1}"
    cache_warm(LabConfig(budget=4), cache=cache)
    assert (2, 1, ()) in cache.entries, "budget 4 did not store V_{2,1}"


def test_bracket_key_canonicalization() -> None:
    key = canonical_key(1, (0, 2, 1, 0))
    assert key == canonical_key(1, (2, 1, 0, 0))
    assert key[1] == 4
    assert _value_counts(key) == [(2, 1), (1, 1), (0, 2)]
    assert pideg_of_key(key) == 2 * (3 - 3 + 4 - 3)


def test_splits_visit_each_unordered_split_once() -> None:
    # `_splits` shares the nonzero classes; the kernel then sends z of the
    # c0 zeros left, z >= c0 / 2 while the nonzero pieces are tied
    rng = random.Random(11)
    for _ in range(40):
        values = sorted(rng.sample(range(1, 6), rng.randint(0, 3)), reverse=True)
        counts = [rng.randint(1, 4) for _ in values]
        c0 = rng.randint(1, 5)
        nonzero = list(zip(values, counts))
        every_count = counts + [c0]
        seen = set()
        total = 0
        for left, sum_left, right, weight, tied in _splits(nonzero):
            assert sum_left == sum(left)
            for z in range((c0 + 1) // 2 if tied else 0, c0 + 1):
                diagonal = tied and 2 * z == c0
                t = tuple(left.count(v) for v in values) + (z,)
                rest = tuple(right.count(v) for v in values) + (c0 - z,)
                assert rest == tuple(c - ti for c, ti in zip(every_count, t))
                assert diagonal == (t == rest)
                assert weight * math.comb(c0, z) == math.prod(map(math.comb, every_count, t))
                assert min(t, rest) not in seen, (nonzero, c0, t)
                seen.add(min(t, rest))
                total += weight * math.comb(c0, z) * (1 if diagonal else 2)
        every = itertools.product(*(range(c + 1) for c in every_count))
        assert seen == {min(t, tuple(c - ti for c, ti in zip(every_count, t))) for t in every}
        assert total == 2 ** sum(every_count)


def test_splits_never_see_a_zero(monkeypatch) -> None:
    # the kernel shares the zeros itself; a zero class handed to `_splits`
    # would bring its fan-out back into the generator
    calls = []
    splits = brackets._splits

    def watched(items):
        calls.append(items)
        return splits(items)

    monkeypatch.setattr(brackets, "_splits", watched)
    cache_warm(LabConfig(budget=12), cache=BracketCache())
    assert calls, "the warm split nothing"
    assert not [items for items in calls if any(v == 0 for v, _ in items)]


def test_narrow_first_slot_widens_and_repacks(tmp_path, monkeypatch) -> None:
    # from 8-bit slots the table must widen several times, re-packing the
    # cached slices and recomputing the slice that overflowed, and still
    # write the pinned bytes.  Without headroom every width is as tight as
    # the bounds allow, so a bound that misses a term overflows a slot.
    monkeypatch.setattr(brackets, "_FIRST_SLOT", 8)
    monkeypatch.setattr(brackets, "_SLOT_HEADROOM", 0)
    packs = []
    pack = brackets._pack

    def counted(nums, S):
        packs.append(S)
        return pack(nums, S)

    monkeypatch.setattr(brackets, "_pack", counted)
    cache = BracketCache()
    assert cache.slot == 8
    stats = cache_warm(LabConfig(budget=12, cache_dir=str(tmp_path)), cache=cache)
    assert cache.slot > 64
    assert len(packs) > len(cache.slices), "no slice was re-packed"
    assert hashlib.sha256((tmp_path / "brackets.txt").read_bytes()).hexdigest() == BRACKETS_SHA256
    assert stats.entries_total == 3321


def test_negative_entry_is_never_packed() -> None:
    # a poisoned table: (0, 4, (1,)) is read by the slice (0, 4, ()), which
    # V_{0,5} builds
    cache = BracketCache()
    cache.entries[(0, 4, (1,))] = rat(-1)
    with pytest.raises(AssertionError, match=r"negative bracket -1 at \(0, 4, \(1,\)\)"):
        volume(0, 5, cache)


def test_slot_width_follows_the_tracked_bound() -> None:
    # the width is the largest bound in whole bytes plus the headroom, not
    # a fixed wide slot
    cache = BracketCache()
    cache_warm(LabConfig(budget=14), cache=cache)
    assert 0 < cache.bound_bits <= cache.slot
    assert cache.slot % 8 == 0
    assert cache.slot <= -(-cache.bound_bits // 8) * 8 + brackets._SLOT_HEADROOM


def test_clear_empties_every_memo_and_resets_the_width(tmp_path) -> None:
    # no memo may outlive the table it was read from: after clear() every
    # dict the cache holds is empty, the slot width is the first one and
    # the table is known to equal no file
    cache = BracketCache()
    cache_warm(LabConfig(budget=12, cache_dir=str(tmp_path)), cache=cache)
    volume_float(3, 4, 30, cache)
    volume_poly(2, 5, cache)
    box_count_integral(2, 4, 2, CutoffLength.rational(1), cache)
    memos = {name: v for name, v in vars(cache).items() if isinstance(v, dict)}
    assert set(memos) == {"entries", "slices", "floats", "coeffs", "box_weights"}
    assert all(memos.values())
    assert cache.slot > brackets._FIRST_SLOT and cache.bound_bits > 0
    assert cache.same_as is not None
    cache.clear()
    assert all(v == {} for v in vars(cache).values() if isinstance(v, dict))
    assert (cache.slot, cache.bound_bits, cache.same_as) == (brackets._FIRST_SLOT, 0, None)


def _dilaton_holds(q, g: int, n: int) -> bool:
    """
    The Do-Norbury dilaton relation at beta = 0 on a stable (g, n), n >= 1:
    sum_{j >= 1} 2j (-4)^(j-1) q(g,n+1,(j,)) / (4^j (2j+1)!) = (2g-2+n) q(g,n,()).
    """
    lhs = sum(
        rat(2 * j * (-4) ** (j - 1), 4**j * math.factorial(2 * j + 1)) * q(g, n + 1, (j,))
        for j in range(1, 3 * g - 2 + n + 1)
    )
    return lhs == (2 * g - 2 + n) * q(g, n, ())


def _string_holds(q, g: int, n: int) -> bool:
    """
    The Do-Norbury string relation at beta = 0 on a stable (g, n), n >= 1:
    sum_{j=0}^{3g-2+n} (-1)^j q(g,n+1,(j,)) / (2j+1)! = 0.
    """
    return not sum(
        rat((-1) ** j, math.factorial(2 * j + 1)) * q(g, n + 1, (j,) if j else ())
        for j in range(3 * g - 2 + n + 1)
    )


def _failures(holds, q, max_dim: int) -> tuple[int, list]:
    """
    A relation over every stable (g, n) with n >= 1 and 3g-3+n <= max_dim.
    Returns (relations checked, the (g, n) where it fails).
    """
    count, failures = 0, []
    for g in range(max_dim // 3 + 2):
        for n in range(1, max_dim - 3 * g + 4):
            if not brackets.stable(g, n):
                continue
            count += 1
            if not holds(q, g, n):
                failures.append((g, n))
    return count, failures


@pytest.fixture(scope="module")
def demand23() -> BracketCache:
    """A table that the dilaton tests fill by demand, empty at first."""
    return BracketCache()


def test_dilaton_relation_past_the_sha256_pins(demand23) -> None:
    # by demand from an empty table, up to dimension 23, where slots reach
    # 264 bits; n = 0 is the identity that `_q_closed` is built on
    assert _failures(_dilaton_holds, lambda g, n, dnz: brackets._cached_q(g, n, dnz, demand23), 23) == (124, [])
    assert demand23.slot == 264


def test_string_relation_past_the_sha256_pins(demand23) -> None:
    assert _failures(_string_holds, lambda g, n, dnz: brackets._cached_q(g, n, dnz, demand23), 23) == (124, [])


def test_dilaton_relation_catches_one_wrong_bracket(demand23) -> None:
    def q(g, n, dnz):
        value = brackets._cached_q(g, n, dnz, demand23)
        return value * rat(3, 2) if (g, n, dnz) == (5, 9, (4,)) else value

    assert _failures(_dilaton_holds, q, 23) == (124, [(5, 8)])


def _check_relations_by_demand(g: int, n: int, slot: int, entries: int) -> None:
    """
    Both relations on (g, n), by demand from an empty table that ends at
    `slot`-bit slots and `entries` entries; a copy with one wrong
    q(g, n+1, (5,)) must fail both.
    """
    cache = BracketCache()

    def q(g, n, dnz):
        return brackets._cached_q(g, n, dnz, cache)

    assert _string_holds(q, g, n) and _dilaton_holds(q, g, n)
    assert (cache.slot, len(cache)) == (slot, entries)
    wrong_key = (g, n + 1, (5,))

    def wrong(g, n, dnz):
        return q(g, n, dnz) * rat(3, 2) if (g, n, dnz) == wrong_key else q(g, n, dnz)

    assert not _string_holds(wrong, g, n) and not _dilaton_holds(wrong, g, n)


def test_string_and_dilaton_relations_at_dimension_30() -> None:
    # both relations on (10, 2) read (10, 3), of top dimension 30; by
    # demand from an empty table, slots widen to 312 bits
    _check_relations_by_demand(10, 2, 312, 26546)


@pytest.mark.parametrize(("g", "n", "slot", "entries"), [(0, 38, 384, 703), (1, 35, 360, 4749), (2, 32, 368, 16331)])
def test_string_and_dilaton_relations_at_dimension_36(g, n, slot, entries) -> None:
    # each (g, n) reads (g, n+1), of top dimension 36; slots widen to
    # 360-384 bits
    _check_relations_by_demand(g, n, slot, entries)
