"""
The bracket table against `wk_oracle`: Witten-Kontsevich numbers by the
DVV recursion plus the kappa_1 pushforward, which shares no code with
the engine and rests on a different theorem.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from wplab.brackets import BracketCache, bracket, bracket_rat
from wplab.exact import PiScalar, rat
from wplab.lab import LabConfig, cache_warm

from wk_oracle import bracket_oracle


def _as_fraction(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


def _expand(key):
    g, n, dnz = key
    return g, dnz + (0,) * (n - len(dnz))


def test_oracle_normalization_pins() -> None:
    assert bracket_oracle(1, (0,)) == Fraction(1, 12)
    assert bracket_oracle(1, (1,)) == Fraction(1, 2)
    assert bracket_oracle(2, ()) == Fraction(43, 2160)
    assert bracket(2, ()) == PiScalar(rat(43, 2160), 6)


def test_cold_budget10_table_matches_oracle() -> None:
    cache = BracketCache()
    cache_warm(LabConfig(budget=10), cache=cache)
    keys = [key for key in cache.entries if key[1] >= 1]
    assert len(keys) == 1396
    for key in keys:
        g, d = _expand(key)
        assert _as_fraction(cache.entries[key]) == bracket_oracle(g, d), key


def test_closed_surfaces_match_oracle() -> None:
    cache = BracketCache()
    for g in range(2, 6):
        assert _as_fraction(bracket_rat(g, (), cache)) == bracket_oracle(g, ()), g


@st.composite
def _keys(draw):
    g = draw(st.integers(0, 3))
    n = draw(st.integers(3 if g == 0 else 1, 12 - 3 * g + 3))
    dim = 3 * g - 3 + n
    d = []
    for x in draw(st.lists(st.integers(0, dim), min_size=n, max_size=n)):
        d.append(min(x, dim - sum(d)))
    return g, tuple(d)


@settings(max_examples=40, deadline=None)
@given(_keys())
def test_cold_key_matches_oracle(key) -> None:
    # each key in a fresh cache: the closure of one key, not of a budget
    g, d = key
    assert _as_fraction(bracket_rat(g, d, BracketCache())) == bracket_oracle(g, d), key
