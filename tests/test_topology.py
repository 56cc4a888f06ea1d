from dataclasses import dataclass
from math import factorial
from typing import Iterator, List, Tuple

import pytest

from wplab.topology import SplitPair, enumerate_splits, pairing_multiplicity


@dataclass(frozen=True)
class PantsPairing:
    """
    An ordered family of k disjoint unordered puncture pairs {i, j} in
    {1, ..., n}; each pair is the puncture set cut off by one curve.
    """

    pairs: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        normalized = []
        for i, j in self.pairs:
            if i == j or i < 1 or j < 1:
                raise ValueError(f"bad pair ({i},{j})")
            if i in seen or j in seen:
                raise ValueError(f"pair ({i},{j}) reuses a puncture")
            seen.update((i, j))
            normalized.append((min(i, j), max(i, j)))
        object.__setattr__(self, "pairs", tuple(normalized))

    @property
    def k(self) -> int:
        return len(self.pairs)

    def punctures(self) -> set:
        return {p for pair in self.pairs for p in pair}


def all_pairings(n: int, k: int) -> Iterator[PantsPairing]:
    """All ordered k-families of disjoint pairs; pairing_multiplicity(n,k) many."""
    if k < 1 or n < 2 * k:
        raise ValueError(f"need n >= 2k >= 2, got n={n}, k={k}")

    def rec(chosen: List[Tuple[int, int]], used: frozenset):
        if len(chosen) == k:
            yield PantsPairing(tuple(chosen))
            return
        rest = [p for p in range(1, n + 1) if p not in used]
        for a_idx in range(len(rest)):
            for b_idx in range(a_idx + 1, len(rest)):
                i, j = rest[a_idx], rest[b_idx]
                yield from rec(chosen + [(i, j)], used | {i, j})

    yield from rec([], frozenset())


def test_enumerate_splits_hand_case() -> None:
    got = {(s.g1, s.n1, s.g2, s.n2) for s in enumerate_splits(1, 2, 1)}
    assert got == {(0, 3, 0, 4), (0, 3, 1, 2), (1, 1, 1, 2)}


def test_enumerate_splits_range_guard() -> None:
    with pytest.raises(ValueError):
        enumerate_splits(5, 2, 1)  # floor(chi/2) = 1
    with pytest.raises(ValueError):
        enumerate_splits(0, 2, 1)
    with pytest.raises(ValueError):
        enumerate_splits(1, 0, 3)  # chi = 1, no separating splits


def test_split_conditions_and_cardinality_bound() -> None:
    for g in range(0, 7):
        for n in range(0, 14):
            chi = 2 * g - 2 + n
            if chi < 2:
                continue
            for m in range(1, min(chi // 2, 12) + 1):
                splits = enumerate_splits(m, g, n)
                assert len(splits) <= 2 * (m + 3) ** 2
                for sp in splits:
                    k = sp.validate(g, n)
                    assert sp.m == m
                    assert sp.g1 + sp.g2 + k == g + 1
                    assert k == sp.k_for(n) >= 1


def test_enumerate_splits_is_complete() -> None:
    # every (g1, n1, g2, n2) that validate accepts with .m == m, each once.
    # validate's Euler and cut conditions give g1 + g2 <= g and
    # n2 <= n + n1 <= n + m + 2, so the search box holds them all.
    for g in range(0, 7):
        for n in range(0, 14):
            chi = 2 * g - 2 + n
            if chi < 2:
                continue
            for m in range(1, chi // 2 + 1):
                want = set()
                for g1 in range(0, g + 1):
                    n1 = m + 2 - 2 * g1  # the one n1 with .m == m
                    if n1 < 1:
                        continue
                    for g2 in range(0, g + 1):
                        for n2 in range(1, n + m + 3):
                            sp = SplitPair(g1, n1, g2, n2)
                            try:
                                sp.validate(g, n)
                            except ValueError:
                                continue
                            want.add(sp)
                splits = enumerate_splits(m, g, n)
                assert len(set(splits)) == len(splits), (m, g, n)
                assert set(splits) == want, (m, g, n)


def test_split_validate_rejects_bad_tuples() -> None:
    with pytest.raises(ValueError):
        SplitPair(1, 1, 0, 4).validate(2, 1)  # puncture balance violated
    with pytest.raises(ValueError):
        SplitPair(0, 3, 0, 4).validate(2, 2)  # Euler sizes off
    with pytest.raises(ValueError):
        SplitPair(1, 1, 2, 1).validate(2, 2)  # k = 0 is not a cut
    with pytest.raises(ValueError):
        SplitPair(0, 3, 1, 0).validate(1, 1)  # n2 = 0


def test_pairing_multiplicity_against_brute_force() -> None:
    for n in range(2, 11):
        for k in range(1, 5):
            if n < 2 * k:
                continue
            ordered = 0
            unordered = set()
            for fam in all_pairings(n, k):
                ordered += 1
                unordered.add(frozenset(fam.pairs))
            assert ordered == pairing_multiplicity(n, k)
            # the closed form counts ordered tuples of pairs, so each
            # unordered family appears k! times
            assert len(unordered) * factorial(k) == ordered


def test_pairing_multiplicity_examples() -> None:
    assert pairing_multiplicity(2, 1) == 1
    assert pairing_multiplicity(6, 2) == 90
    assert pairing_multiplicity(4, 2) == 6
    with pytest.raises(ValueError):
        pairing_multiplicity(3, 2)


def test_pants_pairing_type_and_enumeration() -> None:
    p = PantsPairing(((3, 1), (2, 5)))
    assert p.pairs == ((1, 3), (2, 5))  # pairs normalized, order kept
    assert p.k == 2 and p.punctures() == {1, 2, 3, 5}
    with pytest.raises(ValueError):
        PantsPairing(((1, 1),))
    with pytest.raises(ValueError):
        PantsPairing(((1, 2), (2, 3)))  # reused puncture
    for n, k in [(4, 1), (4, 2), (6, 2), (7, 3)]:
        fams = list(all_pairings(n, k))
        assert len(fams) == pairing_multiplicity(n, k)
        assert len(set(fams)) == len(fams)


def test_render() -> None:
    sp = SplitPair(0, 3, 1, 2)
    assert sp.render(3) == "(0,3|1,2|1)"
