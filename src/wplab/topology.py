r"""
Combinatorics of separating multi-curves on a genus-g surface with n
punctures: the split families I_m of fixed smaller Euler size m, and the
orbit multiplicities of puncture-pair families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

__all__ = [
    "SplitPair",
    "enumerate_splits",
    "pairing_multiplicity",
]


@dataclass(frozen=True)
class SplitPair:
    """
    A two-piece boundary split (g1,n1 | g2,n2) of a surface of signature
    (g, n).  The cut size k and the smaller Euler size m are derived,
    never stored, so inconsistent tuples cannot be built.
    """

    g1: int
    n1: int
    g2: int
    n2: int

    @property
    def m(self) -> int:
        return 2 * self.g1 - 2 + self.n1

    def k_for(self, n: int) -> int:
        """Number of cut curves when the ambient surface has n punctures."""
        return (self.n1 + self.n2 - n) // 2

    def validate(self, g: int, n: int) -> int:
        """
        Check membership in I_m for (g, n); returns k.  The genus count
        g1 + g2 + k - 1 = g follows from the Euler sizes and k.
        """
        chi = 2 * g - 2 + n
        m = self.m
        other = 2 * self.g2 - 2 + self.n2
        if min(self.g1, self.g2) < 0 or min(self.n1, self.n2) < 1:
            raise ValueError(f"{self}: pieces need n_i >= 1 and g_i >= 0")
        if m + other != chi:
            raise ValueError(f"{self}: Euler sizes {m}+{other} != {chi}")
        if not (1 <= m <= other):
            raise ValueError(f"{self}: requires 1 <= m <= {other}")
        if self.n2 > n + self.n1:
            raise ValueError(f"{self}: puncture balance violated for n={n}")
        two_k = self.n1 + self.n2 - n
        if two_k <= 0 or two_k % 2:
            raise ValueError(f"{self}: cut size (n1+n2-n)/2 = {two_k}/2 invalid")
        return two_k // 2

    def render(self, n: int) -> str:
        """CSV form '(g1,n1|g2,n2|k)' for an ambient surface with n punctures."""
        return f"({self.g1},{self.n1}|{self.g2},{self.n2}|{self.k_for(n)})"


def enumerate_splits(m: int, g: int, n: int) -> List[SplitPair]:
    """
    The split family I_m of (g, n): all (g1,n1,g2,n2) with Euler sizes
    (m, chi-m), m the smaller one, puncture counts balanced, and an
    integral positive number of cut curves.  There are at most m+2
    choices of (g1,n1), so the family has at most 2(m+3)^2 elements.
    The genus count g1 + g2 + k - 1 = g follows from the Euler sizes and
    k = (n1+n2-n)/2.
    """
    chi = 2 * g - 2 + n
    if chi < 2:
        raise ValueError(f"({g},{n}) has chi={chi} < 2: no separating splits")
    if not (1 <= m <= chi // 2):
        raise ValueError(f"m={m} outside [1, {chi // 2}]")
    out: List[SplitPair] = []
    # g1 = (m+2-n1)/2 >= 0; n2 > n-n1 makes k >= 1 and n2 <= chi-m+2
    # makes g2 >= 0.  2 g2 + 2k = 2g - m + n1 is even (n1 and m share a
    # parity), so one parity test covers both.
    for n1 in range(2 - m % 2, m + 3, 2):
        g1 = (m + 2 - n1) // 2
        for n2 in range(max(1, n - n1 + 1), min(n + n1, chi - m + 2) + 1):
            if (n1 + n2 - n) % 2 == 0:
                out.append(SplitPair(g1, n1, (chi - m + 2 - n2) // 2, n2))
    assert len(out) <= 2 * (m + 3) ** 2
    return out


def pairing_multiplicity(n: int, k: int) -> int:
    """
    Number of ordered k-tuples of disjoint unordered puncture pairs
    drawn from n punctures: n! / (2^k (n-2k)!).
    """
    if k < 1 or n < 2 * k:
        raise ValueError(f"need n >= 2k >= 2, got n={n}, k={k}")
    out = 1
    for i in range(2 * k):
        out *= n - i
    return out // (2 ** k)

