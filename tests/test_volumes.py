import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest

import reference_mid
from wplab.brackets import BracketCache, stable
from wplab.exact import PiPoly, PiScalar, eval_numeric, rat
from wplab.lab import LabConfig, cache_warm
from wplab.topology import SplitPair
from wplab.volumes import (
    cor1_bound_check,
    identity_check,
    lratio_check,
    mz_ratio,
    partitions_upto,
    ratio_R,
    volume,
    volume_at,
    volume_float,
    volume_poly,
)


def test_volume_values() -> None:
    assert volume(0, 3) == PiScalar(rat(1), 0)
    assert volume(0, 4) == PiScalar(rat(2), 2)
    assert volume(0, 5) == PiScalar(rat(10), 4)
    assert volume(0, 6) == PiScalar(rat(244, 3), 6)
    assert volume(0, 7) == PiScalar(rat(2758, 3), 8)
    assert volume(1, 1) == PiScalar(rat(1, 12), 2)
    assert volume(1, 2) == PiScalar(rat(1, 4), 4)
    assert volume(1, 3) == PiScalar(rat(14, 9), 6)
    assert volume(2, 0) == PiScalar(rat(43, 2160), 6)
    assert volume(2, 1) == PiScalar(rat(29, 192), 8)
    assert volume(3, 0) == PiScalar(rat(176557, 1209600), 12)
    with pytest.raises(ValueError):
        volume(0, 2)


def test_volume_poly_tables() -> None:
    p11 = volume_poly(1, 1)
    assert p11.constant() == PiScalar(rat(1, 12), 2)
    assert p11.coefficient((1,)) == PiScalar(rat(1, 48), 0)

    p04 = volume_poly(0, 4)
    assert p04.constant() == PiScalar(rat(2), 2)
    assert p04.coefficient((1,)) == PiScalar(rat(1, 2), 0)

    p03 = volume_poly(0, 3)
    assert p03.constant() == PiScalar(rat(1), 0)
    assert list(p03.coeffs) == [()]


def test_volume_at_examples() -> None:
    assert volume_at(1, 1, [0]) == PiPoly({2: rat(1, 12)})
    two_pi = PiPoly({1: rat(2)})
    assert volume_at(0, 4, [two_pi, 0, 0, 0]) == PiPoly({2: rat(4)})
    assert volume_at(1, 1, [1]) == PiPoly({2: rat(1, 12), 0: rat(1, 48)})
    # V_{0,4} = 2 pi^2 + sum x_i^2 / 2: the pi^1 numerators of (1 + pi)^2 and
    # (1 - pi)^2 cancel, and the cancelled degree is not stored
    got = volume_at(0, 4, [PiPoly({0: 1, 1: 1}), PiPoly({0: 1, 1: -1}), 0, 0])
    assert got == PiPoly({0: 1, 2: 3})
    assert sorted(got.terms) == [0, 2]
    with pytest.raises(ValueError):
        volume_at(1, 1, [1, 2])


def test_volume_at_matches_direct_expansion() -> None:
    # V_{1,1}(x) = (x^2 + 4 pi^2)/48 at assorted rational points
    for x in (Fraction(1, 2), Fraction(3), Fraction(7, 5)):
        got = volume_at(1, 1, [PiPoly.constant(rat(x.numerator, x.denominator))])
        want = PiPoly({0: rat(x.numerator ** 2, 48 * x.denominator ** 2), 2: rat(1, 12)})
        assert got == want

    # brute force over every ordered exponent vector d with |d| <= 3g-3+n:
    # sum coefficient(sorted d) * prod x_i^(2 d_i), at lengths that mix a
    # zero, an int, a rational, a multiple of pi, a two-term value, a
    # repeated length, a negative pi-degree with a negative coefficient and
    # a large denominator; (value passed, same value as a PiPoly)
    two_term = PiPoly({0: rat(1, 2), 1: rat(1, 3)})
    negative = PiPoly({-1: rat(5, 2), 2: rat(-1, 4)})
    pool = [
        (0, PiPoly.zero()),
        (3, PiPoly.constant(3)),
        (PiPoly.constant(rat(2, 5)), PiPoly.constant(rat(2, 5))),
        (PiScalar(rat(3, 4), 1), PiPoly({1: rat(3, 4)})),
        (two_term, two_term),
        (two_term, two_term),
        (negative, negative),
        (PiPoly.constant(rat(7, 97)), PiPoly.constant(rat(7, 97))),
    ]
    for g, n in [(0, 3), (0, 5), (1, 3), (2, 2), (1, 1)]:
        poly = volume_poly(g, n)
        top = 3 * g - 3 + n
        for shift in range(len(pool)):
            chosen = (pool[shift:] + pool[:shift])[:n]
            want = PiPoly.zero()
            for d in itertools.product(range(top + 1), repeat=n):
                if sum(d) > top:
                    continue
                term = poly.coefficient(d).to_poly()
                for (_, x), e in zip(chosen, d):
                    term = term * x ** (2 * e)
                want = want + term
            got = volume_at(g, n, [value for value, _ in chosen])
            assert got == want, (g, n, shift)


def test_mz_ratio_values() -> None:
    assert mz_ratio(1, 1) == PiScalar(rat(1, 3), -2)
    assert mz_ratio(0, 4) == PiScalar(rat(2, 5), -2)
    assert mz_ratio(0, 5) == PiScalar(rat(45, 122), -2)


def test_ratio_R_values() -> None:
    assert ratio_R(0, 5) == rat(75, 122)
    r12 = ratio_R(1, 2)
    # exact rational with all pi-degrees cancelled
    assert r12 == volume(1, 2).coeff ** 2 / (volume(1, 1).coeff * volume(1, 3).coeff)
    assert 0 < float(r12) < 1
    with pytest.raises(ValueError):
        ratio_R(1, 0)
    with pytest.raises(ValueError):
        ratio_R(0, 3)  # V_{0,2} undefined


def test_identity_small_signatures() -> None:
    for g, n in [(1, 1), (0, 4), (2, 0), (0, 3), (1, 2), (2, 1), (3, 0), (0, 6)]:
        ok, residual = identity_check(g, n)
        assert ok, (g, n, residual.render())
        assert residual.is_zero()


def test_cor1_bound_values() -> None:
    assert cor1_bound_check(0, 4) == pytest.approx(math.sqrt(2) / 2, rel=1e-9)
    assert cor1_bound_check(1, 1) == pytest.approx(math.pi ** 2 / 12, rel=1e-9)
    v12 = float(eval_numeric(volume(1, 2), 40).mid())
    assert cor1_bound_check(1, 2) == pytest.approx(
        v12 * math.sqrt(2) / (4 * math.pi ** 2), rel=1e-9
    )


def test_lratio_check() -> None:
    lhs, rhs = lratio_check(1, SplitPair(0, 3, 1, 2), 1, 3)
    want_lhs = float(eval_numeric(PiScalar(rat(1, 4) / rat(14, 9), -2), 40).mid())
    assert lhs == pytest.approx(want_lhs, rel=1e-9)
    assert rhs == pytest.approx(4 / 27, rel=1e-15)
    with pytest.raises(ValueError):
        lratio_check(1, SplitPair(1, 1, 0, 4), 2, 1)  # violates balance
    with pytest.raises(ValueError):
        lratio_check(2, SplitPair(0, 3, 1, 2), 1, 3)  # m mismatch
    # chi = 2m symmetric split: rhs reduces to 4^-m
    lhs22, rhs22 = lratio_check(1, SplitPair(0, 3, 0, 3), 2, 0)
    assert rhs22 == pytest.approx(0.25, rel=1e-15)


def test_sandwich_bounds_random_lengths() -> None:
    rng = random.Random(31)
    for g, n in [(0, 4), (1, 1), (1, 2), (0, 5), (2, 1)]:
        vol = float(eval_numeric(volume(g, n), 40).mid())
        for _ in range(4):
            xs = [Fraction(rng.randint(0, 16), 4) for _ in range(n)]
            val = float(
                eval_numeric(
                    volume_at(g, n, [PiPoly.constant(rat(x.numerator, x.denominator)) for x in xs]),
                    40,
                ).mid()
            )
            upper = math.exp(sum(float(x) for x in xs) / 2.0) * vol
            assert vol <= val * (1 + 1e-12)
            assert val <= upper * (1 + 1e-12)


def test_volume_monotonicity_in_signature() -> None:
    # V_{g-1,n+4} <= V_{g,n+2} for admissible small signatures
    for g, n in [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)]:
        lhs = float(eval_numeric(volume(g - 1, n + 4), 40).mid())
        rhs = float(eval_numeric(volume(g, n + 2), 40).mid())
        assert lhs <= rhs * (1 + 1e-12), (g, n)


def test_sinh_bound_on_regime_signatures() -> None:
    rng = random.Random(77)
    for g, n, k in [(4, 2, 1), (4, 2, 2), (6, 2, 2), (5, 1, 1)]:
        vol = float(eval_numeric(volume(g, n), 40).mid())
        for _ in range(3):
            xs = [Fraction(rng.randint(1, 12), 4) for _ in range(k)]
            doubled = [PiPoly.constant(2 * rat(x.numerator, x.denominator)) for x in xs]
            lengths = doubled + [PiPoly.zero()] * (n - k)
            val = float(eval_numeric(volume_at(g, n, lengths), 40).mid())
            bound = 1.0
            for x in xs:
                bound *= math.sinh(float(x)) / float(x)
            assert val / vol <= bound * (1 + 1e-10), (g, n, k, xs)


def test_abel_sum_window() -> None:
    # the alternating sum lies in [(1/6 - pi^2/60) c1, c1/6 + b_{top} c1]
    from wplab.brackets import c_m
    from wplab.exact import coeff_b

    for g, n in [(0, 4), (1, 1), (1, 3), (2, 1), (0, 8)]:
        top = 3 * g - 2 + n
        total = PiScalar.zero()
        for m in range(1, top + 1):
            term = coeff_b(m) * c_m(g, n, m)
            total = total + (term if m % 2 == 1 else -term)
        s = float(eval_numeric(total, 40).mid())
        c1 = float(eval_numeric(c_m(g, n, 1), 40).mid())
        b_top = float(eval_numeric(coeff_b(top + 1), 40).mid())
        lo = (1.0 / 6.0 - math.pi ** 2 / 60.0) * c1
        hi = c1 / 6.0 + b_top * c1
        assert lo <= s <= hi, (g, n, lo, s, hi)


def test_partitions_enumeration() -> None:
    parts = sorted(partitions_upto(3, 2))
    assert parts == [(), (1,), (1, 1), (2,), (2, 1), (3,)]
    assert list(partitions_upto(0, 5)) == [()]
    assert len(list(partitions_upto(4, 1))) == 5
    # in lexicographic order, and with a cap on the entries
    assert list(partitions_upto(3, 2)) == parts
    assert list(partitions_upto(5, 3, 2)) == [(), (1,), (1, 1), (1, 1, 1), (2,), (2, 1), (2, 1, 1), (2, 2), (2, 2, 1)]


def test_volume_midpoints_match_the_exact_fadd_route() -> None:
    # every volume of a budget-16 table, at two working precisions and in
    # every rounding mode: volume_float and cor1_bound_check against
    # mpmath's exact fadd and ldexp of the same enclosure, in the mode in force
    cache = BracketCache()
    cache_warm(LabConfig(budget=16), cache=cache)
    sigs = [(g, n) for g in range(7) for n in range(20) if stable(g, n) and 3 * g - 3 + n <= 16]
    seen = {}
    prec_rounding = mpmath.mp._prec_rounding  # the list every mpf reads its rounding from
    saved = prec_rounding[1]
    try:
        for prec, mode in itertools.product((53, 200), "nfcdu"):
            prec_rounding[1] = mode
            with mpmath.workprec(prec):
                for digits, (g, n) in itertools.product((30, 100), sigs):
                    mid = reference_mid.volume_mid(g, n, digits, cache)
                    chi = 2 * g - 2 + n
                    want = [float(+mid).hex()]  # rounded at the working precision
                    with mpmath.workdps(digits):
                        denom = mpmath.mpf(math.factorial(chi - 1)) * (4 * mpmath.pi ** 2) ** (chi - 1)
                        want.append(float(+mid * mpmath.sqrt(chi) / denom).hex())
                    got = volume_float(g, n, digits, cache).hex(), cor1_bound_check(g, n, digits, cache).hex()
                    assert got == tuple(want), (g, n, digits, prec, mode)
                    seen.setdefault((g, n, digits), set()).add(got)
    finally:
        prec_rounding[1] = saved
    assert len(cache.floats) == 20 * len(sigs) > 1000
    assert any(len(v) > 1 for v in seen.values())  # the modes do round differently here
