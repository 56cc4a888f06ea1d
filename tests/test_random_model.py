import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from wplab import random_model, volumes
from wplab.brackets import BracketCache, bracket, stable
from wplab.exact import PiPoly, PiScalar, eval_numeric, factorial, rat
from wplab.random_model import (
    ARCSINH1,
    BudgetExceeded,
    CutoffLength,
    box_count_integral,
    cheeger_prob_upper,
    expected_pants_count,
    factorial_moment,
    length_scale,
    poisson_lambda,
    poisson_pmf,
    pvol2_sum,
    second_moment_bound,
    simplex_monomial_integral,
    two_curve_expectation_bound,
)
from wplab.topology import enumerate_splits, pairing_multiplicity
from wplab.lab import LabConfig, _signature_grid
from wplab.volumes import volume, volume_float, volume_poly


def test_cutoff_parse_and_render() -> None:
    L = CutoffLength.parse("1/5pi")
    assert L.kind == "rational_pi" and L.value == Fraction(1, 5)
    assert float(L) == pytest.approx(math.pi / 5)
    assert L.render() == "1/5pi"
    assert CutoffLength.parse("3").as_poly() == PiPoly.constant(3)
    assert CutoffLength.parse("7/2").value == Fraction(7, 2)
    with pytest.raises(ValueError):
        CutoffLength.parse("2.5")
    with pytest.raises(ValueError):
        CutoffLength.rational(0)


def test_expected_pants_count_closed_form() -> None:
    res = expected_pants_count(1, 2, 1, CutoffLength.rational(1))
    assert res.exact == PiPoly({-4: rat(1, 48), -2: rat(1, 6)})
    mid = float(res.numeric.mid())
    assert mid == pytest.approx(1.0 / 48 / math.pi ** 4 + 1.0 / 6 / math.pi ** 2)
    assert not res.warnings


def test_expected_pants_count_guards() -> None:
    with pytest.raises(ValueError):
        expected_pants_count(1, 3, 2, CutoffLength.rational(1))  # n < 2k
    with pytest.raises(BudgetExceeded):
        expected_pants_count(3, 9, 1, CutoffLength.rational(1), budget=10)


def test_expected_pants_count_leading_order() -> None:
    L = CutoffLength.rational(Fraction(1, 1000))
    for g, n, k in [(1, 2, 1), (0, 5, 1), (1, 4, 2)]:
        res = expected_pants_count(g, n, k, L)
        lead = (
            pairing_multiplicity(n, k)
            * float(eval_numeric(volume(g, n - k), 40).mid())
            / float(eval_numeric(volume(g, n), 40).mid())
            / 2 ** k
        )
        got = float(res.numeric.mid()) / float(L) ** (2 * k)
        assert got == pytest.approx(lead, rel=1e-4), (g, n, k)


def test_factorial_moment_alias_and_warning() -> None:
    a = expected_pants_count(1, 2, 1, CutoffLength.rational(1))
    b = factorial_moment(1, 2, 1, CutoffLength.rational(1))
    assert a.exact == b.exact
    res = factorial_moment(1, 2, 1, CutoffLength.rational(2))
    assert float(CutoffLength.rational(2)) > 2 * ARCSINH1 - 1e-9
    assert any("collar" in w for w in res.warnings)


def test_box_integral_reproduces_sinh_antiderivative() -> None:
    # integrating the truncated series of 2 sinh(x/2) term by term must
    # reproduce the truncation of 4 cosh(L/2) - 4, at rational L
    L = Fraction(7, 5)
    for order in (5, 12, 30):
        left = Fraction(0)
        right = Fraction(0)
        for j in range(order + 1):
            # term x^(2j+1)/(4^j (2j+1)!) integrates to L^(2j+2)/(4^j (2j+2)!)... * (2j+2)/(2j+2)
            left += L ** (2 * j + 2) / Fraction(4 ** j * factorial(2 * j + 1) * (2 * j + 2))
            right += 4 * (L / 2) ** (2 * j + 2) / factorial(2 * j + 2)
        assert left == right


def test_box_count_integral_matches_term_by_term() -> None:
    # int over [0, L]^k of V_{g,n}(x_1..x_k, 0..0) prod x_i dx, summed over
    # every ordered exponent vector e: x^(2e+1) integrates to L^(2e+2)/(2e+2)
    cutoffs = (CutoffLength.rational(Fraction(3, 7)), CutoffLength.pi_multiple(Fraction(2, 5)))
    for g, n in [(0, 5), (1, 2), (1, 3), (2, 3)]:
        poly = volume_poly(g, n)
        top = 3 * g - 3 + n
        for k in range(1, min(n, 3) + 1):
            for L in cutoffs:
                Lp = L.as_poly()
                want = PiPoly.zero()
                for e in itertools.product(range(top + 1), repeat=k):
                    if sum(e) > top:
                        continue
                    term = poly.coefficient(e).to_poly()
                    for v in e:
                        term = term * Lp ** (2 * v + 2) * rat(1, 2 * v + 2)
                    want = want + term
                got = box_count_integral(g, n, k, L)
                assert got == want, (g, n, k, L.render())


def test_simplex_monomial_integral() -> None:
    assert simplex_monomial_integral((1, 1)) == rat(1, 24)
    assert simplex_monomial_integral((0,)) == rat(1, 1)
    # Monte-Carlo cross-check of int_{sum x <= 1} prod x_i dx for k <= 4
    rng = np.random.Generator(np.random.PCG64(7))
    for k in range(1, 5):
        pts = rng.random((200_000, k))
        inside = pts.sum(axis=1) <= 1.0
        est = float((pts.prod(axis=1) * inside).mean())
        want = float(rat(1, factorial(2 * k)))
        assert est == pytest.approx(want, rel=0.05), k


def test_poisson_lambda() -> None:
    lam, warn = poisson_lambda(3.7, 0.0)
    assert lam == 0.0 and not warn
    lam, warn = poisson_lambda(2 * math.pi, math.log(3) / math.pi)
    assert lam == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert warn  # far outside the proved regime
    lam1, _ = poisson_lambda(1.3, 0.05)
    lam2, _ = poisson_lambda(2.6, 0.05)
    assert lam2 == pytest.approx(4 * lam1, rel=1e-12)
    with pytest.raises(ValueError):
        poisson_lambda(-1.0, 0.1)


def test_poisson_pmf() -> None:
    assert poisson_pmf(0.0, 0) == 1.0
    assert poisson_pmf(0.0, 3) == 0.0
    assert poisson_pmf(1.0, 1) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert poisson_pmf(2.0, 0) == pytest.approx(math.exp(-2.0), rel=1e-12)
    for lam in (0.5, 2.0, 7.0):
        assert sum(poisson_pmf(lam, j) for j in range(200)) == pytest.approx(1.0)


def test_second_moment_bound() -> None:
    L = length_scale(1, 4)
    assert L.value == Fraction(1, 2)  # (sqrt(1)/4)^(1/2) exactly
    res = second_moment_bound(1, 4, L)
    assert 0.0 <= res.bound <= 1.0
    assert res.second_moment_exact == res.first.exact + res.second_factorial.exact
    assert float(res.target) == pytest.approx(
        float(eval_numeric(PiScalar(res.target, 0), 40).mid())
    )
    tiny = second_moment_bound(1, 4, CutoffLength.rational(Fraction(1, 10 ** 6)))
    assert tiny.bound < 1e-10
    with pytest.raises(ValueError):
        second_moment_bound(1, 3, L)


def test_length_scale() -> None:
    assert length_scale(16, 4).value == 1
    assert length_scale(1, 1).value == 1
    assert float(length_scale(16, 8)) == pytest.approx(math.sqrt(0.5), abs=1e-6)
    case2 = length_scale(16, 4, variant="case2")
    assert float(case2) == pytest.approx(16 ** 0.125 / 4 ** 0.25, abs=1e-6)
    with pytest.raises(ValueError):
        length_scale(0, 1)


def test_cheeger_prob_upper() -> None:
    v, warn = cheeger_prob_upper(2, 1, 0.05)
    assert v > 0 and math.isfinite(v) and not warn
    # independent assembly from the three splits of I_1 at (2,1)
    splits = enumerate_splits(1, 2, 1)
    vol = float(eval_numeric(volume(2, 1), 40).mid())
    want = 0.0
    for sp in splits:
        vv = (
            float(eval_numeric(volume(sp.g1, sp.n1), 40).mid())
            * float(eval_numeric(volume(sp.g2, sp.n2), 40).mid())
            / vol
        )
        for k in range(1, sp.n1 + 1):
            want += (
                vv
                * (2 * math.pi * 0.05) ** (2 * k)
                / (factorial(k) * factorial(2 * k))
                * math.exp(2 * math.pi * 0.05)
            )
    assert v == pytest.approx(want, rel=1e-9)

    small, _ = cheeger_prob_upper(2, 1, 1e-6)
    assert small < 1e-9  # vanishes as C -> 0

    _, warn = cheeger_prob_upper(2, 1, 0.12)
    assert warn  # beyond log2/(2 pi)
    with pytest.raises(BudgetExceeded):
        cheeger_prob_upper(4, 2, 0.05, budget=8)


def test_pvol2_sum() -> None:
    assert pvol2_sum(1, 1, 0.05) == 0.0  # chi = 1 < 4: empty m-range
    v = pvol2_sum(3, 1, 0.05)
    assert v > 0 and math.isfinite(v)
    with pytest.raises(ValueError):
        pvol2_sum(3, 1, 0.2)
    with pytest.raises(ValueError):
        pvol2_sum(3, 1, math.log(2) / (2 * math.pi))


def test_two_curve_expectation() -> None:
    res = two_curve_expectation_bound(2, 2, Fraction(1, 20))
    assert res.value > 0 and math.isfinite(res.value)
    assert res.scaled == pytest.approx(res.value * 4)
    # C -> 0: value / C^4 -> eval(V_{g-1,n+1}/V_{g,n}) * (2 pi)^4 / 24
    C = Fraction(1, 10 ** 4)
    res0 = two_curve_expectation_bound(2, 2, C)
    lead = (
        float(eval_numeric(volume(1, 3), 40).mid())
        / float(eval_numeric(volume(2, 2), 40).mid())
        * (2 * math.pi) ** 4
        / 24.0
    )
    assert res0.value / float(C) ** 4 == pytest.approx(lead, rel=1e-4)
    with pytest.raises(ValueError, match="unstable"):
        two_curve_expectation_bound(0, 4, Fraction(1, 20))


def test_unstable_signatures_rejected() -> None:
    # a negative genus is unstable even where 2g-2+n > 0
    assert stable(-1, 5) is False
    L = CutoffLength.rational(1)
    calls = [
        lambda: box_count_integral(0, 2, 1, L),
        lambda: box_count_integral(-1, 7, 1, L),
        lambda: expected_pants_count(-1, 6, 1, L),
        lambda: volume_poly(-1, 7),
        lambda: bracket(-1, (0,) * 5),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="unstable"):
            call()


def test_volume_float_is_the_certified_mid() -> None:
    cache = BracketCache()
    sigs = [(g, n) for g in range(6) for n in range(16) if stable(g, n) and 3 * g - 3 + n <= 12]
    for digits in (30, 40):
        for g, n in sigs:
            want = float(eval_numeric(volume(g, n, cache), digits).mid())
            assert volume_float(g, n, digits, cache) == want
            assert volume_float(g, n, digits, cache) == want  # from the memo
    assert len(cache.floats) == 2 * len(sigs)
    cache.clear()
    assert cache.floats == {}


def test_split_sums_evaluate_each_volume_once(monkeypatch) -> None:
    seen = []

    def counted(x, digits=30):
        seen.append((x.coeff, x.pideg, digits))
        return eval_numeric(x, digits)

    def forbidden(*args, **kwargs):
        raise AssertionError("split sums evaluate volumes only through volume_float")

    monkeypatch.setattr(volumes, "eval_numeric", counted)
    monkeypatch.setattr(random_model, "eval_numeric", forbidden)
    cache = BracketCache()
    grid = [(g, n) for g, n in _signature_grid(LabConfig(budget=12)) if 2 * g - 2 + n >= 2]
    for g, n in grid:
        cheeger_prob_upper(g, n, 0.05, 30, 12, cache)
        if g >= 1:
            pvol2_sum(g, n, 0.05, 30, 12, cache)
    assert len(seen) == len(set(seen)) == len(cache.floats)
    assert {(g, n) for g, n, _ in cache.floats} >= set(grid)


def test_budget_checked_before_the_float_memo() -> None:
    cache = BracketCache()
    cheeger_prob_upper(2, 4, 0.05, 30, None, cache)
    assert (2, 4, 30) in cache.floats and (1, 3, 30) in cache.floats
    with pytest.raises(BudgetExceeded, match=r"\(2,4\) needs budget 7 > 6"):
        cheeger_prob_upper(2, 4, 0.05, 30, 6, cache)
    with pytest.raises(BudgetExceeded, match=r"\(1,3\) needs budget 3 > 2"):
        random_model._vol_float(1, 3, 30, 2, cache)
