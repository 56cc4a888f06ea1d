import math
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wplab import exact, recorded
from reference_recursion import _a_rat, _bern
from wplab.exact import (
    PiPoly,
    PiScalar,
    Rat,
    bernoulli,
    coeff_a,
    coeff_b,
    eval_numeric,
    rat,
    zeta_even,
)


@pytest.mark.parametrize("selector", ["gmpy2", "bogus"])
def test_rational_type_is_fraction_whatever_the_environment(selector) -> None:
    # WPLAB_RAT once chose the rational type; it is read no more
    code = (
        "import fractions\n"
        "import wplab\n"
        "assert wplab.exact.Rat is fractions.Fraction\n"
        "assert wplab.exact.RAT_BACKEND == 'fraction'\n"
    )
    env = {**os.environ, "WPLAB_RAT": selector}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_bernoulli_base_and_convention() -> None:
    assert bernoulli(0) == 1
    assert bernoulli(1) == rat(-1, 2)
    assert bernoulli(2) == rat(1, 6)
    assert bernoulli(3) == 0


def test_bernoulli_recurrence_values() -> None:
    assert bernoulli(12) == rat(-691, 2730)
    assert bernoulli(10) == rat(5, 66)
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_coefficients_from_a_cold_start() -> None:
    # a fresh interpreter asks for B_120 first, under a recursion limit
    # far below 120, then for a_0..a_40 from the memoized B_{2i}
    code = (
        "import sys\n"
        "from wplab.exact import _coeff_a_rat, bernoulli\n"
        "sys.setrecursionlimit(60)\n"
        "bernoulli(120)\n"
        "print(*(bernoulli(m) for m in range(121)))\n"
        "print(*(_coeff_a_rat(i) for i in range(41)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    bern_line, a_line = proc.stdout.splitlines()
    B = [Fraction(x) for x in bern_line.split()]
    a = [Fraction(x) for x in a_line.split()]
    assert B[1] == Fraction(-1, 2)
    assert all(B[m] == 0 for m in range(3, 121, 2))
    # von Staudt-Clausen: den B_2k = prod of the primes p with (p-1) | 2k
    primes = [p for p in range(2, 122) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    for m in range(2, 121, 2):
        assert B[m].denominator == math.prod(p for p in primes if m % (p - 1) == 0), m
    for m in (0, 1, 2, 13, 36, 77, 120):
        assert B[m] == _bern(m), m
    assert a == [_a_rat(i) for i in range(41)]


def test_zeta_even_values() -> None:
    assert zeta_even(1) == PiScalar(rat(1, 6), 2)
    assert zeta_even(2) == PiScalar(rat(1, 90), 4)
    assert zeta_even(3) == PiScalar(rat(1, 945), 6)
    with pytest.raises(ValueError):
        zeta_even(0)


def test_coeff_a_values() -> None:
    assert coeff_a(0) == PiScalar(rat(1, 2), 0)
    assert coeff_a(1) == PiScalar(rat(1, 12), 2)
    assert coeff_a(2) == PiScalar(rat(7, 720), 4)
    with pytest.raises(ValueError):
        coeff_a(-1)


def test_coeff_b_values() -> None:
    assert coeff_b(1) == PiScalar(rat(1, 6), 0)
    assert coeff_b(2) == PiScalar(rat(1, 60), 2)
    assert coeff_b(3) == PiScalar(rat(1, 1680), 4)
    with pytest.raises(ValueError):
        coeff_b(0)


def test_eval_numeric_examples() -> None:
    box = eval_numeric(coeff_a(1), 20)
    assert float(box.mid()) == pytest.approx(0.8224670334, abs=1e-10)
    with mpmath.workdps(60):
        assert box.contains(mpmath.pi ** 2 / 12)
    assert float(box.width()) < 1e-19

    zero = eval_numeric(PiScalar.zero(), 5)
    assert zero.lo == zero.hi == 0

    sixth = eval_numeric(PiScalar(rat(1, 6), 0), 40)
    with mpmath.workdps(60):
        assert sixth.contains(mpmath.mpf(1) / 6)
    assert float(sixth.width()) < 1e-39


def test_eval_numeric_contains_thousand_digit_reference() -> None:
    samples = [
        coeff_a(3).to_poly(),
        PiPoly({-2: rat(45, 122)}),
        PiPoly({4: rat(1, 4), 0: rat(-3, 7), -6: rat(22, 9)}),
    ]
    with mpmath.workdps(1000):
        for poly in samples:
            ref = mpmath.mpf(0)
            for k, q in poly.terms.items():
                ref += mpmath.mpf(int(q.numerator)) / int(q.denominator) * mpmath.pi ** k
            for digits in (15, 30, 100):
                assert eval_numeric(poly, digits).contains(ref)


def _iv_context_oracle(x, digits: int):
    """
    The evaluation through mpmath's iv context: working precision
    digits + 10 set globally (and restored), each term
    iv.mpf(p) / iv.mpf(q) * iv.pi ** k, summed in term order.
    """
    poly = exact._as_poly(x)
    old_iv, old_mp = mpmath.iv.dps, mpmath.mp.dps
    try:
        mpmath.iv.dps = digits + 10
        mpmath.mp.dps = digits + 10
        if poly.is_zero():
            z = mpmath.mp.mpf(0)
            return z, z
        total = mpmath.iv.mpf(0)
        pi = mpmath.iv.pi
        for k, q in poly.terms.items():
            t = mpmath.iv.mpf(int(q.numerator)) / mpmath.iv.mpf(int(q.denominator))
            if k:
                t = t * pi ** k
            total = total + t
        return mpmath.mp.convert(total.a), mpmath.mp.convert(total.b)
    finally:
        mpmath.iv.dps, mpmath.mp.dps = old_iv, old_mp


_ORACLE_DIGITS = (1, 5, 15, 30, 40, 100)


def _oracle_values():
    rng = random.Random(20240611)

    def wide_rat():
        num = rng.randrange(-10 ** 30, 10 ** 30)
        return rat(num, rng.randrange(1, 10 ** 30))

    values = [0, 1, -7, 10 ** 40 + 3, rat(0), rat(-22, 7), rat(10 ** 200, 7), rat(-7, 10 ** 200)]
    values += [PiScalar.zero(), PiScalar(rat(10 ** 200, 7), 3), PiScalar(rat(-1, 3), -8)]
    values += [coeff_a(i) for i in (0, 1, 5, 20)] + [coeff_b(m) for m in (1, 4, 11)]
    values += [PiPoly.zero(), PiPoly({4: rat(1, 4), 0: rat(-3, 7), -6: rat(22, 9)})]
    for _ in range(12):
        values.append(PiScalar(wide_rat(), rng.randint(-8, 12)))
        values.append(wide_rat())
        values.append(rng.randrange(-10 ** 30, 10 ** 30))
        degrees = rng.sample(range(-8, 13), rng.randint(1, 6))
        values.append(PiPoly({k: wide_rat() for k in degrees}))
    return values


def _same_endpoints(box, want) -> bool:
    lo, hi = want
    return (
        box.lo._mpf_ == lo._mpf_
        and box.hi._mpf_ == hi._mpf_
        and float(box.mid()) == float((lo + hi) / 2)
    )


def test_eval_numeric_matches_iv_context_oracle() -> None:
    for x in _oracle_values():
        for digits in _ORACLE_DIGITS:
            box = eval_numeric(x, digits)
            assert type(box.lo) is type(box.hi) is mpmath.mpf
            assert _same_endpoints(box, _iv_context_oracle(x, digits)), (x, digits)


def test_eval_float_is_the_float_of_the_mid_bit_for_bit() -> None:
    values = _oracle_values() + [0, 12, rat(355, 113)]

    def bits(x, digits: int):
        got = exact.eval_float(x, digits)
        assert type(got) is float
        want = float(eval_numeric(x, digits).mid()).hex()
        if digits == 30 and isinstance(x, (PiScalar, PiPoly)):
            assert float(x).hex() == want, x  # float() evaluates at 30 digits
        return got.hex(), want

    for x in values:
        for digits in _ORACLE_DIGITS:
            got, want = bits(x, digits)
            assert got == want, (x, digits)
    assert exact.eval_float(0, 30).hex() == (0.0).hex()
    # mid() adds at mpmath's working precision and rounding, and float()
    # rounds in that mode; below 53 bits the floats themselves change
    at53 = [bits(x, 40)[0] for x in values]
    for context in (mpmath.workprec(200), mpmath.workdps(10)):
        with context:
            pairs = [bits(x, digits) for digits in (30, 40) for x in values]
        assert all(got == want for got, want in pairs)
    assert any(got != old for (got, _), old in zip(pairs[len(values):], at53))
    for x, digits, error in ((rat(1, 3), 0, ValueError), (1.5, 30, TypeError), ("1", 30, TypeError)):
        with pytest.raises(error) as want:
            eval_numeric(x, digits)
        with pytest.raises(error, match=str(want.value)):
            exact.eval_float(x, digits)


def test_eval_numeric_keeps_global_precision() -> None:
    x = PiPoly({3: rat(-5, 11), -2: rat(10 ** 200, 7)})
    want = _iv_context_oracle(x, 30)
    old_iv = mpmath.iv.dps
    try:
        mpmath.iv.dps = 17
        with mpmath.workdps(23):
            box = eval_numeric(x, 30)
            assert mpmath.mp.dps == 23 and mpmath.iv.dps == 17
    finally:
        mpmath.iv.dps = old_iv
    assert _same_endpoints(box, want)


def test_eval_numeric_from_two_threads() -> None:
    values = _oracle_values()
    sequential = {d: [eval_numeric(x, d) for x in values] for d in (30, 100)}
    exact._pi_pow.cache_clear()
    start = threading.Barrier(2)
    got = {}

    def run(digits: int) -> None:
        start.wait()
        got[digits] = [eval_numeric(x, digits) for x in values]

    threads = [threading.Thread(target=run, args=(d,)) for d in (30, 100)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two threads finely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for d in (30, 100):
        assert len(got[d]) == len(values)
        for box, want in zip(got[d], sequential[d]):
            assert (box.lo._mpf_, box.hi._mpf_) == (want.lo._mpf_, want.hi._mpf_)


def test_scalar_arithmetic_and_errors() -> None:
    x = PiScalar(rat(1, 2), 2)
    y = PiScalar(rat(1, 3), 2)
    assert (x + y) == PiScalar(rat(5, 6), 2)
    assert (x * y) == PiScalar(rat(1, 6), 4)
    assert (x / y) == PiScalar(rat(3, 2), 0)
    assert (x ** -2) == PiScalar(rat(4), -4)
    with pytest.raises(ValueError):
        x + PiScalar(rat(1), 0)
    assert PiScalar.zero() + x == x
    assert PiScalar(0, 7).pideg == 0  # canonical zero


def test_render_parse_round_trip() -> None:
    # the render format is the cache and CSV interchange format
    assert PiScalar(rat(7, 720), 4).render() == "7/720*pi^4"
    assert PiScalar(rat(-3, 2), -2).render() == "-3/2*pi^-2"
    assert PiScalar.zero().render() == "0/1*pi^0"
    assert PiScalar(rat(6), -2).render() == "6/1*pi^-2"
    assert PiPoly.zero().render() == "0/1*pi^0"
    p = PiPoly({4: rat(1, 4), 0: rat(-3, 7), -2: rat(5)})
    assert p.render() == "1/4*pi^4+-3/7*pi^0+5/1*pi^-2"


_small_rat = st.fractions(
    min_value=-4, max_value=4, max_denominator=9
)


@st.composite
def _pipoly(draw):
    n_terms = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(n_terms):
        k = draw(st.integers(min_value=-3, max_value=3))
        q = draw(_small_rat)
        terms[k] = rat(q.numerator, q.denominator) if q else rat(0)
    return PiPoly(terms)


@settings(max_examples=60, deadline=None)
@given(_pipoly(), _pipoly(), _pipoly())
def test_pipoly_ring_laws(a, b, c) -> None:
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + PiPoly.zero() == a
    assert a * PiPoly.constant(1) == a
    # equal values hash equal across PiPoly, PiScalar, int and Rat
    if len(a.terms) == 1:
        ((k, q),) = a.terms.items()
        assert PiScalar(q, k) == a and hash(PiScalar(q, k)) == hash(a)
    if a.terms.keys() <= {0}:
        q = a.terms.get(0, rat(0))
        assert a == q and hash(a) == hash(q)
    assert len({PiScalar(rat(1, 6), 2), PiPoly({2: rat(1, 6)})}) == 1
    assert hash(PiScalar(3)) == hash(3) == hash(PiPoly.constant(3))
    assert hash(PiScalar(rat(1, 2))) == hash(rat(1, 2))
    assert hash(PiScalar.zero()) == hash(PiPoly.zero()) == hash(0)


def _a_values(count: int, digits: int = 60):
    # endpoint snapshots carry full precision; no rounding arithmetic here
    return [eval_numeric(coeff_a(i), digits).lo for i in range(count)]


def test_a_sequence_increasing_below_one() -> None:
    values = _a_values(42)
    with mpmath.workdps(60):
        for i in range(41):
            assert values[i] < values[i + 1]
        for i in range(1, 42):
            assert values[i] < 1


def test_a_sequence_gap_bounds_and_fitted_constant() -> None:
    values = _a_values(42)
    with mpmath.workdps(60):
        worst = mpmath.mpf(1)
        for i in range(41):
            scaled = (values[i + 1] - values[i]) * 4 ** i
            assert mpmath.mpf(1) / 4 < scaled < 4  # C = 4 suffices on the range
            worst = max(worst, scaled, 1 / scaled)
        assert float(worst) == pytest.approx(recorded.A_GAP_MIN_C, rel=1e-6)


def test_a_partial_sums_bounded_linear_in_k() -> None:
    values = _a_values(212)
    with mpmath.workdps(60):
        worst = mpmath.mpf(0)
        for k in range(1, 11):
            partial = mpmath.mpf(0)
            for M in range(1, 201):
                partial += (M + k) * (values[M + k] - values[M])
                assert partial / k <= recorded.A_PARTIAL_SUM_RATIO_CAP * (1 + 1e-9)
            worst = max(worst, partial / k)
        assert float(worst) == pytest.approx(recorded.A_PARTIAL_SUM_RATIO_CAP, rel=1e-6)


def test_b_sequence_decreasing_on_range() -> None:
    prev = None
    for m in range(1, 41):
        val = float(eval_numeric(coeff_b(m), 40).mid())
        if prev is not None:
            assert val < prev
        prev = val
    # the ratio checks behind the monotonicity claim
    assert float(eval_numeric(coeff_b(2) / coeff_b(1), 30).mid()) == pytest.approx(
        math.pi ** 2 / 10
    )
    assert float(eval_numeric(coeff_b(3) / coeff_b(2), 30).mid()) == pytest.approx(
        math.pi ** 2 / 28
    )
