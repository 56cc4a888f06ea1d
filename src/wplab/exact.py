r"""
Exact arithmetic in the ring of finite sums sum_k q_k pi^k (q_k rational,
k in Z), plus the Bernoulli / zeta(2i) machinery behind the recursion
coefficients and certified numeric evaluation of exact values.

Rationals are `fractions.Fraction`: arbitrary precision, always reduced
to lowest terms with a positive denominator.
"""

from __future__ import annotations

from fractions import Fraction as Rat
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Dict, List, Tuple, Union

from mpmath import mp
from mpmath.libmp import (
    dps_to_prec,
    from_int,
    fzero,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_pi,
    mpf_shift,
    mpi_pow_int,
    round_ceiling,
    round_floor,
    to_float,
)

__all__ = [
    "Rat",
    "RAT_BACKEND",
    "rat",
    "PiScalar",
    "PiPoly",
    "NumInterval",
    "eval_numeric",
    "eval_float",
    "bernoulli",
    "zeta_even",
    "coeff_a",
    "coeff_b",
]

# the rational type by name, as benchmark records report it
RAT_BACKEND = "fraction"

RatLike = Union[int, "Rat"]


def rat(num: int, den: int = 1) -> Rat:
    """Reduced rational num/den with positive denominator; ZeroDivisionError for den 0."""
    return Rat(num, den)


def _coprime_rat(num: int, den: int) -> Rat:
    """
    num/den with no second normalization, built as CPython 3.12's
    `Fraction._from_coprime_ints` builds it.  Precondition: ints with
    den > 0 and gcd(num, den) == 1, so num/den is already in lowest terms.
    """
    q = object.__new__(Rat)
    q._numerator = num
    q._denominator = den
    return q


def _rat_sum(terms: List[Tuple[int, int]]) -> Rat:
    """The sum of num/den over (num, den) pairs, den > 0: one Rat over the lcm of the dens."""
    den = lcm(*(d for _, d in terms))
    return Rat(sum(num * (den // d) for num, d in terms), den)


# ---------------------------------------------------------------------------
# Bernoulli numbers and the recursion coefficients
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Rat:
    """
    m-th Bernoulli number, convention B_1 = -1/2, via the recurrence
    sum_{j=0}^{m} C(m+1, j) B_j = 0.  The terms are asked for in
    ascending j, so a cold call recurses one level deep.
    """
    if m < 0:
        raise ValueError("bernoulli index must be >= 0")
    if m == 0:
        return Rat(1)
    return -sum(comb(m + 1, j) * bernoulli(j) for j in range(m)) / (m + 1)


def _zeta_even_rat(i: int) -> Rat:
    # zeta(2i) = (-1)^(i+1) B_{2i} (2 pi)^(2i) / (2 (2i)!); rational part only
    s = 1 if i % 2 == 1 else -1
    return s * bernoulli(2 * i) * Rat(2 ** (2 * i), 2 * factorial(2 * i))


def zeta_even(i: int) -> "PiScalar":
    """zeta(2i) as an exact rational multiple of pi^(2i), i >= 1."""
    if i < 1:
        raise ValueError("zeta_even requires i >= 1 (i = 0 is a pole)")
    return PiScalar(_zeta_even_rat(i), 2 * i)


@lru_cache(maxsize=None)
def _coeff_a_rat(i: int) -> Rat:
    """Rational part of a_i (a_i = _coeff_a_rat(i) * pi^(2i); a_0 = 1/2)."""
    if i == 0:
        return Rat(1, 2)
    return _zeta_even_rat(i) * (1 - Rat(1, 2 ** (2 * i - 1)))


def coeff_a(i: int) -> "PiScalar":
    """Recursion coefficient: a_0 = 1/2, a_i = zeta(2i)(1 - 2^(1-2i))."""
    if i < 0:
        raise ValueError("coeff_a index must be >= 0")
    return PiScalar(_coeff_a_rat(i), 0 if i == 0 else 2 * i)


def _coeff_b_rat(m: int) -> Rat:
    return Rat(m, factorial(2 * m + 1))


def coeff_b(m: int) -> "PiScalar":
    """Alternating-sum coefficient b_m = m pi^(2m-2) / (2m+1)!, m >= 1."""
    if m < 1:
        raise ValueError("coeff_b requires m >= 1")
    return PiScalar(_coeff_b_rat(m), 2 * m - 2)


# ---------------------------------------------------------------------------
# PiScalar: a single rational multiple of an integer power of pi
# ---------------------------------------------------------------------------

def _render_term(q: Rat, k: int) -> str:
    return f"{q.numerator}/{q.denominator}*pi^{k}"


class PiScalar:
    """
    coeff * pi^pideg with coeff rational and pideg in Z (negative allowed).
    Canonical zero has pideg 0.  Values are immutable.
    """

    __slots__ = ("coeff", "pideg")

    def __init__(self, coeff: RatLike, pideg: int = 0):
        c = Rat(coeff) if not isinstance(coeff, Rat) else coeff
        if c == 0:
            pideg = 0
        object.__setattr__(self, "coeff", c)
        object.__setattr__(self, "pideg", int(pideg))

    def __setattr__(self, name, value):
        raise AttributeError("PiScalar is immutable")

    @staticmethod
    def zero() -> "PiScalar":
        return PiScalar(0, 0)

    def is_zero(self) -> bool:
        return self.coeff == 0

    def __bool__(self) -> bool:
        return self.coeff != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, PiScalar):
            return self.coeff == other.coeff and self.pideg == other.pideg
        if isinstance(other, (int, Rat)):
            return self.pideg == 0 and self.coeff == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.pideg == 0:
            return hash(self.coeff)
        return hash(frozenset({(self.pideg, self.coeff)}))

    def __neg__(self) -> "PiScalar":
        return PiScalar(-self.coeff, self.pideg)

    def __add__(self, other) -> "PiScalar":
        other = _as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.pideg != other.pideg:
            raise ValueError(
                f"adding pi-degrees {self.pideg} and {other.pideg}; use PiPoly"
            )
        return PiScalar(self.coeff + other.coeff, self.pideg)

    __radd__ = __add__

    def __sub__(self, other) -> "PiScalar":
        return self + (-_as_scalar(other))

    def __rsub__(self, other) -> "PiScalar":
        return _as_scalar(other) + (-self)

    def __mul__(self, other) -> "PiScalar":
        other = _as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return PiScalar(self.coeff * other.coeff, self.pideg + other.pideg)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PiScalar":
        other = _as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero PiScalar")
        return PiScalar(self.coeff / other.coeff, self.pideg - other.pideg)

    def __rtruediv__(self, other) -> "PiScalar":
        return _as_scalar(other) / self

    def __pow__(self, k: int) -> "PiScalar":
        if not isinstance(k, int):
            raise TypeError("PiScalar power must be an integer")
        if k < 0:
            if self.is_zero():
                raise ZeroDivisionError("0 ** negative")
            return PiScalar(1 / (self.coeff ** (-k)), self.pideg * k)
        return PiScalar(self.coeff ** k, self.pideg * k)

    def to_poly(self) -> "PiPoly":
        if self.is_zero():
            return PiPoly({})
        return PiPoly({self.pideg: self.coeff})

    def render(self) -> str:
        """Bit-exact interchange format, e.g. '7/720*pi^4'."""
        return _render_term(self.coeff, self.pideg)

    def __repr__(self) -> str:
        return f"PiScalar({self.render()})"

    def __float__(self) -> float:
        return eval_float(self, 30)


def _as_scalar(x) -> "PiScalar":
    if isinstance(x, PiScalar):
        return x
    if isinstance(x, (int, Rat)):
        return PiScalar(x, 0)
    return NotImplemented


# ---------------------------------------------------------------------------
# PiPoly: finite sums over distinct pi-degrees
# ---------------------------------------------------------------------------


class PiPoly:
    """
    Finite sum sum_k q_k pi^k as a pideg -> coefficient table; zero
    coefficients are never stored.  Ring operations close over the type.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[int, RatLike] | None = None):
        tbl: Dict[int, Rat] = {}
        if terms:
            for k, v in terms.items():
                q = Rat(v) if not isinstance(v, Rat) else v
                if q != 0:
                    tbl[int(k)] = q
        object.__setattr__(self, "terms", tbl)

    def __setattr__(self, name, value):
        raise AttributeError("PiPoly is immutable")

    @staticmethod
    def zero() -> "PiPoly":
        return PiPoly({})

    @staticmethod
    def constant(q: RatLike) -> "PiPoly":
        return PiPoly({0: q})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        # equal to the hash of the equal PiScalar, int or Rat
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "PiPoly":
        return PiPoly({k: -v for k, v in self.terms.items()})

    def __add__(self, other) -> "PiPoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, 0) + v
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return PiPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "PiPoly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "PiPoly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "PiPoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out: Dict[int, Rat] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = k1 + k2
                s = out.get(k, 0) + v1 * v2
                if s == 0:
                    out.pop(k, None)
                else:
                    out[k] = s
        return PiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "PiPoly":
        if not isinstance(e, int) or e < 0:
            raise TypeError("PiPoly power must be a non-negative integer")
        out = PiPoly.constant(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def render(self) -> str:
        if not self.terms:
            return "0/1*pi^0"
        return "+".join(_render_term(self.terms[k], k) for k in sorted(self.terms, reverse=True))

    def __repr__(self) -> str:
        return f"PiPoly({self.render()})"

    def __float__(self) -> float:
        return eval_float(self, 30)


def _as_poly(x) -> "PiPoly":
    if isinstance(x, PiPoly):
        return x
    if isinstance(x, PiScalar):
        return x.to_poly()
    if isinstance(x, (int, Rat)):
        return PiPoly({0: x})
    return NotImplemented


# ---------------------------------------------------------------------------
# Certified numeric evaluation
# ---------------------------------------------------------------------------


class NumInterval:
    """Closed interval [lo, hi] guaranteed to contain the exact real value."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if lo > hi:
            raise ValueError(f"invalid interval [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("NumInterval is immutable")

    def width(self):
        return self.hi - self.lo

    def mid(self):
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def __float__(self) -> float:
        return float(self.mid())

    def __repr__(self) -> str:
        return f"NumInterval({self.lo!r}, {self.hi!r})"


def _int_bounds(x: int, prec: int):
    """x rounded to prec bits by floor and by ceiling; one rounding when x fits, as both are then x."""
    lo = from_int(x, prec, round_floor)
    return (lo, lo) if x.bit_length() <= prec else (lo, from_int(x, prec, round_ceiling))


@lru_cache(maxsize=None)
def _pi_pow(prec: int, k: int):
    """pi^k enclosed at working precision prec, as iv.pi ** k computes it."""
    pi = mpf_pi(prec, round_floor), mpf_pi(prec, round_ceiling)
    return mpi_pow_int(pi, k, prec)


def _bounds(x, precision_digits: int):
    """
    The raw mpf endpoints (lo, hi) of eval_numeric(x, precision_digits), by
    the correctly rounded calls that mpmath's interval division, product
    and sum make on each term, in their order: bit-identical to theirs.
    """
    if precision_digits < 1:
        raise ValueError("precision_digits must be >= 1")
    if isinstance(x, PiScalar):
        terms = ((x.pideg, x.coeff),) if x.coeff else ()
    else:
        poly = _as_poly(x)
        if poly is NotImplemented:
            raise TypeError(f"cannot evaluate {type(x).__name__}")
        terms = poly.terms.items()
    prec = dps_to_prec(precision_digits + 10)
    lo = hi = None
    for k, q in terms:
        n_lo, n_hi = _int_bounds(q.numerator, prec)
        d_lo, d_hi = _int_bounds(q.denominator, prec)
        p_lo, p_hi = _pi_pow(prec, k) if k else (None, None)
        if n_lo[0]:  # q < 0: each endpoint takes the other bound of den and pi^k
            d_lo, d_hi, p_lo, p_hi = d_hi, d_lo, p_hi, p_lo
        a = mpf_div(n_lo, d_hi, prec, round_floor)
        b = mpf_div(n_hi, d_lo, prec, round_ceiling)
        if k:
            a, b = mpf_mul(a, p_lo, prec, round_floor), mpf_mul(b, p_hi, prec, round_ceiling)
        if lo is None:  # 0 + a rounds to a itself, as a fits in prec bits
            lo, hi = a, b
        else:
            lo, hi = mpf_add(lo, a, prec, round_floor), mpf_add(hi, b, prec, round_ceiling)
    return (fzero, fzero) if lo is None else (lo, hi)


def eval_numeric(x, precision_digits: int = 30) -> NumInterval:
    """
    Certified enclosure of an exact value (PiScalar, PiPoly, Rat or int).
    Each term q_k pi^k is enclosed with correctly rounded `mpmath.libmp`
    primitives (floor below, ceiling above) at the working precision of
    precision_digits + 10 decimal digits, and the terms are summed the
    same way, so the true real value is always contained; width shrinks
    as precision grows.  No global state is read or set: mp.dps and
    iv.dps are left alone, and calls from several threads do not interfere.
    """
    lo, hi = _bounds(x, precision_digits)
    return NumInterval(mp.make_mpf(lo), mp.make_mpf(hi))


def eval_float(x, precision_digits: int = 30) -> float:
    """
    float(eval_numeric(x, precision_digits).mid()), bit for bit, and the
    same errors, with no interval built: the endpoints are added at
    mpmath's working precision and rounding, halved exactly and rounded
    to a float in that mode, as mid() and float() do.
    """
    lo, hi = _bounds(x, precision_digits)
    prec, rounding = mp._prec_rounding
    return to_float(mpf_shift(mpf_add(lo, hi, prec, rounding), -1), rnd=rounding)
