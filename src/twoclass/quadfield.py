"""Real quadratic fields Q(sqrt(d)): discriminants, prime splitting,
fundamental units by continued fractions, exact squareness tests, and the
local-norm test for -1.

Units are computed from the periodic continued fraction of sqrt(d), or of
(1 + sqrt(d))/2 when d = 1 (mod 4), over exact integers.  Every element is
carried as a pair of rationals, so squareness and sign questions are decided
without floating point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import (
    as_factored,
    hilbert_symbol,
    kronecker,
)


class SplitType(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


@dataclass(frozen=True)
class QuadraticField:
    """Q(sqrt(d)) for square-free d >= 2."""

    d: int
    primes: tuple[int, ...]
    discriminant: int

    def __repr__(self) -> str:
        return f"Q(sqrt({self.d}))"


def discriminant(d) -> int:
    """d when d = 1 (mod 4), else 4d."""
    d = int(as_factored(d))
    return d if d % 4 == 1 else 4 * d


def quadratic_field(d) -> QuadraticField:
    fs = as_factored(d)
    if fs.value < 2:
        raise ValueError("real quadratic field needs square-free d >= 2")
    return QuadraticField(fs.value, fs.primes, discriminant(fs))


def splitting_in(p: int, field: QuadraticField) -> SplitType:
    """Behaviour of the rational prime p in the field."""
    D = field.discriminant
    if D % p == 0:
        return SplitType.RAMIFIED
    return SplitType.SPLIT if kronecker(D, p) == 1 else SplitType.INERT


# --- exact elements a + b*sqrt(d) ----------------------------------------


def sign_of_quadratic(a: Fraction, b: Fraction, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for rational a, b and nonsquare d >= 2."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare a**2 against d*b**2
    lhs = a * a
    rhs = b * b * d
    if lhs == rhs:  # impossible for nonsquare d, kept for safety
        return 0
    return (1 if a > 0 else -1) if lhs > rhs else (1 if b > 0 else -1)


def sqrt_rational(q: Fraction):
    """Exact square root of a rational, or None."""
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def sqrt_in_quadratic(a: Fraction, b: Fraction, d: int):
    """Solve (u + v*sqrt(d))**2 = a + b*sqrt(d) over the rationals.

    Returns (u, v) or None.  Complete case analysis: for b = 0 the root is
    rational or a rational multiple of sqrt(d); otherwise u**2 is a root of
    X**2 - a X + d b**2 / 4 and both branches are tested exactly.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 and b == 0:
        return Fraction(0), Fraction(0)
    if b == 0:
        r = sqrt_rational(a)
        if r is not None:
            return r, Fraction(0)
        r = sqrt_rational(a / d)
        if r is not None:
            return Fraction(0), r
        return None
    n = a * a - d * b * b
    s = sqrt_rational(n)
    if s is None:
        return None
    for t in ((a + s) / 2, (a - s) / 2):
        u = sqrt_rational(t)
        if u:
            v = b / (2 * u)
            if u * u + d * v * v == a and 2 * u * v == b:
                return u, v
    return None


@dataclass(frozen=True)
class QuadInteger:
    """An algebraic integer a + b*sqrt(d) of Q(sqrt(d)).

    Coordinates are exact rationals with denominator 1, or denominator 2
    (both together) when d = 1 (mod 4).
    """

    a: Fraction
    b: Fraction
    field: QuadraticField

    def __post_init__(self) -> None:
        a, b = Fraction(self.a), Fraction(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a.denominator not in (1, 2) or b.denominator not in (1, 2):
            raise ValueError("coordinates must have denominator 1 or 2")
        half = a.denominator == 2 or b.denominator == 2
        if half:
            if self.field.d % 4 != 1:
                raise ValueError("half-integer coordinates need d = 1 (mod 4)")
            if a.denominator != b.denominator:
                raise ValueError("half-integrality must hold for both coordinates")

    def __mul__(self, other: "QuadInteger") -> "QuadInteger":
        if other.field != self.field:
            raise ValueError("mixed fields")
        d = self.field.d
        return QuadInteger(
            self.a * other.a + d * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.field,
        )

    def __neg__(self) -> "QuadInteger":
        return QuadInteger(-self.a, -self.b, self.field)

    def __pow__(self, n: int) -> "QuadInteger":
        if n < 0:
            raise ValueError("only nonnegative powers")
        out = QuadInteger(Fraction(1), Fraction(0), self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "QuadInteger":
        return QuadInteger(self.a, -self.b, self.field)

    def norm(self) -> Fraction:
        return self.a * self.a - self.field.d * self.b * self.b

    def sign(self) -> int:
        return sign_of_quadratic(self.a, self.b, self.field.d)

    def __repr__(self) -> str:
        return f"({self.a} + {self.b}*sqrt({self.field.d}))"


def is_square_in_K(x: QuadInteger) -> bool:
    """Exact decision of whether x is a square in Q(sqrt(d))."""
    if x.a == 0 and x.b == 0:
        raise ValueError("squareness of zero is not asked here")
    return sqrt_in_quadratic(x.a, x.b, x.field.d) is not None


@dataclass(frozen=True)
class FundamentalUnit:
    """The fundamental unit > 1, with its norm and CF period length."""

    value: QuadInteger
    norm: int
    cf_period: int


@lru_cache(maxsize=None)
def _cf_unit(d: int) -> tuple[Fraction, Fraction, int]:
    """(a, b, period) with the fundamental unit a + b*sqrt(d).

    Expands xi0 = (1 + sqrt(d))/2 for d = 1 (mod 4), else sqrt(d), via the
    integer (P, Q) recurrence.  The tail xi1 is a reduced quadratic
    irrational, hence purely periodic; going once around its cycle gives the
    matrix whose bottom row yields the unit C*xi1 + D of norm (-1)**period.
    """
    s = math.isqrt(d)
    if d % 4 == 1:
        P0, Q0 = 1, 2
    else:
        P0, Q0 = 0, 1
    a0 = (P0 + s) // Q0
    P1 = a0 * Q0 - P0
    Q1 = (d - P1 * P1) // Q0
    P, Q = P1, Q1
    mat_a, mat_b, mat_c, mat_d = 1, 0, 0, 1
    period = 0
    while True:
        a = (P + s) // Q
        mat_a, mat_b, mat_c, mat_d = (
            mat_a * a + mat_b,
            mat_a,
            mat_c * a + mat_d,
            mat_c,
        )
        period += 1
        P = a * Q - P
        Q = (d - P * P) // Q
        if (P, Q) == (P1, Q1):
            break
    # unit = C*xi1 + D with xi1 = (P1 + sqrt(d))/Q1
    ua = Fraction(mat_c * P1 + mat_d * Q1, Q1)
    ub = Fraction(mat_c, Q1)
    nrm = ua * ua - d * ub * ub
    assert nrm == (-1) ** period, (d, ua, ub, period)
    return ua, ub, period


def fundamental_unit(field) -> FundamentalUnit:
    """Fundamental unit > 1 of Q(sqrt(d)), from the CF expansion."""
    if isinstance(field, QuadraticField):
        K = field
    else:
        K = quadratic_field(field)
    ua, ub, period = _cf_unit(K.d)
    value = QuadInteger(ua, ub, K)
    return FundamentalUnit(value, -1 if period % 2 else 1, period)


def unit_norm(field) -> int:
    """Norm of the fundamental unit, (-1)**(CF period length)."""
    return fundamental_unit(field).norm


def minus_one_is_norm(field) -> bool:
    """True iff -1 is a norm from Q(sqrt(d)), by local symbols at p | 2d, oo."""
    if not isinstance(field, QuadraticField):
        field = quadratic_field(field)
    d = field.d
    places = [math.inf, 2] + [p for p in field.primes if p != 2]
    return all(hilbert_symbol(-1, d, p) == 1 for p in places)
