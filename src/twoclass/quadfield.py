"""Real quadratic fields Q(sqrt(d)): discriminants, prime splitting,
fundamental units by continued fractions, exact squareness tests, and the
local-norm test for -1.

Units are computed from the periodic continued fraction of sqrt(d), or of
(1 + sqrt(d))/2 when d = 1 (mod 4), over exact integers.  Half the period
decides the unit: the period of the reduced tail is a palindrome followed by
2*a0 (2*a0 - 1 for (1 + sqrt(d))/2), and its centre is the first step where
P or Q of the (P, Q) recurrence repeats (Jacobson and Williams, Solving the
Pell Equation, Springer 2009, ch. 3).  Every element is
carried as a pair of rationals, so squareness and sign questions are decided
without floating point.  relative_mul, relative_sign and relative_sqrt are
the one product, sign and square root of a + b*sqrt(d); they take the base
field's sign and square root as arguments, and the base field here is Q.
The first layer K1 needs none of them: biquad decides its unit squares in
rational integers (Kubota, Nagoya Math. J. 10, 1956).
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .arith import (
    as_factored,
    hilbert_symbol,
    kronecker,
)

_CACHE_SIZE = 1024  # units memoised; a sweep revisits only Q(sqrt 2)


class SplitType(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


class QuadraticField(NamedTuple):
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


def relative_mul(x, y, d):
    """The product of x = (a, b) and y = (c, e) as elements a + b*sqrt(d)."""
    a, b = x
    c, e = y
    return a * c + b * e * d, a * e + b * c


def relative_sign(x, d, sign):
    """Exact sign of a + b*sqrt(d), given the base field's exact sign."""
    a, b = x
    sa, sb = sign(a), sign(b)
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    # opposite signs: the larger of a**2 and d*b**2 wins
    cmp = sign(a * a - b * b * d)
    if cmp == 0:  # impossible for non-square d, kept for safety
        return 0
    return sa if cmp > 0 else sb


def relative_sqrt(x, d, sqrt):
    """Solve (u + v*sqrt(d))**2 = x = (a, b), given the base field's sqrt.

    Returns (u, v) or None.  For b = 0 the root is in the base field or a
    base multiple of sqrt(d).  Otherwise u**2 = t/2 with t = a +/- s and
    s**2 = a**2 - d b**2 (the roots of X**2 - a X + d b**2 / 4), so
    w = sqrt(2t) = 2u gives the candidate (t/w, b/w); it is returned only
    after squaring back to x.
    """
    a, b = x
    if not b:
        r = sqrt(a)
        if r is not None:
            return r, b
        r = sqrt(a / d)
        return None if r is None else (b, r)
    s = sqrt(a * a - b * b * d)
    if s is None:
        return None
    for t in (a + s, a - s):
        w = sqrt(t + t)
        if w is not None:
            root = t / w, b / w
            if relative_mul(root, root, d) == (a, b):
                return root
    return None


def _sign(q: Fraction) -> int:
    return (q > 0) - (q < 0)


def sign_of_quadratic(a: Fraction, b: Fraction, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for rational a, b and nonsquare d >= 2."""
    return relative_sign((a, b), d, _sign)


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
    """(u, v) with (u + v*sqrt(d))**2 = a + b*sqrt(d) over the rationals, or None."""
    return relative_sqrt((Fraction(a), Fraction(b)), d, sqrt_rational)


class QuadInteger:
    """An algebraic integer a + b*sqrt(d) of Q(sqrt(d)).

    Coordinates are exact rationals with denominator 1, or denominator 2
    (both together) when d = 1 (mod 4).  Immutable, and no tuple: * and **
    are field arithmetic, and + is not defined.
    """

    __slots__ = ("a", "b", "field")

    def __init__(self, a: Fraction, b: Fraction, field: QuadraticField) -> None:
        a, b = Fraction(a), Fraction(b)
        if a.denominator not in (1, 2) or b.denominator not in (1, 2):
            raise ValueError("coordinates must have denominator 1 or 2")
        half = a.denominator == 2 or b.denominator == 2
        if half:
            if field.d % 4 != 1:
                raise ValueError("half-integer coordinates need d = 1 (mod 4)")
            if a.denominator != b.denominator:
                raise ValueError("half-integrality must hold for both coordinates")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError(f"QuadInteger is immutable: cannot assign {name}")

    def __delattr__(self, name):
        raise AttributeError(f"QuadInteger is immutable: cannot delete {name}")

    def __eq__(self, other):
        if not isinstance(other, QuadInteger):
            return NotImplemented
        return (self.a, self.b, self.field) == (other.a, other.b, other.field)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.field))

    def __reduce__(self):
        return QuadInteger, (self.a, self.b, self.field)

    def __mul__(self, other: "QuadInteger") -> "QuadInteger":
        if other.field != self.field:
            raise ValueError("mixed fields")
        return QuadInteger(
            *relative_mul((self.a, self.b), (other.a, other.b), self.field.d),
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


class FundamentalUnit(NamedTuple):
    """The fundamental unit > 1, with its norm and CF period length."""

    value: QuadInteger
    norm: int
    cf_period: int


@lru_cache(maxsize=_CACHE_SIZE)
def _cf_unit(d: int) -> tuple[Fraction, Fraction, int]:
    """(a, b, period) with the fundamental unit a + b*sqrt(d).

    Expands xi0 = (1 + sqrt(d))/2 for d = 1 (mod 4), else sqrt(d), via the
    integer recurrence xi_k = (P_k + sqrt(d))/Q_k.  The tail xi1 is reduced,
    hence purely periodic, with period a_1, ..., a_l where a_1 .. a_(l-1) is
    a palindrome and a_l = 2*a0 (2*a0 - 1 for (1 + sqrt(d))/2).  So the walk
    stops at the centre: the first k with P_(k+1) = P_k (l = 2k) or
    Q_(k+1) = Q_k (l = 2k + 1; Q_1 = Q_0 is l = 1).  With N the product of
    the partial-quotient matrices A(a) = [[a, 1], [1, 0]] before the centre,
    the period matrix is N*A(a_k)*N^T or N*N^T, times A(a_l); its bottom
    row (C, D) gives the unit C*xi1 + D of norm (-1)**l (Jacobson and
    Williams, Solving the Pell Equation, Springer 2009, ch. 3).
    """
    s = math.isqrt(d)
    if d % 4 == 1:
        P0, Q0 = 1, 2
    else:
        P0, Q0 = 0, 1
    a0 = (P0 + s) // Q0
    P1 = a0 * Q0 - P0
    Q1 = (d - P1 * P1) // Q0
    # N = [[n11, n12], [n21, n22]] is the product before the centre, and
    # (s21, s22) the bottom row of the symmetric N*A(a_k)*N^T or N*N^T
    n11, n12, n21, n22 = 1, 0, 0, 1
    s21, s22, period = 0, 1, 1  # Q1 = Q0: xi1 = xi0 + a0, period a_l alone
    P, Q = P1, Q1
    k = 0
    while Q1 != Q0:
        k += 1
        a = (P + s) // Q
        P_next = a * Q - P
        if P_next == P:
            s21 = a * n21 * n11 + n21 * n12 + n22 * n11
            s22 = a * n21 * n21 + 2 * n21 * n22
            period = 2 * k
            break
        n11, n12, n21, n22 = n11 * a + n12, n11, n21 * a + n22, n21
        Q_next = (d - P_next * P_next) // Q
        if Q_next == Q:
            s21 = n21 * n11 + n22 * n12
            s22 = n21 * n21 + n22 * n22
            period = 2 * k + 1
            break
        P, Q = P_next, Q_next
    last = 2 * a0 - 1 if Q0 == 2 else 2 * a0
    C, D = s21 * last + s22, s21
    # unit = C*xi1 + D with xi1 = (P1 + sqrt(d))/Q1
    num = C * P1 + D * Q1
    assert num * num - d * C * C == (-1) ** period * Q1 * Q1, (d, period)
    return Fraction(num, Q1), Fraction(C, Q1), period


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
