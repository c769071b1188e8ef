"""Exact arithmetic in K1 = Q(sqrt(2), sqrt(d)): the reference the integer
Hasse unit index is tested against.

The one relative-quadratic kernel here, relative_mul, relative_sign and
relative_sqrt, is the exact product, sign and square root of a + b*sqrt(d);
it takes the base field's sign and square root as arguments.  Over Q (with
_sign and sqrt_rational) it decides squares in Q(sqrt(d)); K1 is the
relative quadratic extension Q(sqrt(2))(sqrt(d)), so the same kernel serves
over Q(sqrt(2)).  `reference_hasse_unit_index` finds Q(K1) by taking exact
square roots of the signed unit products in K1, a field named by the
FactoredSquarefree of its odd d.  Numbers are integer
numerators over one denominator (4 in K1, an unreduced q in Q(sqrt(2))), so
that only the square roots over Q build a Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from twoclass.arith import FactoredSquarefree
from twoclass.quadfield import fundamental_unit


# --- the relative-quadratic kernel: a + b*sqrt(d) over a base field ------


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


# --- K1 as the relative quadratic extension F(sqrt(d)), F = Q(sqrt(2)) ---


class _F(tuple):
    """(u + v*sqrt(2))/q in F = Q(sqrt(2)), the base field of K1: integers u
    and v over one denominator q > 0, never reduced, so that no operation
    normalises a Fraction.  Integers act as scalars."""

    __slots__ = ()

    def __new__(cls, u: int, v: int, q: int = 1) -> "_F":
        return tuple.__new__(cls, (u, v, q))

    def __bool__(self):
        return bool(self[0] or self[1])

    def __eq__(self, y):
        u, v, q = self
        s, t, r = y
        return u * r == s * q and v * r == t * q

    def __add__(self, y):
        u, v, q = self
        s, t, r = y
        if q == r:
            return _F(u + s, v + t, q)
        return _F(u * r + s * q, v * r + t * q, q * r)

    def __sub__(self, y):
        return self + y * -1

    def __mul__(self, y):
        u, v, q = self
        if not isinstance(y, tuple):
            return _F(u * y, v * y, q)
        s, t, r = y
        return _F(*relative_mul((u, v), (s, t), 2), q * r)

    def __truediv__(self, y):
        u, v, q = self
        if not isinstance(y, tuple):
            if not y:
                raise ZeroDivisionError("division by zero in F")
            return _F(u, v, q * y) if y > 0 else _F(-u, -v, -q * y)
        # 1/y = r*(s - t*sqrt(2)) / (s**2 - 2*t**2)
        s, t, r = y
        return self * _F(r * s, -r * t) / (s * s - 2 * t * t)

    def sign(self):
        return relative_sign(self[:2], 2, _sign)

    def sqrt(self):
        """A square root in F, or None: that of q*(u + v*sqrt(2)), over q."""
        u, v, q = self
        root = relative_sqrt((Fraction(q * u), Fraction(q * v)), 2, sqrt_rational)
        if root is None:
            return None
        a, b = root
        den = a.denominator * b.denominator
        return _F(a.numerator * b.denominator, b.numerator * a.denominator, q * den)


@dataclass(frozen=True, init=False)
class BiquadNumber:
    """x0 + x1*sqrt(2) + x2*sqrt(d) + x3*sqrt(2d), exact rationals.

    The coordinates of an integer of K1 have denominators dividing 4, so the
    number is held as the integers 4*x0, ..., 4*x3: products and signs run in
    integers and never normalise a Fraction.
    """

    quarters: tuple[int, int, int, int]
    field: FactoredSquarefree

    def __init__(self, coordinates, field: FactoredSquarefree) -> None:
        quarters = []
        for c in coordinates:
            c = Fraction(c)
            if 4 % c.denominator:
                raise ValueError("integral coordinates have denominator dividing 4")
            quarters.append(c.numerator * (4 // c.denominator))
        object.__setattr__(self, "quarters", tuple(quarters))
        object.__setattr__(self, "field", field)

    @classmethod
    def _of_quarters(cls, quarters, field: FactoredSquarefree) -> "BiquadNumber":
        x = object.__new__(cls)
        object.__setattr__(x, "quarters", tuple(quarters))
        object.__setattr__(x, "field", field)
        return x

    @property
    def coordinates(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple(Fraction(q, 4) for q in self.quarters)

    def _over_F(self, flip_sqrt2: bool = False, flip_sqrtd: bool = False):
        """(A, B) in F with (A + B*sqrt(d))/4 the image of x with the chosen
        signs flipped; A and B have denominator 1."""
        x0, x1, x2, x3 = self.quarters
        if flip_sqrt2:
            x1, x3 = -x1, -x3
        if flip_sqrtd:
            x2, x3 = -x2, -x3
        return _F(x0, x1), _F(x2, x3)

    def __mul__(self, other: "BiquadNumber") -> "BiquadNumber":
        if other.field.value != self.field.value:
            raise ValueError("mixed fields")
        A, B = relative_mul(self._over_F(), other._over_F(), self.field.value)
        # the product over 16, kept only when its denominators divide 4
        sixteenths = (A[0], A[1], B[0], B[1])
        if any(c % 4 for c in sixteenths):
            raise ValueError("integral coordinates have denominator dividing 4")
        return BiquadNumber._of_quarters((c // 4 for c in sixteenths), self.field)

    def __neg__(self) -> "BiquadNumber":
        return BiquadNumber._of_quarters((-c for c in self.quarters), self.field)

    def is_zero(self) -> bool:
        return not any(self.quarters)

    def embedding_sign(self, flip_sqrt2: bool, flip_sqrtd: bool) -> int:
        """Exact sign of the image under the chosen real embedding."""
        x = self._over_F(flip_sqrt2, flip_sqrtd)
        return relative_sign(x, self.field.value, _F.sign)

    def totally_positive(self) -> bool:
        return all(
            self.embedding_sign(f2, fd) > 0
            for f2 in (False, True)
            for fd in (False, True)
        )


def sqrt_in_K1(x: BiquadNumber):
    """An exact square root of x in K1, or None.

    Writes 4x = A + B*sqrt(d) over F = Q(sqrt(2)) and solves
    (C + D*sqrt(d))^2 = 4x with relative_sqrt; the root of x is
    half that root.
    """
    root = relative_sqrt(x._over_F(), x.field.value, _F.sqrt)
    if root is None:
        return None
    return BiquadNumber(
        tuple(Fraction(c[i], 2 * c[2]) for c in root for i in (0, 1)), x.field
    )


def is_square_in_K1(x: BiquadNumber) -> bool:
    """Exact decision of x in K1^x2; False immediately unless totally positive."""
    if x.is_zero():
        raise ValueError("squareness of zero is not asked here")
    if not x.totally_positive():
        return False
    return sqrt_in_K1(x) is not None


def subfield_units(field: FactoredSquarefree) -> tuple[BiquadNumber, BiquadNumber, BiquadNumber]:
    """Fundamental units of Q(sqrt(d)), Q(sqrt(2d)), Q(sqrt(2)) inside K1,
    each a + b*sqrt(r) with b in the coordinate of its own sqrt(r)."""
    fs2 = FactoredSquarefree(2 * field.value, (2,) + field.primes)
    units = []
    for sub, slot in ((field, 2), (fs2, 3), (FactoredSquarefree(2, (2,)), 1)):
        unit = fundamental_unit(sub)
        quarters = [2 * unit.X, 0, 0, 0]  # (X + Y*sqrt(r))/2 in quarters
        quarters[slot] = 2 * unit.Y
        units.append(BiquadNumber._of_quarters(quarters, field))
    return tuple(units)


def unit_square_relations(field: FactoredSquarefree) -> list[tuple[int, int, int]]:
    """Exponent vectors (a, b, c) != 0 with +/- e1^a e2^b e3^c a square in K1."""
    e1, e2, e3 = subfield_units(field)
    e12 = e1 * e2
    products = {
        (0, 0, 1): e3,
        (0, 1, 0): e2,
        (0, 1, 1): e2 * e3,
        (1, 0, 0): e1,
        (1, 0, 1): e1 * e3,
        (1, 1, 0): e12,
        (1, 1, 1): e12 * e3,
    }
    return [
        v for v, u in products.items() if is_square_in_K1(u) or is_square_in_K1(-u)
    ]


def _f2_rank(vectors) -> int:
    basis = []
    for v in vectors:
        x = v[0] << 2 | v[1] << 1 | v[2]
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis.append(x)
    return len(basis)


def reference_hasse_unit_index(field: FactoredSquarefree) -> int:
    """Q(K1) = [E(K1) : <-1, e1, e2, e3>] = 2^rank of the square relations."""
    return 1 << _f2_rank(unit_square_relations(field))
