"""Exact arithmetic in K1 = Q(sqrt(2), sqrt(d)): the reference the integer
Hasse unit index is tested against.

K1 is the relative quadratic extension Q(sqrt(2))(sqrt(d)), so quadfield's
relative-quadratic product, sign and square root serve over Q(sqrt(2)) as
they do over Q.  `reference_hasse_unit_index` finds Q(K1) by taking exact
square roots of the signed unit products in K1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from twoclass.arith import FactoredSquarefree
from twoclass.biquad import BiquadField
from twoclass.quadfield import (
    _sign,
    fundamental_unit,
    quadratic_field,
    relative_mul,
    relative_sign,
    relative_sqrt,
    sqrt_rational,
)


class _F(tuple):
    """u + v*sqrt(2) in F = Q(sqrt(2)), the base field of K1; rationals act as scalars."""

    __slots__ = ()

    def __bool__(self):
        return bool(self[0] or self[1])

    def __add__(self, y):
        return _F((self[0] + y[0], self[1] + y[1]))

    def __sub__(self, y):
        return _F((self[0] - y[0], self[1] - y[1]))

    def __mul__(self, y):
        if not isinstance(y, tuple):
            return _F((self[0] * y, self[1] * y))
        return _F(relative_mul(self, y, 2))

    def __truediv__(self, y):
        if not isinstance(y, tuple):
            return _F((self[0] / y, self[1] / y))
        conj = _F((y[0], -y[1]))
        return self * conj / (y * conj)[0]

    def sign(self):
        return relative_sign(self, 2, _sign)

    def sqrt(self):
        r = relative_sqrt(self, 2, sqrt_rational)
        return None if r is None else _F(r)


@dataclass(frozen=True)
class BiquadNumber:
    """x0 + x1*sqrt(2) + x2*sqrt(d) + x3*sqrt(2d), exact rationals."""

    coordinates: tuple[Fraction, Fraction, Fraction, Fraction]
    field: BiquadField

    def __post_init__(self) -> None:
        coords = tuple(Fraction(c) for c in self.coordinates)
        object.__setattr__(self, "coordinates", coords)
        for c in coords:
            if 4 % c.denominator:
                raise ValueError("integral coordinates have denominator dividing 4")

    def _over_F(self, flip_sqrt2: bool = False, flip_sqrtd: bool = False):
        """(A, B) in F with A + B*sqrt(d) the image of x with the chosen signs flipped."""
        x0, x1, x2, x3 = self.coordinates
        if flip_sqrt2:
            x1, x3 = -x1, -x3
        if flip_sqrtd:
            x2, x3 = -x2, -x3
        return _F((x0, x1)), _F((x2, x3))

    def __mul__(self, other: "BiquadNumber") -> "BiquadNumber":
        if other.field.d.value != self.field.d.value:
            raise ValueError("mixed fields")
        A, B = relative_mul(self._over_F(), other._over_F(), self.field.d.value)
        return BiquadNumber((*A, *B), self.field)

    def __neg__(self) -> "BiquadNumber":
        return BiquadNumber(tuple(-c for c in self.coordinates), self.field)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coordinates)

    def embedding_sign(self, flip_sqrt2: bool, flip_sqrtd: bool) -> int:
        """Exact sign of the image under the chosen real embedding."""
        x = self._over_F(flip_sqrt2, flip_sqrtd)
        return relative_sign(x, self.field.d.value, _F.sign)

    def totally_positive(self) -> bool:
        return all(
            self.embedding_sign(f2, fd) > 0
            for f2 in (False, True)
            for fd in (False, True)
        )


def sqrt_in_K1(x: BiquadNumber):
    """An exact square root of x in K1, or None.

    Writes x = A + B*sqrt(d) over F = Q(sqrt(2)) and solves
    (C + D*sqrt(d))^2 = x with quadfield.relative_sqrt.
    """
    root = relative_sqrt(x._over_F(), x.field.d.value, _F.sqrt)
    if root is None:
        return None
    return BiquadNumber((*root[0], *root[1]), x.field)


def is_square_in_K1(x: BiquadNumber) -> bool:
    """Exact decision of x in K1^x2; False immediately unless totally positive."""
    if x.is_zero():
        raise ValueError("squareness of zero is not asked here")
    if not x.totally_positive():
        return False
    return sqrt_in_K1(x) is not None


def subfield_units(field: BiquadField) -> tuple[BiquadNumber, BiquadNumber, BiquadNumber]:
    """Fundamental units of Q(sqrt(d)), Q(sqrt(2d)), Q(sqrt(2)) inside K1,
    each a + b*sqrt(r) with b in the coordinate of its own sqrt(r)."""
    fs = field.d
    fs2 = FactoredSquarefree(2 * fs.value, (2,) + fs.primes)
    units = []
    for sub, slot in ((fs, 2), (fs2, 3), (FactoredSquarefree(2, (2,)), 1)):
        unit = fundamental_unit(quadratic_field(sub)).value
        coords = [unit.a, Fraction(0), Fraction(0), Fraction(0)]
        coords[slot] = unit.b
        units.append(BiquadNumber(tuple(coords), field))
    return tuple(units)


def unit_square_relations(field: BiquadField) -> list[tuple[int, int, int]]:
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


def reference_hasse_unit_index(field: BiquadField) -> int:
    """Q(K1) = [E(K1) : <-1, e1, e2, e3>] = 2^rank of the square relations."""
    return 1 << _f2_rank(unit_square_relations(field))
