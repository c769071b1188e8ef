"""The first layer K1 = Q(sqrt(2), sqrt(d)) of the cyclotomic Z2-tower.

Counts the ramified places of Q(sqrt(2)) in K1, evaluates the closed-form
2-rank of A(K1), decides squareness in K1 exactly (K1 is the relative
quadratic extension Q(sqrt(2))(sqrt(d)), so quadfield's relative-quadratic
product, sign and square root serve over Q(sqrt(2)) as they do over Q),
computes the Hasse unit index from unit square classes, and evaluates
Kuroda's class number formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import FactoredSquarefree, as_factored, two_power_residue_test
from .forms import Abelian2Group
from .quadfield import (
    _sign,
    fundamental_unit,
    quadratic_field,
    relative_mul,
    relative_sign,
    relative_sqrt,
    sqrt_rational,
)


class EvenRadicand(ValueError):
    """K1 machinery here requires odd square-free d."""


class NonIntegral(ValueError):
    """Kuroda's formula did not produce an integer: inconsistent inputs."""


class Inconsistent(ValueError):
    """Rank and group order fit no abelian 2-group."""


@dataclass(frozen=True)
class BiquadField:
    """Q(sqrt(2), sqrt(d)) for odd square-free d >= 3."""

    d: FactoredSquarefree

    def __post_init__(self) -> None:
        if self.d.value % 2 == 0 or self.d.value < 3:
            raise EvenRadicand("need odd square-free d >= 3")


def biquad_field(d) -> BiquadField:
    return BiquadField(as_factored(d))


def ramified_place_count(d) -> int:
    """Number of places of Q(sqrt(2)) ramified in K1.

    Each odd prime p | d ramifies; it sits under two places when p splits
    in Q(sqrt(2)) (p = +/-1 mod 8), one otherwise.  The place above 2
    ramifies exactly when d = 3 (mod 4).
    """
    fs = as_factored(d)
    if fs.value % 2 == 0 or fs.value < 3:
        raise EvenRadicand("need odd square-free d >= 3")
    total = sum(2 if p % 8 in (1, 7) else 1 for p in fs.primes)
    if fs.value % 4 == 3:
        total += 1
    return total


def first_layer_rank(d) -> int:
    """2-rank of A(K1) from the ramified place count t1.

    With a prime divisor = 3 (mod 4): t1 - 2, unless some prime divisor is
    = 7 (mod 8), in which case t1 - 3.  Without one: t1 - 1, unless some
    prime p = 1 (mod 8) has 2^((p-1)/4) != (-1)^((p-1)/8) mod p, in which
    case t1 - 2.
    """
    fs = as_factored(d)
    t1 = ramified_place_count(fs)
    if any(p % 4 == 3 for p in fs.primes):
        if any(p % 8 == 7 for p in fs.primes):
            return t1 - 3
        return t1 - 2
    obstructed = any(
        p % 8 == 1 and two_power_residue_test(p) for p in fs.primes
    )
    return t1 - 2 if obstructed else t1 - 1


# --- exact arithmetic in K1 -----------------------------------------------


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


def hasse_unit_index(field: BiquadField) -> int:
    """Q(K1) = [E(K1) : <-1, e1, e2, e3>] = 2^rank of the square relations."""
    return 1 << _f2_rank(unit_square_relations(field))


def kuroda_order(Q: int, hA_K: int, hA_Kprime: int, hA_Qsqrt2: int) -> int:
    """#A(K1) = (1/4) * Q * #A(K) * #A(K') * #A(Q(sqrt(2)))."""
    prod = Q * hA_K * hA_Kprime * hA_Qsqrt2
    if prod % 4:
        raise NonIntegral(f"product {prod} is not divisible by 4")
    return prod // 4


def structure_from_rank_and_order(rank: int, order: int) -> Abelian2Group | None:
    """The abelian 2-group of given rank and order when unique, else None.

    Rank 0 is the trivial group alone and rank 1 the cyclic group of that
    order.  Rank r >= 2 with order 2^r is elementary, order 2^(r+1) forces
    one factor 4, and anything larger leaves more than one group.
    """
    if order < 1 or order & (order - 1):
        raise ValueError("order must be a power of 2")
    m = order.bit_length() - 1
    if rank > m:
        raise Inconsistent(f"rank {rank} > log2(order) = {m}")
    if rank == 0 and m:
        raise Inconsistent(f"rank 0 is the trivial group, not of order {order}")
    if rank == 1:
        return Abelian2Group((order,))
    if m == rank:
        return Abelian2Group((2,) * rank)
    if m == rank + 1:
        return Abelian2Group((2,) * (rank - 1) + (4,))
    return None
