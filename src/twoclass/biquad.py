"""The first layer K1 = Q(sqrt(2), sqrt(d)) of the cyclotomic Z2-tower.

Counts the ramified places of Q(sqrt(2)) in K1, evaluates the closed-form
2-rank of A(K1), decides squareness in K1 exactly (K1 is the relative
quadratic extension Q(sqrt(2))(sqrt(d)), so the quadratic-field square
solver applies twice), computes the Hasse unit index from unit square
classes, and evaluates Kuroda's class number formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import FactoredSquarefree, as_factored, two_power_residue_test
from .forms import Abelian2Group
from .quadfield import (
    FundamentalUnit,
    fundamental_unit,
    quadratic_field,
    sign_of_quadratic,
    sqrt_in_quadratic,
)


class EvenRadicand(ValueError):
    """K1 machinery here requires odd square-free d."""


class NonIntegral(ValueError):
    """Kuroda's formula did not produce an integer: inconsistent inputs."""


class Inconsistent(ValueError):
    """Rank exceeds what the group order allows."""


@dataclass(frozen=True)
class BiquadField:
    """Q(sqrt(2), sqrt(d)) for odd square-free d >= 3."""

    d: FactoredSquarefree

    def __post_init__(self) -> None:
        if self.d.value % 2 == 0 or self.d.value < 3:
            raise EvenRadicand("need odd square-free d >= 3")

    @property
    def subfield_radicands(self) -> tuple[int, int, int]:
        return (self.d.value, 2 * self.d.value, 2)


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


def _mul4(x, y, d):
    """Product of two coordinate 4-tuples over the basis 1, sqrt2, sqrtd, sqrt2d."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        x0 * y0 + 2 * x1 * y1 + d * x2 * y2 + 2 * d * x3 * y3,
        x0 * y1 + x1 * y0 + d * (x2 * y3 + x3 * y2),
        x0 * y2 + x2 * y0 + 2 * (x1 * y3 + x3 * y1),
        x0 * y3 + x3 * y0 + x1 * y2 + x2 * y1,
    )


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

    def __mul__(self, other: "BiquadNumber") -> "BiquadNumber":
        if other.field.d.value != self.field.d.value:
            raise ValueError("mixed fields")
        return BiquadNumber(
            _mul4(self.coordinates, other.coordinates, self.field.d.value),
            self.field,
        )

    def __neg__(self) -> "BiquadNumber":
        return BiquadNumber(tuple(-c for c in self.coordinates), self.field)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coordinates)

    def embedding_sign(self, flip_sqrt2: bool, flip_sqrtd: bool) -> int:
        """Exact sign of the image under the chosen real embedding."""
        d = self.field.d.value
        x0, x1, x2, x3 = self.coordinates
        s2 = -1 if flip_sqrt2 else 1
        sd = -1 if flip_sqrtd else 1
        # x = A + B*sqrt(d) with A, B in Q(sqrt(2)); sqrt(2d) maps with both
        a = (x0, s2 * x1)
        b = (sd * x2, s2 * sd * x3)
        sign_b = sign_of_quadratic(b[0], b[1], 2)
        sign_a = sign_of_quadratic(a[0], a[1], 2)
        if sign_b == 0:
            return sign_a
        if sign_a == 0:
            return sign_b
        if sign_a == sign_b:
            return sign_a
        # |A| vs |B| sqrt(d): compare A^2 - d B^2 inside Q(sqrt(2))
        diff = (
            a[0] * a[0] + 2 * a[1] * a[1] - d * (b[0] * b[0] + 2 * b[1] * b[1]),
            2 * a[0] * a[1] - d * 2 * b[0] * b[1],
        )
        cmp = sign_of_quadratic(diff[0], diff[1], 2)
        return sign_a if cmp > 0 else sign_b

    def totally_positive(self) -> bool:
        return all(
            self.embedding_sign(f2, fd) > 0
            for f2 in (False, True)
            for fd in (False, True)
        )


# elements of the base field F = Q(sqrt(2)) as plain (u, v) pairs


def _f_mul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _f_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _f_div(x, y):
    n = y[0] * y[0] - 2 * y[1] * y[1]
    if n == 0:
        raise ZeroDivisionError
    return ((x[0] * y[0] - 2 * x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def sqrt_in_K1(x: BiquadNumber):
    """An exact square root of x in K1, or None.

    Writes x = A + B*sqrt(d) over F = Q(sqrt(2)) and solves
    (C + D*sqrt(d))^2 = x: C^2 is a root of X^2 - A X + d B^2/4, both
    branches tested by exact square extraction in F.  Candidates are
    verified on raw coordinates before any lattice bound is applied.
    """
    d = x.field.d.value
    x0, x1, x2, x3 = x.coordinates
    A = (x0, x1)
    B = (x2, x3)
    root = None
    if B == (0, 0):
        c = sqrt_in_quadratic(*A, 2)
        if c is not None:
            root = (c[0], c[1], Fraction(0), Fraction(0))
        else:
            c = sqrt_in_quadratic(A[0] / d, A[1] / d, 2)
            if c is not None:
                root = (Fraction(0), Fraction(0), c[0], c[1])
    else:
        bb = _f_mul(B, B)
        n = _f_sub(_f_mul(A, A), (d * bb[0], d * bb[1]))
        s = sqrt_in_quadratic(*n, 2)
        if s is not None:
            two = (Fraction(2), Fraction(0))
            for t in (
                _f_div((A[0] + s[0], A[1] + s[1]), two),
                _f_div((A[0] - s[0], A[1] - s[1]), two),
            ):
                c = sqrt_in_quadratic(*t, 2)
                if c is not None and c != (0, 0):
                    dd = _f_div(B, (2 * c[0], 2 * c[1]))
                    cand = (c[0], c[1], dd[0], dd[1])
                    if _mul4(cand, cand, d) == x.coordinates:
                        root = cand
                        break
    if root is None:
        return None
    return BiquadNumber(root, x.field)


def is_square_in_K1(x: BiquadNumber, field: BiquadField | None = None) -> bool:
    """Exact decision of x in K1^x2; False immediately unless totally positive."""
    if x.is_zero():
        raise ValueError("squareness of zero is not asked here")
    if not x.totally_positive():
        return False
    return sqrt_in_K1(x) is not None


def _unit_in_K1(unit: FundamentalUnit, radicand: int, field: BiquadField) -> BiquadNumber:
    """Embed a quadratic subfield unit into K1 coordinates."""
    a, b = unit.value.a, unit.value.b
    d = field.d.value
    zero = Fraction(0)
    if radicand == 2:
        return BiquadNumber((a, b, zero, zero), field)
    if radicand == d:
        return BiquadNumber((a, zero, b, zero), field)
    if radicand == 2 * d:
        return BiquadNumber((a, zero, zero, b), field)
    raise ValueError(f"{radicand} is not a subfield radicand")


def subfield_units(field: BiquadField) -> tuple[BiquadNumber, BiquadNumber, BiquadNumber]:
    """Fundamental units of Q(sqrt(d)), Q(sqrt(2d)), Q(sqrt(2)) inside K1."""
    d = field.d.value
    return tuple(
        _unit_in_K1(fundamental_unit(quadratic_field(r)), r, field)
        for r in (d, 2 * d, 2)
    )


def unit_square_relations(field: BiquadField) -> list[tuple[int, int, int]]:
    """Exponent vectors (a, b, c) != 0 with +/- e1^a e2^b e3^c a square in K1."""
    e1, e2, e3 = subfield_units(field)
    found = []
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                if (a, b, c) == (0, 0, 0):
                    continue
                u = _one(field)
                for base, exp in ((e1, a), (e2, b), (e3, c)):
                    if exp:
                        u = u * base
                if is_square_in_K1(u) or is_square_in_K1(-u):
                    found.append((a, b, c))
    return found


def _one(field: BiquadField) -> BiquadNumber:
    return BiquadNumber(
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0)), field
    )


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

    rank r with order 2^r is elementary; order 2^(r+1) forces one factor 4;
    anything larger leaves more than one group.
    """
    if order < 1 or order & (order - 1):
        raise ValueError("order must be a power of 2")
    m = order.bit_length() - 1
    if rank > m:
        raise Inconsistent(f"rank {rank} > log2(order) = {m}")
    if rank == 0:
        return Abelian2Group(())
    if m == rank:
        return Abelian2Group((2,) * rank)
    if m == rank + 1:
        return Abelian2Group((2,) * (rank - 1) + (4,))
    return None
