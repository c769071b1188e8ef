"""Class groups of real quadratic discriminants from indefinite binary
quadratic forms.

This is the verification oracle of the package: narrow class groups are
computed from first principles as rho-cycles of reduced forms.  The cycles
are found by closing the principal and sign cycles under Gauss composition
with the prime forms of norm at most sqrt(D)/2, and, for each prime p
dividing the conductor of D, the primitive forms of norm p^k up to the same
bound.  The prime forms come lazily, and a prime whose norm a walk has
already met is skipped, with no square root taken: its class is in the group
by then.  Equivalence of forms is always decided by cycle membership, never
by floating-point invariants.

The sign class sigma maps the reduced form (a, b, c) to (-a, b, -c), so the
cycles C and sigma C hold the same forms up to sign: one walk numbers both,
and only the forms with a < 0 are stored, each keyed by the int
a*(isqrt(D) + 1) + b (Buchmann and Vollmer, Binary Quadratic Forms, 2007,
ch. 6).  One object finds the cycles of D and answers every class lookup;
the narrow group, its sign-class quotient (the ordinary group) and the
summaries are read off it.
A group lists each class by its least reduced form, in ascending order.
Structure is the Smith normal form of the relations the closure finds on
its way, each generator's first power that falls in the group before it;
the tests cross-check it against torsion counts made through the group law.

A form (a, b, c) of discriminant D = b^2 - 4ac > 0 (nonsquare) is reduced
when 0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import cached_property, lru_cache
from typing import NamedTuple

from .arith import spf_table, sqrt_mod_prime

_CACHE_SIZE = 1024  # summaries memoised; a sweep revisits only D = 8


class InvalidDiscriminant(ValueError):
    """Not a positive nonsquare discriminant = 0 or 1 (mod 4)."""


class DiscriminantMismatch(ValueError):
    """Composition of forms with different discriminants."""


class IndefiniteForm(NamedTuple):
    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def __repr__(self) -> str:
        return f"({self.a},{self.b},{self.c})"


def _check_discriminant(D: int) -> int:
    if D <= 0 or D % 4 not in (0, 1):
        raise InvalidDiscriminant(f"{D} is not a valid positive discriminant")
    s = math.isqrt(D)
    if s * s == D:
        raise InvalidDiscriminant(f"{D} is a perfect square")
    return s


def _is_reduced(a: int, b: int, c: int, D: int, s: int) -> bool:
    if b <= 0 or b > s:
        return False
    t = 2 * abs(a)
    if (t + b) * (t + b) <= D:  # need sqrt(D) < 2|a| + b
        return False
    if t > b and (t - b) * (t - b) >= D:  # need 2|a| - b < sqrt(D)
        return False
    return True


def _rho(a: int, b: int, c: int, D: int, s: int) -> tuple[int, int, int]:
    """One reduction step (a,b,c) -> (c, r, (r*r - D) // (4c))."""
    m = abs(c)
    if m > s:
        # unique r = -b (mod 2m) in (-m, m]
        r = (-b) % (2 * m)
        if r > m:
            r -= 2 * m
    else:
        # unique r = -b (mod 2m) in (s - 2m, s]
        r = s - (s + b) % (2 * m)
    return c, r, (r * r - D) // (4 * c)


def _reduce(a: int, b: int, c: int, D: int, s: int) -> tuple[int, int, int]:
    """Rho steps until the form is reduced (finitely many for valid D)."""
    steps = 0
    while not _is_reduced(a, b, c, D, s):
        a, b, c = _rho(a, b, c, D, s)
        steps += 1
        if steps > 10_000_000:  # cannot happen for valid input
            raise RuntimeError(f"reduction did not terminate at ({a},{b},{c})")
    return a, b, c


def reduce_form(f: IndefiniteForm) -> IndefiniteForm:
    """A reduced form properly equivalent to f (finitely many rho steps)."""
    D = f.discriminant
    s = _check_discriminant(D)
    return IndefiniteForm(*_reduce(*f, D, s))


def reduced_forms(D: int) -> list[IndefiniteForm]:
    """Every reduced indefinite form of discriminant D, duplicate-free.

    The forms of content g are g times the primitive reduced forms of
    D/g^2, and those are the forms on the cycles of D/g^2."""
    s = _check_discriminant(D)
    out = []
    for g in range(1, s + 1):
        E, r = divmod(D, g * g)
        if r == 0 and E % 4 in (0, 1):
            # each key of (a, b) stands for (a, b, c) and its sign partner
            cycles = _Cycles(E)
            for key in cycles.cycle_of:
                a, b = divmod(key, cycles.s + 1)
                c = (b * b - E) // (4 * a)
                out.append(IndefiniteForm(g * a, g * b, g * c))
                out.append(IndefiniteForm(-g * a, g * b, -g * c))
    return sorted(out)


def _solve_linear(a: int, b: int, m: int) -> tuple[int, int]:
    """Solve a*x = b (mod m); returns (x0, m/g) with solutions x0 + k*(m/g)."""
    g = math.gcd(a, m)
    q, r = divmod(b, g)
    if r:
        raise ArithmeticError("linear congruence has no solution")
    m //= g
    return q * pow(a // g, -1, m) % m, m


def _compose_raw(
    f1: tuple[int, int, int], f2: tuple[int, int, int], D: int, s: int
) -> tuple[int, int, int]:
    """Reduced Gauss composition via Bezout solves (Dirichlet united forms)."""
    # representatives with positive leading coefficient compose cleanly
    if f1[0] < 0:
        f1 = _rho(*f1, D, s)
    if f2[0] < 0:
        f2 = _rho(*f2, D, s)
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    g = (b1 + b2) // 2
    h = (b2 - b1) // 2
    w = math.gcd(math.gcd(a1, a2), g)
    s_ = a1 // w
    t_ = a2 // w
    u_ = g // w
    mu, nu = _solve_linear(t_ * u_, h * u_ + s_ * c1, s_ * t_)
    lam, _ = _solve_linear(t_ * nu, h - t_ * mu, s_) if s_ > 1 else (0, 1)
    k = mu + nu * lam
    ell = (k * t_ - h) // s_
    m = (t_ * u_ * k - h * u_ - c1 * s_) // (s_ * t_)
    A = s_ * t_
    B = w * u_ - (k * t_ + ell * s_)
    C = k * ell - w * m
    return _reduce(A, B, C, D, s)


def compose(f: IndefiniteForm, g: IndefiniteForm) -> IndefiniteForm:
    """A reduced representative of the Gauss composite of the two classes."""
    D = f.discriminant
    if g.discriminant != D:
        raise DiscriminantMismatch(f"{f} and {g} have different discriminants")
    s = _check_discriminant(D)
    return IndefiniteForm(*_compose_raw(tuple(f), tuple(g), D, s))


# --- the one construction ---------------------------------------------------


def _power(mul, x: int, n: int) -> int:
    """x**n for n >= 1, left-to-right binary: n = 2 is one composition."""
    out = x
    for bit in bin(n)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, x)
    return out


def _walk(
    f, D: int, s: int, cycle_of: dict, seen: bytearray, cid: int, pid: int
):
    """Number the rho-cycle C of the reduced form f as cid and sigma C as pid.

    Only forms with a < 0 are stored, keyed by a*(s + 1) + b: those of C,
    and the sign partners (-a, b, -c), on sigma C, of the forms of C with
    a > 0; seen[|a|] is set for each.  The signs of a alternate along the
    cycle, so the walk carries |a|, b and |c|: with
    q, e = divmod(s + b, 2|c|), rho gives b' = r = s - e and
    |c'| = |a| + q(b - r)/2.  It stops back at its start, or half way, at the
    start's sign partner, when sigma C = C.

    Returns the least key stored for cid, then for pid, and whether the walk
    stopped half way.
    """
    a, b, c = f
    if a > 0:
        a, b, c = _rho(a, b, c, D, s)
    A = A0 = -a
    m = s + 1
    b0, C = b, c
    lo, plo = a * m + b, 0  # plo starts above every key
    cycle_of[lo] = cid
    seen[A] = 1
    while True:
        q, e = divmod(s + b, 2 * C)
        r = s - e
        A, b, C = C, r, A + (b - r) // 2 * q  # the form (A, b, -C)
        if b == b0 and A == A0:
            return lo, plo, True
        key = b - A * m
        cycle_of[key] = pid
        seen[A] = 1
        if key < plo:
            plo = key
        q, e = divmod(s + b, 2 * C)
        r = s - e
        A, b, C = C, r, A + (b - r) // 2 * q  # the form (-A, b, C)
        if b == b0 and A == A0:
            return lo, plo, False
        key = b - A * m
        cycle_of[key] = cid
        seen[A] = 1
        if key < lo:
            lo = key


def _prime_forms(D: int, s: int, seen: bytes) -> Iterator[tuple[int, int, int]]:
    """The generators of the closure, by ascending prime, each of norm at
    most s//2 + 1: the forms (p, b, (b^2 - D)/4p) of the primes p with
    (D/p) != -1 that do not divide the conductor f of D, and every primitive
    form (p^k, b, .) of each prime p that does.

    2 divides f exactly when D = 0, 4 (mod 16), and an odd p exactly when
    p^2 | D.  The generators are yielded lazily, and a prime p off f yields
    nothing, and costs no square root, once seen[p] is set: a walk has then
    stored a reduced form (-p, b, c), whose sign partner (p, b, -c) is the
    prime form of p or its inverse, since b = +-b_p (mod 2p).  The closure
    holds both cycles of each walk and is closed under inverses, so that
    generator would add no class and no relation.
    """
    if D % 16 in (0, 4):
        yield from _prime_power_forms(2, D, s)
    elif not seen[2]:
        b2 = next((b for b in range(4) if (b * b - D) % 8 == 0), None)
        if b2 is not None:
            yield _prime_form(2, b2, D, s)
    spf = spf_table(s + 1)
    for p in range(3, s // 2 + 2, 2):
        if spf[p] != p:
            continue
        if D % (p * p) == 0:
            yield from _prime_power_forms(p, D, s)
        elif not seen[p]:
            b = sqrt_mod_prime(D, p)
            if b is None:
                continue
            if (b - D) % 2:  # b = D (mod 2) makes b^2 = D (mod 4p)
                b += p
            yield _prime_form(p, b, D, s)


def _prime_power_forms(p: int, D: int, s: int) -> list[tuple[int, int, int]]:
    """Every primitive form (q, b, (b^2 - D)/4q) with q = p^k <= s//2 + 1,
    one per b modulo 2q: O(s) candidates b in all."""
    out = []
    q = p
    while q <= s // 2 + 1:
        for b in range(D & 1, 2 * q, 2):
            c, r = divmod(b * b - D, 4 * q)
            if r == 0 and math.gcd(math.gcd(q, b), c) == 1:
                out.append(_prime_form(q, b, D, s))
        q *= p
    return out


def _prime_form(q: int, b: int, D: int, s: int) -> tuple[int, int, int]:
    """(q, b', c) with b' = b (mod 2q) in (s - 2q, s], already reduced when
    2q < sqrt(D) and b' > 0."""
    b = s - (s - b) % (2 * q)
    return q, b, (b * b - D) // (4 * q)


class _Cycles:
    """The rho-cycles of the primitive reduced forms of D, with a
    presentation of the narrow group.

    Cycle 0 is the principal cycle and cycle flip the sign cycle.  A cycle
    has one representative, its least form, and every composition takes it:
    the cycle of a composite does not depend on the forms composed.  The
    reduced form (a, b, c) with a < 0 is keyed by the int a*(s + 1) + b, in
    the order of the pairs (a, b) since 0 < b <= s, and divmod(key, s + 1)
    gives (a, b) back.  It lies on cycle_of[key], and its sign partner
    (-a, b, -c) on cycle_of[key] ^ flip: when the sign class is not
    principal (flip = 1), the cycles C and sigma C are 2k and 2k + 1.
    (a, b, c) composed with the sign form (-1, b, -ac), united with it, is
    (-a, b, -c) (Cohen, GTM 138, 5.2), reduced as (a, b, c) is, since
    reducedness reads only |a|.

    The classes are the closure of the principal and sign cycles under the
    generators of _prime_forms (Cohen, GTM 138, 5.2 and 5.4; Buchmann and
    Vollmer, Binary Quadratic Forms, 2007, for orders):

    * every cycle holds a reduced form (a, b, c) with |a| < sqrt(D)/2, since
      |ac| < D/4 and rho brings c to the front;
    * Dirichlet composition splits such a form, for a > 0, into the
      primitive forms (p^k, b, ac/p^k), one for each p^k || a;
    * for p not dividing the conductor f, each of those forms is a power of
      the prime form of p or of its inverse;
    * for p | f, those forms are themselves generators;
    * a negative a costs one factor of the sign class.

    The principal cycle is walked first, which shows whether the sign class
    is principal; then the group is closed under the generators, which read
    seen as the walks set it.  The group is kept in mixed radix: entry
    u + m*t of H<x> is H[u] x^t for m = #H, and the index in H of the first
    power x^n in H gives the relation of x.  Each class of H<x> outside H
    costs one composition of its least form with the generator, and one
    walk, unless it is the sign partner (its id ^ 1) of a class just found.
    """

    def __init__(self, D: int):
        self.D = D
        self.s = s = _check_discriminant(D)
        self._seen = bytearray(s + 1)  # the |a| of every form the walks store
        self.cycle_of = {}  # key of (a, b), a < 0 -> cycle id of (a, b, (b^2 - D)/4a)
        self.least = []  # cycle id -> least form of the cycle, its representative
        b0 = D & 1
        c0 = (b0 - D) // 4  # b0 * b0 == b0
        self.flip = flip = 0 if self._number(_reduce(1, b0, c0, D, s), 0, 1) else 1
        if not flip:  # sigma C = C: the ids 1 of the walk were provisional
            for key in self.cycle_of:
                self.cycle_of[key] = 0
        step = 1 + flip  # group[2k + 1] is group[2k] times the sign class
        group = list(range(step))
        index = {c: u for u, c in enumerate(group)}
        # a presentation of the narrow group: with radices n_0, n_1, ... of the
        # closure (n_0 = 2 for the sign class when flip), row j says that
        # n_j e_j - sum(d_i e_i) is a relation, where d_i are the digits of
        # x_j^(n_j) in the group before x_j; lower triangular, row j of length j+1
        self.relations = relations = [[2]] * flip  # the sign class has order 2
        id_of, least = self.id_of, self.least
        for g in _prime_forms(D, s, self._seen):
            p, b, _ = g
            x = id_of(_reduce(*g, D, s) if 2 * p >= s or b <= 0 else g)
            coset, y, grown = group, x, []
            while y not in index:
                # the coset H x^k is (H x^(k-1)) x; group[0] = 1 puts x^k first
                heads = [y] + [
                    id_of(_compose_raw(least[h], g, D, s)) for h in coset[step::step]
                ]
                coset = [h ^ t for h in heads for t in range(step)]
                grown += coset
                y = id_of(_compose_raw(least[y], g, D, s))
            if grown:
                # the radices are the diagonal of the relations
                u, row = index[y], []
                for r in relations:
                    u, digit = divmod(u, r[-1])
                    row.append(-digit)
                relations.append(row + [len(grown) // len(group) + 1])
                index.update(zip(grown, range(len(group), len(group) + len(grown))))
                group += grown

    def _number(self, f, cid: int, pid: int) -> bool:
        """Walk the cycle of f as cid and its sign partner as pid, and record
        their least forms; whether the walk stopped half way, when the two
        cycles are one."""
        lo, plo, half = _walk(f, self.D, self.s, self.cycle_of, self._seen, cid, pid)
        for key in (min(lo, plo),) if half else (lo, plo):
            a, b = divmod(key, self.s + 1)
            self.least.append((a, b, (b * b - self.D) // (4 * a)))
        return half

    def id_of(self, f) -> int:
        """The cycle id of the reduced form f of D; a cycle not met yet is
        walked and numbered.  f must be reduced: a walk that starts from an
        unreduced form never comes back to its start."""
        a, b, _ = f
        m = self.s + 1
        key, flip = (a * m + b, 0) if a < 0 else (b - a * m, self.flip)
        cid = self.cycle_of.get(key)
        if cid is not None:
            return cid ^ flip
        cid = len(self.least)
        self._number(f, cid, cid ^ self.flip)
        return cid

    def mul(self, i: int, j: int) -> int:
        return self.id_of(_compose_raw(self.least[i], self.least[j], self.D, self.s))


def _invariant_factors(rows) -> tuple[int, ...]:
    """The invariant factors > 1, ascending, of Z^k modulo the rows of a
    nonsingular k x k integer matrix: its Smith normal form (Cohen, GTM 138,
    2.4.4)."""
    m = [list(r) for r in rows]
    diag = []
    while m:
        # a least nonzero entry to the corner, then the rest of its column
        # and its row reduced modulo it, until both are zero
        _, i, j = min(
            (abs(x), i, j) for i, r in enumerate(m) for j, x in enumerate(r) if x
        )
        m[0], m[i] = m[i], m[0]
        for r in m:
            r[0], r[j] = r[j], r[0]
        p = m[0][0]
        m[1:] = [[x - r[0] // p * y for x, y in zip(r, m[0])] for r in m[1:]]
        q = [0] + [x // p for x in m[0][1:]]
        m = [[x - r[0] * y for x, y in zip(r, q)] for r in m]
        if not any(m[0][1:]) and not any(r[0] for r in m[1:]):
            diag.append(abs(p))
            m = [r[1:] for r in m[1:]]
    # Z/a x Z/b = Z/gcd(a, b) x Z/lcm(a, b) makes a divisibility chain
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return tuple(d for d in diag if d > 1)


def _structure(cycles: _Cycles, quotient: bool) -> tuple[int, ...]:
    """Invariant factors of the narrow group, or of its quotient by the sign
    class: dropping the sign's row and column adds the relation sigma = 1."""
    rows = cycles.relations
    if quotient and cycles.flip:
        rows = [r[1:] for r in rows[1:]]
    return _invariant_factors([r + [0] * (len(rows) - len(r)) for r in rows])


# --- groups ---------------------------------------------------------------


class _Abelian2GroupFields(NamedTuple):
    factors: tuple[int, ...]


class Abelian2Group(_Abelian2GroupFields):
    """A finite abelian 2-group as a non-decreasing list of 2-power factors."""

    __slots__ = ()

    def __new__(cls, factors: tuple[int, ...]) -> Abelian2Group:
        last = 2
        for f in factors:
            if f < 2 or f & (f - 1):
                raise ValueError("factors must be powers of 2, each >= 2")
            if f < last:
                raise ValueError("factors must be non-decreasing")
            last = f
        return tuple.__new__(cls, (factors,))

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def four_rank(self) -> int:
        """The number of factors >= 4: #(2A/4A) = 2**four_rank."""
        return sum(f >= 4 for f in self.factors)

    def is_elementary(self) -> bool:
        return all(f == 2 for f in self.factors)

    def __repr__(self) -> str:
        if not self.factors:
            return "1"
        return " x ".join(f"Z/{f}" for f in self.factors)


class FormClassGroup:
    """The narrow form class group of a real discriminant, or its quotient
    by the sign class (the ordinary group).

    classes holds each group element once, as the least reduced form of its
    class (for the ordinary group, the least over both cycles C and C times
    the sign class), in ascending order.  Composition is answered through
    cycle membership, and structure from the relations the closure found.
    """

    def __init__(self, cycles: _Cycles, quotient: bool):
        self.discriminant = cycles.D
        self._cycles = cycles
        # cycle c is element c >> shift: C and sigma C are 2k and 2k + 1
        self._shift = shift = cycles.flip if quotient else 0
        self.variant = "ordinary" if shift else "narrow"
        least = cycles.least
        forms = [
            min(least[e << shift : (e + 1) << shift])
            for e in range(len(least) >> shift)
        ]
        elements = sorted(range(len(forms)), key=forms.__getitem__)
        self._pos = [0] * len(forms)  # element -> position in classes
        for i, e in enumerate(elements):
            self._pos[e] = i
        self._members = [e << shift for e in elements]  # position -> a cycle
        self.classes = tuple(IndefiniteForm(*forms[e]) for e in elements)
        self.order = len(forms)

    def _position(self, cid: int) -> int:
        return self._pos[cid >> self._shift]

    def class_index(self, f: IndefiniteForm) -> int:
        """Element position of the class of the primitive form f."""
        if f.discriminant != self.discriminant:
            raise DiscriminantMismatch(f"{f} is not of discriminant {self.discriminant}")
        if math.gcd(math.gcd(f.a, f.b), f.c) != 1:
            raise ValueError(f"{f} is not primitive")
        return self._position(self._cycles.id_of(reduce_form(f)))

    @property
    def identity(self) -> int:
        return self._position(0)

    def mul(self, i: int, j: int) -> int:
        return self._position(self._cycles.mul(self._members[i], self._members[j]))

    def power(self, i: int, n: int) -> int:
        """The n-th power of class i; a negative n is a power of the inverse."""
        if n < 0:
            return self.power(self.inverse(i), -n)
        return _power(self.mul, i, n) if n else self.identity

    def inverse(self, i: int) -> int:
        cyc = self._cycles
        a, b, c = cyc.least[self._members[i]]
        return self._position(cyc.id_of(_reduce(a, -b, c, cyc.D, cyc.s)))

    def torsion_count(self, k: int) -> int:
        """Number of classes x with x^k = identity (through mul and power)."""
        e = self.identity
        return sum(1 for i in range(self.order) if self.power(i, k) == e)

    @cached_property
    def structure(self) -> tuple[int, ...]:
        """Invariant factors of the group (divisibility chain, ascending)."""
        return _structure(self._cycles, bool(self._shift))

    def __repr__(self) -> str:
        desc = " x ".join(f"Z/{f}" for f in self.structure) or "1"
        return (
            f"FormClassGroup(D={self.discriminant}, {self.variant}, "
            f"order={self.order}, {desc})"
        )


def narrow_class_group(D: int) -> FormClassGroup:
    """The narrow class group of discriminant D as cycle classes."""
    return FormClassGroup(_Cycles(D), quotient=False)


def ordinary_class_group(D: int) -> FormClassGroup:
    """The ordinary class group: the narrow group modulo the sign class.

    The sign class is principal exactly when the unit of the order of
    discriminant D has norm -1; the quotient is then the narrow group itself
    and its variant reads "narrow".
    """
    return FormClassGroup(_Cycles(D), quotient=True)


def _two_part(structure: tuple[int, ...]) -> Abelian2Group:
    """The 2-Sylow subgroup of the group with these invariant factors."""
    return Abelian2Group(tuple(f & -f for f in structure if f % 2 == 0))


def two_sylow(g: FormClassGroup) -> Abelian2Group:
    """The 2-Sylow subgroup of a class group, as invariant factors."""
    return _two_part(g.structure)


# --- lean per-discriminant summary for the verification sweeps ------------


class ClassGroupSummary(NamedTuple):
    discriminant: int
    h_narrow: int
    h_ordinary: int
    narrow: Abelian2Group  # the 2-Sylow subgroup of A+
    ordinary: Abelian2Group  # the 2-Sylow subgroup of A = A+ / <sign>


@lru_cache(maxsize=_CACHE_SIZE)
def class_group_summary(D: int) -> ClassGroupSummary:
    """The class numbers and 2-Sylow subgroups of the narrow group and its
    sign-class quotient.

    One generator closure per discriminant: at most h compositions and one
    walk per pair of sign-partner cycles, then the Smith normal form of its
    small relation matrix.  Only the summary is kept, not the cycles, and
    only for the last _CACHE_SIZE discriminants.
    """
    cycles = _Cycles(D)
    h_narrow = len(cycles.least)
    return ClassGroupSummary(
        D,
        h_narrow,
        h_narrow >> cycles.flip,
        _two_part(_structure(cycles, False)),
        _two_part(_structure(cycles, True)),
    )
