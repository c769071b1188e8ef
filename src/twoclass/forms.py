"""Class groups of real quadratic discriminants from indefinite binary
quadratic forms.

This is the verification oracle of the package: narrow class groups are
computed from first principles as rho-cycles of reduced forms.  The cycles
are found by closing the principal and sign cycles under Gauss composition
with the prime forms of norm at most sqrt(D)/2, and, for each prime p
dividing the conductor of D, the primitive forms of norm p^k up to the same
bound.  Equivalence of forms is always decided by cycle membership, never by
floating-point invariants.

One builder finds the cycles of D; the narrow group, its sign-class quotient
(the ordinary group) and the summaries are read off it.  A group lists each
class by its least reduced form, in ascending order.  All torsion comes
from the chains #A[p^k] of the iterated p-th power map.

A form (a, b, c) of discriminant D = b^2 - 4ac > 0 (nonsquare) is reduced
when 0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from typing import NamedTuple

from .arith import _xgcd, factorize, spf_table, sqrt_mod_prime

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

    def conjugate(self) -> "IndefiniteForm":
        return IndefiniteForm(self.a, -self.b, self.c)

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
        if D % (g * g) == 0 and D // (g * g) % 4 in (0, 1):
            cycles = _cycles(D // (g * g))
            out += [IndefiniteForm(g * a, g * b, g * c) for a, b, c in cycles.cycle_of]
    return sorted(out)


def _solve_linear(a: int, b: int, m: int) -> tuple[int, int]:
    """Solve a*x = b (mod m); returns (x0, m/g) with solutions x0 + k*(m/g)."""
    g, inv, _ = _xgcd(a, m)
    q, r = divmod(b, g)
    if r:
        raise ArithmeticError("linear congruence has no solution")
    return q * inv % m, m // g


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


class _Cycles(NamedTuple):
    """The rho-cycles of the primitive reduced forms of one discriminant."""

    D: int
    s: int
    cycle_of: dict  # reduced form -> cycle id, ids in the order found
    reps: list  # cycle id -> smallest form of the cycle
    identity: int  # the principal cycle
    sign: int  # the cycle of forms representing -1

    def mul(self, i: int, j: int) -> int:
        return self.cycle_of[_compose_raw(self.reps[i], self.reps[j], self.D, self.s)]

    def power_map(self, p: int) -> list[int]:
        """Cycle id -> cycle id of its p-th power."""
        return [_power(self.mul, i, p) for i in range(len(self.reps))]


def _power(mul, x: int, n: int) -> int:
    """x**n for n >= 1, left-to-right binary: n = 2 is one composition."""
    out = x
    for bit in bin(n)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, x)
    return out


def _walk(f, D: int, s: int, cycle_of: dict, reps: list) -> int:
    """Number the rho-cycle of the reduced form f, keeping its smallest form."""
    cid = len(reps)
    rep = g = f
    a, b, c = f
    while True:
        cycle_of[g] = cid
        if g < rep:
            rep = g
        # _rho of a reduced form: |c| <= s, so r = -b (mod 2|c|) in (s - 2|c|, s]
        r = s - (s + b) % (2 * abs(c))
        a, b, c = c, r, (r * r - D) // (4 * c)
        g = (a, b, c)
        if g == f:
            break
    reps.append(rep)
    return cid


def _prime_forms(D: int, s: int) -> list[tuple[int, int, int]]:
    """The generators of the closure, each of norm at most s//2 + 1: the
    forms (p, b, (b^2 - D)/4p) of the primes p with (D/p) != -1 that do not
    divide the conductor f of D, and every primitive form (p^k, b, .) of
    each prime p that does.

    2 divides f exactly when D = 0, 4 (mod 16), and an odd p exactly when
    p^2 | D.
    """
    if D % 16 in (0, 4):
        out = _prime_power_forms(2, D, s)
    else:
        b2 = next((b for b in range(4) if (b * b - D) % 8 == 0), None)
        out = [] if b2 is None else [_prime_form(2, b2, D, s)]
    spf = spf_table(s + 1)
    for p in range(3, s // 2 + 2, 2):
        if spf[p] != p:
            continue
        b = sqrt_mod_prime(D, p)
        if b is None:
            continue
        if b == 0 and D % (p * p) == 0:
            out += _prime_power_forms(p, D, s)
            continue
        if (b - D) % 2:  # b = D (mod 2) makes b^2 = D (mod 4p)
            b += p
        out.append(_prime_form(p, b, D, s))
    return out


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


def _cycles(D: int) -> _Cycles:
    """The rho-cycles of the primitive reduced forms of D, with the
    principal and the sign cycle.

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
    """
    s = _check_discriminant(D)
    return _cycles_from(D, s, _prime_forms(D, s))


def _cycles_from(D: int, s: int, gens) -> _Cycles:
    """Walk the cycles of the principal and the sign form, then close the
    group under the classes of gens.  Each class the closure adds costs one
    composition and one walk."""
    cycle_of: dict[tuple[int, int, int], int] = {}
    reps: list[tuple[int, int, int]] = []

    def cls(f):
        cid = cycle_of.get(f)
        return _walk(f, D, s, cycle_of, reps) if cid is None else cid

    # the principal form, and -1 times it
    b0 = D & 1
    c0 = (b0 - D) // 4  # b0 * b0 == b0
    principal = cls(_reduce(1, b0, c0, D, s))
    sign = cls(_reduce(-1, b0, -c0, D, s))
    group = [principal] if sign == principal else [principal, sign]
    in_group = set(group)
    for g in gens:
        x = cls(_reduce(*g, D, s))
        coset, y, grown = group, x, []
        while y not in in_group:
            # the coset H x^k is (H x^(k-1)) x; group[0] = 1 puts x^k first
            coset = [y] + [
                cls(_compose_raw(reps[h], reps[x], D, s)) for h in coset[1:]
            ]
            grown += coset
            y = cls(_compose_raw(reps[y], reps[x], D, s))
        group = group + grown
        in_group.update(grown)
    return _Cycles(D, s, cycle_of, reps, principal, sign)


def _torsion_chain(pmap: list[int], p: int, kernel: set[int]) -> tuple[int, ...]:
    """#A[p^k] for k = 0, 1, ... until it reaches the p-part of #A.

    A is the group of cycles modulo the subgroup kernel ({1} or {1, sigma});
    a class x has x^(p^k) = 1 in A exactly when its cycles land in kernel,
    and every class has len(kernel) cycles.
    """
    order = len(pmap) // len(kernel)
    full = 1
    while order % (full * p) == 0:
        full *= p
    chain = [1]
    images = list(range(len(pmap)))
    while chain[-1] < full:
        images = [pmap[c] for c in images]
        chain.append(sum(map(images.count, kernel)) // len(kernel))
    return tuple(chain)


def _chain_factors(p: int, chain: tuple[int, ...]) -> list[int]:
    """Cyclic factors, ascending, of the p-group with #A[p^k] = chain[k]."""
    # #A[p^k]^2 / (#A[p^(k-1)] #A[p^(k+1)]) = p^(number of factors p^k)
    ext = chain + chain[-1:]
    factors = []
    for k in range(1, len(chain)):
        r = ext[k] ** 2 // (ext[k - 1] * ext[k + 1])
        while r > 1:
            r //= p
            factors.append(p**k)
    return factors


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
    the sign class), in ascending order.  Composition and all structure
    questions are answered through cycle membership.
    """

    def __init__(self, cycles: _Cycles, quotient: bool):
        self.discriminant = cycles.D
        self._cycles = cycles
        self._kernel = {cycles.identity, cycles.sign} if quotient else {cycles.identity}
        self.variant = "ordinary" if len(self._kernel) == 2 else "narrow"
        # element position of each cycle; members[pos] = its least cycle
        self._pos = [-1] * len(cycles.reps)
        self._members: list[int] = []
        for cid in sorted(range(len(cycles.reps)), key=cycles.reps.__getitem__):
            if self._pos[cid] < 0:
                self._pos[cid] = len(self._members)
                if len(self._kernel) == 2:
                    # (a, b, c) composed with the sign form (-1, b, -ac), united
                    # with it, is (-a, b, -c) (Cohen, GTM 138, 5.2), reduced
                    # as (a, b, c) is: reducedness reads only |a|
                    a, b, c = cycles.reps[cid]
                    self._pos[cycles.cycle_of[(-a, b, -c)]] = len(self._members)
                self._members.append(cid)
        self.classes = tuple(IndefiniteForm(*cycles.reps[c]) for c in self._members)
        self.order = len(self._members)
        self._chains: dict[int, tuple[int, ...]] = {}

    def class_index(self, f: IndefiniteForm) -> int:
        """Element position of the class of the primitive form f."""
        if f.discriminant != self.discriminant:
            raise DiscriminantMismatch(f"{f} is not of discriminant {self.discriminant}")
        if math.gcd(math.gcd(f.a, f.b), f.c) != 1:
            raise ValueError(f"{f} is not primitive")
        return self._pos[self._cycles.cycle_of[tuple(reduce_form(f))]]

    @property
    def identity(self) -> int:
        return self._pos[self._cycles.identity]

    def mul(self, i: int, j: int) -> int:
        return self._pos[self._cycles.mul(self._members[i], self._members[j])]

    def power(self, i: int, n: int) -> int:
        return _power(self.mul, i, n) if n else self.identity

    def inverse(self, i: int) -> int:
        cyc = self._cycles
        a, b, c = cyc.reps[self._members[i]]
        return self._pos[cyc.cycle_of[_reduce(a, -b, c, cyc.D, cyc.s)]]

    def torsion_count(self, k: int) -> int:
        """Number of classes x with x^k = identity (through mul and power)."""
        e = self.identity
        return sum(1 for i in range(self.order) if self.power(i, k) == e)

    def torsion_chain(self, p: int) -> tuple[int, ...]:
        """#A[p^k] for k = 0, 1, ... until it reaches the p-part of the order."""
        chain = self._chains.get(p)
        if chain is None:
            pmap = self._cycles.power_map(p)
            chain = self._chains[p] = _torsion_chain(pmap, p, self._kernel)
        return chain

    @cached_property
    def structure(self) -> tuple[int, ...]:
        """Invariant factors of the group (divisibility chain, ascending)."""
        # align the largest p-power factors of every p, then the next ...
        parts = [
            _chain_factors(p, self.torsion_chain(p))[::-1]
            for p, _ in factorize(self.order)
        ]
        columns = itertools.zip_longest(*parts, fillvalue=1)
        return tuple(sorted(map(math.prod, columns)))

    def __repr__(self) -> str:
        desc = " x ".join(f"Z/{f}" for f in self.structure) or "1"
        return (
            f"FormClassGroup(D={self.discriminant}, {self.variant}, "
            f"order={self.order}, {desc})"
        )


def narrow_class_group(D: int) -> FormClassGroup:
    """The narrow class group of discriminant D as cycle classes."""
    return FormClassGroup(_cycles(D), quotient=False)


def ordinary_class_group(D: int) -> FormClassGroup:
    """The ordinary class group: the narrow group modulo the sign class.

    The sign class is principal exactly when the unit of the order of
    discriminant D has norm -1; the quotient is then the narrow group itself
    and its variant reads "narrow".
    """
    return FormClassGroup(_cycles(D), quotient=True)


def _two_group(chain: tuple[int, ...]) -> Abelian2Group:
    """The 2-group with #A[2^k] = chain[k]."""
    return Abelian2Group(tuple(_chain_factors(2, chain)))


def two_sylow(g: FormClassGroup) -> Abelian2Group:
    """The 2-Sylow subgroup of a class group, as invariant factors."""
    return _two_group(g.torsion_chain(2))


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

    One generator closure (about h compositions and one walk of every
    cycle) plus h compositions for the squaring map per discriminant.
    Only the summary is kept, not the cycles, and only for the last
    _CACHE_SIZE discriminants.
    """
    cycles = _cycles(D)
    squares = cycles.power_map(2)
    h_narrow = len(cycles.reps)
    kernel = {cycles.identity, cycles.sign}
    return ClassGroupSummary(
        D,
        h_narrow,
        h_narrow // len(kernel),
        _two_group(_torsion_chain(squares, 2, {cycles.identity})),
        _two_group(_torsion_chain(squares, 2, kernel)),
    )
