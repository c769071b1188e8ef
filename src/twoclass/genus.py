"""Genus theory for real quadratic fields.

The narrow genus field is generated by the square roots of the prime
discriminants dividing D_K; the real genus field is its totally real
index-2 subfield.  Both are represented as F2-bases of square-free
radicands, so field identity is span equality and no algebraic number
arithmetic is needed.  These fields remain the library's description of
genus theory.

The 2-ranks are their basis sizes less one, in closed form: with t the
number of primes dividing D_K, rank A+(K) = t - 1 and rank A(K) =
t - 1 - [q | d], where [q | d] is 1 when some prime q = 3 (mod 4) divides
d.  (D_K > 0 has an even number of negative prime discriminants, so -4
or -8 is never the only one, some -q is among them exactly when q | d, and
then the real genus field has one generator fewer.)  The ranks read t
and q off the primes the argument already carries, and build no field.
The genus formula's order 2^(t-1)/n of the subgroup of A(K) fixed by
Gal(K/Q) is 2^rank A(K), since n = 2 exactly when some q divides d.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import factorize, is_prime
from .quadfield import discriminant, real_radicand


class EvenPrime(ValueError):
    """p = 2 has no starred value; the 2-part is a separate discriminant."""


class NotFundamental(ValueError):
    """The integer is not a fundamental discriminant."""


def starred_prime(p: int) -> int:
    """p for p = 1 (mod 4), -p for p = 3 (mod 4)."""
    if p == 2:
        raise EvenPrime("starred primes are odd")
    if p < 3 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return p if p % 4 == 1 else -p


def _fundamental_primes(D: int) -> list[int] | None:
    """The primes dividing D when D is a fundamental discriminant, else None."""
    if D in (0, 1) or D % 4 not in (0, 1) or D % 16 in (4, 0):
        return None
    fac = factorize(abs(D))
    if any(e > 1 for p, e in fac if p != 2):
        return None
    return [p for p, _ in fac]


def is_fundamental(D: int) -> bool:
    """Whether D is the discriminant of a quadratic field."""
    return _fundamental_primes(D) is not None


def _prime_discriminants_of(D: int, primes) -> list[int]:
    """The prime discriminants of a fundamental D with prime divisors primes.

    Odd p contributes p* = (+/-)p; when 2 | D the residual factor is one of
    -4, 8, -8 and is appended last.
    """
    out = [starred_prime(p) for p in primes if p != 2]
    r = D // math.prod(out)
    return out if r == 1 else out + [r]


def prime_discriminants(D: int) -> list[int]:
    """The unique factorization of a fundamental D into prime discriminants."""
    primes = _fundamental_primes(D)
    if primes is None:
        raise NotFundamental(f"{D} is not a fundamental discriminant")
    return _prime_discriminants_of(D, primes)


def _radicand(prime_disc: int) -> int:
    """Square-free kernel generating the same quadratic field."""
    return {-4: -1, 8: 2, -8: -2}.get(prime_disc, prime_disc)


class GenusField(NamedTuple):
    """A multiquadratic field Q(sqrt(r1), ..., sqrt(rt)) over Q."""

    radicands: tuple[int, ...]
    degree_over_base: int
    variant: str  # "narrow" or "real"

    def __repr__(self) -> str:
        gens = ", ".join(f"sqrt({r})" for r in self.radicands)
        return f"Q({gens})"


def _support_vector(r: int) -> frozenset:
    """F2 support of a square-free radicand: sign bit plus prime set."""
    sup = set()
    if r < 0:
        sup.add(-1)
        r = -r
    for p, _ in factorize(r):
        sup.add(p)
    return frozenset(sup)


def f2_span(radicands) -> frozenset:
    """All square-free products of subsets, as support vectors."""
    span = {frozenset()}
    for r in radicands:
        v = _support_vector(r)
        span |= {s ^ v for s in span}
    return frozenset(span)


def narrow_genus_field(d) -> GenusField:
    """Generated by the square roots of all prime discriminants of D_K."""
    fs = real_radicand(d)
    discs = _prime_discriminants_of(discriminant(fs), fs.primes)
    rads = tuple(_radicand(q) for q in discs)
    return GenusField(rads, 2 ** len(rads), "narrow")


def genus_field(d) -> GenusField:
    """The totally real subfield of the narrow genus field.

    Positive radicands survive; negative radicands are replaced by their
    pairwise products with the first negative one.  [K_G : Q] = 2^(t-1)
    when a negative radicand exists, else 2^t.
    """
    narrow = narrow_genus_field(d)
    pos = [r for r in narrow.radicands if r > 0]
    neg = [r for r in narrow.radicands if r < 0]
    if neg:
        anchor = neg[0]
        pos += [anchor * r for r in neg[1:]]
    return GenusField(tuple(pos), 2 ** len(pos), "real")


def _ramification(d) -> tuple[int, bool]:
    """(t, [q | d]) for d an int or a FactoredSquarefree: t counts the
    primes dividing D_K, and the flag says whether a prime = 3 (mod 4)
    divides d.  A bare int is factored once."""
    fs = real_radicand(d)
    t = len(fs.primes) + (fs.value % 4 == 3)
    return t, any(p % 4 == 3 for p in fs.primes)


def narrow_genus_rank(d) -> int:
    """2-rank of the narrow class group: t - 1."""
    t, _ = _ramification(d)
    return t - 1


def genus_rank(d) -> int:
    """2-rank of the ordinary class group: t - 1 - [q | d], the log2 of
    [K_G : K]."""
    t, has_q = _ramification(d)
    return t - 1 - has_q


def genus_fixed_order(d) -> int:
    """Order of the subgroup of A(K) fixed by Gal(K/Q): 2^(t-1) / n.

    t counts the ramified places of Q in K (the prime divisors of D_K) and
    n = [E(Q) : E(Q) cap N(K^x)] is 1 when -1 is a local norm everywhere,
    else 2.  n = 2 exactly when some prime q = 3 (mod 4) divides d, so the
    order is 2^rank A(K).
    """
    return 2 ** genus_rank(d)
