"""Genus fields as F2-spans of radicands: the reference the closed-form
2-ranks genus.genus_rank and genus.narrow_genus_rank are tested against.

The narrow genus field of Q(sqrt(d)) is generated by the square roots of the
prime discriminants dividing D_K; the real genus field is its totally real
index-2 subfield.  Both are held as F2-bases of square-free radicands, so
field identity is span equality and no algebraic number arithmetic is
needed.  The narrow field reads its prime discriminants off the primes the
field carries, not off a fresh factorization of D_K.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from twoclass.arith import factorize
from twoclass.genus import NotFundamental, prime_discriminants, starred_prime
from twoclass.quadfield import discriminant, real_radicand


def is_fundamental(D: int) -> bool:
    """Whether D is the discriminant of a quadratic field."""
    try:
        prime_discriminants(D)
    except NotFundamental:
        return False
    return True


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
    """Generated by the square roots of all prime discriminants of D_K: p*
    for each odd p | d, then the 2-part -4, 8 or -8 of D_K when it is even."""
    fs = real_radicand(d)
    D = discriminant(fs)
    discs = [starred_prime(p) for p in fs.primes if p != 2]
    two_part = D // math.prod(discs)
    if two_part != 1:
        discs.append(two_part)
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
