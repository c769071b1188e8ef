"""Redei-Reichardt counting for narrow 2-class groups.

S1(D) collects the unordered coprime splittings D = D1 * D2 into two
discriminants; its size is #(A+/2A+) = 2^(t-1).  S2(D) keeps (1, D) plus
the splittings whose two halves are mutual quadratic residues (the
character conditions below); its size is #(2A+/4A+), so A+ is 2-elementary
exactly when #S2 = 1.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import as_factored, kronecker
from .genus import prime_discriminants


class Decomposition(NamedTuple):
    """D = D1 * D2 with each half a discriminant and |D1| < |D2|."""

    D1: int
    D2: int


def _s1(D: int, discs: list[int]) -> list[Decomposition]:
    # each split once: the last prime discriminant always goes to D // d1
    out = []
    for mask in range(1 << (len(discs) - 1)):
        d1 = 1
        for i, q in enumerate(discs[:-1]):
            if mask >> i & 1:
                d1 *= q
        d2 = D // d1
        if abs(d1) > abs(d2):
            d1, d2 = d2, d1
        out.append(Decomposition(d1, d2))
    out.sort(key=lambda p: (abs(p.D1), p.D1))
    return out


def _residue_everywhere(d1: int, d2: int, primes) -> bool:
    """kronecker(d1, p) = +1 for every prime p | d2 (p = 2 included), where
    primes are the primes of D = d1 * d2."""
    return all(kronecker(d1, p) == 1 for p in primes if d2 % p == 0)


def _s2(s1: list[Decomposition], discs: list[int]) -> list[Decomposition]:
    primes = [abs(q) if q % 2 else 2 for q in discs]
    return [
        dec
        for dec in s1
        if dec.D1 == 1
        or (
            _residue_everywhere(dec.D1, dec.D2, primes)
            and _residue_everywhere(dec.D2, dec.D1, primes)
        )
    ]


def splitting_sets(D: int) -> tuple[list[Decomposition], list[Decomposition]]:
    """S1(D) and S2(D), from one factorization of D.

    S1 holds (1, D) and the other 2^(t-1) - 1 splittings for t prime
    discriminants, sorted by |D1| then D1; S2 keeps (1, D) and the
    splittings passing both character tests.
    """
    discs = prime_discriminants(D)
    s1 = _s1(D, discs)
    return s1, _s2(s1, discs)


def elementary_transfer_applies(d) -> bool:
    """Whether d has a prime divisor = 3 (mod 4).

    Under that hypothesis the fundamental unit has norm +1, the narrow
    class number is twice the ordinary one, and A(K) is 2-elementary iff
    A+(K) is.
    """
    return any(p % 4 == 3 for p in as_factored(d).primes)
