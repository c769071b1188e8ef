"""The per-split character test: the reference redei.splitting_sets reads
S2 against.

S2(D) keeps (1, D) and each splitting D = D1 * D2 of S1(D) whose halves are
mutual quadratic residues.  Here both character conditions are tested prime
by prime, split by split, with one Kronecker symbol of a whole half at
each prime of the other half, and no Redei matrix is built.
"""

from __future__ import annotations

from twoclass.arith import kronecker
from twoclass.genus import prime_discriminants
from twoclass.redei import Decomposition, splitting_sets


def residue_everywhere(d1: int, d2: int, primes) -> bool:
    """kronecker(d1, p) = +1 for every prime p | d2 (p = 2 included), where
    primes are the primes of D = d1 * d2."""
    return all(kronecker(d1, p) == 1 for p in primes if d2 % p == 0)


def s2_reference(D: int) -> list[Decomposition]:
    """S2(D) in the order of S1(D), by the two-sided character test."""
    primes = [abs(q) if q % 2 else 2 for q in prime_discriminants(D)]
    return [
        dec
        for dec in splitting_sets(D)[0]
        if dec.D1 == 1
        or (
            residue_everywhere(dec.D1, dec.D2, primes)
            and residue_everywhere(dec.D2, dec.D1, primes)
        )
    ]
