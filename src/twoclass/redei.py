"""Redei-Reichardt counting for narrow 2-class groups.

S1(D) collects the unordered coprime splittings D = D1 * D2 into two
discriminants; its size is #(A+/2A+) = 2^(t-1).  S2(D) keeps those whose
halves are mutual quadratic residues, (D1 / p) = 1 for every prime p | D2
and (D2 / p) = 1 for every p | D1; its size is #(2A+/4A+), so A+ is
2-elementary exactly when #S2 = 1.  The split whose D1 is the product of
the prime discriminants d_j, j in v, passes both exactly when Mv = 0 for
the Redei matrix M of d_1..d_t (Redei, J. reine angew. Math. 171, 1934;
Stevenhagen 1995): S2 is the kernel of M, and #S2 = 2^(t-1-rank M).
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import as_factored, kronecker
from .genus import prime_discriminants


class Decomposition(NamedTuple):
    """D = D1 * D2 with each half a discriminant and |D1| < |D2|."""

    D1: int
    D2: int


def redei_matrix(discs: list[int]) -> list[int]:
    """The Redei matrix of the prime discriminants d_1..d_t as t int bitmask
    rows over F2: bit j of row i is set when (d_j / p_i) = -1, with p_i = |d_i|,
    or 2 for the even d_i, and bit i, where the symbol is 0, then makes the
    row's popcount even."""
    rows = []
    for i, di in enumerate(discs):
        p = abs(di) if di % 2 else 2
        row = sum(1 << j for j, dj in enumerate(discs) if kronecker(dj, p) < 0)
        rows.append(row | (row.bit_count() & 1) << i)
    return rows


def splitting_sets(D: int) -> tuple[list[Decomposition], list[Decomposition]]:
    """S1(D) and S2(D), from one factorization of D.

    S1 holds (1, D) and the other 2^(t-1) - 1 splittings for t prime
    discriminants, sorted by |D1| then D1; S2 keeps, in that order, the
    splittings whose masks v lie in the kernel of the Redei matrix M.
    """
    discs = prime_discriminants(D)
    rows = redei_matrix(discs)
    # d1 and Mv, the XOR of M's columns in v, for each mask v of d_1..d_(t-1):
    # d_t goes to D // d1, and as M's rows are even, swapped halves keep Mv
    d1s, images = [1], [0]
    for j, q in enumerate(discs[:-1]):
        column = sum((row >> j & 1) << i for i, row in enumerate(rows))
        d1s += [d1 * q for d1 in d1s]
        images += [image ^ column for image in images]
    splits = [
        (Decomposition(*sorted((d1, D // d1), key=abs)), image)
        for d1, image in zip(d1s, images)
    ]
    splits.sort(key=lambda split: (abs(split[0].D1), split[0].D1))
    return [dec for dec, _ in splits], [dec for dec, image in splits if not image]


def elementary_transfer_applies(d) -> bool:
    """Whether d has a prime divisor = 3 (mod 4).

    Under that hypothesis the fundamental unit has norm +1, the narrow
    class number is twice the ordinary one, and A(K) is 2-elementary iff
    A+(K) is.
    """
    return any(p % 4 == 3 for p in as_factored(d).primes)
