"""Local symbols and prime splitting in Q(sqrt(d)): the references for the
closed forms that read both off the primes of d.

`minus_one_is_norm` decides by Hilbert symbols at the places dividing
2d*oo whether -1 is a norm from Q(sqrt(d)); it is the local-norm reference
for the [q | d] term of genus.genus_rank, since the genus formula's n is 2
exactly when -1 is not a norm.  `splitting_in` gives the behaviour of a
rational prime, the place-count reference for biquad.ramified_place_count.
"""

from __future__ import annotations

import enum
import math

from twoclass.arith import is_prime, kronecker
from twoclass.quadfield import discriminant, real_radicand


def _two_adic_split(n: int) -> tuple[int, int]:
    """n = 2**e * u with u odd; returns (e, u)."""
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    return e, n


def hilbert_symbol(a: int, b: int, place) -> int:
    """Local Hilbert symbol (a,b) at a finite prime or at math.inf.

    Satisfies the product formula: over all places dividing 2ab oo the
    product of symbols is +1.
    """
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol requires nonzero arguments")
    if place == math.inf:
        return -1 if (a < 0 and b < 0) else 1
    p = int(place)
    if not is_prime(p):
        raise ValueError(f"{place} is not a prime or infinity")
    if p == 2:
        alpha, u = _two_adic_split(abs(a))
        beta, v = _two_adic_split(abs(b))
        u = u if a > 0 else -u
        v = v if b > 0 else -v
        eps_u = (u - 1) // 2
        eps_v = (v - 1) // 2
        omega_u = (u * u - 1) // 8
        omega_v = (v * v - 1) // 8
        e = eps_u * eps_v + alpha * omega_v + beta * omega_u
        return -1 if e % 2 else 1
    alpha = 0
    while a % p == 0:
        a //= p
        alpha += 1
    beta = 0
    while b % p == 0:
        b //= p
        beta += 1
    e = alpha * beta * ((p - 1) // 2)
    result = -1 if e % 2 else 1
    if beta % 2:
        result *= kronecker(a, p)
    if alpha % 2:
        result *= kronecker(b, p)
    return result


def minus_one_is_norm(d) -> bool:
    """True iff -1 is a norm from Q(sqrt(d)), by local symbols at p | 2d, oo."""
    fs = real_radicand(d)
    places = [math.inf, 2] + [p for p in fs.primes if p != 2]
    return all(hilbert_symbol(-1, fs.value, p) == 1 for p in places)


class SplitType(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


def splitting_in(p: int, d) -> SplitType:
    """Behaviour of the rational prime p in Q(sqrt(d))."""
    D = discriminant(real_radicand(d))
    if D % p == 0:
        return SplitType.RAMIFIED
    return SplitType.SPLIT if kronecker(D, p) == 1 else SplitType.INERT
