"""Genus theory for real quadratic fields.

The narrow genus field of K is generated by the square roots of the prime
discriminants dividing D_K; the real genus field is its totally real
index-2 subfield.  The 2-ranks are their numbers of generators less one, in
closed form: with t the number of primes dividing D_K, rank A+(K) = t - 1
and rank A(K) = t - 1 - [q | d], where [q | d] is 1 when some prime
q = 3 (mod 4) divides d.  (D_K > 0 has an even number of negative prime
discriminants, so -4 or -8 is never the only one, some -q is among them
exactly when q | d, and then the real genus field has one generator
fewer.)  The ranks read t and q off the primes the argument already
carries, and build no field; the tests keep the fields, as F2-spans of
radicands, as the reference for the closed forms.  The genus formula's
order 2^(t-1)/n of the subgroup of A(K) fixed by Gal(K/Q) is 2^rank A(K),
since n = 2 exactly when some q divides d.
"""

from __future__ import annotations

import math

from .arith import factorize, is_prime
from .quadfield import real_radicand


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


def prime_discriminants(D: int) -> list[int]:
    """The unique factorization of a fundamental D into prime discriminants.

    Odd p contributes p* = (+/-)p; when 2 | D the residual factor is one of
    -4, 8, -8 and is appended last.
    """
    fac = None
    if D not in (0, 1) and D % 4 in (0, 1) and D % 16 not in (4, 0):
        fac = factorize(abs(D))
    if fac is None or any(e > 1 for p, e in fac if p != 2):
        raise NotFundamental(f"{D} is not a fundamental discriminant")
    out = [p if p % 4 == 1 else -p for p, _ in fac if p != 2]  # factorize proved p
    r = D // math.prod(out)
    return out if r == 1 else out + [r]


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
