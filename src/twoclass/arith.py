"""Exact elementary number theory kernel.

Deterministic primality, square-free factorization, Kronecker symbols,
modular square roots and the quartic residue obstruction test for 2 modulo
primes p = 1 (mod 8).  Everything here is integer-exact; there is no
floating point anywhere in this module.

The smallest-prime-factor sieve (`spf_table`) is an array("I"), 4 bytes an
entry, built by C-level slice assignment: each prime up to the square root
of its length writes itself over its multiples from its square on, the
largest prime first, so that the least prime of each composite is written
last.  Primality reads that sieve where it reaches and runs Miller-Rabin
beyond it, with witness sets that are proven exact on their range:
(2, 7, 61) below 4759123141 (Jaeschke, Math. Comp. 61, 1993) and the
first twelve primes below 2**64 (Sorenson-Webster).  Sweeps factor their
window with a segmented sieve (`squarefree_range`): only the primes up to
the square root of the window's end are tabulated, and each block of the
window is sieved by them in turn.  The window may be an arithmetic
progression, so a sweep over odd d never factors an even one.  A prime is
proved once: `squarefree_range` and `factor_squarefree` build their records
unchecked, since each prime they list comes from a sieve or the trial
divisors (or is the cofactor those leave below the square of the next), or
passed `is_prime` as it was found.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, compress
from typing import NamedTuple


class NotSquarefree(ValueError):
    """A squared prime divides the input."""


class UndefinedSymbol(ValueError):
    """The Kronecker symbol (0/0) has no value."""


class WrongResidueClass(ValueError):
    """The input prime lies in the wrong class for the requested test."""


class BeyondPrimalityRange(ValueError):
    """n >= 2**64, past the witness sets that make primality exact."""


# Miller-Rabin witness sets, each exact for every n below its bound:
# (2, 7, 61) below 4759123141 = 48781 * 97561, the least strong pseudoprime
# to all three (Jaeschke, Math. Comp. 61, 1993); the first twelve primes
# below 2**64 (Sorenson-Webster)
_MR_SMALL_LIMIT = 4_759_123_141
_MR_SMALL_WITNESSES = (2, 7, 61)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 1 << 64

# trial division runs through the largest witness, so that no witness is a
# multiple of the n it tests (61 would call 61 composite)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def is_prime(n: int) -> bool:
    """Exact primality for 0 <= n < 2**64.

    The sieve answers when it covers n.  Otherwise trial division by the
    primes through 61 and strong-probable-prime tests to the witnesses
    (2, 7, 61) when n < 4759123141, which is exact there (Jaeschke, Math.
    Comp. 61, 1993), or to the first twelve primes, which is exact below
    2**64 (Sorenson-Webster).  No answer is probabilistic.  A prime that a
    factorization of this module finds is tested here at most once, as it
    is found; the record built from it is not checked again.
    """
    if n < 0:
        raise ValueError("primality is defined for nonnegative integers")
    if n >= _MR_LIMIT:
        # refuse to answer probabilistically
        raise BeyondPrimalityRange("deterministic witness set only covers n < 2**64")
    if n < 2:
        return False
    if n < len(_spf):
        return _spf[n] == n
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = _MR_SMALL_WITNESSES if n < _MR_SMALL_LIMIT else _MR_WITNESSES
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# --- factorization -------------------------------------------------------

_spf: array = array("I")


def spf_table(limit: int) -> array:
    """Smallest-prime-factor sieve, grown on demand and kept module-global.

    The table is an array("I"), 4 bytes an entry, that starts as the identity
    and is filled by slice assignment: each prime p <= isqrt(size - 1)
    writes itself at p*p, p*p + p, ..., largest p first, so that the least
    prime of each composite is written last.  An odd p steps by 2p, since
    p = 2 comes last and writes every even entry.  Primes keep spf[p] == p.
    """
    global _spf
    if len(_spf) <= limit:
        size = max(limit + 1, 2 * len(_spf), 1 << 12)
        # the identity, allocated at its exact length and copied in blocks
        # (array("I", range(size)) would overallocate by up to 1/16)
        tbl = array("I", [0]) * size
        block = 1 << 16
        for lo in range(0, size, block):
            tbl[lo : lo + block] = array("I", range(lo, min(lo + block, size)))
        for p in reversed(primes_upto(math.isqrt(size - 1))):
            step = p if p == 2 else 2 * p
            tbl[p * p :: step] = array("I", [p]) * len(range(p * p, size, step))
        _spf = tbl
    return _spf


def primes_upto(n: int) -> list[int]:
    """The primes p <= n, from a bytearray sieve of Eratosthenes."""
    if n < 2:
        return []
    prime = bytearray(b"\x01") * (n + 1)
    prime[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if prime[p]:
            prime[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), prime))


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Floyd's cycle finding: x takes
    one step, y two, with a gcd every step)."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        seed += 1
        x = seed
        y = x
        c = seed
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


_TRIAL_PRIMES = tuple(primes_upto(1 << 10))  # trial divisors of n < 2**64
_TRIAL_BOUND = 10**6  # trial division of a larger n runs up to it


def factorize(n: int) -> list[tuple[int, int]]:
    """Sorted prime factorization [(p, e), ...] of n >= 1.

    The sieve answers where it reaches.  Beyond it, n < 2**64 is divided by
    the primes up to 2**10 only, and a larger n by 2 and every odd number up
    to 10**6, since is_prime settles no part of 2**64 or more: so a product
    of four primes near 10**5 is still factored.  In both ranges a cofactor
    left when the divisors pass its square root is prime, recorded with no
    test, and Pollard rho splits a larger one into parts that is_prime settles.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    if n < len(_spf):
        while n > 1:
            p = _spf[n]
            out[p] = out.get(p, 0) + 1
            n //= p
        return sorted(out.items())
    if n < _MR_LIMIT:
        divisors = _TRIAL_PRIMES
    else:
        divisors = chain((2,), range(3, _TRIAL_BOUND + 1, 2))
    for p in divisors:
        if p * p > n:  # no factor up to its square root: n is 1 or prime
            if n > 1:
                out[n], n = 1, 1
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return sorted(out.items())


class _FactoredSquarefreeFields(NamedTuple):
    value: int
    primes: tuple[int, ...]


class FactoredSquarefree(_FactoredSquarefreeFields):
    """A square-free positive integer together with its prime divisors."""

    __slots__ = ()

    def __new__(cls, value: int, primes: tuple[int, ...]) -> FactoredSquarefree:
        if value < 1:
            raise ValueError("value must be positive")
        prod = 1
        last = 1
        for p in primes:
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            last = p
            prod *= p
        if prod != value:
            raise NotSquarefree(f"{value} != product of {primes}")
        return tuple.__new__(cls, (value, primes))

    @classmethod
    def _trusted(cls, value: int, primes: tuple[int, ...]) -> FactoredSquarefree:
        """Build without the checks, for a caller whose primes hold by
        construction."""
        return tuple.__new__(cls, (value, primes))

    def __int__(self) -> int:
        return self.value


def factor_squarefree(n: int) -> FactoredSquarefree:
    """Factor square-free n >= 1, rejecting inputs with a squared prime.

    factorize takes each prime from the sieve or the trial divisors, as the
    cofactor they leave with no factor up to its square root, or after
    is_prime, so the record is built without testing them again.
    """
    fac = factorize(n)
    for p, e in fac:
        if e > 1:
            raise NotSquarefree(f"{p}**{e} divides {n}")
    return FactoredSquarefree._trusted(n, tuple(p for p, _ in fac))


def doubled(fs: FactoredSquarefree) -> FactoredSquarefree:
    """The factorization of 2d, read off that of an odd d.

    2 is the least prime and d is odd, so (2,) + fs.primes is increasing and
    multiplies to 2d by construction: nothing is left to check, and the odd
    primes are not tested for primality a second time.
    """
    if fs.value % 2 == 0:
        raise ValueError(f"doubled needs an odd d, not {fs.value}")
    return FactoredSquarefree._trusted(2 * fs.value, (2,) + fs.primes)


def as_factored(d) -> FactoredSquarefree:
    """Coerce an int (or pass through a FactoredSquarefree)."""
    if isinstance(d, FactoredSquarefree):
        return d
    return factor_squarefree(int(d))


# integers per block of the window sieve; one block of per-d prime lists is
# alive at a time, whatever the window's length
_BLOCK = 1 << 14


def _hits(n0: int, step: int, m: int):
    """(offset, stride) of the i >= 0 with m | n0 + i*step, or None."""
    g = math.gcd(step, m)
    if n0 % g:
        return None
    m //= g
    return -(n0 // g) * pow(step // g, -1, m) % m, m


def squarefree_range(lo: int, hi: int, step: int = 1):
    """Yield FactoredSquarefree for every square-free d >= 1 of
    range(lo, hi, step), step >= 1.

    A segmented sieve: the progression is sieved in blocks of _BLOCK terms
    by the primes p <= isqrt(hi - 1).  A block strikes the terms divisible
    by each p^2 and lists each p at the terms it divides; both are
    arithmetic progressions in the block, found by solving the linear
    congruence.  The listed primes come from primes_upto, and what is left
    of a square-free d after them has no prime factor up to isqrt(hi - 1)
    and is below hi, so it is 1 or a prime: two such primes would multiply
    to more than hi - 1.  Every prime is thus proved by the sieve, and the
    records are built without testing any of them.
    """
    if step < 1:
        raise ValueError("squarefree_range needs step >= 1")
    if lo < 1:
        lo -= (lo - 1) // step * step
    count = len(range(lo, hi, step))
    if not count:
        return
    primes = primes_upto(math.isqrt(hi - 1))
    for first in range(0, count, _BLOCK):
        n0 = lo + first * step
        size = min(_BLOCK, count - first)
        free = bytearray(b"\x01") * size
        listed: list[list[int]] = [[] for _ in range(size)]
        for p in primes:
            hit = _hits(n0, step, p)
            if hit is not None:
                off, stride = hit
                for i in range(off, size, stride):
                    listed[i].append(p)
            hit = _hits(n0, step, p * p)
            if hit is not None and hit[0] < size:
                off, q = hit
                free[off::q] = bytes(len(range(off, size, q)))
        for i, ps in enumerate(listed):
            if free[i]:
                n = n0 + i * step
                rest = n // math.prod(ps)
                if rest > 1:
                    ps.append(rest)
                yield FactoredSquarefree._trusted(n, tuple(ps))


# --- symbols --------------------------------------------------------------


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) with the standard conventions at 2, -1 and 0."""
    if a == 0 and n == 0:
        raise UndefinedSymbol("(0/0) is undefined")
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        t = 0
        while n % 2 == 0:
            n //= 2
            t += 1
        if t % 2 == 1 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod_prime(n: int, p: int) -> int | None:
    """A square root of n modulo an odd prime p, or None when n is a
    quadratic non-residue (Tonelli-Shanks; one power when p = 3 mod 4)."""
    n %= p
    if n == 0:
        return 0
    if p % 4 == 3:
        r = pow(n, (p + 1) // 4, p)
        return r if r * r % p == n else None
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    q, e = p - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        # least i with t^(2^i) = 1; then i < e
        i, u = 0, t
        while u != 1:
            u = u * u % p
            i += 1
        b = pow(c, 1 << (e - i - 1), p)
        e, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def two_power_residue_test(p: int) -> bool:
    """True iff 2**((p-1)/4) is NOT congruent to (-1)**((p-1)/8) mod p.

    This is the obstruction that knocks the first-layer 2-rank down by one
    when p = 1 (mod 8) divides the radicand; see biquad.first_layer_rank.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p % 8 != 1:
        raise WrongResidueClass(f"{p} != 1 (mod 8)")
    return _two_power_obstructs(p)


def _two_power_obstructs(p: int) -> bool:
    """two_power_residue_test unguarded, for a proved prime p = 1 (mod 8)."""
    return pow(2, (p - 1) // 4, p) != (p - 1 if (p - 1) // 8 % 2 else 1)
