"""The first layer K1 = Q(sqrt(2), sqrt(d)) of the cyclotomic Z2-tower.

Counts the ramified places of Q(sqrt(2)) in K1, evaluates the closed-form
2-rank of A(K1), computes the Hasse unit index and evaluates Kuroda's class
number formula.  The unit index needs no arithmetic in K1: each fundamental
unit (X + Y sqrt(m))/2 of Q(sqrt(d)) and Q(sqrt(2d)) gets a parity vector
over the odd primes p | d, read off X + 2 (norm +1) or X + 2i (norm -1) modulo
p, and a totally positive product of units is a square in K1 iff the XOR of
its vectors is constant (Kubota, Nagoya Math. J. 10, 1956).
"""

from __future__ import annotations

from .arith import (
    FactoredSquarefree,
    _two_power_obstructs,
    as_factored,
    doubled,
    sqrt_mod_prime,
)
from .forms import Abelian2Group
from .quadfield import fundamental_unit


class EvenRadicand(ValueError):
    """K1 machinery here requires odd square-free d."""


class NonIntegral(ValueError):
    """Kuroda's formula did not produce an integer: inconsistent inputs."""


class Inconsistent(ValueError):
    """Rank and group order fit no abelian 2-group."""


def _odd_radicand(d) -> FactoredSquarefree:
    """The factored d of K1, an int or a FactoredSquarefree, which must be
    odd square-free d >= 3."""
    fs = as_factored(d)
    if fs.value % 2 == 0 or fs.value < 3:
        raise EvenRadicand("need odd square-free d >= 3")
    return fs


def ramified_place_count(d) -> int:
    """Number of places of Q(sqrt(2)) ramified in K1.

    Each odd prime p | d ramifies; it sits under two places when p splits
    in Q(sqrt(2)) (p = +/-1 mod 8), one otherwise.  The place above 2
    ramifies exactly when d = 3 (mod 4).
    """
    fs = _odd_radicand(d)
    total = sum(2 if p % 8 in (1, 7) else 1 for p in fs.primes)
    if fs.value % 4 == 3:
        total += 1
    return total


def first_layer_rank(d) -> int:
    """2-rank of A(K1) from the ramified place count t1.

    With a prime divisor = 3 (mod 4): t1 - 2, unless some prime divisor is
    = 7 (mod 8), in which case t1 - 3.  Without one: t1 - 1, unless some
    prime p = 1 (mod 8) has 2^((p-1)/4) != (-1)^((p-1)/8) mod p, in which
    case t1 - 2.
    """
    fs = as_factored(d)
    t1 = ramified_place_count(fs)
    if any(p % 8 == 7 for p in fs.primes):
        return t1 - 3
    if any(p % 4 == 3 for p in fs.primes):
        return t1 - 2
    return t1 - 2 if quartic_obstruction(fs) else t1 - 1


def quartic_obstruction(d) -> bool:
    """The obstruction of first_layer_rank: no prime divisor = 3 (mod 4), and
    some p = 1 (mod 8) with 2^((p-1)/4) != (-1)^((p-1)/8) mod p.  The
    record's primes are proved, so the test runs unguarded."""
    fs = as_factored(d)
    if any(p % 4 == 3 for p in fs.primes):
        return False
    return any(p % 8 == 1 and _two_power_obstructs(p) for p in fs.primes)


# --- the Hasse unit index from integer parity vectors ----------------------


def _parity_vector(X: int, norm: int, primes) -> int:
    """Bit i set iff the i-th prime p | d divides X + 2r, with r**2 = norm (mod p).

    eps = (X + Y sqrt(m))/2 of norm N has sqrt(eps) = (sqrt(X + 2r) +
    sqrt(X - 2r))/2 with r = 1 for N = +1 and r = i for N = -1, and
    (X + 2r)(X - 2r) = m Y**2.  Each odd p | m divides exactly one of the
    two factors, to an odd power.  So the bits give the odd part of the
    square-free part of X + 2 (N = +1), or which Gaussian prime above p
    divides X + 2i (N = -1, where every odd p | m is 1 mod 4).  Over
    Q(sqrt 2, sqrt d) that part is a square iff the vector is flat.
    """
    vector = 0
    for bit, p in enumerate(primes):
        # sqrt_mod_prime is deterministic, so e_d and e_2d share each r
        r = 1 if norm == 1 else sqrt_mod_prime(p - 1, p)
        if (X + 2 * r) % p == 0:
            vector |= 1 << bit
    return vector


def hasse_unit_index(d) -> int:
    """Q(K1) = [E(K1) : <-1, e_2, e_d, e_2d>], in rational integers only.

    Only totally positive products of e_d, e_2d and e_2 = 1 + sqrt(2) can be
    squares in K1, so the signs leave these candidates: e_d, e_2d and
    e_d e_2d when both norms are +1; the norm +1 unit alone when one norm is
    -1; e_2 e_d e_2d when both are -1.  A candidate is a square iff the XOR
    of its units' parity vectors is flat (all bits equal), that is, iff its
    square class lies in <2, d>.  The squares among 1 and the candidates
    form a group, and Q is its order (Kubota, Nagoya Math. J. 10, 1956).
    """
    fs = _odd_radicand(d)
    full = (1 << len(fs.primes)) - 1
    vectors, norms = [], []
    for sub in (fs, doubled(fs)):
        unit = fundamental_unit(sub)
        norms.append(unit.norm)
        vectors.append(_parity_vector(unit.X, unit.norm, fs.primes))
    v_d, v_2d = vectors
    if norms == [1, 1]:
        candidates = (v_d, v_2d, v_d ^ v_2d)
    elif norms == [-1, -1]:
        candidates = (v_d ^ v_2d,)
    else:
        candidates = (v_d if norms[0] == 1 else v_2d,)
    return 1 + sum(v in (0, full) for v in candidates)


def kuroda_order(Q: int, hA_K: int, hA_Kprime: int, hA_Qsqrt2: int) -> int:
    """#A(K1) = (1/4) * Q * #A(K) * #A(K') * #A(Q(sqrt(2)))."""
    prod = Q * hA_K * hA_Kprime * hA_Qsqrt2
    if prod % 4:
        raise NonIntegral(f"product {prod} is not divisible by 4")
    return prod // 4


def structure_from_rank_and_order(rank: int, order: int) -> Abelian2Group | None:
    """The abelian 2-group of given rank and order when unique, else None.

    Rank 0 is the trivial group alone and rank 1 the cyclic group of that
    order.  Rank r >= 2 with order 2^r is elementary, order 2^(r+1) forces
    one factor 4, and anything larger leaves more than one group.
    """
    if order < 1 or order & (order - 1):
        raise ValueError("order must be a power of 2")
    m = order.bit_length() - 1
    if rank > m:
        raise Inconsistent(f"rank {rank} > log2(order) = {m}")
    if rank == 0 and m:
        raise Inconsistent(f"rank 0 is the trivial group, not of order {order}")
    if rank == 1:
        return Abelian2Group((order,))
    if m == rank:
        return Abelian2Group((2,) * rank)
    if m == rank + 1:
        return Abelian2Group((2,) * (rank - 1) + (4,))
    return None
