import math
import random
import sys
from array import array

import pytest

import twoclass.arith as arith
from twoclass.arith import (
    FactoredSquarefree,
    NotSquarefree,
    UndefinedSymbol,
    WrongResidueClass,
    doubled,
    factor_squarefree,
    factorize,
    hilbert_symbol,
    is_prime,
    kronecker,
    sqrt_mod_prime,
    squarefree_range,
    two_power_residue_test,
)


def naive_is_prime(n):
    if n < 2:
        return False
    return all(n % k for k in range(2, math.isqrt(n) + 1))


def naive_spf(n):
    """The least prime factor of n >= 2, by trial division."""
    return next((k for k in range(2, math.isqrt(n) + 1) if n % k == 0), n)


def test_spf_table_against_trial_division(monkeypatch):
    # grown from 4096 entries by doubling past 2 * 10^5, then built at once
    # for a limit that is no power of two
    n_max = 2 * 10**5
    expected = [0, 1] + [naive_spf(n) for n in range(2, n_max)]
    monkeypatch.setattr(arith, "_spf", array("I"))
    sizes = []
    while len(arith._spf) <= n_max:
        table = arith.spf_table(len(arith._spf))
        sizes.append(len(table))
        k = min(len(table), n_max)
        assert list(table[:k]) == expected[:k], len(table)
    assert sizes == [4096 << i for i in range(7)]
    monkeypatch.setattr(arith, "_spf", array("I"))
    table = arith.spf_table(n_max - 1)
    assert len(table) == n_max
    # spf[p] == p for the primes, and the least prime of each composite
    assert list(table) == expected


def test_spf_table_takes_four_bytes_an_entry(monkeypatch):
    monkeypatch.setattr(arith, "_spf", array("I"))
    table = arith.spf_table(10**6)
    assert len(arith._spf) == len(table) == 10**6 + 1
    assert table.itemsize == 4
    # allocated at its exact length: 4 bytes an entry over an empty array
    assert sys.getsizeof(table) == sys.getsizeof(array("I")) + 4 * len(table)


def test_primes_upto_against_trial_division():
    expected = [p for p in range(3000) if naive_is_prime(p)]
    for n in range(-1, 3000):
        assert arith.primes_upto(n) == [p for p in expected if p <= n], n
    table = arith.spf_table(10**6)
    from_table = [p for p in range(2, 10**6 + 1) if table[p] == p]
    assert arith.primes_upto(10**6) == from_table


def test_is_prime_examples():
    assert is_prime(7)
    assert not is_prime(1)
    assert not is_prime(3599)  # 59 * 61
    assert 3599 == 59 * 61


def test_is_prime_against_trial_division(monkeypatch):
    # is_prime reads the sieve for n < len(_spf) and runs Miller-Rabin
    # beyond it: the full table, one cut at 50000 and none cover both paths
    n_max = 10**5
    expected = [naive_is_prime(n) for n in range(n_max)]
    full = arith.spf_table(n_max)
    for table in (full, full[:50000], []):
        monkeypatch.setattr(arith, "_spf", table)
        bad = [n for n in range(n_max) if is_prime(n) != expected[n]]
        assert not bad, (len(table), bad[:5])


def test_is_prime_known_large():
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**31 + 11))
    with pytest.raises(ValueError):
        is_prime(2**64)
    with pytest.raises(ValueError):
        is_prime(-1)


def test_strong_pseudoprimes_rejected():
    # Carmichael numbers and classic 2-pseudoprimes
    for n in (561, 1105, 1729, 2047, 3215031751):
        assert not is_prime(n)


def test_is_prime_by_miller_rabin_alone_below_10_6(monkeypatch):
    # with no sieve every n > 61 takes the (2, 7, 61) witnesses; 61 itself
    # must be settled by trial division before its own witness sees it
    sieve = arith.spf_table(10**6)
    expected = [n >= 2 and sieve[n] == n for n in range(10**6)]
    monkeypatch.setattr(arith, "_spf", [])
    bad = [n for n in range(10**6) if is_prime(n) != expected[n]]
    assert not bad, bad[:5]


def test_is_prime_across_the_witness_tiers(monkeypatch):
    monkeypatch.setattr(arith, "_spf", [])
    # strong pseudoprimes to 2, to 2 and 3, to 2, 3 and 5, to the first five
    # primes, and 4759123141 = 48781 * 97561, the least one to 2, 7 and 61,
    # which must take the twelve-witness path
    composites = (2047, 1373653, 25326001, 3215031751, 4759123141, 1122004669633)
    assert 4759123141 == 48781 * 97561 == arith._MR_SMALL_LIMIT
    for n in composites:
        assert not is_prime(n), n
    for n in (4294967291, 2**61 - 1):
        assert is_prime(n), n


def test_factor_squarefree():
    assert factor_squarefree(1885).primes == (5, 13, 29)
    assert factor_squarefree(1).primes == ()
    assert factor_squarefree(1).value == 1
    with pytest.raises(NotSquarefree):
        factor_squarefree(12)
    with pytest.raises(NotSquarefree):
        factor_squarefree(4 * 9 * 25)


def test_factored_squarefree_validation():
    with pytest.raises(ValueError):
        FactoredSquarefree(6, (3, 2))  # not increasing
    with pytest.raises(ValueError):
        FactoredSquarefree(8, (2, 4))  # 4 not prime
    with pytest.raises(NotSquarefree):
        FactoredSquarefree(10, (2, 3))  # wrong product


def test_doubled_is_the_factorization_of_2d():
    for fs in squarefree_range(1, 10**5, 2):
        assert doubled(fs) == factor_squarefree(2 * fs.value), fs.value
    for even in (2, 6, 10):
        with pytest.raises(ValueError):
            doubled(factor_squarefree(even))


def test_factorize_pollard_path():
    n = 1000003 * 1000033  # both prime, beyond the trial bound
    assert factorize(n) == [(1000003, 1), (1000033, 1)]


def test_squarefree_range():
    got = [fs.value for fs in squarefree_range(1, 20)]
    assert got == [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19]
    for fs in squarefree_range(1, 200):
        assert math.prod(fs.primes) == fs.value


def _factored_window(lo, hi, step=1):
    out = []
    for n in range(lo, hi, step):
        if n < 1:
            continue
        try:
            out.append(factor_squarefree(n))
        except NotSquarefree:
            pass
    return out


def test_squarefree_range_windows_against_factor_squarefree(monkeypatch):
    # 1017900..1018300 holds 1009^2 = 1018081, struck by the largest
    # sieving prime; the last window crosses a block boundary
    windows = [
        (0, 1),
        (1, 2),
        (1, 3000),
        (5, 5),
        (1017900, 1018300),
        (999000, 999000 + arith._BLOCK + 500),
    ]
    arith.spf_table(1020000)  # a fast reference: factorize reads the sieve
    expected = {w: _factored_window(*w) for w in windows}
    # the window sieve must not lean on a table that reaches the window
    monkeypatch.setattr(arith, "_spf", [])
    for w in windows:
        assert list(squarefree_range(*w)) == expected[w], w
    assert len(arith._spf) <= 4096


def test_squarefree_range_steps_against_factor_squarefree(monkeypatch):
    # step 2 is the sweeps' odd d; larger steps share primes with the step
    # (p | step, p^2 | step) or not, and the last window crosses a block
    windows = [
        (1, 300, 2),
        (0, 300, 2),
        (-7, 300, 3),
        (4, 300, 2),
        (1017901, 1018300, 2),
        (9, 3000, 9),
        (3, 3000, 12),
        (7, 5000, 50),
        (999001, 999001 + 2 * arith._BLOCK + 1000, 2),
    ]
    arith.spf_table(1040000)
    expected = {w: _factored_window(*w) for w in windows}
    monkeypatch.setattr(arith, "_spf", [])
    for w in windows:
        assert list(squarefree_range(*w)) == expected[w], w
    assert [fs.value for fs in squarefree_range(1, 20, 2)] == [1, 3, 5, 7, 11, 13, 15, 17, 19]
    with pytest.raises(ValueError):
        list(squarefree_range(1, 20, 0))


def test_kronecker_examples():
    assert kronecker(2, 7) == 1
    assert kronecker(-1, 3) == -1
    assert kronecker(5, 13) == -1
    # squares mod 13 confirm the last one
    assert 5 not in {x * x % 13 for x in range(13)}


def test_kronecker_edge_conventions():
    with pytest.raises(UndefinedSymbol):
        kronecker(0, 0)
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(5, 0) == 0
    assert kronecker(0, 1) == 1
    assert kronecker(0, 5) == 0
    assert kronecker(7, -1) == 1
    assert kronecker(-7, -1) == -1
    # (a/2): 0 for even a, +1 for a = +-1 (8), -1 for a = +-3 (8)
    assert kronecker(6, 2) == 0
    assert [kronecker(a, 2) for a in (1, 3, 5, 7)] == [1, -1, -1, 1]


def test_kronecker_equals_legendre_on_primes():
    primes = [p for p in range(3, 500) if is_prime(p)]
    for p in primes:
        for a in range(p):
            euler = pow(a, (p - 1) // 2, p)
            expected = 0 if euler == 0 else (1 if euler == 1 else -1)
            assert kronecker(a, p) == expected, (a, p)


def test_quadratic_reciprocity():
    primes = [p for p in range(3, 1000) if is_prime(p)]
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            lhs = kronecker(p, q) * kronecker(q, p)
            rhs = (-1) ** (((p - 1) // 2) * ((q - 1) // 2))
            assert lhs == rhs, (p, q)


def test_kronecker_multiplicative():
    # exhaustively on residues for odd n, plus random large spot checks
    for n in range(1, 200, 2):
        row = [kronecker(a, n) for a in range(n)]
        for a in range(n):
            for b in range(n):
                assert kronecker(a * b, n) == row[a] * row[b], (a, b, n)
    rng = random.Random(20260810)
    for _ in range(3000):
        a = rng.randint(-500, 500)
        b = rng.randint(-500, 500)
        n = rng.randrange(1, 500, 2)
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def test_kronecker_multiplicative_in_lower_argument():
    rng = random.Random(8)
    for _ in range(2000):
        a = rng.randint(-300, 300)
        m = rng.randint(-300, 300)
        n = rng.randint(-300, 300)
        if (a == 0 and m * n == 0) or (m == 0 and n == 0):
            continue
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_sqrt_mod_prime_against_the_squares():
    # every residue of every odd prime below 700, including p = 1 (mod 8)
    # where Tonelli-Shanks takes several rounds
    for p in range(3, 700, 2):
        if not naive_is_prime(p):
            continue
        squares = {x * x % p for x in range(p)}
        for n in range(p):
            r = sqrt_mod_prime(n, p)
            if n in squares:
                assert r is not None and r * r % p == n, (n, p)
            else:
                assert r is None, (n, p)
    # a large prime = 1 (mod 8), against Euler's criterion
    p = 10**9 + 9
    for n in range(1, 200):
        r = sqrt_mod_prime(n, p)
        assert (r is None) == (pow(n, (p - 1) // 2, p) == p - 1), n
        assert r is None or r * r % p == n, n
    assert sqrt_mod_prime(-1, 13) in (5, 8)


def test_hilbert_symbol_examples():
    assert hilbert_symbol(-1, -1, math.inf) == -1
    assert hilbert_symbol(-1, 3, 3) == -1
    assert hilbert_symbol(-1, 34, 2) == 1


def test_hilbert_symbol_validation():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, 2)
    with pytest.raises(ValueError):
        hilbert_symbol(3, 5, 6)  # 6 is not a prime


def test_hilbert_product_formula():
    # product over p | 2ab and infinity equals +1, |a|, |b| <= 50
    for a in range(-50, 51):
        for b in range(-50, 51):
            if a == 0 or b == 0:
                continue
            places = {2, math.inf}
            places.update(p for p, _ in factorize(abs(a)))
            places.update(p for p, _ in factorize(abs(b)))
            prod = 1
            for p in places:
                prod *= hilbert_symbol(a, b, p)
            assert prod == 1, (a, b)


def test_hilbert_symbol_is_symmetric_and_bimultiplicative():
    rng = random.Random(4)
    for _ in range(500):
        a = rng.choice([x for x in range(-60, 61) if x])
        b = rng.choice([x for x in range(-60, 61) if x])
        c = rng.choice([x for x in range(-60, 61) if x])
        p = rng.choice([2, 3, 5, 7, 11, math.inf])
        assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
        assert hilbert_symbol(a * c, b, p) == hilbert_symbol(
            a, b, p
        ) * hilbert_symbol(c, b, p)


def test_two_power_residue_examples():
    assert two_power_residue_test(17) is True  # 2^4 = 16 != 1 mod 17
    assert two_power_residue_test(257) is False  # 2^64 = 1 = (-1)^32 mod 257
    with pytest.raises(WrongResidueClass):
        two_power_residue_test(5)
    with pytest.raises(ValueError):
        two_power_residue_test(15)


def test_two_power_residue_against_quartic_character():
    # for p = 1 (mod 16) the test fails iff 2 is a fourth power; for
    # p = 9 (mod 16) it fails iff 2^((p-1)/4) = -1
    for p in range(17, 3000, 8):
        if not is_prime(p):
            continue
        fourth_powers = {pow(x, 4, p) for x in range(1, p)}
        if p % 16 == 1:
            expected = 2 % p not in fourth_powers
        else:
            expected = pow(2, (p - 1) // 4, p) != p - 1
        assert two_power_residue_test(p) == expected, p
