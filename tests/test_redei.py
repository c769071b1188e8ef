import math
import random

import pytest

from genus_reference import is_fundamental
from s2_reference import s2_reference
from twoclass.arith import primes_upto, squarefree_range
from twoclass.forms import class_group_summary
from twoclass.genus import NotFundamental, prime_discriminants
from twoclass.redei import elementary_transfer_applies, redei_matrix, splitting_sets


def test_s1_examples():
    pairs = set(splitting_sets(1365)[0])
    assert len(pairs) == 8
    for expected in [
        (1, 1365),
        (5, 273),
        (13, 105),
        (-7, -195),
        (-3, -455),
        (21, 65),
        (-35, -39),
        (-15, -91),
    ]:
        assert expected in pairs, expected
    assert len(splitting_sets(10920)[0]) == 16
    assert splitting_sets(5) == ([(1, 5)], [(1, 5)])
    with pytest.raises(NotFundamental):
        splitting_sets(20)


def test_s1_properties():
    for fs in squarefree_range(2, 800):
        D = fs.value if fs.value % 4 == 1 else 4 * fs.value
        splittings = splitting_sets(D)[0]
        t = len(prime_discriminants(D))
        assert len(splittings) == 2 ** (t - 1), D
        assert splittings[0] == (1, D)
        for dec in splittings:
            assert dec.D1 * dec.D2 == D
            assert abs(dec.D1) < abs(dec.D2)
            for half in (dec.D1, dec.D2):
                assert half % 4 in (0, 1)


def test_s2_examples():
    assert splitting_sets(1365)[1] == [(1, 1365)]
    assert splitting_sets(5)[1] == [(1, 5)]
    # D = 105: direct evaluation of both character conditions
    summ = class_group_summary(105)
    assert len(splitting_sets(105)[1]) == 2**summ.narrow.four_rank


def test_s2_subset_of_s1():
    for fs in squarefree_range(2, 800):
        D = fs.value if fs.value % 4 == 1 else 4 * fs.value
        all_s1, all_s2 = splitting_sets(D)
        assert set(all_s2) <= set(all_s1), D


def test_redei_reichardt_identity_small():
    # acceptance covers D < 50000; quick slice here
    for fs in squarefree_range(2, 700):
        D = fs.value if fs.value % 4 == 1 else 4 * fs.value
        summ = class_group_summary(D)
        all_s1, all_s2 = splitting_sets(D)
        assert len(all_s1) == 2**summ.narrow.rank, D
        assert len(all_s2) == 2**summ.narrow.four_rank, D


def test_narrow_two_elementary():
    # A+(K) is 2-elementary exactly when #S2(D) = 1
    assert len(splitting_sets(1365)[1]) == 1
    assert len(splitting_sets(5)[1]) == 1
    # 4-rank positive example: D = 3*29*4 = 348? verify via the oracle instead
    found_non_elementary = False
    for fs in squarefree_range(2, 2000):
        D = fs.value if fs.value % 4 == 1 else 4 * fs.value
        if len(splitting_sets(D)[1]) > 1:
            found_non_elementary = True
            assert not class_group_summary(D).narrow.is_elementary(), D
    assert found_non_elementary


def test_elementary_transfer_applies():
    assert elementary_transfer_applies(1365)
    assert not elementary_transfer_applies(1885)
    assert not elementary_transfer_applies(2)
    assert elementary_transfer_applies(3)


def _rank(rows) -> int:
    """The F2 rank of int bitmask rows, by XOR elimination."""
    rows, rank = list(rows), 0
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def _seeded_discriminants(count: int = 3600) -> list[int]:
    """Fundamental D of either sign with 4 to 10 prime discriminants: p* for
    odd p < 100, and at most one of -4, 8, -8."""
    rng = random.Random(20261020)
    odd = [p if p % 4 == 1 else -p for p in primes_upto(100)[1:]]
    out = []
    for _ in range(count):
        t = rng.randint(4, 10)
        even = rng.choice([[], [-4], [8], [-8]])
        out.append(math.prod(rng.sample(odd, t - len(even)) + even))
    return out


def _assert_kernel_is_s2(D: int) -> None:
    s2 = splitting_sets(D)[1]
    assert s2 == s2_reference(D), D
    discs = prime_discriminants(D)
    assert len(s2) == 2 ** (len(discs) - 1 - _rank(redei_matrix(discs))), D


def test_s2_is_the_kernel_below_20000():
    fundamental = [D for D in range(-19999, 20000) if is_fundamental(D)]
    assert len(fundamental) == 12160
    for D in fundamental:
        _assert_kernel_is_s2(D)


def test_s2_is_the_kernel_with_4_to_10_prime_discriminants():
    seeded = _seeded_discriminants()
    assert {len(prime_discriminants(D)) for D in seeded} == set(range(4, 11))
    for D in seeded:
        _assert_kernel_is_s2(D)


def test_redei_matrix_rows():
    # D = -4 * 5 * -7 = 140: (5/2) = -1, (-7/2) = 1, (-4/5) = 1, (-7/5) = -1,
    # (-4/7) = -1, (5/7) = -1
    assert redei_matrix([5, -7, -4]) == [0b011, 0b101, 0b101]
    assert redei_matrix([-4, 5, -7]) == [0b011, 0b110, 0b011]
