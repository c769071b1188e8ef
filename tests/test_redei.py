import pytest

from twoclass.arith import squarefree_range
from twoclass.forms import class_group_summary
from twoclass.genus import NotFundamental, prime_discriminants
from twoclass.redei import (
    elementary_transfer_applies,
    narrow_two_elementary,
    s1_decompositions,
    s2_decompositions,
)


def test_s1_examples():
    pairs = {d.as_pair() for d in s1_decompositions(1365)}
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
    assert len(s1_decompositions(10920)) == 16
    assert [d.as_pair() for d in s1_decompositions(5)] == [(1, 5)]
    with pytest.raises(NotFundamental):
        s1_decompositions(20)


def test_s1_properties():
    for fs in squarefree_range(2, 800):
        D = fs.value if fs.value % 4 == 1 else 4 * fs.value
        s1 = s1_decompositions(D)
        t = len(prime_discriminants(D))
        assert len(s1) == 2 ** (t - 1), D
        assert s1[0].as_pair() == (1, D)
        for dec in s1:
            assert dec.D1 * dec.D2 == D
            assert abs(dec.D1) < abs(dec.D2)
            for half in (dec.D1, dec.D2):
                assert half % 4 in (0, 1)


def test_s2_examples():
    assert [d.as_pair() for d in s2_decompositions(1365)] == [(1, 1365)]
    assert [d.as_pair() for d in s2_decompositions(5)] == [(1, 5)]
    # D = 105: direct evaluation of both character conditions
    s2 = s2_decompositions(105)
    summ = class_group_summary(105)
    assert len(s2) == 2**summ.narrow.four_rank


def test_s2_subset_of_s1():
    for fs in squarefree_range(2, 800):
        D = fs.value if fs.value % 4 == 1 else 4 * fs.value
        s1 = {d.as_pair() for d in s1_decompositions(D)}
        for dec in s2_decompositions(D):
            assert dec.as_pair() in s1


def test_redei_reichardt_identity_small():
    # acceptance covers D < 50000; quick slice here
    for fs in squarefree_range(2, 700):
        D = fs.value if fs.value % 4 == 1 else 4 * fs.value
        summ = class_group_summary(D)
        assert len(s1_decompositions(D)) == 2**summ.narrow.rank, D
        assert len(s2_decompositions(D)) == 2**summ.narrow.four_rank, D


def test_narrow_two_elementary():
    assert narrow_two_elementary(1365)
    assert narrow_two_elementary(5)
    # 4-rank positive example: D = 3*29*4 = 348? verify via the oracle instead
    found_non_elementary = False
    for fs in squarefree_range(2, 2000):
        D = fs.value if fs.value % 4 == 1 else 4 * fs.value
        if not narrow_two_elementary(D):
            found_non_elementary = True
            assert not class_group_summary(D).narrow.is_elementary(), D
    assert found_non_elementary


def test_elementary_transfer_applies():
    assert elementary_transfer_applies(1365)
    assert not elementary_transfer_applies(1885)
    assert not elementary_transfer_applies(2)
    assert elementary_transfer_applies(3)
