import math

import pytest

from twoclass.arith import FactoredSquarefree, squarefree_range
from twoclass.forms import class_group_summary
from twoclass.genus import (
    EvenPrime,
    NotFundamental,
    genus_rank,
    narrow_genus_rank,
    prime_discriminants,
    starred_prime,
)
from twoclass.quadfield import discriminant

from field_reference import minus_one_is_norm
from genus_reference import (
    f2_span,
    genus_field,
    is_fundamental,
    narrow_genus_field,
)


def test_starred_prime():
    assert starred_prime(5) == 5
    assert starred_prime(7) == -7
    assert starred_prime(3) == -3
    with pytest.raises(EvenPrime):
        starred_prime(2)
    with pytest.raises(ValueError):
        starred_prime(9)


def test_prime_discriminants_examples():
    assert sorted(prime_discriminants(1365)) == [-7, -3, 5, 13]
    assert prime_discriminants(8) == [8]
    assert sorted(prime_discriminants(40)) == [5, 8]
    assert sorted(prime_discriminants(12)) == [-4, -3]
    for bad in (20, 9, 45, 32, 1):
        with pytest.raises(NotFundamental):
            prime_discriminants(bad)


def test_prime_discriminants_product_is_D():
    count = 0
    for fs in squarefree_range(2, 10**6 // 4):
        D = fs.value if fs.value % 4 == 1 else 4 * fs.value
        if D >= 10**6:
            continue
        assert math.prod(prime_discriminants(D)) == D, D
        count += 1
    # d = 1 mod 4 with 4d < 10**6 not covered above: also sweep large odd d
    for fs in squarefree_range(10**6 // 4, 10**6):
        if fs.value % 4 == 1:
            assert math.prod(prime_discriminants(fs.value)) == fs.value
            count += 1
    assert count > 300000


def test_narrow_genus_field():
    assert set(narrow_genus_field(1365).radicands) == {5, 13, -7, -3}
    assert set(narrow_genus_field(2).radicands) == {2}
    # d = 15: prime discriminants of 60 are {-4, 5, -3}
    assert f2_span(narrow_genus_field(15).radicands) == f2_span((-1, 5, -3))


def test_narrow_genus_field_reads_the_primes_it_carries():
    # the field's own primes give the radicands of factoring D afresh
    radicand = {-4: -1, 8: 2, -8: -2}
    for fs in squarefree_range(2, 20000):
        fields = [fs]
        if fs.value % 2:
            fields.append(FactoredSquarefree(2 * fs.value, (2,) + fs.primes))
        for f in fields:
            expected = tuple(
                radicand.get(q, q) for q in prime_discriminants(discriminant(f))
            )
            assert narrow_genus_field(f).radicands == expected, f.value


def test_genus_field():
    assert f2_span(genus_field(1365).radicands) == f2_span((5, 13, 21))
    assert set(genus_field(1885).radicands) == {5, 13, 29}
    assert f2_span(genus_field(70).radicands) == f2_span((5, 14))
    assert f2_span(genus_field(15).radicands) == f2_span((5, 3))
    # all radicands of the real genus field are positive
    for fs in squarefree_range(2, 500):
        assert all(r > 0 for r in genus_field(fs.value).radicands), fs.value


def test_genus_rank_examples():
    assert genus_rank(1365) == 2
    assert genus_rank(2730) == 3
    assert genus_rank(70) == 1
    assert genus_rank(1885) == 2
    assert narrow_genus_rank(1365) == 3


def test_closed_form_ranks_match_the_genus_fields():
    # the ranks read t and [q | d] off the carried primes; the fields are
    # the definition, whether d is handed in as an int or factored
    for fs in squarefree_range(2, 10**5):
        for K in (fs.value, fs):
            assert genus_rank(K) == len(genus_field(K).radicands) - 1, fs.value
            assert (
                narrow_genus_rank(K) == len(narrow_genus_field(K).radicands) - 1
            ), fs.value


# the order of the subgroup of A(K) fixed by Gal(K/Q) is 2^rank A(K)


def test_genus_fixed_order():
    # 2^(t-1)/n by hand: d = 1365 has t = 4 and 3 | d, so n = 2; d = 5 has
    # t = 1; D = 136 of d = 34 has t = 2, and -1 = N(5 + sqrt 34) / 9 gives n = 1
    assert 2 ** genus_rank(1365) == 2**3 // 2
    assert 2 ** genus_rank(5) == 1
    assert 2 ** genus_rank(34) == 2


def test_genus_fixed_order_consistency():
    # the genus formula 2^(t-1)/n, with n = 2 exactly when -1 is not a
    # local norm everywhere, against the closed form's [q | d] term
    for fs in squarefree_range(2, 800):
        t = len(prime_discriminants(discriminant(fs)))
        expected = 2 ** (t - 1) // (1 if minus_one_is_norm(fs) else 2)
        assert 2 ** genus_rank(fs) == expected, fs.value


def test_genus_fixed_order_against_oracle():
    # conjugation sends an ordinary ideal class to its inverse, so the
    # fixed subgroup of A(K) is its 2-torsion: the genus-formula value
    # must equal #A[2] = 2^rank from the forms oracle
    for fs in squarefree_range(2, 2000):
        summ = class_group_summary(discriminant(fs))
        assert 2 ** genus_rank(fs) == 2**summ.ordinary.rank, fs.value


def test_rank_two_forces_three_or_four_ramified_primes():
    for fs in squarefree_range(2, 3000):
        if genus_rank(fs.value) == 2:
            D = fs.value if fs.value % 4 == 1 else 4 * fs.value
            assert len(prime_discriminants(D)) in (3, 4), fs.value


def test_ranks_against_oracle_small():
    # the acceptance suite covers d < 20000; keep a quick slice here
    for fs in squarefree_range(2, 600):
        D = fs.value if fs.value % 4 == 1 else 4 * fs.value
        summ = class_group_summary(D)
        assert genus_rank(fs.value) == summ.ordinary.rank, fs.value
        assert narrow_genus_rank(fs.value) == summ.narrow.rank, fs.value


def test_is_fundamental():
    fundamentals = {5, 8, 12, 13, 17, 21, 24, 28, 29, 33}
    for D in range(2, 34):
        assert is_fundamental(D) == (D in fundamentals), D
