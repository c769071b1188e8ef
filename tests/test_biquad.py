from fractions import Fraction

import pytest

from twoclass.arith import as_factored, squarefree_range
from twoclass.biquad import (
    EvenRadicand,
    Inconsistent,
    NonIntegral,
    first_layer_rank,
    hasse_unit_index,
    kuroda_order,
    quartic_obstruction,
    ramified_place_count,
    structure_from_rank_and_order,
)
from twoclass.forms import Abelian2Group
from twoclass.quadfield import fundamental_unit, unit_norm

from field_reference import SplitType, splitting_in
from k1_reference import (
    BiquadNumber,
    is_square_in_K1,
    reference_hasse_unit_index,
    relative_sqrt,
    sqrt_in_K1,
    sqrt_rational,
    subfield_units,
    unit_square_relations,
)


def mk(field, x0, x1, x2, x3):
    return BiquadNumber(
        (Fraction(x0), Fraction(x1), Fraction(x2), Fraction(x3)), field
    )


def test_ramified_place_count_examples():
    assert ramified_place_count(1365) == 5
    assert ramified_place_count(5 * 13 * 3 * 11) == 4
    assert ramified_place_count(1885) == 3
    with pytest.raises(EvenRadicand):
        ramified_place_count(2730)


def test_ramified_place_count_matches_splitting_simulation():
    # closed form vs direct place counting through splitting_in
    K2 = as_factored(2)
    for fs in squarefree_range(3, 50000):
        if fs.value % 2 == 0:
            continue
        places = 0
        for p in fs.primes:
            split = splitting_in(p, K2)
            places += 2 if split == SplitType.SPLIT else 1
        if fs.value % 4 == 3:
            places += 1  # the ramified place above 2 of Q(sqrt(2))
        assert ramified_place_count(fs) == places, fs.value


def test_first_layer_rank_examples():
    assert first_layer_rank(1365) == 2
    assert first_layer_rank(1885) == 2
    assert first_layer_rank(26961) == 2  # 3*11*19*43
    with pytest.raises(EvenRadicand):
        first_layer_rank(6)


def test_first_layer_rank_obstruction_branch():
    # 17 is obstructing, 113 is not (2^28 = 1 mod 113)
    assert pow(2, 28, 113) == 1
    d_obstructed = 17 * 5 * 13  # t1 = 2+1+1 = 4, rank 4-2 = 2
    d_free = 113 * 5 * 13  # t1 = 4, rank 4-1 = 3
    assert first_layer_rank(d_obstructed) == 2
    assert first_layer_rank(d_free) == 3
    # with a 3 (mod 4) divisor the 7 (mod 8) condition decides
    assert first_layer_rank(3 * 5 * 13 * 11) == 2  # no 7 mod 8: t1-2
    assert first_layer_rank(7 * 5 * 13 * 3) == 2  # 7 present: t1 = 5, rank 2


def test_quartic_obstruction_is_what_the_rank_formula_reads():
    assert quartic_obstruction(17 * 5 * 13)
    assert not quartic_obstruction(113 * 5 * 13)
    # a prime = 3 (mod 4) leaves the test unread, so no obstruction
    assert not quartic_obstruction(17 * 3)
    assert not quartic_obstruction(17 * 7 * 5)
    for fs in squarefree_range(3, 20000, 2):
        if all(p % 4 == 1 for p in fs.primes):
            expected = ramified_place_count(fs) - 1 - first_layer_rank(fs)
            assert quartic_obstruction(fs) == bool(expected), fs.value
        else:
            assert not quartic_obstruction(fs), fs.value


def test_biquad_number_arithmetic():
    K = as_factored(5)
    x = mk(K, 0, 1, 0, 0)
    y = mk(K, 0, 0, 1, 0)
    assert (x * x).coordinates == (2, 0, 0, 0)
    assert (y * y).coordinates == (5, 0, 0, 0)
    assert (x * y).coordinates == (0, 0, 0, 1)
    z = mk(K, 0, 0, 0, 1)
    assert (z * z).coordinates == (10, 0, 0, 0)
    assert (x * z).coordinates == (0, 0, 2, 0)
    assert (y * z).coordinates == (0, 5, 0, 0)
    with pytest.raises(ValueError):
        BiquadNumber((Fraction(1, 3), 0, 0, 0), K)


def test_embedding_signs():
    K = as_factored(5)
    x = mk(K, 0, 1, 0, 0)  # sqrt(2)
    assert x.embedding_sign(False, False) == 1
    assert x.embedding_sign(True, False) == -1
    assert x.embedding_sign(False, True) == 1
    one_plus = mk(K, 1, 1, 0, 0)  # 1 + sqrt 2
    assert one_plus.embedding_sign(True, False) == -1  # 1 - sqrt 2 < 0
    assert not one_plus.totally_positive()
    sq = one_plus * one_plus
    assert sq.totally_positive()


def test_is_square_in_K1_examples():
    K = as_factored(5)
    sq = mk(K, 3, 2, 0, 0)  # (1+sqrt2)^2
    assert is_square_in_K1(sq)
    assert not is_square_in_K1(mk(K, -1, 0, 0, 0))
    with pytest.raises(ValueError):
        is_square_in_K1(mk(K, 0, 0, 0, 0))
    root = sqrt_in_K1(sq)
    assert root is not None and (root * root).coordinates == sq.coordinates


def test_is_square_roundtrip_random():
    import random

    rng = random.Random(11)
    for d in (5, 13, 21, 1365):
        K = as_factored(d)
        for _ in range(25):
            y = mk(K, rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
            x = y * y
            if x.is_zero():
                continue
            assert is_square_in_K1(x), (d, y.coordinates)
            root = sqrt_in_K1(x)
            assert root is not None and (root * root).coordinates == x.coordinates


def test_square_test_agrees_with_quadratic_criterion():
    # sqrt(e) in K1 iff e or 2e is a square in K, for fundamental units e
    for d in (5, 13, 17, 21, 33, 65, 105, 1365):
        fu = fundamental_unit(d)
        a, b = Fraction(fu.X, 2), Fraction(fu.Y, 2)
        field = as_factored(d)
        e_K1 = BiquadNumber((a, Fraction(0), b, Fraction(0)), field)
        quad_side = fu.norm == 1 and (
            relative_sqrt((a, b), d, sqrt_rational) is not None
            or relative_sqrt((2 * a, 2 * b), d, sqrt_rational) is not None
        )
        assert is_square_in_K1(e_K1) == quad_side, d


def test_unit_square_relations_and_hasse_index():
    # Q(sqrt2, sqrt5): the single relation sqrt(e1 e2 e3) gives Q = 2,
    # matching Kuroda: 1 = (1/4) * 2 * 1 * 2 * 1 (class number of K1 is 1)
    K5 = as_factored(5)
    assert unit_square_relations(K5) == [(1, 1, 1)]
    assert hasse_unit_index(K5) == 2
    assert kuroda_order(hasse_unit_index(K5), 1, 2, 1) == 1
    # the worked d = 1365 field has no relations at all
    K1365 = as_factored(1365)
    assert unit_square_relations(K1365) == []
    assert hasse_unit_index(K1365) == 1


def test_triple_product_square_value():
    # explicit: e(5) e(10) e(2) = (13 + 8 sqrt2 + 5 sqrt5 + 4 sqrt10)/2
    K5 = as_factored(5)
    e1, e2, e3 = subfield_units(K5)
    prod = e1 * e2 * e3
    assert prod.coordinates == (
        Fraction(13, 2),
        Fraction(4),
        Fraction(5, 2),
        Fraction(2),
    )
    root = sqrt_in_K1(prod)
    assert root is not None
    assert root.coordinates == (
        Fraction(3, 2),
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1, 2),
    )


def test_hasse_index_1885():
    # no criterion applies to 1885 = 5*13*29; the index is still one of the
    # admissible powers of 2 and Kuroda's order stays integral and at least
    # 2^rank
    from twoclass.forms import class_group_summary

    Q = hasse_unit_index(1885)
    assert Q in (1, 2, 4, 8)
    hK = class_group_summary(1885).ordinary.order
    hKp = class_group_summary(8 * 1885).ordinary.order
    order = kuroda_order(Q, hK, hKp, 1)
    assert order >= 2 ** first_layer_rank(1885)


@pytest.mark.parametrize(
    "d, norm_d, norm_2d, Q",
    [
        (3, 1, 1, 4),
        (15, 1, 1, 2),
        (105, 1, 1, 1),
        (17, -1, 1, 2),
        (445, -1, 1, 1),
        (221, 1, -1, 1),
        (5, -1, -1, 2),
        (85, -1, -1, 1),
    ],
)
def test_hasse_index_per_sign_case(d, norm_d, norm_2d, Q):
    # one field for each pair of unit norms and each index that pair allows
    assert (unit_norm(d), unit_norm(2 * d)) == (norm_d, norm_2d)
    field = as_factored(d)
    assert hasse_unit_index(field) == Q
    assert reference_hasse_unit_index(field) == Q


def test_hasse_index_matches_exact_roots_in_K1():
    # the integer parity-vector rule against exact square roots in K1; the
    # unit of Q(sqrt(40000159)) has more than 4300 digits
    fields = list(squarefree_range(3, 20000, 2))
    assert len(fields) == 8103
    for fs in fields + [40000159]:
        field = as_factored(fs)
        assert hasse_unit_index(field) == reference_hasse_unit_index(field), fs


def test_kuroda_order():
    assert kuroda_order(1, 4, 8, 1) == 8
    assert kuroda_order(4, 1, 1, 1) == 1
    with pytest.raises(NonIntegral):
        kuroda_order(1, 1, 1, 1)


def test_structure_from_rank_and_order():
    assert structure_from_rank_and_order(2, 8) == Abelian2Group((2, 4))
    assert structure_from_rank_and_order(2, 4) == Abelian2Group((2, 2))
    assert structure_from_rank_and_order(2, 16) is None
    assert structure_from_rank_and_order(0, 1) == Abelian2Group(())
    # rank 1 is always cyclic, and rank 0 allows only the trivial group
    for m in range(1, 6):
        assert structure_from_rank_and_order(1, 2**m) == Abelian2Group((2**m,))
    with pytest.raises(Inconsistent):
        structure_from_rank_and_order(0, 4)
    with pytest.raises(Inconsistent):
        structure_from_rank_and_order(1, 1)
    assert structure_from_rank_and_order(3, 16) == Abelian2Group((2, 2, 4))
    with pytest.raises(Inconsistent):
        structure_from_rank_and_order(3, 4)
    with pytest.raises(ValueError):
        structure_from_rank_and_order(2, 12)


def test_kuroda_order_at_least_2_to_rank():
    # for the worked field: order 8 >= 2^2
    assert kuroda_order(1, 4, 8, 1) >= 2 ** first_layer_rank(1365)
