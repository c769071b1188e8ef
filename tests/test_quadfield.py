import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from twoclass.arith import NotSquarefree, factor_squarefree, squarefree_range
from twoclass.biquad import first_layer_rank, hasse_unit_index, ramified_place_count
from twoclass.genus import genus_rank, narrow_genus_rank
from twoclass.quadfield import _cf_unit, discriminant, fundamental_unit, unit_norm

from field_reference import SplitType, minus_one_is_norm, splitting_in
from genus_reference import genus_field, narrow_genus_field
from k1_reference import relative_mul, relative_sqrt, sqrt_rational


def brute_force_unit(d, bmax=10**4):
    """Smallest unit (X + Y*sqrt(d))/2 > 1 as (X, Y), by scanning b = Y/2
    upward."""
    for b in range(1, bmax + 1):
        db2 = d * b * b
        for delta in (-4, -1, 1, 4):
            t = db2 + delta
            if t < 1:
                continue
            x = math.isqrt(t)
            if x * x != t:
                continue
            if abs(delta) == 4:
                if d % 4 != 1 or (x - b) % 2:
                    continue
                cand = (x, b)
            else:
                cand = (2 * x, 2 * b)
            # a, b >= 1/2 and d >= 2, so the value exceeds 1 automatically
            return cand
    return None


def test_discriminant():
    assert discriminant(1365) == 1365
    assert discriminant(2730) == 10920
    assert discriminant(3) == 12


def test_field_construction_rejects():
    with pytest.raises(NotSquarefree):
        fundamental_unit(12)
    with pytest.raises(ValueError):
        fundamental_unit(1)


# the references from tests/ are held to the same rule, since the
# cross-checks hand them d either way
FIELD_FUNCTIONS = {
    f.__name__: f
    for f in (
        fundamental_unit,
        unit_norm,
        minus_one_is_norm,
        genus_rank,
        narrow_genus_rank,
        genus_field,
        narrow_genus_field,
        ramified_place_count,
        first_layer_rank,
        hasse_unit_index,
    )
}
FIELD_FUNCTIONS["splitting_in"] = lambda d: [
    splitting_in(p, d) for p in (2, 3, 5, 7, 11)
]


def _outcome(function, d):
    try:
        return function(d)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", FIELD_FUNCTIONS)
def test_field_functions_take_d_as_an_int_or_factored(name):
    # d = 1 and, for K1, even d are refused the same way from either input
    function = FIELD_FUNCTIONS[name]
    for fs in squarefree_range(1, 3000):
        d = fs.value
        assert _outcome(function, d) == _outcome(function, factor_squarefree(d)), d


def test_splitting():
    assert splitting_in(7, 2) == SplitType.SPLIT
    assert splitting_in(3, 2) == SplitType.INERT
    assert splitting_in(5, 5) == SplitType.RAMIFIED
    assert splitting_in(2, 7) == SplitType.RAMIFIED
    assert splitting_in(2, 17) == SplitType.SPLIT
    assert splitting_in(2, 5) == SplitType.INERT


def test_fundamental_unit_examples():
    u = fundamental_unit(2)
    assert (u.X, u.Y, u.norm) == (2, 2, -1)
    u = fundamental_unit(5)
    assert (u.X, u.Y, u.norm) == (1, 1, -1)
    u = fundamental_unit(3)
    assert (u.X, u.Y, u.norm) == (4, 2, 1)
    u = fundamental_unit(10)
    assert (u.X, u.Y, u.norm) == (6, 2, -1)


def test_units_match_brute_force():
    for fs in squarefree_range(2, 500):
        fu = fundamental_unit(fs.value)
        bf = brute_force_unit(fs.value)
        if bf is None:
            # unit out of scan range: minimality below the bound still holds
            assert fu.Y > 2 * 10**4, fs.value
        else:
            assert (fu.X, fu.Y) == bf, fs.value
        assert fu.X * fu.X - fs.value * fu.Y * fu.Y == 4 * fu.norm
        assert fu.norm == (-1) ** fu.cf_period


def full_period_unit(d):
    """The reference for _cf_unit: (a, b, period) with the unit a + b*sqrt(d),
    from once round the whole period of xi1, multiplying every
    partial-quotient matrix in turn."""
    s = math.isqrt(d)
    P0, Q0 = (1, 2) if d % 4 == 1 else (0, 1)
    a0 = (P0 + s) // Q0
    P1 = a0 * Q0 - P0
    Q1 = (d - P1 * P1) // Q0
    P, Q = P1, Q1
    mat_c, mat_d = 0, 1
    period = 0
    while True:
        a = (P + s) // Q
        mat_c, mat_d = mat_c * a + mat_d, mat_c
        period += 1
        P = a * Q - P
        Q = (d - P * P) // Q
        if (P, Q) == (P1, Q1):
            return Fraction(mat_c * P1 + mat_d * Q1, Q1), Fraction(mat_c, Q1), period


def assert_half_period_unit(d):
    got = _cf_unit(d)
    want = full_period_unit(d)
    # compare the integers X = 2a and Y = 2b, not their decimal strings
    assert [(x, 1) for x in got[:2]] == [
        ((2 * x).numerator, (2 * x).denominator) for x in want[:2]
    ], d
    assert got[2] == want[2], d


def test_half_period_unit_on_periods_one_and_two():
    # d = 2, 5 and 13 have period 1; d = 3 and 6 have period 2
    for d, period in ((2, 1), (3, 2), (5, 1), (6, 2), (13, 1)):
        assert_half_period_unit(d)
        assert _cf_unit(d)[2] == period


def test_half_period_unit_against_the_full_period_below_30000():
    seen = set()
    for fs in squarefree_range(2, 30000):
        assert_half_period_unit(fs.value)
        seen.add((fs.value % 4 == 1, _cf_unit(fs.value)[2] % 2))
    # both expansions xi0, with even and odd periods in each
    assert seen == {(False, 0), (False, 1), (True, 0), (True, 1)}


def test_half_period_unit_against_the_full_period_on_large_d():
    rng = random.Random(2009)
    done = 0
    while done < 200:
        d = rng.randrange(10**6, 10**9)
        try:
            factor_squarefree(d)
        except NotSquarefree:
            continue
        assert_half_period_unit(d)
        done += 1


def test_half_period_unit_with_more_than_4300_digits():
    d = 40000159
    assert_half_period_unit(d)
    assert (_cf_unit(d)[0] // 2).bit_length() > 4300 * math.log2(10)


def test_half_period_unit_memory_is_linear_in_the_unit():
    # the streamed product tree holds O(log) matrices of falling size and no
    # list of the quotients: a peak of about 21 bytes a byte of X, where a
    # list of the 62067 quotients of the half period reaches about 40
    d = 10**10 + 19
    tracemalloc.start()
    try:
        X, _, period = _cf_unit(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (X.bit_length() + 7) // 8
    assert (period, size) == (124134, 26539)
    assert peak < 32 * size, peak / size


def test_unit_norms():
    assert unit_norm(15) == 1
    assert unit_norm(2) == -1
    assert unit_norm(10) == -1
    # prime divisor 3 mod 4 forces norm +1
    for fs in squarefree_range(2, 2000):
        if any(p % 4 == 3 for p in fs.primes):
            assert unit_norm(fs.value) == 1, fs.value


def sqrt_over_q(a, b, d):
    """(u, v) with (u + v*sqrt(d))**2 = a + b*sqrt(d) over Q, or None."""
    return relative_sqrt((Fraction(a), Fraction(b)), d, sqrt_rational)


def test_is_square_in_K_examples():
    assert sqrt_over_q(9, 0, 5) is not None
    assert sqrt_over_q(7, 4, 3) is not None  # (2+sqrt3)^2
    assert sqrt_over_q(2, 1, 3) is None


def test_is_square_random_roundtrip():
    rng = random.Random(7)
    for d in (2, 3, 5, 7, 13, 15):
        for _ in range(60):
            a = Fraction(rng.randint(-9, 9))
            b = Fraction(rng.randint(-9, 9))
            if d % 4 == 1 and rng.random() < 0.5:
                a += Fraction(1, 2)
                b += Fraction(1, 2)
            sq = relative_mul((a, b), (a, b), d)
            if sq == (0, 0):
                continue
            assert sqrt_over_q(*sq, d) is not None, (d, a, b)
            # rational nonsquare multiples of a square are not squares
            bad = (sq[0] * 3, sq[1] * 3)
            root = sqrt_over_q(*bad, d)
            if root is not None:
                u, v = root
                assert u * u + d * v * v == bad[0] and 2 * u * v == bad[1]


def test_sqrt_in_quadratic_edges():
    assert sqrt_over_q(0, 0, 5) == (0, 0)
    assert sqrt_over_q(20, 0, 5) == (0, 2)  # (2 sqrt5)^2
    assert sqrt_over_q(-4, 0, 5) is None


def test_minus_one_is_norm():
    assert minus_one_is_norm(5)
    assert not minus_one_is_norm(3)
    assert minus_one_is_norm(34)  # even though the unit norm is +1
    assert unit_norm(34) == 1
    # unit of norm -1 exhibits -1 as a norm
    for fs in squarefree_range(2, 1500):
        if unit_norm(fs.value) == -1:
            assert minus_one_is_norm(fs.value), fs.value
