"""Acceptance suite.

One test per criterion; every check is exact (no tolerances anywhere in
this package).  Each test prints a [PASS] line on success (run with -s to
see them); any assertion failure prints the criterion as failed via the
test name.  The heavy sweeps share the cached per-discriminant class
group summaries, so the whole module is a single pass over the oracle.
"""

import math
import random

from twoclass.arith import squarefree_range
from twoclass.biquad import first_layer_rank, hasse_unit_index, kuroda_order
from twoclass.classify import (
    SymbolSpec,
    find_prime_tuple,
    predict,
    prime_tuples_up_to,
    spec_for_ppqq_condition,
    spec_for_qqqq_condition,
    structure_condition_ppqq,
    structure_condition_qqqq,
    verify_against_oracle,
)
from twoclass.forms import Abelian2Group, class_group_summary
from twoclass.genus import genus_rank, narrow_genus_rank
from twoclass.quadfield import fundamental_unit, unit_norm
from twoclass.redei import splitting_sets
from twoclass.arith import kronecker


def _fundamental_discriminants(limit):
    for fs in squarefree_range(2, limit):
        d = fs.value
        if d % 4 == 1:
            yield fs, d
        elif 4 * d < limit:
            yield fs, 4 * d


def _report(number, text):
    print(f"[PASS] criterion {number}: {text}")


def test_criterion_1_redei_reichardt_identity():
    """#S1(D) = #(A+/2A+) and #S2(D) = #(2A+/4A+) for all fundamental
    0 < D < 50000, with A+ from the forms oracle.  Exact, zero exceptions."""
    checked = 0
    for fs, D in _fundamental_discriminants(50000):
        summ = class_group_summary(D)
        s1, s2 = splitting_sets(D)
        assert len(s1) == 2**summ.narrow.rank, D
        assert len(s2) == 2**summ.narrow.four_rank, D
        # rank claims of the congruence classifiers, oracle-verified on the
        # same range (narrow and ordinary 2-ranks from genus theory)
        assert narrow_genus_rank(fs.value) == summ.narrow.rank, D
        assert genus_rank(fs.value) == summ.ordinary.rank, D
        checked += 1
    assert checked > 15000
    _report(1, f"Redei-Reichardt identity on {checked} fundamental D < 50000")


def test_criterion_2_genus_rank_identity():
    """rank A(K) from the genus field equals the oracle 2-rank of the
    ordinary class group, and the narrow analogue, for 2 <= d < 20000."""
    checked = 0
    for fs in squarefree_range(2, 20000):
        d = fs.value
        D = d if d % 4 == 1 else 4 * d
        summ = class_group_summary(D)
        assert genus_rank(d) == summ.ordinary.rank, d
        assert narrow_genus_rank(d) == summ.narrow.rank, d
        # h+ = 2h exactly when the unit norm is +1, else h+ = h
        nm = unit_norm(d)
        if nm == 1:
            assert summ.h_narrow == 2 * summ.h_ordinary, d
        else:
            assert summ.h_narrow == summ.h_ordinary, d
        checked += 1
    assert checked > 12000
    _report(2, f"genus 2-rank identities on {checked} square-free d < 20000")


def test_criterion_3_transfer_properties():
    """For square-free d < 50000 with a prime divisor = 3 (mod 4):
    unit norm +1, h+ = 2h (oracle), and A is 2-elementary iff A+ is."""
    checked = 0
    for fs in squarefree_range(2, 50000):
        d = fs.value
        if not any(p % 4 == 3 for p in fs.primes):
            continue
        assert unit_norm(d) == 1, d
        D = d if d % 4 == 1 else 4 * d
        summ = class_group_summary(D)
        assert summ.h_narrow != summ.h_ordinary, d  # sign class not principal
        assert summ.h_narrow == 2 * summ.h_ordinary, d
        assert summ.ordinary.is_elementary() == summ.narrow.is_elementary(), d
        checked += 1
    assert checked > 18000
    _report(3, f"unit-norm and narrow/ordinary transfer on {checked} fields")


def test_criterion_4_rank_pattern_desk_checks():
    """d = 1885 = 5*13*29 (type 1) and d = 26961 = 3*11*19*43 (type 3,
    printed as 26277 in the source text; the factorization is the defining
    datum): oracle-verified rank A(K) = 2, rank A(K') = 3, first-layer
    rank 2."""
    for d, expected_type in ((1885, 1), (26961, 3)):
        report = predict(d)
        assert report.rank_pattern == expected_type
        assert report.rank_K.value == 2
        assert report.rank_Kprime.value == 3
        assert first_layer_rank(d) == 2
        comparison = verify_against_oracle(d)
        assert comparison.ok, comparison.to_json()
    _report(4, "desk checks for d = 1885 and d = 26961 oracle-verified")


def _ppqq_chain(d):
    """The full verification chain for one (5,5,7,3)-shaped field."""
    match = structure_condition_ppqq(d)
    assert match is not None, d
    report = predict(d)
    assert report.structure_K.value == Abelian2Group((2, 2))
    assert report.structure_Kprime.value == Abelian2Group((2, 2, 2))
    assert report.structure_K1.value == Abelian2Group((2, 4))
    comparison = verify_against_oracle(d, oracle_limit=4_000_000)
    assert comparison.ok, (d, comparison.to_json())
    assert hasse_unit_index(d) == 1, d
    return match


def test_criterion_5_ppqq_end_to_end():
    """The worked field d = 1365 with labeling (13,5,7,3) matches
    condition (1); the oracle gives A(K) = (Z/2)^2 and A(K') = (Z/2)^3;
    the Hasse index is 1 and Kuroda gives (1/4)*1*4*8*1 = 8, so
    A(K1) = Z/2 + Z/4.  Ten further tuples per condition pass the same
    chain."""
    match = _ppqq_chain(1365)
    assert match.condition == 1 and match.labeling == (13, 5, 7, 3)
    sK = class_group_summary(1365)
    sKp = class_group_summary(10920)
    assert (sK.ordinary.order, sKp.ordinary.order) == (4, 8)
    assert kuroda_order(1, 4, 8, 1) == 8
    counted = 0
    for condition in (1, 2, 3):
        spec = spec_for_ppqq_condition(condition)
        tuples = prime_tuples_up_to(spec, 300_000, 10)
        assert len(tuples) == 10, condition
        for tup in tuples:
            d = math.prod(tup)
            _ppqq_chain(d)
            counted += 1
    assert counted == 30
    _report(5, "d = 1365 chain plus 30 generated (5,5,7,3)-fields verified")


def test_criterion_6_qqqq_sufficiency():
    """Five tuples per condition (1)..(9) of the (7,3,3,3) criterion:
    oracle-verified A(K) = (Z/2)^2, A(K') = (Z/2)^3, Kuroda order 8."""
    counted = 0
    for condition in range(1, 10):
        spec = spec_for_qqqq_condition(condition)
        tuples = prime_tuples_up_to(spec, 300_000, 5)
        assert len(tuples) == 5, condition
        for tup in tuples:
            d = math.prod(tup)
            assert structure_condition_qqqq(d) is not None, (condition, tup)
            report = predict(d)
            assert report.structure_K1.value == Abelian2Group((2, 4))
            comparison = verify_against_oracle(d, oracle_limit=4_000_000)
            assert comparison.ok, (d, comparison.to_json())
            counted += 1
    assert counted == 45
    _report(6, "45 generated (7,3,3,3)-fields pass the structure chain")


def test_criterion_7_fundamental_units():
    """For all square-free d < 2000: exact Pell identity, minimality
    against a brute-force scan over b <= 10^4, and norm parity equal to
    the continued-fraction period parity, on the unit (X + Y*sqrt(d))/2."""
    checked = 0
    for fs in squarefree_range(2, 2000):
        d = fs.value
        fu = fundamental_unit(d)
        X, Y = fu.X, fu.Y
        norm = X * X - d * Y * Y
        assert abs(norm) == 4, d
        assert norm == 4 * fu.norm == 4 * (-1) ** fu.cf_period, d
        # minimality: the scan over b = 1..10^4 finds no unit whose
        # coordinates sit strictly below the returned one (units > 1 are
        # the powers of the fundamental unit, ordered by their b part)
        scan_limit = min(10**4, (Y + 1) // 2)
        for bb in range(1, scan_limit + 1):
            db2 = d * bb * bb
            for delta in (-4, -1, 1, 4):
                t = db2 + delta
                if t < 1:
                    continue
                x = math.isqrt(t)
                if x * x != t:
                    continue
                if abs(delta) == 4:
                    if d % 4 != 1 or (x - bb) % 2:
                        continue
                    cand = (x, bb)
                else:
                    cand = (2 * x, 2 * bb)
                below = cand[1] < Y or (cand[1] == Y and cand[0] < X)
                assert not below, (d, cand)
        checked += 1
    assert checked > 1200
    _report(7, f"fundamental units exact and minimal for {checked} d < 2000")


def test_criterion_8_prime_search():
    """100 random symbol specs with t <= 4 all solved within the default
    bound, all constraints re-verified."""
    rng = random.Random(20260810)
    solved = 0
    for _ in range(100):
        t = rng.randint(1, 4)
        residues = tuple(rng.choice((1, 3, 5, 7)) for _ in range(t))
        symbols = {
            (k, j): rng.choice((-1, 1))
            for k in range(2, t + 1)
            for j in range(1, k)
        }
        spec = SymbolSpec.of(residues, symbols)
        primes = find_prime_tuple(spec)
        assert len(primes) == t and len(set(primes)) == t
        for i, (p, a) in enumerate(zip(primes, residues), start=1):
            assert p % 8 == a, (primes, residues)
            for j in range(1, i):
                assert kronecker(p, primes[j - 1]) == symbols[(i, j)]
        solved += 1
    assert solved == 100
    _report(8, "100 random symbol specs solved and re-verified")


def test_criterion_9_tower_claim_bookkeeping():
    """The tower claim (stable rank, mu = 0) is attached exactly when the
    rank of A(K) equals the first-layer rank and 2 is totally ramified in
    the first step (d = 1 (mod 4))."""
    checked = 0
    for fs in squarefree_range(3, 20000):
        d = fs.value
        if d % 2 == 0:
            continue
        report = predict(fs)
        should_attach = d % 4 == 1 and report.rank_K.value == report.rank_K1.value
        assert (report.tower is not None) == should_attach, d
        if report.tower is not None:
            assert report.tower.rank == report.rank_K.value
            assert report.tower.mu_zero
            assert report.tower.from_layer == 0
            # an order-stability (lambda = 0) claim needs equal known orders,
            # which the (2,2) vs (2,4) structure pair never provides
            assert not report.tower.lambda_zero
        checked += 1
    assert checked > 8000
    _report(9, f"tower-claim gating property on {checked} odd d < 20000")
