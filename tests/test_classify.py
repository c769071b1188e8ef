import hashlib
import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoclass import arith, classify
from twoclass.arith import (
    FactoredSquarefree,
    kronecker,
    squarefree_range,
    two_power_residue_test,
)
from twoclass.biquad import first_layer_rank, quartic_obstruction
from twoclass.classify import (
    _CRITERIA,
    _PPQQ_CONDITIONS,
    ConditionMatch,
    stable_rank_type,
    structure_condition_ppqq,
    structure_condition_qqqq,
    NotFoundWithinBound,
    OracleRangeExceeded,
    OutOfTable,
    SymbolSpec,
    WrongShape,
    find_prime_tuple,
    predict,
    prime_tuples_up_to,
    shape_of,
    spec_for_ppqq_condition,
    spec_for_qqqq_condition,
    sweep,
    verify_against_oracle,
)
from twoclass.forms import Abelian2Group
from twoclass.genus import genus_rank


def test_shape_of():
    s = shape_of(1885)
    assert s.pattern == ("p", "p", "p")
    s = shape_of(1365)
    assert s.pattern == ("p", "p", "q", "q") and len(s.pattern) == 4
    s = shape_of(35)  # 5*7, d = 3 mod 4: 2 ramifies
    assert s.pattern == ("2", "p", "q") and len(s.pattern) == 3
    with pytest.raises(OutOfTable):
        shape_of(5)
    with pytest.raises(OutOfTable):
        shape_of(2730)  # 2,3,5,7,13 all ramify
    with pytest.raises(OutOfTable):
        shape_of(3 * 5 * 7 * 11 * 13)


def test_shape_of_even_radicands():
    assert shape_of(2 * 5 * 13).pattern == ("2", "p", "p")
    assert shape_of(2 * 5 * 7).pattern == ("2", "p", "q")
    assert shape_of(2 * 3 * 7).pattern == ("2", "q", "q")


def test_stable_rank_type():
    assert stable_rank_type(1885) == 1  # 5, 13, 29: residues (5,5,5)
    assert stable_rank_type(17 * 5 * 13) == 1  # one residue 1 allowed
    assert stable_rank_type(1365) == 2
    assert stable_rank_type(5 * 13 * 3 * 11) == 2
    assert stable_rank_type(26961) == 3  # 3*11*19*43, all = 3 (mod 8)
    assert stable_rank_type(7 * 3 * 11 * 19) == 3
    assert stable_rank_type(5 * 13 * 17 * 29) is None
    assert stable_rank_type(3 * 5 * 7) is None  # residues (3,5,7)
    assert stable_rank_type(7 * 23 * 3 * 11) is None  # two residues 7


# one distinct prime per use of a residue class mod 8, in increasing order
_PRIMES_BY_CLASS = {
    1: [17, 41, 73, 89],
    3: [3, 11, 19, 43],
    5: [5, 13, 29, 37],
    7: [7, 23, 31, 47],
}


def test_stable_rank_type_on_every_residue_tuple():
    # the rules of stable_rank_type's docstring, one allowed set per label
    rules = {
        1: [{1, 5}, {5}, {5}],
        2: [{5}, {5}, {3, 7}, {3}],
        3: [{3, 7}, {3}, {3}, {3}],
    }
    tested = 0
    for t in (3, 4):
        for residues in itertools.combinations_with_replacement((1, 3, 5, 7), t):
            primes = [
                _PRIMES_BY_CLASS[r][residues[:i].count(r)]
                for i, r in enumerate(residues)
            ]
            expected = [
                n
                for n, allowed in rules.items()
                if len(allowed) == t
                and any(
                    all(r in a for r, a in zip(order, allowed))
                    for order in itertools.permutations(residues)
                )
            ]
            assert stable_rank_type(math.prod(primes)) == (
                expected[0] if expected else None
            ), residues
            tested += 1
    assert tested == 20 + 35


def test_rank_pattern_iff_rank_formulas():
    """The congruence patterns match exactly the d with ranks (2, 2, 3),
    except for flagged 2-power residue tensions (see the module notes)."""
    tensions = []
    for fs in squarefree_range(3, 100000):
        d = fs.value
        if d % 2 == 0 or d % 4 != 1 or len(fs.primes) not in (3, 4):
            continue
        matches = stable_rank_type(fs) is not None
        ranks = (
            genus_rank(d) == 2
            and first_layer_rank(fs) == 2
            and genus_rank(2 * d) == 3
        )
        if matches == ranks:
            continue
        # every exception must be a flagged type-(1) tension
        assert matches and not ranks, d
        assert any("obstruction" in flag for flag in predict(fs).flags), d
        assert first_layer_rank(fs) == 3, d
        tensions.append(d)
    # the tension set is nonempty in this range (113*5*13 = 7345 is one)
    assert 7345 in tensions


def test_ppqq_condition_worked_example():
    m = structure_condition_ppqq(1365)
    assert m is not None
    assert m.condition == 1
    assert m.labeling == (13, 5, 7, 3)
    with pytest.raises(WrongShape):
        structure_condition_ppqq(1885)
    with pytest.raises(WrongShape):
        structure_condition_qqqq(1365)


def test_ppqq_condition_verbatim_sets():
    # condition (1) under the matched labeling holds with the exact symbols
    p1, p2, q1, q2 = 13, 5, 7, 3
    assert kronecker(p1, p2) == -1
    assert kronecker(p1, q1) == -1
    assert kronecker(p1, q2) == 1
    assert kronecker(q1 * q2, p2) == 1


def test_ppqq_condition_2_is_condition_1_with_p1_p2_swapped():
    # over every assignment of the symbols of (p1, p2, q1, q2) = (5, 5, 7, 3)
    # mod 8 that reciprocity allows; since structure_condition_ppqq tries
    # both orders of p1, p2, condition (2) can never be the first match
    residues = (5, 5, 7, 3)
    pairs = list(itertools.combinations(range(1, 5), 2))
    swap = {1: 2, 2: 1, 3: 3, 4: 4}
    holds = 0
    for values in itertools.product((1, -1), repeat=len(pairs)):
        assign = dict(zip(pairs, values))

        def L(i, j, assign=assign):
            if i < j:
                return assign[(i, j)]
            both_3_mod_4 = residues[i - 1] % 4 == residues[j - 1] % 4 == 3
            return -assign[(j, i)] if both_3_mod_4 else assign[(j, i)]

        second = _PPQQ_CONDITIONS[1](L)
        assert second == _PPQQ_CONDITIONS[0](lambda i, j: L(swap[i], swap[j]))
        holds += second
    assert holds
    for fs in squarefree_range(3, 50000):
        if sorted(p % 8 for p in fs.primes) == [3, 5, 5, 7]:
            match = structure_condition_ppqq(fs)
            assert match is None or match.condition != 2, fs.value


def _first_match_reference(fs, criterion):
    """The criterion's first condition under some labeling, with one
    SymbolSpec of kronecker symbols per labeling, in permutations order."""
    pairs = list(itertools.combinations(range(1, len(criterion.residues) + 1), 2))
    labelings = {
        labels: SymbolSpec.of(
            criterion.residues,
            {(k, j): kronecker(labels[k - 1], labels[j - 1]) for j, k in pairs},
        )
        for labels in itertools.permutations(fs.primes)
        if tuple(p % 8 for p in labels) == criterion.residues
    }
    for idx, cond in enumerate(criterion.conditions, start=1):
        for labels, spec in labelings.items():
            if cond(spec.L):
                return ConditionMatch(idx, labels)
    return None


def test_classifiers_read_the_redei_matrix_as_the_symbol_specs_do():
    classifiers = {"ppqq": structure_condition_ppqq, "qqqq": structure_condition_qqqq}
    fields = {"ppqq": 0, "qqqq": 0}
    matches = set()
    for fs in squarefree_range(3, 250000, 2):
        criterion = _CRITERIA.get(tuple(sorted(p % 8 for p in fs.primes)))
        if criterion is None:
            continue
        match = classifiers[criterion.name](fs)
        assert match == _first_match_reference(fs, criterion), fs.value
        fields[criterion.name] += 1
        matches.add((criterion.name, match and match.condition))
    assert fields == {"ppqq": 713, "qqqq": 202}
    # the first matches below 250000: ppqq (2) is never first (see above),
    # and of the nine qqqq conditions only (1) and (4) are
    assert matches == {
        ("ppqq", 1), ("ppqq", 3), ("ppqq", None),
        ("qqqq", 1), ("qqqq", 4), ("qqqq", None),
    }


def test_qqqq_condition_shapes():
    # 7, 3, 11, 19: residues (7, 3, 3, 3)
    d = 7 * 3 * 11 * 19
    m = structure_condition_qqqq(d)
    if m is not None:
        assert 1 <= m.condition <= 9
    with pytest.raises(WrongShape):
        structure_condition_qqqq(3 * 11 * 19 * 43)  # no 7 (mod 8) prime


def test_symbol_reads_the_pairs_the_spec_holds():
    spec = SymbolSpec.of((5, 5, 7, 3), {(2, 1): -1, (4, 3): 1, (4, 1): -1})
    assert [spec.symbol(*pair) for pair in ((2, 1), (4, 3), (4, 1))] == [-1, 1, -1]
    assert spec.symbol(3, 1) is None and spec.symbol(1, 2) is None
    full = spec_for_ppqq_condition(1)
    assert all(full.symbol(k, j) == eps for (k, j), eps in full.symbols)
    assert full.L(1, 2) == full.symbol(2, 1)  # 5 and 5: no reciprocity sign


def test_symbol_spec_validation():
    with pytest.raises(ValueError):
        SymbolSpec.of((4,))
    with pytest.raises(ValueError):
        SymbolSpec.of((3, 5), {(1, 1): 1})
    with pytest.raises(ValueError):
        SymbolSpec.of((3, 5), {(2, 1): 0})
    spec = SymbolSpec.of((3, 5), {(2, 1): -1})
    assert spec.symbol(2, 1) == -1
    assert spec.symbol(2, 2) is None
    # admits(p, chosen): p may be coordinate len(chosen) + 1
    assert spec.admits(3, [])
    assert spec.admits(5, [3])
    assert not spec.admits(13, [3])  # (13/3) = +1, not -1
    assert not spec.admits(7, [])  # residue
    assert not spec.admits(3, [3])  # repeated prime


def test_find_prime_tuple_trivial():
    assert find_prime_tuple(SymbolSpec.of((3,))) == [3]
    assert find_prime_tuple(SymbolSpec.of((1,))) == [17]
    assert find_prime_tuple(SymbolSpec.of((3, 3))) == [3, 11]


def test_find_prime_tuple_exhausts_its_search_bound():
    # the class 1 (mod 8) starts 1, 9, 17: no prime in two steps, 17 in three
    with pytest.raises(NotFoundWithinBound):
        find_prime_tuple(SymbolSpec.of((1,)), 2)
    assert find_prime_tuple(SymbolSpec.of((1,)), 3) == [17]


def test_find_prime_tuple_constraints():
    spec = SymbolSpec.of((5, 5, 7, 3), {(2, 1): -1, (3, 1): 1, (4, 3): -1})
    tup = find_prime_tuple(spec)
    assert [p % 8 for p in tup] == [5, 5, 7, 3]
    assert kronecker(tup[1], tup[0]) == -1
    assert kronecker(tup[2], tup[0]) == 1
    assert kronecker(tup[3], tup[2]) == -1
    assert len(set(tup)) == 4
    # avoid forces a different tuple
    tup2 = find_prime_tuple(spec, avoid={tup[-1]})
    assert tup2 != tup


def test_spec_builders_generate_matching_tuples():
    for c in (1, 2, 3):
        spec = spec_for_ppqq_condition(c)
        tup = find_prime_tuple(spec)
        d = math.prod(tup)
        assert structure_condition_ppqq(d) is not None, (c, tup)
    for c in range(1, 10):
        spec = spec_for_qqqq_condition(c)
        tup = find_prime_tuple(spec)
        d = math.prod(tup)
        assert structure_condition_qqqq(d) is not None, (c, tup)


def test_spec_builders_are_pinned():
    specs = [spec_for_ppqq_condition(c) for c in range(1, 4)] + [
        spec_for_qqqq_condition(c) for c in range(1, 10)
    ]
    assert hashlib.sha256(repr(specs).encode()).hexdigest() == (
        "fa2ce51ba3c33eccc238f82638203f3a458b48af2a24fa7518dd7e3d290a8d1f"
    )


def test_prime_tuples_up_to_leaves_the_sieve_alone():
    before = len(arith._spf)
    assert len(prime_tuples_up_to(spec_for_qqqq_condition(1), 3 * 10**6)) == 458
    assert len(arith._spf) == before
    # the tuples of acceptance criteria 5 and 6
    tuples = [
        prime_tuples_up_to(spec_for_ppqq_condition(c), 300_000, 10)
        for c in range(1, 4)
    ] + [
        prime_tuples_up_to(spec_for_qqqq_condition(c), 300_000, 5)
        for c in range(1, 10)
    ]
    assert hashlib.sha256(repr(tuples).encode()).hexdigest() == (
        "78ce9792b2ec4e7d631e68a4dd99cb5a06c6dc32525cd9802983e51464b17c55"
    )


def test_predict_reads_the_classifiers_below_50000():
    flag = "ppqq shape with no matching criterion"
    seen = {"ppqq": 0, "qqqq": 0, "unmatched": 0}
    for fs in squarefree_range(3, 50000, 2):
        residues = sorted(p % 8 for p in fs.primes)
        r = predict(fs)
        ppqq = structure_condition_ppqq(fs) if residues == [3, 5, 5, 7] else None
        qqqq = structure_condition_qqqq(fs) if residues == [3, 3, 3, 7] else None
        assert (r.ppqq_condition, r.qqqq_condition) == (ppqq, qqqq), fs.value
        unmatched = residues == [3, 5, 5, 7] and ppqq is None
        assert any(f.startswith(flag) for f in r.flags) == unmatched, fs.value
        seen["ppqq"] += ppqq is not None
        seen["qqqq"] += qqqq is not None
        seen["unmatched"] += unmatched
    assert all(seen.values()), seen


def test_prime_tuples_up_to():
    spec = spec_for_ppqq_condition(1)
    tuples = prime_tuples_up_to(spec, 200000, 5)
    assert len(tuples) == 5
    products = [math.prod(t) for t in tuples]
    assert products == sorted(products)
    assert all(p <= 200000 for p in products)
    assert len({tuple(t) for t in tuples}) == 5


def test_predict_worked_example():
    r = predict(1365)
    assert (r.rank_K.value, r.rank_Kprime.value, r.rank_K1.value) == (2, 3, 2)
    assert r.structure_K.value == Abelian2Group((2, 2))
    assert r.structure_Kprime.value == Abelian2Group((2, 2, 2))
    assert r.structure_K1.value == Abelian2Group((2, 4))
    assert r.structure_K.direction == "iff"
    assert r.tower is not None and r.tower.rank == 2 and r.tower.mu_zero
    assert not r.tower.lambda_zero  # orders 4 and 8 differ
    assert r.ppqq_condition.condition == 1


def test_predict_ranks_only():
    r = predict(1885)
    assert r.rank_pattern == 1
    assert r.structure_K is None
    assert r.tower is not None
    r = predict(35)
    assert r.shape is not None and r.rank_K.value == 1
    assert r.tower is None  # d = 3 (mod 4): no total-ramification argument
    r = predict(5)
    assert r.shape is None


def test_predict_deterministic():
    a = predict(1365)
    b = predict(1365)
    assert a == b
    assert a.to_json() == b.to_json()


def test_tower_claim_gating():
    # attached exactly when d = 1 (mod 4) and rank A(K) = rank A(K1)
    for fs in squarefree_range(3, 4000):
        d = fs.value
        if d % 2 == 0:
            continue
        r = predict(fs)
        expected = d % 4 == 1 and r.rank_K.value == r.rank_K1.value
        assert (r.tower is not None) == expected, d
        if r.tower:
            assert r.tower.rank == r.rank_K.value
            assert r.tower.mu_zero


def test_verify_against_oracle_worked_examples():
    v = verify_against_oracle(1365)
    assert v.ok
    names = [c.name for c in v.checks]
    assert "order A(K1) via Kuroda" in names
    kuroda = next(c for c in v.checks if c.name == "order A(K1) via Kuroda")
    assert kuroda.observed == 8
    assert verify_against_oracle(1885).ok
    assert verify_against_oracle(26961).ok
    with pytest.raises(OracleRangeExceeded):
        verify_against_oracle(3000003)


def test_sweep_verify_yields_clean_comparisons():
    """The oracle sweep below 120 checks every odd square-free d, all clean."""
    import io
    import json

    from twoclass.cli import run

    odd = [fs.value for fs in squarefree_range(3, 120) if fs.value % 2]

    out = io.StringIO()
    assert run(["verify", "--max", "120"], out) == 0
    doc = json.loads(out.getvalue())
    assert doc["mismatches"] == []
    assert doc["results"]["fields"] == len(odd)
    assert doc["results"]["verified_ok"] == doc["results"]["fields"]

    out = io.StringIO()
    assert run(["enumerate", "--max", "120", "--verify"], out) == 0
    rows = json.loads(out.getvalue())["results"]
    assert [r["d"] for r in rows] == odd
    assert all(r["oracle_status"] == "ok" for r in rows)


def test_library_sweep_across_the_oracle_limit():
    # 8d passes the default oracle limit at d = 250000
    odd = [fs.value for fs in squarefree_range(249900, 250100) if fs.value % 2]
    verified = list(sweep(249900, 250100, verify=True))
    assert [r.report.d for r in verified] == odd
    statuses = [r.status for r in verified]
    assert statuses == [
        "ok" if 8 * d <= 2_000_000 else "out-of-range" for d in odd
    ]
    assert "ok" in statuses and "out-of-range" in statuses
    for r in verified:
        if r.status == "ok":
            assert r.comparison == verify_against_oracle(predict(r.report.d))
        else:
            assert r.comparison is None
    plain = list(sweep(249900, 250100))
    assert [r.report for r in plain] == [r.report for r in verified]
    assert all(r.status == "skipped" and r.comparison is None for r in plain)
    # a shape filter keeps only that pattern, before the oracle runs
    shaped = list(sweep(249900, 250100, verify=True, shape=("p", "q", "q")))
    assert shaped and all(r.report.shape.pattern == ("p", "q", "q") for r in shaped)
    assert [r.report.d for r in shaped] == [
        r.report.d
        for r in verified
        if r.report.shape is not None and r.report.shape.pattern == ("p", "q", "q")
    ]
    assert list(sweep(3, 100, shape=("p", "p", "q", "q"))) == []


def test_tension_field_kuroda_consistency():
    """d = 7345 = 5*13*113 carries the type-(1) tension flag: the congruence
    pattern promises first-layer rank 2 while the rank formula gives 3
    (113 = 1 mod 8 and 2^28 = 1 mod 113).  All computable data stay
    consistent with the rank formula: Kuroda gives #A(K1) = 8 >= 2^3."""
    from twoclass.biquad import hasse_unit_index, kuroda_order
    from twoclass.forms import class_group_summary

    assert any("obstruction" in flag for flag in predict(7345).flags)
    assert first_layer_rank(7345) == 3
    Q = hasse_unit_index(7345)
    order = kuroda_order(
        Q,
        class_group_summary(7345).ordinary.order,
        class_group_summary(8 * 7345).ordinary.order,
        1,
    )
    assert order == 8 and order >= 2 ** first_layer_rank(7345)
    report = predict(7345)
    assert any("obstruction" in flag for flag in report.flags)


def test_ppqq_converse_counterexample_is_reported():
    """d = 3045 = 3*5*7*29: the oracle confirms A(K) = (Z/2)^2,
    A(K') = (Z/2)^3 and #A(K1) = 8 at rank 2, yet no ppqq condition holds
    under either labeling, so the stated equivalence has no matching
    condition to point to.  The comparison must surface this as a finding
    (never a silent pass), while the rank checks stay green."""
    assert structure_condition_ppqq(3045) is None
    v = verify_against_oracle(3045)
    assert v.ok
    assert v.findings and "converse" in v.findings[0]
    # a conditionless ppqq field whose structures genuinely differ gets no
    # finding: 5565 = 3*5*7*53 is the smallest such
    assert structure_condition_ppqq(5565) is None
    v = verify_against_oracle(5565)
    assert v.ok and not v.findings


def test_verify_reads_summaries_and_takes_a_report(monkeypatch):
    """The oracle comparison builds no full class group and never asks for
    a unit norm: every check reads the cached class-group summaries.  A
    PredictionReport passed in is used as is, so predict runs once."""
    import twoclass
    import twoclass.forms
    import twoclass.quadfield

    def boom(*args, **kwargs):
        raise AssertionError("the verify path must not call this")

    for mod in (twoclass, twoclass.forms, twoclass.quadfield):
        for name in ("narrow_class_group", "ordinary_class_group", "unit_norm"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, boom)
    v = verify_against_oracle(1365)
    assert v.ok
    assert "structure A(K')" in [c.name for c in v.checks]
    report = predict(1365)
    monkeypatch.setattr("twoclass.classify.predict", boom)
    assert verify_against_oracle(report) == v


def test_report_carries_the_factorization_it_was_given(monkeypatch, empty_templates):
    # predict builds no second validated factorization and no starred
    # prime, and the oracle replay reuses the report's factorization
    fs = next(squarefree_range(1365, 1366))
    report = predict(fs)
    assert report.factored is fs
    assert (report.d, report.primes) == (1365, (3, 5, 7, 13))

    def boom(*args, **kwargs):
        raise AssertionError("the primes were already tested")

    monkeypatch.setattr("twoclass.arith.FactoredSquarefree.__new__", boom)
    monkeypatch.setattr("twoclass.genus.starred_prime", boom)
    # the patched call assembles the report again rather than reading it
    empty_templates.clear()
    assert predict(fs) == report
    assert len(empty_templates) == 1
    assert verify_against_oracle(report).ok


# --- the signature memo of predict ------------------------------------------


@pytest.fixture
def empty_templates():
    """predict's signature memo, empty, and emptied again afterwards: for
    tests that count assemblies or patch a layer the assembly calls."""
    classify._TEMPLATES.clear()
    yield classify._TEMPLATES
    classify._TEMPLATES.clear()


def _uncached(fs):
    """predict(fs) assembled from scratch, the memo left as it was."""
    saved = dict(classify._TEMPLATES)
    classify._TEMPLATES.clear()
    try:
        return predict(fs)
    finally:
        classify._TEMPLATES.clear()
        classify._TEMPLATES.update(saved)


def _signature(fs):
    residues = tuple(sorted(p % 8 for p in fs.primes))
    obstructed = quartic_obstruction(fs)
    match = None
    if residues == (3, 5, 5, 7):
        match = structure_condition_ppqq(fs)
    elif residues == (3, 3, 3, 7):
        match = structure_condition_qqqq(fs)
    return residues, obstructed, match and match.condition


def test_predict_equals_the_uncached_assembly_below_60000():
    for fs in squarefree_range(3, 60000, 2):
        report = predict(fs)
        assert report == _uncached(fs), fs.value
        assert report.factored is fs


def _prime_kinds():
    """The odd primes below 200 by residue mod 8, those = 1 split by the
    quartic test: a product of 8 of them stays below 2**64."""
    kinds = {}
    for p in arith.primes_upto(200)[1:]:
        kind = str(p % 8)
        if p % 8 == 1:
            kind += " fails" if two_power_residue_test(p) else " passes"
        kinds.setdefault(kind, []).append(p)
    return kinds


_PRIME_KINDS = _prime_kinds()


def test_prime_kinds_cover_every_residue_and_both_quartic_outcomes():
    assert sorted(_PRIME_KINDS) == ["1 fails", "1 passes", "3", "5", "7"]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.lists(
        st.sampled_from(sorted(_PRIME_KINDS)).flatmap(
            lambda kind: st.sampled_from(_PRIME_KINDS[kind])
        ),
        min_size=1,
        max_size=8,
        unique=True,
    )
)
@example([17, 41, 3, 5, 7])  # both quartic outcomes with every residue
@example([41, 5, 13])  # rank pattern (1), quartic test passed
@example([17, 5, 13])  # rank pattern (1), quartic test failed
@example([5, 13, 7, 3])  # ppqq
@example([7, 3, 11, 19])  # qqqq
def test_predict_equals_the_uncached_assembly_on_drawn_products(primes):
    primes = sorted(primes)
    fs = FactoredSquarefree(math.prod(primes), tuple(primes))
    report = predict(fs)
    assert report == _uncached(fs)
    assert report.to_json() == _uncached(fs).to_json()


def test_reports_do_not_depend_on_which_field_seeded_a_template(empty_templates):
    fields = list(squarefree_range(3, 60000, 2))
    ascending = [predict(fs) for fs in fields]
    empty_templates.clear()
    descending = [predict(fs) for fs in reversed(fields)]
    assert ascending == descending[::-1]


def test_one_assembly_per_signature(monkeypatch, empty_templates):
    calls = {"genus_rank": 0, "first_layer_rank": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(classify, name, counted(name, getattr(classify, name)))
    signatures = {_signature(r.report.factored) for r in sweep(3, 250000)}
    assert len(empty_templates) == len(signatures)
    assert calls == {
        "genus_rank": 2 * len(signatures),
        "first_layer_rank": len(signatures),
    }
    list(sweep(3, 250000))
    assert len(empty_templates) == len(signatures)
    assert calls["first_layer_rank"] == len(signatures)


def test_criterion_fields_keep_their_own_labeling():
    labelings = {}
    for fs in squarefree_range(3, 60000, 2):
        report = predict(fs)
        match = report.ppqq_condition or report.qqqq_condition
        if match is None:
            continue
        assert sorted(match.labeling) == list(fs.primes), fs.value
        labelings.setdefault(_signature(fs), set()).add(match.labeling)
    # every matched signature is shared by fields with their own labelings
    assert len(labelings) >= 3
    assert all(len(seen) > 1 for seen in labelings.values())
