import functools
import io
import math
import random
from typing import NamedTuple

import pytest

import twoclass.arith as arith
import twoclass.classify as classify
import twoclass.cli as cli
import twoclass.forms as oracle
from twoclass.arith import factorize, squarefree_range
from twoclass.forms import (
    Abelian2Group,
    DiscriminantMismatch,
    IndefiniteForm,
    InvalidDiscriminant,
    class_group_summary,
    compose,
    narrow_class_group,
    ordinary_class_group,
    reduce_form,
    reduced_forms,
    two_sylow,
)
from twoclass.quadfield import unit_norm

from genus_reference import is_fundamental


def valid_discriminants(limit):
    for D in range(5, limit):
        if D % 4 in (0, 1) and math.isqrt(D) ** 2 != D:
            yield D


def test_reduced_forms_examples():
    assert set(reduced_forms(5)) == {IndefiniteForm(1, 1, -1), IndefiniteForm(-1, 1, 1)}
    assert set(reduced_forms(8)) == {IndefiniteForm(1, 2, -1), IndefiniteForm(-1, 2, 1)}
    with pytest.raises(InvalidDiscriminant):
        reduced_forms(4)
    with pytest.raises(InvalidDiscriminant):
        reduced_forms(7)
    with pytest.raises(InvalidDiscriminant):
        reduced_forms(-20)


def test_reduced_forms_complete_and_valid():
    # every enumerated form is reduced with the right discriminant, and a
    # direct scan over the (a, b) window finds nothing extra
    for D in valid_discriminants(300):
        forms = reduced_forms(D)
        assert len(set(forms)) == len(forms)
        s = math.isqrt(D)
        direct = set()
        for b in range(1, s + 1):
            if (D - b * b) % 4:
                continue
            for a in range(-(s + b) // 2, (s + b) // 2 + 1):
                if a == 0:
                    continue
                num = b * b - D
                if num % (4 * a):
                    continue
                c = num // (4 * a)
                f = IndefiniteForm(a, b, c)
                if f.discriminant == D and _is_reduced_ref(a, b, c, D):
                    direct.add(f)
        assert direct == set(forms), D


def _is_reduced_ref(a, b, c, D):
    sq = math.sqrt(D)
    return 0 < b < sq and sq - b < 2 * abs(a) < sq + b


def test_reduce_examples():
    assert reduce_form(IndefiniteForm(1, 1, -1)) == IndefiniteForm(1, 1, -1)
    assert reduce_form(IndefiniteForm(1, 0, -2)) == IndefiniteForm(1, 2, -1)
    f = reduce_form(IndefiniteForm(3, 2, -3))
    assert f.discriminant == 40
    assert f in reduced_forms(40)


def test_reduce_random_preserves_discriminant():
    rng = random.Random(3)
    for _ in range(400):
        a = rng.choice([x for x in range(-12, 13) if x])
        b = rng.randint(-12, 12)
        c = rng.choice([x for x in range(-12, 13) if x])
        D = b * b - 4 * a * c
        if D <= 0 or math.isqrt(D) ** 2 == D:
            continue
        g = reduce_form(IndefiniteForm(a, b, c))
        assert g.discriminant == D


def test_compose_laws():
    g = narrow_class_group(40)
    ident = g.classes[g.identity]
    other = next(c for i, c in enumerate(g.classes) if i != g.identity)
    assert g.class_index(compose(ident, other)) == g.class_index(other)
    assert g.class_index(compose(other, other)) == g.identity
    conjugate = IndefiniteForm(other.a, -other.b, other.c)
    assert g.class_index(compose(other, conjugate)) == g.identity
    with pytest.raises(DiscriminantMismatch):
        compose(ident, IndefiniteForm(1, 1, -1))


def test_class_index_refuses_forms_outside_the_group():
    with pytest.raises(DiscriminantMismatch):
        narrow_class_group(40).class_index(IndefiniteForm(1, 1, -1))
    # (2, 2, -2) is twice the principal form of D = 5
    for build in (narrow_class_group, ordinary_class_group):
        with pytest.raises(ValueError, match="not primitive"):
            build(20).class_index(IndefiniteForm(2, 2, -2))


def test_group_axioms_all_discriminants_below_5000():
    # identity, inverses, commutativity and associativity on all class
    # triples; cached composition keeps the triple sweep cheap
    for D in valid_discriminants(5000):
        g = narrow_class_group(D)
        n = g.order
        e = g.identity
        table = [[g.mul(i, j) for j in range(n)] for i in range(n)]
        for i in range(n):
            assert table[e][i] == i
            assert table[i][g.inverse(i)] == e
            for j in range(i, n):
                assert table[i][j] == table[j][i]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert table[table[i][j]][k] == table[i][table[j][k]]


def test_group_axioms_random_large_discriminants():
    # spot-check the composition algebra well beyond the exhaustive range
    rng = random.Random(424242)
    checked = 0
    while checked < 12:
        D = rng.randrange(10**5, 10**6)
        if D % 4 not in (0, 1) or math.isqrt(D) ** 2 == D:
            continue
        g = narrow_class_group(D)
        n = g.order
        e = g.identity
        for _ in range(40):
            i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            assert g.mul(g.mul(i, j), k) == g.mul(i, g.mul(j, k))
            assert g.mul(i, j) == g.mul(j, i)
            assert g.mul(i, g.inverse(i)) == e
            assert g.mul(e, i) == i
        assert math.prod(g.structure) == g.order
        checked += 1


def test_narrow_class_group_examples():
    assert narrow_class_group(8).order == 1
    g = narrow_class_group(40)
    assert g.order == 2 and g.structure == (2,)
    g = narrow_class_group(1365)
    assert g.order == 8 and g.structure == (2, 2, 2)
    assert two_sylow(g).factors == (2, 2, 2)


def test_known_class_numbers():
    # classical narrow class numbers of real quadratic fields
    known_narrow = {5: 1, 8: 1, 12: 2, 13: 1, 24: 2, 40: 2, 60: 4, 229: 3}
    for D, h in known_narrow.items():
        assert narrow_class_group(D).order == h, D


def test_smallest_three_rank_two_discriminant():
    # D = 32009 is the classical smallest real quadratic discriminant with
    # 3-rank 2: class group Z/3 x Z/3, every nontrivial element of order 3
    g = narrow_class_group(32009)
    assert g.order == 9
    assert g.structure == (3, 3)
    assert all(g.power(i, 3) == g.identity for i in range(g.order))
    assert two_sylow(g).factors == ()


def test_ordinary_class_group():
    # norm -1: the sign class is principal, narrow = ordinary
    g = ordinary_class_group(40)
    assert g.order == 2 and g.variant == "narrow"
    # norm +1: index-2 quotient
    g = ordinary_class_group(60)
    assert g.order == 2 and g.variant == "ordinary"
    g = ordinary_class_group(1365)
    assert g.order == 4 and g.structure == (2, 2)
    assert two_sylow(g).factors == (2, 2)


def test_ordinary_vs_narrow_order_relation():
    # h+ = 2h exactly when the unit norm is +1 (d < 1200 here; the
    # acceptance suite extends this to d < 20000)
    for fs in squarefree_range(2, 1200):
        D = fs.value if fs.value % 4 == 1 else 4 * fs.value
        nm = unit_norm(fs.value)
        narrow = class_group_summary(D)
        # the sign class is principal exactly when h+ = h
        assert (narrow.h_narrow == narrow.h_ordinary) == (nm == -1), fs.value
        if nm == 1:
            assert narrow.h_ordinary * 2 == narrow.h_narrow
        else:
            assert narrow.h_ordinary == narrow.h_narrow


def test_two_sylow_values():
    # group of order 6 = Z/6 has 2-part Z/2
    g229 = narrow_class_group(229)
    assert g229.structure == (3,)
    assert two_sylow(g229).factors == ()
    g = narrow_class_group(1957)  # h+ = 6: 2-part (2,)
    if g.order == 6:
        assert two_sylow(g).factors == (2,)


def test_negative_powers_are_powers_of_the_inverse():
    # a negative exponent n is the |n|-th power of the inverse
    for D in (60, 1365, 32009, 226580, 3999932):
        for g in (narrow_class_group(D), ordinary_class_group(D)):
            for i in range(g.order):
                inv = g.inverse(i)
                assert g.power(i, -1) == inv, (D, g.variant, i)
                assert g.power(i, -3) == g.power(inv, 3), (D, g.variant, i)
                assert g.mul(g.power(i, -5), g.power(i, 5)) == g.identity


def test_invariant_factors_of_small_relation_matrices():
    assert oracle._invariant_factors([[2, 0], [0, 3]]) == (6,)
    assert oracle._invariant_factors([[2, 0], [-1, 2]]) == (4,)
    assert oracle._invariant_factors([[4, 0], [0, 6]]) == (2, 12)
    assert oracle._invariant_factors([[1]]) == ()
    assert oracle._invariant_factors([]) == ()
    # its 2 x 2 minors have gcd 2, and its determinant is 24
    assert oracle._invariant_factors([[2, 0, 0], [-1, 3, 0], [0, -2, 4]]) == (2, 12)


def test_summary_composes_once_per_class_found(monkeypatch):
    # the closure composes each class it adds once and a sign partner not
    # at all, and the group structure needs no power map: fewer than h+
    # compositions, and fewer than h+ / 2 when the sign class is not
    # principal, well within h+ plus one per growing generator
    calls = []

    def counted(*args):
        calls.append(args)
        return compose_raw(*args)

    compose_raw = oracle._compose_raw
    monkeypatch.setattr(oracle, "_compose_raw", counted)
    for D in (5, 60, 1365, 32009, 226580, 3999932, 400000020):
        cycles = oracle._Cycles(D)
        calls.clear()
        oracle.class_group_summary.__wrapped__(D)
        assert len(calls) < len(cycles.least) >> cycles.flip, D


def test_abelian2group_validation():
    with pytest.raises(ValueError):
        Abelian2Group((3,))
    with pytest.raises(ValueError):
        Abelian2Group((4, 2))
    grp = Abelian2Group((2, 4))
    assert grp.rank == 2 and grp.order == 8 and not grp.is_elementary()
    assert grp.four_rank == 1
    assert Abelian2Group((2, 2, 4, 8)).four_rank == 2
    assert Abelian2Group(()).order == 1 and Abelian2Group(()).four_rank == 0


def test_structure_matches_torsion_counts():
    # invariant factors reproduce the 2-torsion counts they were built from
    for D in (40, 60, 1365, 10920, 4729, 3316):
        if D % 4 not in (0, 1) or math.isqrt(D) ** 2 == D:
            continue
        g = narrow_class_group(D)
        expected_two = math.prod(min(f & -f, 2) for f in g.structure)
        assert g.torsion_count(2) == expected_two
        assert math.prod(g.structure) == g.order


def test_class_group_summary_consistency():
    for fs in squarefree_range(2, 400):
        D = fs.value if fs.value % 4 == 1 else 4 * fs.value
        summ = class_group_summary(D)
        g = narrow_class_group(D)
        assert summ.h_narrow == g.order
        # #A[2] = 2**rank and #A[4] = 2**(rank + four_rank)
        assert 2**summ.narrow.rank == g.torsion_count(2)
        assert 2 ** (summ.narrow.rank + summ.narrow.four_rank) == g.torsion_count(4)
        o = ordinary_class_group(D)
        assert summ.h_ordinary == o.order
        assert 2**summ.ordinary.rank == o.torsion_count(2)


def test_torsion_chains_against_mul_and_power():
    # the counts #A[m] read off the invariant factors against torsion_count,
    # which goes through mul and power instead; the valid D include
    # non-fundamental ones (45, 48, 72, 80, ...)
    for D in valid_discriminants(3000):
        summ = class_group_summary(D)
        narrow = narrow_class_group(D)
        ordinary = ordinary_class_group(D)
        assert ordinary.order == summ.h_ordinary, D
        for g, grp in ((narrow, summ.narrow), (ordinary, summ.ordinary)):
            assert math.prod(g.structure) == g.order, D
            for p, v in factorize(g.order):
                for k in range(1, v + 1):
                    m = p**k
                    expected = math.prod(math.gcd(f, m) for f in g.structure)
                    assert g.torsion_count(m) == expected, (D, g.variant, m)
            # the summary's 2-group has the 2-part of the order, and its
            # #A[2^k] are the counts through mul and power, for every 2^k up
            # to the 2-part of the order
            assert grp.order == g.order & -g.order, D
            for k in range(grp.order.bit_length()):
                count = math.prod(min(f, 2**k) for f in grp.factors)
                assert count == g.torsion_count(2**k), (D, g.variant, k)
            assert two_sylow(g) == grp, D


# --- the generator closure against the full reduced-form enumeration -------


def _reduced_forms_by_full_sieve(D, s):
    """The reference enumeration of the reduced forms of D, with a sieve of
    D/4 + 1 entries: the divisors of each (D - b^2)/4 read off its
    smallest-prime-factor chain."""
    spf = arith.spf_table(D // 4 + 1)
    out = []
    for b in range(2 - (D & 1), s + 1, 2):
        n = m = (D - b * b) // 4
        divs = [1]
        while m > 1:
            p, e = spf[m], 0
            while m % p == 0:
                m //= p
                e += 1
            divs += [d * p**k for d in divs for k in range(1, e + 1)]
        for a in divs:
            if s - b + 1 <= 2 * a <= s + b:
                out += [(a, b, -(n // a)), (-a, b, n // a)]
    return out


class _RefCycles(NamedTuple):
    D: int
    s: int
    cycle_of: dict  # reduced primitive form -> cycle id, ids in the order found
    reps: list  # cycle id -> least form of the cycle
    identity: int  # the principal cycle
    sign: int  # the cycle of forms representing -1


def _enumerated_cycles(D):
    """Reference cycles: a rho walk from every primitive form of the
    full-sieve enumeration, with forms and cycles of its own."""
    s = math.isqrt(D)
    cycle_of, reps = {}, []
    for f in _reduced_forms_by_full_sieve(D, s):
        if f in cycle_of or math.gcd(*f) != 1:
            continue
        cycle, g = [], f
        while g != f or not cycle:
            cycle_of[g] = len(reps)
            cycle.append(g)
            g = oracle._rho(*g, D, s)
        reps.append(min(cycle))
    b0 = D & 1
    c0 = (b0 - D) // 4
    principal = cycle_of[oracle._reduce(1, b0, c0, D, s)]
    sign = cycle_of[oracle._reduce(-1, b0, -c0, D, s)]
    return _RefCycles(D, s, cycle_of, reps, principal, sign)


class _RefGroup(NamedTuple):
    variant: str
    order: int
    structure: tuple
    classes: tuple


def _reference_group(ref, quotient):
    """The narrow group over the reference cycles, or its quotient by the
    sign class, through compose alone: its classes, least form first, and
    its structure from the counts #A[p^k] of the p-th power map."""
    forms = [IndefiniteForm(*f) for f in ref.reps]

    def mul(i, j):
        return ref.cycle_of[compose(forms[i], forms[j])]

    # an element is a cycle, or for the quotient the pair {C, C sigma}
    element = [min(i, mul(i, ref.sign)) if quotient else i for i in range(len(forms))]
    least = {}
    for i, f in enumerate(ref.reps):
        least[element[i]] = min(least.get(element[i], f), f)

    def power(i, n):
        out = i
        for bit in bin(n)[3:]:
            out = mul(out, out)
            if bit == "1":
                out = mul(out, i)
        return element[out]

    identity = element[ref.identity]
    # the j-th largest factor is divisible by p^k exactly when #A[p^k] /
    # #A[p^(k-1)] >= p^(j+1)
    columns = {}
    for p, v in factorize(len(least)):
        images, before = list(least), 1
        while before < p**v:
            images = [power(i, p) for i in images]
            count = images.count(identity)
            ratio, j = count // before, 0
            while ratio > 1:
                columns[j] = columns.get(j, 1) * p
                ratio, j = ratio // p, j + 1
            before = count
    quotient = quotient and ref.sign != ref.identity
    return _RefGroup(
        "ordinary" if quotient else "narrow",
        len(least),
        tuple(sorted(columns.values())),
        tuple(sorted(map(IndefiniteForm._make, least.values()))),
    )


def _assert_builders_agree(D):
    ref = _enumerated_cycles(D)
    new = oracle._Cycles(D)
    primitive = {
        f for f in _reduced_forms_by_full_sieve(D, ref.s) if math.gcd(*f) == 1
    }
    assert set(ref.cycle_of) == primitive, D
    for f, cid in ref.cycle_of.items():
        assert ref.cycle_of[oracle._rho(*f, D, ref.s)] == cid, (D, f)
    # the same cycles with the same representatives: h+ agrees; only the
    # forms with a < 0 are stored, each standing for its sign partner too
    keys = {divmod(key, new.s + 1) for key in new.cycle_of}
    assert keys == {(a, b) for a, b, _ in primitive if a < 0}, D
    pairs = {(ref.cycle_of[f], new.id_of(f)) for f in primitive}
    assert len(pairs) == len(ref.reps) == len(new.least), D
    assert all(ref.reps[i] == new.least[j] for i, j in pairs), D
    assert (ref.identity, 0) in pairs, D
    assert (ref.sign, new.flip) in pairs, D
    if D < 2000:
        # mul composes each cycle's least form; any other form of either
        # cycle lands on the same cycle, as Gauss composition is defined on
        # classes
        members = {}
        for f in primitive:
            members.setdefault(new.id_of(f), []).append(f)
        for i, fs in members.items():
            for j, gs in members.items():
                want = new.mul(i, j)
                for f in fs:
                    for g in gs:
                        got = new.id_of(oracle._compose_raw(f, g, D, new.s))
                        assert got == want, (D, f, g)
    summ = class_group_summary(D)
    assert summ.h_narrow == len(ref.reps), D
    assert (summ.h_narrow == summ.h_ordinary) == (ref.sign == ref.identity), D
    # a 2-chain and its 2-group determine each other
    for quotient, build, grp in (
        (False, narrow_class_group, summ.narrow),
        (True, ordinary_class_group, summ.ordinary),
    ):
        want = _reference_group(ref, quotient)
        got = build(D)
        assert got.classes == want.classes, (D, quotient)
        assert got.structure == want.structure, (D, quotient)
        assert grp == two_sylow(want), (D, quotient)
    return new


def test_classes_are_the_least_reduced_form_of_each_class_ascending():
    for D in valid_discriminants(3000):
        primitive = [f for f in reduced_forms(D) if math.gcd(*f) == 1]
        for g in (narrow_class_group(D), ordinary_class_group(D)):
            assert all(x < y for x, y in zip(g.classes, g.classes[1:])), (D, g.variant)
            # reduced_forms is ascending, so each class meets its least form
            # first; for --ordinary a class spans both cycles C and C sigma
            least = {}
            for f in primitive:
                least.setdefault(g.class_index(f), f)
            assert g.classes == tuple(least[i] for i in range(g.order)), (D, g.variant)


@pytest.mark.parametrize("D", [5, 8, 12, 13, 17, 21, 24])
def test_builders_agree_where_the_prime_bound_is_tiny(D):
    s = math.isqrt(D)
    assert s // 2 + 1 <= 3
    _assert_builders_agree(D)


@pytest.mark.parametrize("D", [154452, 212517, 214925])
def test_builders_agree_where_a_relation_has_several_digits(D):
    # x^n lands on a product of earlier generators: the relation rows
    # (-digits, n) read (2, 18) at D = 154452 and 212517, where (+digits,
    # n) would read (6, 6), and (3, 6) at 214925, where they would read (18,)
    cycles = _assert_builders_agree(D)
    assert sum(map(bool, cycles.relations[-1])) >= 3, D


def test_builders_agree_on_every_discriminant_below_10000():
    # fundamental or not, every D goes through the generator closure
    for D in valid_discriminants(10000):
        cycles = _assert_builders_agree(D)
        # the sign partner of a class is its least form with a and c negated
        assert all(
            cycles.id_of((-a, b, -c)) == cycles.mul(cid, cycles.flip)
            for cid, (a, b, c) in enumerate(cycles.least)
        ), D


# conductors with high prime powers and with many primes
DEEP_CONDUCTORS = (2**14 * 13, 3**10 * 5, 16 * 9 * 25 * 49 * 13)


def test_builders_agree_on_large_fundamental_discriminants():
    # and on as many non-fundamental D of the same range, and deep conductors
    rng = random.Random(20260)
    sample = []
    while len(sample) < 20:
        D = rng.randrange(5 * 10**5, 4 * 10**6)
        if math.isqrt(D) ** 2 != D and is_fundamental(D):
            sample.append(D)
    while len(sample) < 40:
        D = rng.randrange(5 * 10**5, 4 * 10**6)
        if D % 4 in (0, 1) and math.isqrt(D) ** 2 != D and not is_fundamental(D):
            sample.append(D)
    for D in sample + list(DEEP_CONDUCTORS):
        _assert_builders_agree(D)


def test_reduced_form_enumeration_as_with_the_full_sieve():
    # reduced_forms reads the cycles of D / g^2 for every content g
    for D in valid_discriminants(6000):
        s = math.isqrt(D)
        want = sorted(map(IndefiniteForm._make, _reduced_forms_by_full_sieve(D, s)))
        assert reduced_forms(D) == want, D


def test_classgroup_of_non_fundamental_discriminants_as_with_the_full_sieve(
    monkeypatch,
):
    # the documents of a non-fundamental D are those of the group built
    # over the cycles of the full-sieve enumeration
    def documents():
        out = io.StringIO()
        for D in valid_discriminants(6000):
            if not is_fundamental(D):
                for variant in ([], ["--ordinary"]):
                    assert cli.run(["classgroup", str(D), *variant], out) == 0, D
        return out.getvalue()

    got = documents()

    def reference(quotient):
        return lambda D: _reference_group(_enumerated_cycles(D), quotient)

    monkeypatch.setattr(cli, "narrow_class_group", reference(False))
    monkeypatch.setattr(cli, "ordinary_class_group", reference(True))
    assert got == documents()


def _conductor_primes(D):
    """The primes dividing the conductor of the discriminant D."""
    return [
        p for p, _ in factorize(D) if (D % 16 in (0, 4) if p == 2 else D % (p * p) == 0)
    ]


def test_prime_forms_are_the_non_inert_primes_up_to_the_bound():
    for D in (5, 8, 12, 1365, 10920, 400000001):
        s = math.isqrt(D)
        gens = list(oracle._prime_forms(D, s, bytes(s + 1)))
        assert [f[0] for f in gens] == [
            p
            for p in range(2, s // 2 + 2)
            if arith.is_prime(p) and arith.kronecker(D, p) != -1
        ], D
        for p, b, c in gens:
            assert b * b - 4 * p * c == D, (D, p)
            if 4 * p * p < D and b > 0:
                assert oracle._is_reduced(p, b, c, D, s), (D, p)
    # a non-fundamental D keeps the prime forms of the primes off its
    # conductor and adds every primitive (p^k, b) of each prime on it
    for D in (45, 80, 400000020, *DEEP_CONDUCTORS):
        s = math.isqrt(D)
        bound = s // 2 + 1
        gens = list(oracle._prime_forms(D, s, bytes(s + 1)))
        on = _conductor_primes(D)
        assert on and not is_fundamental(D), D
        for a, b, c in gens:
            assert b * b - 4 * a * c == D, (D, a, b)
            assert math.gcd(math.gcd(a, b), c) == 1, (D, a, b)
        assert [a for a, _, _ in gens if all(a % p for p in on)] == [
            p
            for p in range(2, bound + 1)
            if arith.is_prime(p) and p not in on and arith.kronecker(D, p) != -1
        ], D
        for p in on:
            q = p
            while q <= bound:
                want = {
                    b
                    for b in range(2 * q)
                    if (b * b - D) % (4 * q) == 0
                    and math.gcd(math.gcd(q, b), (b * b - D) // (4 * q)) == 1
                }
                assert {b % (2 * q) for a, b, _ in gens if a == q} == want, (D, q)
                q *= p


def test_closure_takes_roots_only_for_generators_that_grow_the_group(monkeypatch):
    # a prime off the conductor whose norm a walk has met is in the group
    # already, so no square root is taken for it: each root left belongs to
    # a generator that adds a relation row, bar the few whose prime form is
    # not reduced (2p >= sqrt(D)) and so need not meet a form of norm p
    roots = []

    def counted(n, p):
        r = sqrt_mod_prime(n, p)
        if r is not None:
            roots.append(p)
        return r

    sqrt_mod_prime = oracle.sqrt_mod_prime
    monkeypatch.setattr(oracle, "sqrt_mod_prime", counted)
    for D in (6038120, 999999999997):
        roots.clear()
        oracle.class_group_summary.__wrapped__(D)
        took = len(roots)
        assert took <= len(oracle._Cycles(D).relations) + 2, (D, took)


def test_bounded_summary_cache_leaves_the_verify_document_unchanged(monkeypatch):
    argv = ["verify", "--max", "6000"]
    class_group_summary.cache_clear()
    bounded = io.StringIO()
    assert cli.run(argv, bounded) == 0
    info = class_group_summary.cache_info()
    assert info.maxsize == oracle._CACHE_SIZE
    assert info.currsize <= 1024 < info.misses
    unbounded = functools.lru_cache(maxsize=None)(class_group_summary.__wrapped__)
    monkeypatch.setattr(classify, "class_group_summary", unbounded)
    reference = io.StringIO()
    assert cli.run(argv, reference) == 0
    assert unbounded.cache_info().currsize > 1024
    assert bounded.getvalue() == reference.getvalue()


def test_oracle_never_grows_the_sweep_sieve(monkeypatch):
    # the oracle's sieve needs sqrt(D) entries and the sweep's window sieve
    # sqrt(--max), so neither outgrows the sieve's 4096-entry minimum here
    monkeypatch.setattr(arith, "_spf", [])
    class_group_summary.cache_clear()
    argv = ["verify", "--min", "240000", "--max", "240100"]
    assert cli.run(argv, io.StringIO()) == 0
    assert len(arith._spf) <= 4096
