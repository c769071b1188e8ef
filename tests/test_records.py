"""The package's records are immutable tuples, validated on construction.

These pin what a record promises its callers: the exception class a bad
constructor argument (or a bad d for K1) raises, no assignment to a field,
and hashes that agree with equality.
"""

import copy

import pytest

from twoclass.arith import (
    FactoredSquarefree,
    NotSquarefree,
    doubled,
    factor_squarefree,
    squarefree_range,
)
from twoclass.biquad import EvenRadicand, hasse_unit_index
from twoclass.classify import SymbolSpec, predict, shape_of, verify_against_oracle
from twoclass.forms import Abelian2Group
from twoclass.quadfield import fundamental_unit
from twoclass.redei import splitting_sets


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: FactoredSquarefree(0, ()), ValueError),
        (lambda: FactoredSquarefree(15, (5, 3)), ValueError),
        (lambda: FactoredSquarefree(9, (9,)), ValueError),
        (lambda: FactoredSquarefree(45, (3, 5)), NotSquarefree),
        (lambda: Abelian2Group((3,)), ValueError),
        (lambda: Abelian2Group((4, 2)), ValueError),
        (lambda: SymbolSpec(()), ValueError),
        (lambda: SymbolSpec((5, 2)), ValueError),
        (lambda: SymbolSpec((5, 7), (((1, 2), 1),)), ValueError),
        (lambda: SymbolSpec((5, 7), (((2, 1), 0),)), ValueError),
        (lambda: SymbolSpec((5, 7), (((2, 1), 1), ((2, 1), -1))), ValueError),
        (lambda: hasse_unit_index(10), EvenRadicand),
        (lambda: hasse_unit_index(1), EvenRadicand),
    ],
)
def test_validated_constructors_raise_their_exception_class(build, error):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error


def _one_of_each():
    fs = factor_squarefree(1365)
    report = predict(fs)
    comparison = verify_against_oracle(report)
    return [
        fs,
        Abelian2Group((2, 4)),
        SymbolSpec.of((5, 7), {(2, 1): -1}),
        shape_of(fs),
        report.structure_K,
        report.tower,
        report,
        comparison.checks[-1],
        comparison,
        fundamental_unit(1365),
        report.ppqq_condition,
        splitting_sets(1365)[0][1],
    ]


def test_one_record_of_every_kind():
    names = {type(r).__name__ for r in _one_of_each()}
    assert len(names) == 12


@pytest.mark.parametrize("record", _one_of_each(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


@pytest.mark.parametrize("record", _one_of_each(), ids=lambda r: type(r).__name__)
def test_equal_records_hash_equally(record):
    twin = copy.copy(record)
    assert twin == record and twin is not record
    assert hash(twin) == hash(record)


def test_trusted_factorization_equals_the_validated_one():
    fs = doubled(factor_squarefree(1365))
    assert fs == FactoredSquarefree(2730, (2, 3, 5, 7, 13))
    assert hash(fs) == hash(FactoredSquarefree(2730, (2, 3, 5, 7, 13)))
    # the sweeps and factor_squarefree build their records unchecked too:
    # windows inside the sieve, near 10**6, across the bound of the
    # (2, 7, 61) witness tier and below 10**12, a Pollard rho product and
    # a product past 2**64 that trial division factors
    records = []
    for lo in (2, 10**6, 4759123141 - 1000, 10**12 - 2000):
        for step in (1, 2):
            records += squarefree_range(lo, lo + 2000, step)
    records.append(factor_squarefree(1000003 * 1000033))
    records.append(factor_squarefree(100003 * 100019 * 100043 * 100049))
    for fs in records:
        checked = FactoredSquarefree(fs.value, fs.primes)
        assert fs == checked and hash(fs) == hash(checked), fs


def test_a_group_is_not_its_factor_tuple():
    assert Abelian2Group((2, 2)) != (2, 2)
    assert Abelian2Group((2, 2)) == Abelian2Group((2, 2))
    assert Abelian2Group((2, 2)) != Abelian2Group((2, 2, 2))
