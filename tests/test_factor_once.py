"""A field's primes are found once, by the sweep's sieve or by the entry
factorization of d, and carried from there: no layer below factors again."""

import io

import pytest

import twoclass.arith as arith
import twoclass.classify as classify
import twoclass.cli as cli
import twoclass.forms as forms
import twoclass.genus as genus
import twoclass.redei as redei


@pytest.fixture
def factorize_calls(monkeypatch):
    # an empty signature memo, so that predict assembles every report again
    monkeypatch.setattr(classify, "_TEMPLATES", {})
    calls = []
    real = arith.factorize

    def counting(n):
        calls.append(n)
        return real(n)

    for mod in (arith, genus, forms, redei):
        monkeypatch.setattr(mod, "factorize", counting, raising=False)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--csv", "--min", "1000000", "--max", "1002000"],
        ["verify", "--max", "3000"],
    ],
)
def test_sweeps_factor_nothing(factorize_calls, argv):
    assert cli.run(argv, io.StringIO()) == 0
    assert factorize_calls == []


def test_classify_factors_d_once(factorize_calls):
    assert cli.run(["classify", "1365", "--verify"], io.StringIO()) == 0
    assert factorize_calls == [1365]


def test_s1s2_factors_d_once(factorize_calls):
    assert cli.run(["s1s2", "10920"], io.StringIO()) == 0
    assert factorize_calls == [10920]
