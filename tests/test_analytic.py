"""Triangulation against the analytic class number formula.

For a real quadratic field of fundamental discriminant D with character
chi = kronecker(D, .), Dirichlet's formula gives

    h = -sum_{a=1}^{D-1} chi(a) * log(sin(pi a / D)) / (2 * log(eps))

with eps the fundamental unit and h the ordinary class number.  This pins
the form-cycle oracle AND the continued-fraction unit at once: a wrong
unit or a miscounted cycle makes the quotient non-integral or wrong.
For D > 0, chi(D - a) = chi(a) and sin(pi (D - a) / D) = sin(pi a / D), so
the terms a and D - a are equal: the sum runs over a < D/2 and is doubled
(a = D/2, for even D, has chi = 0).
"""

import math

from mpmath import mp, mpf, log, sin, pi, sqrt, nint

from twoclass.arith import kronecker, squarefree_range
from twoclass.forms import class_group_summary
from twoclass.quadfield import fundamental_unit


def analytic_class_number(D: int, d: int) -> int:
    mp.dps = 40
    total = mpf(0)
    for a in range(1, (D + 1) // 2):
        chi = kronecker(D, a)
        if chi:
            total -= chi * log(sin(pi * a / D))
    fu = fundamental_unit(d)
    eps = (mpf(fu.X) + mpf(fu.Y) * sqrt(d)) / 2
    h = 2 * total / (2 * log(eps))  # each a < D/2 stands for a and D - a
    rounded = int(nint(h))
    assert abs(h - rounded) < mpf(10) ** -20, (D, h)
    return rounded


def test_ordinary_class_numbers_match_dirichlet():
    checked = 0
    for fs in squarefree_range(2, 1200):
        d = fs.value
        D = d if d % 4 == 1 else 4 * d
        h = analytic_class_number(D, d)
        assert h == class_group_summary(D).h_ordinary, (d, h)
        checked += 1
    assert checked > 700


def test_larger_discriminants_match_dirichlet():
    # a few spot checks outside the sweep range, including the worked field
    for d in (1365, 2730, 26961, 32045, 49999):
        D = d if d % 4 == 1 else 4 * d
        h = analytic_class_number(D, d)
        assert h == class_group_summary(D).h_ordinary, (d, h)
