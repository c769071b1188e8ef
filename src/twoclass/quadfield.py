"""Real quadratic fields Q(sqrt(d)): discriminants and fundamental units by
continued fractions.

Units are computed from the periodic continued fraction of sqrt(d), or of
(1 + sqrt(d))/2 when d = 1 (mod 4), over exact integers.  Half the period
decides the unit: the period of the reduced tail is a palindrome followed by
2*a0 (2*a0 - 1 for (1 + sqrt(d))/2), and its centre is the first step where
P or Q of the (P, Q) recurrence repeats (Jacobson and Williams, Solving the
Pell Equation, Springer 2009, ch. 3).  The partial quotients before the
centre are multiplied by a streamed product tree, so that each large product
has operands of equal size and the memory stays linear in the unit.  A unit
is held as the integers X and Y of (X + Y*sqrt(d))/2, which is all the first
layer K1 reads: biquad decides its unit squares from X in rational integers
(Kubota, Nagoya Math. J. 10, 1956).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import FactoredSquarefree, as_factored


def discriminant(d) -> int:
    """d when d = 1 (mod 4), else 4d."""
    d = int(as_factored(d))
    return d if d % 4 == 1 else 4 * d


def real_radicand(d) -> FactoredSquarefree:
    """The factored d of Q(sqrt(d)), an int or a FactoredSquarefree, which
    must be square-free d >= 2."""
    fs = as_factored(d)
    if fs.value < 2:
        raise ValueError("real quadratic field needs square-free d >= 2")
    return fs


class FundamentalUnit(NamedTuple):
    """The fundamental unit (X + Y*sqrt(d))/2 > 1, with its norm and CF
    period length."""

    X: int
    Y: int
    norm: int
    cf_period: int


_RUN = 32  # partial quotients folded into one small matrix


def _mat_mul(m, n):
    """The product of the 2 x 2 matrices m and n, each held as a row-major
    4-tuple."""
    m11, m12, m21, m22 = m
    n11, n12, n21, n22 = n
    return (
        m11 * n11 + m12 * n21,
        m11 * n12 + m12 * n22,
        m21 * n11 + m22 * n21,
        m21 * n12 + m22 * n22,
    )


def _push(stack: list, m) -> None:
    """Push the matrix m of one run onto a product tree streamed as a binary
    counter: while the top entry covers as many runs as m, the two merge, so
    the stack holds O(log) products of falling size, and each product is of
    two operands of equal size."""
    runs = 1
    while stack and stack[-1][0] == runs:
        m = _mat_mul(stack.pop()[1], m)
        runs *= 2
    stack.append((runs, m))


def _cf_unit(d: int) -> tuple[int, int, int]:
    """(X, Y, period) with the fundamental unit (X + Y*sqrt(d))/2.

    Expands xi0 = (1 + sqrt(d))/2 for d = 1 (mod 4), else sqrt(d), via the
    integer recurrence xi_k = (P_k + sqrt(d))/Q_k.  The tail xi1 is reduced,
    hence purely periodic, with period a_1, ..., a_l where a_1 .. a_(l-1) is
    a palindrome and a_l = 2*a0 (2*a0 - 1 for (1 + sqrt(d))/2).  So the walk
    stops at the centre: the first k with P_(k+1) = P_k (l = 2k) or
    Q_(k+1) = Q_k (l = 2k + 1; Q_1 = Q_0 is l = 1).  With N the product of
    the partial-quotient matrices A(a) = [[a, 1], [1, 0]] before the centre,
    the period matrix is N*A(a_k)*N^T or N*N^T, times A(a_l); its bottom
    row (C, D) gives the unit C*xi1 + D of norm (-1)**l (Jacobson and
    Williams, Solving the Pell Equation, Springer 2009, ch. 3).

    N is a streamed product tree: each run of _RUN quotients is folded into
    a matrix of small entries and pushed onto a binary counter (_push), and
    the stack is multiplied out at the centre.  Every large product is then
    of operands of equal size, where one growing product times each small
    quotient in turn costs time quadratic in the size of the unit; the
    stack, like the unit, takes O(size of the unit) memory.
    """
    s = math.isqrt(d)
    if d % 4 == 1:
        P0, Q0 = 1, 2
    else:
        P0, Q0 = 0, 1
    a0 = (P0 + s) // Q0
    P1 = a0 * Q0 - P0
    Q1 = (d - P1 * P1) // Q0
    # [[m11, m12], [m21, m22]] is the product of the current run, and
    # centre the quotient a_k at the centre when the period is even
    stack: list = []
    m11, m12, m21, m22 = 1, 0, 0, 1
    centre, period = None, 1  # Q1 = Q0: period a_l alone
    P, Q = P1, Q1
    k = 0
    while Q1 != Q0:
        k += 1
        a = (P + s) // Q
        P_next = a * Q - P
        if P_next == P:
            centre, period = a, 2 * k
            break
        m11, m12, m21, m22 = m11 * a + m12, m11, m21 * a + m22, m21
        if k % _RUN == 0:
            _push(stack, (m11, m12, m21, m22))
            m11, m12, m21, m22 = 1, 0, 0, 1
        Q_next = (d - P_next * P_next) // Q
        if Q_next == Q:
            period = 2 * k + 1
            break
        P, Q = P_next, Q_next
    # N, the product of the stack from its top (latest, smallest) down, and
    # (s21, s22) the bottom row of the symmetric N*A(a_k)*N^T or N*N^T;
    # N = 1 and (0, 1) for period 1
    n = m11, m12, m21, m22
    while stack:
        n = _mat_mul(stack.pop()[1], n)
    n11, n12, n21, n22 = n
    if centre is None:
        s21 = n21 * n11 + n22 * n12
        s22 = n21 * n21 + n22 * n22
    else:
        s21 = centre * n21 * n11 + n21 * n12 + n22 * n11
        s22 = centre * n21 * n21 + 2 * n21 * n22
    last = 2 * a0 - 1 if Q0 == 2 else 2 * a0
    C, D = s21 * last + s22, s21
    # unit = C*xi1 + D with xi1 = (P1 + sqrt(d))/Q1; its coordinates
    # (C*P1 + D*Q1)/Q1 and C/Q1 lie in Z/2, so both divisions are exact
    X, Y = 2 * (C * P1 + D * Q1) // Q1, 2 * C // Q1
    assert X * X - d * Y * Y == 4 * (-1) ** period, (d, period)
    return X, Y, period


def fundamental_unit(d) -> FundamentalUnit:
    """Fundamental unit > 1 of Q(sqrt(d)), from the CF expansion."""
    X, Y, period = _cf_unit(real_radicand(d).value)
    return FundamentalUnit(X, Y, -1 if period % 2 else 1, period)


def unit_norm(d) -> int:
    """Norm of the fundamental unit, (-1)**(CF period length)."""
    return fundamental_unit(d).norm
