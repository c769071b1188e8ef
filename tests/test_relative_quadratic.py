"""Properties of the relative-quadratic kernel over both of its base fields:
Q for Q(sqrt d), and Q(sqrt 2) for K1 = Q(sqrt 2, sqrt d)."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twoclass.arith import as_factored

from k1_reference import (
    BiquadNumber,
    relative_mul,
    relative_sign,
    relative_sqrt,
    sqrt_in_K1,
    sqrt_rational,
)

QUAD_D = (2, 3, 5, 7, 13, 15)
K1_D = (5, 13, 21, 1365)
EMBEDDINGS = [(f2, fd) for f2 in (False, True) for fd in (False, True)]

kernel = settings(derandomize=True, max_examples=60, deadline=None)


rationals = st.builds(Fraction, st.integers(-60, 60), st.sampled_from((1, 2, 4)))


def sign(q):
    return (q > 0) - (q < 0)


@st.composite
def k1_elements(draw, denominators):
    """An element of K1 whose coordinates share one denominator."""
    q = draw(st.sampled_from(denominators))
    coords = draw(st.tuples(*[st.integers(-40, 40)] * 4))
    return q, tuple(Fraction(c, q) for c in coords)


@kernel
@given(st.sampled_from(QUAD_D), rationals, rationals)
def test_quadratic_sign_is_multiplicative_on_the_norm(d, a, b):
    norm = a * a - d * b * b
    assert relative_sign((a, b), d, sign) * relative_sign((a, -b), d, sign) == sign(norm)


@kernel
@given(st.sampled_from(QUAD_D), rationals, rationals, rationals, rationals)
def test_quadratic_sign_of_product(d, a, b, c, e):
    p = relative_mul((a, b), (c, e), d)
    assert relative_sign(p, d, sign) == (
        relative_sign((a, b), d, sign) * relative_sign((c, e), d, sign)
    )


@kernel
@given(st.sampled_from(QUAD_D), rationals, rationals)
def test_quadratic_sqrt_of_a_square(d, a, b):
    x = relative_mul((a, b), (a, b), d)
    root = relative_sqrt(x, d, sqrt_rational)
    assert root is not None
    assert relative_mul(root, root, d) == x


@kernel
@given(st.sampled_from(K1_D), k1_elements((1, 2)))
def test_k1_sign_times_conjugate_sign_is_norm_sign(d, x):
    K = as_factored(d)
    _, (x0, x1, x2, x3) = x
    y = BiquadNumber((x0, x1, x2, x3), K)
    conj = BiquadNumber((x0, x1, -x2, -x3), K)
    norm = y * conj
    assert norm.coordinates[2:] == (0, 0)
    for f2, fd in EMBEDDINGS:
        assert y.embedding_sign(f2, fd) * conj.embedding_sign(f2, fd) == (
            norm.embedding_sign(f2, fd)
        )


@kernel
@given(st.sampled_from(K1_D), k1_elements((1, 2, 4)), k1_elements((1, 2, 4)))
def test_k1_sign_of_product_in_every_embedding(d, x, y):
    (qx, cx), (qy, cy) = x, y
    assume(4 % (qx * qy) == 0)  # keeps the product's denominators dividing 4
    K = as_factored(d)
    u, v = BiquadNumber(cx, K), BiquadNumber(cy, K)
    uv = u * v
    for f2, fd in EMBEDDINGS:
        assert uv.embedding_sign(f2, fd) == (
            u.embedding_sign(f2, fd) * v.embedding_sign(f2, fd)
        )


@kernel
@given(st.sampled_from(K1_D), k1_elements((1, 2)))
def test_k1_sqrt_of_a_square(d, y):
    K = as_factored(d)
    u = BiquadNumber(y[1], K)
    x = u * u
    root = sqrt_in_K1(x)
    assert root is not None
    assert (root * root).coordinates == x.coordinates
