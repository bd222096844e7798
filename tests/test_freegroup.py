import random

import pytest

from conftest import random_word
from kummercover.exactlin import IntMatrix
from kummercover.freegroup import (FormalSum, FreeAutomorphism, Word,
                                   WordError, fox_derivative, lift_unimodular,
                                   parse_word)


def test_word_reduction():
    w = Word.make(3, [(1, 2), (1, -2), (2, 1), (3, 1), (3, -1), (2, 1)])
    assert w == Word.make(3, [(2, 2)])
    assert str(w) == "x2^2"


def test_word_rejects_unreduced_literal():
    with pytest.raises(WordError):
        Word(2, ((1, 1), (1, 1)))
    with pytest.raises(WordError):
        Word(2, ((1, 0),))
    with pytest.raises(WordError):
        Word(2, ((3, 1),))


def test_inverse_and_power(rng):
    for _ in range(100):
        w = random_word(rng, 3, rng.randint(0, 8))
        assert w * w.inverse() == Word.identity(3)
        assert w ** 3 == w * w * w
        assert w ** -2 == (w * w).inverse()


def test_exponent_vector_is_homomorphism(rng):
    for _ in range(100):
        u = random_word(rng, 4, rng.randint(0, 6))
        v = random_word(rng, 4, rng.randint(0, 6))
        uv = tuple(a + b for a, b in zip(u.exponent_vector(), v.exponent_vector()))
        assert (u * v).exponent_vector() == uv


def test_parse_word_roundtrip(rng):
    for _ in range(100):
        w = random_word(rng, 5, rng.randint(0, 10))
        assert parse_word(5, str(w)) == w
    assert parse_word(3, "1") == Word.identity(3)
    assert parse_word(3, "x1 x2^-3 x1") == Word.make(3, [(1, 1), (2, -3), (1, 1)])
    with pytest.raises(WordError):
        parse_word(3, "x1 + x2")


def test_fox_derivative_of_generators():
    x = Word.generator(2, 1)
    assert fox_derivative(x, 1) == FormalSum.of(Word.identity(2))
    assert fox_derivative(x, 2) == FormalSum.zero(2)
    # d(x^-1)/dx = -x^-1
    assert fox_derivative(x.inverse(), 1) == FormalSum.of(x.inverse(), -1)


def test_fox_derivative_power():
    x = Word.generator(1, 1)
    d = fox_derivative(x ** 3, 1)
    assert d == FormalSum.make(1, [(x ** 0, 1), (x ** 1, 1), (x ** 2, 1)])
    d = fox_derivative(x ** -2, 1)
    assert d == FormalSum.make(1, [(x ** -1, -1), (x ** -2, -1)])


def test_fox_product_rule(rng):
    for _ in range(100):
        u = random_word(rng, 3, rng.randint(0, 5))
        v = random_word(rng, 3, rng.randint(0, 5))
        for j in (1, 2, 3):
            lhs = fox_derivative(u * v, j)
            rhs = fox_derivative(u, j) + FormalSum.of(u) * fox_derivative(v, j)
            assert lhs == rhs


def test_fox_fundamental_identity(rng):
    # w - 1 = sum_j (dw/dx_j) (x_j - 1)
    for _ in range(200):
        rank = rng.randint(1, 4)
        w = random_word(rng, rank, rng.randint(0, 8))
        total = FormalSum.zero(rank)
        for j in range(1, rank + 1):
            xj = FormalSum.of(Word.generator(rank, j)) - FormalSum.of(Word.identity(rank))
            total = total + fox_derivative(w, j) * xj
        assert total == FormalSum.of(w) - FormalSum.of(Word.identity(rank))


def test_automorphism_requires_genuine_inverse():
    x1, x2 = Word.generator(2, 1), Word.generator(2, 2)
    with pytest.raises(WordError):
        FreeAutomorphism(2, (x1 * x2, x2), (x1, x2))


def test_compose_matches_matrix_product(rng):
    a = lift_unimodular(IntMatrix.from_rows([[1, 2], [0, 1]]))
    b = lift_unimodular(IntMatrix.from_rows([[1, 0], [3, 1]]))
    ab = a.compose(b)
    assert ab.matrix() == a.matrix() @ b.matrix()
    w = random_word(rng, 2, 6)
    assert ab.apply(w) == a.apply(b.apply(w))


def test_lift_unimodular_random(rng):
    ident = IntMatrix.identity(3)
    for _ in range(40):
        m = IntMatrix.identity(3)
        for _ in range(6):
            e = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
            i, j = rng.sample(range(3), 2)
            e[i][j] = rng.randint(-2, 2)
            m = m @ IntMatrix.from_rows(e)
        auto = lift_unimodular(m)
        assert auto.matrix() == m
        roundtrip = auto.compose(auto.inverse())
        assert roundtrip.matrix() == ident
        for k in range(3):
            g = Word.generator(3, k + 1)
            assert auto.inverse().apply(auto.apply(g)) == g


def test_lift_preserves_word_images(rng):
    m = IntMatrix.from_rows([[2, 1], [1, 1]])
    auto = lift_unimodular(m)
    for _ in range(50):
        w = random_word(rng, 2, rng.randint(0, 8))
        assert auto.apply(w).exponent_vector() == m.mul_vector(w.exponent_vector())


# images and inverse images of lift_unimodular, pinned so that the
# factorization behind them does not drift
LIFT_GOLDEN = [
    ([[2, 1], [1, 1]],
     ['x2^-1*x1*x2*x1*x2', 'x1*x2'],
     ['x2*x1*x2^-2', 'x2^2*x1^-1']),
    ([[1, 2], [0, 1]],
     ['x1', 'x2*x1^2'],
     ['x1', 'x2*x1^-2']),
    ([[1, 0], [3, 1]],
     ['x1*x2^3', 'x2'],
     ['x1*x2^-3', 'x2']),
    ([[0, 1], [-1, 0]],
     ['x2^-1', 'x1'],
     ['x2', 'x1^-1']),
    ([[-1, 3, -2], [1, -2, 0], [0, 0, 1]],
     ['x2*x1^-1', 'x2*x1*x2^-1*x1*x2^-1*x1*x2^-1', 'x3*x2^-1*x1^-1*x2*x1^-1'],
     ['x1^-1*x2*x1^3', 'x2*x1^3', 'x3*x1^-2*x2*x1^3*x2*x1^3']),
    ([[2, 3, 1], [1, 2, 1], [1, 1, 1]],
     ['x3^-1*x2^-1*x1*x3*x2*x1*x3*x2', 'x3^-2*x2^-1*x1*x3*x2*x1*x3*x2*x1*x3*x2', 'x1*x3*x2'],
     ['x3*x1*x3*x2^-1*x1*x3^-2*x2*x3^-1*x1^-1', 'x3^2*x1^-1*x2*x3^-1*x1^-1', 'x1*x3*x2^-1']),
]


@pytest.mark.parametrize("rows,images,inverse_images", LIFT_GOLDEN)
def test_lift_unimodular_golden(rows, images, inverse_images):
    auto = lift_unimodular(IntMatrix.from_rows(rows))
    assert [str(w) for w in auto.images] == images
    assert [str(w) for w in auto.inverse_images] == inverse_images
