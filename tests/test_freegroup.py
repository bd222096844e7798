import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import carried_end_examples, random_word, word_families
from kummercover import freegroup
from kummercover.exactlin import IntMatrix
from kummercover.freegroup import (FormalSum, FreeAutomorphism, Word,
                                   WordError, _family_text, fox_derivative,
                                   lift_unimodular, parse_word)


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda r: st.tuples(
    st.just(r), st.lists(st.tuples(st.integers(1, r), st.integers(-3, 3)), max_size=8))),
    st.integers(-6, 6))
@example((2, [(1, 2), (2, -1)]), -3)           # first and last generators differ
@example((2, [(1, 2), (2, -1), (1, -2)]), 4)   # a conjugate: powers cancel inside
@example((2, [(1, 2), (2, -1), (1, 1)]), 3)    # ends merge into x1^3
@example((1, [(1, -4)]), -2)
@example((3, []), 5)
def test_power_is_repeated_product(case, k):
    rank, sylls = case
    w = Word.make(rank, sylls)
    expected = Word.identity(rank)
    for _ in range(abs(k)):
        expected = expected * (w if k > 0 else w.inverse())
    got = w ** k
    assert got == expected
    # the result is reduced: the validating constructor accepts it
    assert Word(rank, got.syllables) == got


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


def _fox_by_prefix_products(w, j):
    """Fox derivative that rebuilds every term as prefix * x_j^k by word
    products, reducing each one."""
    rank = w.rank
    prefix = Word.identity(rank)
    items = []
    for g, e in w.syllables:
        if g == j:
            if e > 0:
                for k in range(e):
                    items.append((prefix * Word.generator(rank, g, k), 1))
            else:
                for k in range(1, -e + 1):
                    items.append((prefix * Word.generator(rank, g, -k), -1))
        prefix = prefix * Word.generator(rank, g, e)
    return FormalSum.make(rank, items)


@st.composite
def words_and_index(draw, max_exp=6):
    rank = draw(st.integers(1, 4))
    sylls = draw(st.lists(st.tuples(st.integers(1, rank), st.integers(-max_exp, max_exp)),
                          max_size=12))
    return Word.make(rank, sylls), draw(st.integers(1, rank))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(words_and_index())
@example((Word.identity(1), 1))
@example((Word.make(1, [(1, -5)]), 1))
@example((Word.make(3, [(1, 2), (3, -1), (1, 1)]), 2))
def test_fox_derivative_matches_prefix_products(case):
    w, j = case
    fox = fox_derivative(w, j)
    assert fox == _fox_by_prefix_products(w, j)
    for term, _ in fox.terms:
        # every term is a reduced word: the validating constructor accepts it
        assert Word(term.rank, term.syllables) == term


def _text_reference(w):
    if not w.syllables:
        return "1"
    return "*".join(f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in w.syllables)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(words_and_index(max_exp=3 * freegroup._TEXT_EXP))
@example((Word.make(2, [(1, freegroup._TEXT_EXP + 1), (2, -freegroup._TEXT_EXP - 1)]), 1))
def test_word_text_matches_format(case):
    w, _ = case
    assert str(w) == _text_reference(w)
    assert str(w) == _text_reference(w)   # second read may come from the table
    assert all(abs(e) <= freegroup._TEXT_EXP for _, e in freegroup._syllable_text)
    assert len(freegroup._syllable_text) <= freegroup._TEXT_MAX


def test_word_text_with_full_table(monkeypatch):
    monkeypatch.setattr(freegroup, "_syllable_text", {})
    monkeypatch.setattr(freegroup, "_TEXT_MAX", 3)
    w = Word.make(3, [(1, 1), (2, -1), (3, 2), (1, -7), (2, 500), (3, 1), (1, 1)])
    for _ in range(2):
        assert str(w) == _text_reference(w)
    assert list(freegroup._syllable_text) == [(1, 1), (2, -1), (3, 2)]


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(word_families())
@carried_end_examples
def test_family_text_matches_str(family):
    _, words = family
    assert _family_text(words) == [str(w) for w in words]
