import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import random_curve, random_word
from kummercover.cover import alpha, alpha_mod_n, validate
from kummercover.exactlin import smith_row
from kummercover.freegroup import Word
from kummercover.schreier import (TransversalError, kernel_generators_integral,
                                  kernel_generators_mod_n, transversal_reduce,
                                  y_basis)


def test_y_basis_alpha_values(rng):
    for _ in range(50):
        p = random_curve(rng)
        ys = y_basis(p)
        g = smith_row(p.d[:p.rank]).gcd
        assert alpha(p, ys[0]) == g
        assert all(alpha(p, y) == 0 for y in ys[1:])


def test_y_basis_generates(rng):
    # the y words form a basis: their exponent vectors are unimodular
    from kummercover.exactlin import IntMatrix
    for _ in range(30):
        p = random_curve(rng)
        ys = y_basis(p)
        cols = [y.exponent_vector() for y in ys]
        m = IntMatrix.from_rows([[cols[j][i] for j in range(p.rank)]
                                 for i in range(p.rank)])
        assert m.det() in (1, -1)


def test_mod_n_generator_count_and_kernel():
    p = validate(12, [10, 15, 20, 3])
    kg = kernel_generators_mod_n(p)
    assert len(kg.generators) == (p.s - 2) * p.n + 1 == 25
    assert all(alpha_mod_n(p, w) == 0 for w in kg.generators)


def test_mod_n_generators_random(rng):
    for _ in range(30):
        p = random_curve(rng)
        kg = kernel_generators_mod_n(p)
        assert len(kg.generators) == (p.s - 2) * p.n + 1
        assert all(alpha_mod_n(p, w) == 0 for w in kg.generators)


def test_integral_generators_window(rng):
    for _ in range(20):
        p = random_curve(rng)
        kg = kernel_generators_integral(p, window=2)
        assert kg.window == 2
        assert len(kg.generators) == 5 * (p.rank - 1)
        assert all(alpha(p, w) == 0 for w in kg.generators)
    with pytest.raises(ValueError):
        kernel_generators_integral(validate(3, [1, 1, 1]), window=-1)


def test_transversal_reduce(rng):
    for _ in range(40):
        p = random_curve(rng)
        if math.gcd(math.gcd(*p.d[:p.rank]), p.n) != 1:
            continue
        w = random_word(rng, p.rank, rng.randint(0, 8))
        v, k = transversal_reduce(p, w)
        assert 0 <= v < p.n
        assert alpha_mod_n(p, k) == 0
        ys = y_basis(p)
        # reassembling the coset representative recovers w's coset
        assert alpha_mod_n(p, k * ys[0] ** v) == alpha_mod_n(p, w)


def test_transversal_error_when_partial_gcd_shared():
    # a fully validated curve can never hit this (the shared factor would
    # propagate to the closing exponent), so build the params directly
    from kummercover.cover import CurveParams
    from kummercover.freegroup import Word
    p = CurveParams(n=4, d=(2, 2, 2, 3))
    with pytest.raises(TransversalError):
        kernel_generators_mod_n(p)
    with pytest.raises(TransversalError):
        transversal_reduce(p, Word.identity(p.rank))


@st.composite
def large_exponent_curves(draw, d_max=10 ** 5):
    """Valid curves with n <= 60, s in [3, 8] and exponents up to d_max whose
    partial gcd is a unit mod n (so that the transversal exists)."""
    n = draw(st.integers(2, 60))
    s = draw(st.integers(3, 8))
    d = [draw(st.integers(1, d_max)) for _ in range(s - 1)]
    last = -sum(d) % n
    d.append(last + n * draw(st.integers(1, 3)))
    assume(all(x % n for x in d) and math.gcd(math.gcd(*d[:-1]), n) == 1)
    return validate(n, d)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(large_exponent_curves(), st.lists(st.tuples(st.integers(1, 7),
                                                   st.integers(-3, 3)), max_size=8))
def test_large_exponent_property(p, sylls):
    snf = smith_row(p.d[:p.rank])
    ys = y_basis(p)
    assert alpha(p, ys[0]) == snf.gcd
    assert all(alpha(p, y) == 0 for y in ys[1:])
    assert [y.exponent_vector() for y in ys] == [snf.r_matrix.column(j)
                                                 for j in range(p.rank)]
    kg = kernel_generators_integral(p, window=1)
    assert len(kg.generators) == 3 * (p.rank - 1)
    assert all(alpha(p, w) == 0 for w in kg.generators)
    w = Word.make(p.rank, [((g - 1) % p.rank + 1, e) for g, e in sylls])
    v, k = transversal_reduce(p, w)
    assert 0 <= v < p.n
    assert alpha_mod_n(p, k) == 0
    assert k * ys[0] ** v == w


def test_incremental_conjugators_match_powers(rng):
    for _ in range(40):
        p = random_curve(rng)
        ys = y_basis(p)
        expected = [ys[0] ** v * ys[j] * ys[0] ** -v
                    for v in range(p.n) for j in range(1, p.rank)]
        expected.append(ys[0] ** p.n)
        assert list(kernel_generators_mod_n(p).generators) == expected
