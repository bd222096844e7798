import pytest

from conftest import random_curve, random_word
from kummercover.braid import (BraidIndexError, BraidWord, abelianized_braid,
                               braid_automorphism, counterexample_vector,
                               lifts_to_kernel)
from kummercover.cover import validate
from kummercover.exactlin import smith_row, unimodular_inverse
from kummercover.freegroup import Word


def test_braid_images():
    b = braid_automorphism(1, 3)
    x1, x2, x3 = (Word.generator(3, i) for i in (1, 2, 3))
    assert b.apply(x1) == x1 * x2 * x1.inverse()
    assert b.apply(x2) == x1
    assert b.apply(x3) == x3


def test_braid_abelianization_is_swap():
    for rank in (2, 3, 5):
        for i in range(1, rank):
            assert braid_automorphism(i, rank).matrix() == abelianized_braid(i, rank)


def test_braid_relations():
    # sigma_i sigma_{i+1} sigma_i = sigma_{i+1} sigma_i sigma_{i+1}
    for rank in range(3, 7):
        for i in range(1, rank - 1):
            a = braid_automorphism(i, rank)
            b = braid_automorphism(i + 1, rank)
            lhs = a.compose(b).compose(a)
            rhs = b.compose(a).compose(b)
            assert lhs.images == rhs.images
    # far-apart generators commute
    for rank in range(4, 7):
        for i in range(1, rank - 1):
            for j in range(i + 2, rank):
                a, b = braid_automorphism(i, rank), braid_automorphism(j, rank)
                assert a.compose(b).images == b.compose(a).images


def test_braid_word_composition(rng):
    bw = BraidWord(4, ((1, 1), (2, -1), (3, 1)))
    auto = bw.automorphism()
    manual = braid_automorphism(1, 4) \
        .compose(braid_automorphism(2, 4).inverse()) \
        .compose(braid_automorphism(3, 4))
    assert auto.images == manual.images
    w = random_word(rng, 4, 8)
    assert auto.inverse().apply(auto.apply(w)) == w


def test_braid_index_validation():
    with pytest.raises(BraidIndexError):
        braid_automorphism(3, 3)
    with pytest.raises(BraidIndexError):
        braid_automorphism(0, 3)
    with pytest.raises(BraidIndexError):
        BraidWord(3, ((1, 2),))


def test_all_ones_always_lifts():
    # equal exponents are symmetric under every swap
    for n, s in ((5, 5), (3, 6), (2, 4), (4, 8)):
        p = validate(n, [1] * s)  # needs n | s so the total degree closes up
        for i in range(1, p.rank):
            assert lifts_to_kernel(p, i, mode="mod_n")
            assert lifts_to_kernel(p, i, mode="integral")
            assert counterexample_vector(p, i, mode="mod_n") is None


def test_equal_adjacent_exponents_lift(rng):
    p = validate(10, [3, 3, 7, 7])
    assert lifts_to_kernel(p, 1, mode="mod_n")
    assert lifts_to_kernel(p, 1, mode="integral")


def test_worked_curve_braid_verdicts():
    p = validate(12, [10, 15, 20, 3])
    # d_1 != d_2 mod 12 and d_2 != d_3 mod 12: neither swap preserves the kernel
    assert not lifts_to_kernel(p, 1, mode="mod_n")
    assert not lifts_to_kernel(p, 2, mode="mod_n")
    v = counterexample_vector(p, 1, mode="mod_n")
    assert v is not None
    swapped = (v[1], v[0], v[2])
    assert sum(x * d for x, d in zip(v, p.d)) % p.n == 0
    assert sum(x * d for x, d in zip(swapped, p.d)) % p.n != 0


def test_literal_and_lattice_tests_agree(rng):
    # lifts_to_kernel raises RuntimeError if the two formulations disagree
    for _ in range(60):
        p = random_curve(rng)
        for i in range(1, p.rank):
            lifts_to_kernel(p, i, mode="mod_n")
            lifts_to_kernel(p, i, mode="integral")


def test_audit_returns_conjugated_matrix():
    p = validate(5, [1, 1, 1, 2])
    ok, conj = lifts_to_kernel(p, 1, mode="mod_n", audit=True)
    assert ok and conj.rows == p.rank == conj.cols


def test_verdict_without_audit_matches_audit(rng):
    for _ in range(80):
        p = random_curve(rng)
        r = smith_row(p.d[:p.rank]).r_matrix
        for i in range(1, p.rank):
            for mode in ("mod_n", "integral"):
                ok, conj = lifts_to_kernel(p, i, mode=mode, audit=True)
                assert lifts_to_kernel(p, i, mode=mode) == ok
                assert conj == unimodular_inverse(r) @ abelianized_braid(i, p.rank) @ r


def test_counterexample_matches_swap_matrix(rng):
    # the vector returned is the first basis vector whose swap image, taken
    # with the permutation matrix, leaves the kernel
    for _ in range(80):
        p = random_curve(rng)
        r = smith_row(p.d[:p.rank]).r_matrix
        for i in range(1, p.rank):
            swap = abelianized_braid(i, p.rank)
            for mode in ("mod_n", "integral"):
                expected = None
                for j in range(p.rank):
                    if j == 0 and mode == "integral":
                        continue
                    basis = [x * (p.n if j == 0 else 1) for x in r.column(j)]
                    total = sum(x * di for x, di in zip(swap.mul_vector(basis), p.d))
                    if (total != 0) if mode == "integral" else (total % p.n != 0):
                        expected = tuple(basis)
                        break
                assert counterexample_vector(p, i, mode) == expected


def test_equal_exponents_mod_n_always_lift(rng):
    # d_i = d_{i+1} mod n makes the swap literally fix alpha mod n
    for _ in range(60):
        p = random_curve(rng)
        for i in range(1, p.rank):
            if (p.d[i - 1] - p.d[i]) % p.n == 0:
                assert lifts_to_kernel(p, i, mode="mod_n")


def test_lift_without_equal_exponents():
    # kernel of v_1 + 5 v_2 mod 8 forces v_1 = 3 v_2, so the swap defect
    # (v_2 - v_1)(d_1 - d_2) = 8 v_2 vanishes although d_1 != d_2 mod 8
    p = validate(8, [1, 5, 2])
    assert lifts_to_kernel(p, 1, mode="mod_n")
