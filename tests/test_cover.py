import math

import pytest

from conftest import random_curve, random_word
from kummercover.cover import (CurveValidationError, DegreeViolation,
                               RamificationViolation, ReducibleCurve, alpha,
                               alpha_mod_n, branch_count, genus, open_rank,
                               ramification, validate)
from kummercover.freegroup import Word


def test_validate_accepts_worked_curve():
    p = validate(12, [10, 15, 20, 3])
    assert p.s == 4 and p.rank == 3


def test_validate_rejections():
    with pytest.raises(RamificationViolation):
        validate(12, [24, 15, 20, 1])
    with pytest.raises(DegreeViolation):
        validate(12, [10, 15, 20, 20])
    with pytest.raises(ReducibleCurve):
        validate(4, [2, 2, 2, 2])  # gcd 2 shares a factor with n=4
    with pytest.raises(CurveValidationError):
        validate(1, [1, 1, 1])
    with pytest.raises(CurveValidationError):
        validate(5, [1, 4])
    with pytest.raises(CurveValidationError):
        validate(5, [1, -1, 5])


def test_validate_rejects_non_integers():
    for d in ([10.9, 15, 20, 3.2], [10.0, 15, 20, 3], ["10", 15, 20, 3]):
        with pytest.raises(CurveValidationError, match="d_1"):
            validate(12, d)
    with pytest.raises(CurveValidationError, match="n = 12.0"):
        validate(12.0, [10, 15, 20, 3])


def test_validate_accepts_numpy_integers():
    import numpy as np
    p = validate(np.int64(12), np.array([10, 15, 20, 3]))
    assert p == validate(12, [10, 15, 20, 3])
    assert type(p.n) is int and all(type(x) is int for x in p.d)


def test_ramification_worked_curve():
    p = validate(12, [10, 15, 20, 3])
    pts = ramification(p)
    assert [b.gcd for b in pts] == [2, 3, 4, 3]
    assert [b.e for b in pts] == [6, 4, 3, 4]
    for b in pts:
        assert 1 <= b.ell <= b.e
        assert (b.ell * (b.d // b.gcd)) % b.e == 1 % b.e


def test_ramification_random(rng):
    for _ in range(100):
        p = random_curve(rng)
        for b in ramification(p):
            assert b.e * b.gcd == p.n
            assert math.gcd(p.n, b.d) == b.gcd


def test_genus_and_counts_worked_curve():
    p = validate(12, [10, 15, 20, 3])
    assert genus(p) == 7
    assert branch_count(p) == 12
    assert open_rank(p) == 25


def test_open_rank_consistency_random(rng):
    for _ in range(200):
        p = random_curve(rng)
        assert open_rank(p) == (p.s - 2) * p.n + 1
        assert open_rank(p) == 2 * genus(p) + branch_count(p) - 1


def test_genus_small_cases():
    # hyperelliptic: y^2 = (x-b1)(x-b2)(x-b3)(x-b4) has genus 1
    assert genus(validate(2, [1, 1, 1, 1])) == 1
    # y^2 with 3 finite branch points and one at infinity absorbed: genus 1
    assert genus(validate(2, [1, 1, 1, 3])) == 1
    assert genus(validate(3, [1, 1, 1])) == 1


def test_alpha_is_homomorphism(rng):
    for _ in range(100):
        p = random_curve(rng)
        u = random_word(rng, p.rank, rng.randint(0, 6))
        v = random_word(rng, p.rank, rng.randint(0, 6))
        assert alpha(p, u * v) == alpha(p, u) + alpha(p, v)
        assert alpha_mod_n(p, u) == alpha(p, u) % p.n


def test_alpha_on_generators():
    p = validate(12, [10, 15, 20, 3])
    for i in range(1, p.rank + 1):
        assert alpha(p, Word.generator(p.rank, i)) == p.d[i - 1]

