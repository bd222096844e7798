import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import random_curve
from kummercover.cover import genus, ramification, validate
from kummercover.homology import (OracleDisagreement,
                                  RankInstability, _alexander_closed_form,
                                  _alexander_from_fox, alexander_matrix,
                                  chevalley_weil, homology_decomposition,
                                  multiplicity_closed_form,
                                  multiplicity_rank_oracle)

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _cyclic_mul(a, b):
    # Z[C_n] is the length-n integer array; its product is cyclic convolution.
    prod = np.zeros(len(a), dtype=np.int64)
    for k in range(len(a)):
        prod += a[k] * np.roll(b, k)
    return prod


def _sigma_power(n, k):
    e = np.zeros(n, dtype=np.int64)
    e[k % n] = 1
    return e


def test_group_ring_arithmetic():
    a = _sigma_power(4, 1)
    b = _sigma_power(4, 3)
    assert np.array_equal(_cyclic_mul(a, b), _sigma_power(4, 0))
    assert tuple(a + b) == (0, 1, 0, 1)
    # entry 1 of n * ifft is evaluation at the 4th root of unity i
    at_i = [4 * np.fft.ifft(x)[1] for x in (a, b, _cyclic_mul(a, b))]
    assert abs(at_i[2] - at_i[0] * at_i[1]) < 1e-12
    assert abs(at_i[0] - 1j) < 1e-12


def test_group_ring_evaluate_is_ring_hom():
    # n * ifft is a ring map to C^n, and entry nu is evaluation at
    # exp(2 pi i nu / n), the convention _rank_multiplicities relies on.
    rng = np.random.default_rng(6)
    for n in (1, 2, 4, 6, 13):
        for _ in range(20):
            a, b = rng.integers(-3, 4, size=(2, n))
            at_roots = n * np.fft.ifft(np.stack([a, b, _cyclic_mul(a, b), a + b]))
            assert np.allclose(at_roots[2], at_roots[0] * at_roots[1])
            assert np.allclose(at_roots[3], at_roots[0] + at_roots[1])
            z = np.exp(2j * np.pi * np.arange(n) / n)
            assert np.allclose(at_roots[0], [sum(a[k] * w ** k for k in range(n)) for w in z])


def test_norm_element_annihilated_by_sigma_d():
    # the diagonal entries of the relation matrix are the norm elements N_i
    p = validate(12, [10, 15, 20, 3])
    coeffs = alexander_matrix(p).coeffs
    for i in range(p.s):
        ni, di = coeffs[i, i], p.d[i]
        # sigma^{d_i} * N_i = N_i
        assert np.array_equal(np.roll(ni, di), ni)
        assert ni.sum() == p.n // math.gcd(p.n, di)


def test_alexander_matrix_shape_and_entries():
    p = validate(12, [10, 15, 20, 3])
    q = alexander_matrix(p)
    assert q.coeffs.shape == (p.s, p.s + 1, p.n)
    expected = np.zeros((p.s, p.s + 1, p.n), dtype=np.int64)
    for i, di in enumerate(p.d):
        e = p.n // math.gcd(p.n, di)
        expected[i, i] = np.bincount(np.arange(e) * di % p.n, minlength=p.n)
        expected[i, p.s, sum(p.d[:i]) % p.n] = 1
    assert np.array_equal(q.coeffs, expected)


def test_alexander_fox_agrees_random(rng):
    # alexander_matrix raises OracleDisagreement if the two builds differ
    for _ in range(20):
        alexander_matrix(random_curve(rng, s_max=5, n_max=10))


def test_rank_at_one_gives_m0_zero():
    p = validate(12, [10, 15, 20, 3])
    assert multiplicity_rank_oracle(p, 0) == 0


def test_worked_curve_multiplicities():
    p = validate(12, [10, 15, 20, 3])
    assert multiplicity_closed_form(p, 1) == 2
    assert multiplicity_closed_form(p, 6) == 0
    assert multiplicity_rank_oracle(p, 1) == 2
    assert multiplicity_rank_oracle(p, 6) == 0
    assert chevalley_weil(p, 1) + chevalley_weil(p, 11) == 2
    assert chevalley_weil(p, 6) + chevalley_weil(p, 6) == 0


def test_chevalley_weil_sums_to_genus(rng):
    for _ in range(40):
        p = random_curve(rng, n_max=15)
        assert sum(chevalley_weil(p, v) for v in range(p.n)) == genus(p)


def test_chevalley_weil_trivial_character():
    # the invariant differentials live on the quotient, a genus-0 curve
    for params in ((12, [10, 15, 20, 3]), (5, [1, 1, 1, 2]), (8, [1, 3, 5, 7])):
        p = validate(*params)
        assert chevalley_weil(p, 0) == 0


def test_decomposition_worked_curve():
    p = validate(12, [10, 15, 20, 3])
    dec = homology_decomposition(p)
    assert dec.genus == 7
    assert dec.multiplicities[0] == 0
    assert dec.multiplicities[1] == 2
    assert dec.multiplicities[6] == 0
    assert sum(dec.multiplicities) == 14
    assert sum(dec.cw_table) == 7


def test_decomposition_symmetry(rng):
    # M_v = M_{n-v}: complex conjugation pairs the characters
    for _ in range(20):
        p = random_curve(rng, n_max=12)
        dec = homology_decomposition(p)
        for v in range(1, p.n):
            assert dec.multiplicities[v] == dec.multiplicities[p.n - v]


def test_rank_oracle_tol_validation():
    p = validate(12, [10, 15, 20, 3])
    with pytest.raises(ValueError):
        multiplicity_rank_oracle(p, 1, tol=0.5)
    with pytest.raises(ValueError):
        multiplicity_rank_oracle(p, 1, tol=0.0)


def test_closed_form_count_guard():
    p = validate(12, [10, 15, 20, 3])
    # every nonzero v keeps at least two ramified indices for a valid curve
    for v in range(1, p.n):
        assert multiplicity_closed_form(p, v) >= 0


@st.composite
def curves(draw, n_max=600, d_max=10 ** 4):
    """Valid curves with n <= n_max, s in [3, 8] and exponents <= d_max, each
    exponent a multiple of a drawn divisor of n, so that gcds with n vary."""
    n = draw(st.integers(2, n_max))
    s = draw(st.integers(3, 8))
    divisors = [g for g in range(1, n) if n % g == 0]
    d = []
    for _ in range(s - 1):
        g = draw(st.sampled_from(divisors))
        d.append(g * draw(st.integers(1, d_max // g)))
    last = -sum(d) % n
    d.append(last + n * draw(st.integers(0, (d_max - last) // n)))
    assume(all(x % n for x in d) and math.gcd(math.gcd(*d), n) == 1)
    return validate(n, d)


def _reference_multiplicities(p):
    """Closed-form M_nu and the Chevalley-Weil table, with Fraction arithmetic."""
    big = [0] + [sum(1 for di in p.d if v * math.gcd(p.n, di) % p.n) - 2
                 for v in range(1, p.n)]
    cw = [int(sum((Fraction(-v * di % p.n, p.n) for di in p.d), Fraction(v == 0) - 1))
          for v in range(p.n)]
    return big, cw


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(curves())
def test_integer_oracle_property(p):
    assert np.array_equal(_alexander_closed_form(p).coeffs, _alexander_from_fox(p).coeffs)
    dec = homology_decomposition(p)
    big, cw = _reference_multiplicities(p)
    assert list(dec.multiplicities) == big
    assert list(dec.cw_table) == cw


def test_guard_band_names_the_unstable_nu(monkeypatch):
    # at nu = 1 the rank is 1, so the smallest singular value is zero; move it
    # to each edge of the guard band [0.1, 10] x tol * sigma_max
    p = validate(12, [10, 15, 20, 3])
    real_svd = np.linalg.svd
    placed = {}

    def crafted(a, compute_uv=True):
        sv = real_svd(a, compute_uv=compute_uv).copy()
        for nu, factor in placed.items():
            sv[nu, -1] = factor * 1e-8 * sv[nu, 0]
        return sv

    monkeypatch.setattr(np.linalg, "svd", crafted)
    placed.update({1: 0.09})
    assert homology_decomposition(p).multiplicities[1] == 2
    for factor in (0.1, 10.0):
        placed.update({1: factor, 7: factor})
        with pytest.raises(RankInstability, match=r"at nu=1$"):
            homology_decomposition(p)
        with pytest.raises(RankInstability, match=r"at nu=1$"):
            multiplicity_rank_oracle(p, 5)
    placed.update({1: 0.0, 7: 10.5})   # above the band: counted as rank
    with pytest.raises(OracleDisagreement, match=r"nu=7"):
        homology_decomposition(p)


def test_fox_corruption_detected_under_optimize():
    script = textwrap.dedent("""
        import sys
        from kummercover import homology
        from kummercover.cover import validate
        from kummercover.freegroup import FormalSum

        real = homology.fox_derivative
        done = []

        def corrupted(w, j):
            fs = real(w, j)
            if fs.terms and not done:
                done.append(True)
                (w0, c0), *rest = fs.terms
                fs = FormalSum(fs.rank, ((w0, c0 + 1), *rest))
            return fs

        homology.fox_derivative = corrupted
        try:
            homology.alexander_matrix(validate(12, [10, 15, 20, 3]))
        except homology.OracleDisagreement:
            print("detected", sys.flags.optimize, len(done))
    """)
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                         text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.split() == ["detected", "1", "1"], out.stderr
