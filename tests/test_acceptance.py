"""End-to-end acceptance suite: one test per release criterion.

Each test prints a single PASS line on success so the run log doubles as a
checklist; any failure shows up as a normal pytest failure.
"""

import json
import math
import random
import time
import tracemalloc

import numpy as np

from conftest import random_curve, random_word
from kummercover.braid import braid_automorphism, lifts_to_kernel
from kummercover.cli import run
from kummercover.cover import alpha_mod_n, branch_count, genus, open_rank, validate
from kummercover.exactlin import IntMatrix, smith_row, structured_smith
from kummercover.folding import (coset_graph, graph_from_words,
                                 membership_graph, phi_substitute, powers_graph,
                                 product_graph, pullback_check, rank,
                                 winding_cycle_graph, winding_kernel_generators)
from kummercover.freegroup import FormalSum, Word, fox_derivative
from kummercover.homology import (_alexander_closed_form, _alexander_from_fox,
                                  chevalley_weil, homology_decomposition,
                                  multiplicity_closed_form,
                                  multiplicity_rank_oracle)
from kummercover.schreier import kernel_generators_mod_n, y_basis


def test_criterion_1_snf_examples():
    t0 = time.perf_counter()
    snf = smith_row([10, 15, 20])
    assert snf.gcd == 5
    assert (IntMatrix.from_rows([[10, 15, 20]]) @ snf.r_matrix).entries == ((5, 0, 0),)
    _, det1, ok1 = structured_smith([10, 15, 20], 5)
    _, det2, ok2 = structured_smith([12, 9, 15], 3)
    assert abs(det1) == 1 and ok1
    assert abs(det2) == 4 and not ok2
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.05
    print(f"\nPASS criterion 1: SNF examples (gcd 5, dets 1 and 4) in {elapsed * 1e3:.2f} ms")


def test_criterion_2_kernel_graph_rank_law():
    rng = random.Random(2)
    t0 = time.perf_counter()
    for _ in range(100):
        p = random_curve(rng, s_max=6, n_max=12)
        kg = kernel_generators_mod_n(p)
        g = graph_from_words(p.rank, list(kg.generators))
        assert rank(g) == (p.s - 2) * p.n + 1
        assert g == coset_graph(p)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 2: rank (s-2)n+1 and the Schreier coset graph on "
          f"100 random curves in {elapsed:.2f} s")


def test_criterion_3_named_graph_regression():
    for n in range(2, 9):
        for s in range(3, 7):
            r = s - 1
            folded = graph_from_words(r, list(winding_kernel_generators(n, r)))
            assert folded == winding_cycle_graph(n, r)
    rng = random.Random(3)
    for _ in range(30):
        d = [rng.randint(1, 8) for _ in range(rng.randint(1, 4))]
        g = powers_graph(d)
        assert g.num_vertices == 1 + sum(x - 1 for x in d)
        assert len(g.edges) == sum(d)
    print("\nPASS criterion 3: cycle-graph isomorphism (n<=8, s<=6) and power-graph counts")


def test_criterion_4_intersection_semantics():
    rng = random.Random(4)
    # product membership = conjunction of memberships
    checked = 0
    while checked < 1000:
        ws1 = [random_word(rng, 2, rng.randint(1, 5)) for _ in range(3)]
        ws2 = [random_word(rng, 2, rng.randint(1, 5)) for _ in range(3)]
        ws1, ws2 = [x for x in ws1 if x], [x for x in ws2 if x]
        if not ws1 or not ws2:
            continue
        g1, g2 = graph_from_words(2, ws1), graph_from_words(2, ws2)
        prod = product_graph(g1, g2)
        for _ in range(50):
            t = random_word(rng, 2, rng.randint(0, 8))
            both = membership_graph(g1, t) and membership_graph(g2, t)
            assert membership_graph(prod, t) == both
            checked += 1
    # pullback against the winding oracle
    for _ in range(20):
        p = random_curve(rng, s_max=5, n_max=10)
        for _ in range(1000):
            t = random_word(rng, p.rank, rng.randint(0, 6))
            assert pullback_check(p, t)
    print("\nPASS criterion 4: product membership conjunction (1000 words) "
          "and pullback agreement (20 curves x 1000 words)")


def test_criterion_5_homology_triple_agreement():
    rng = random.Random(5)
    t0 = time.perf_counter()
    for _ in range(200):
        p = random_curve(rng, s_max=6, n_max=24)
        # homology_decomposition re-verifies: closed form = rank oracle =
        # Hodge sum, M_0 = 0 and sum M = 2g, raising on any mismatch
        dec = homology_decomposition(p, tol=1e-8)
        assert dec.multiplicities[0] == 0
        assert sum(dec.multiplicities) == 2 * genus(p)
        for v in range(p.n):
            assert dec.multiplicities[v] == multiplicity_closed_form(p, v)
            assert dec.multiplicities[v] == chevalley_weil(p, v) + chevalley_weil(p, (p.n - v) % p.n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 5: triple agreement on 200 random curves in {elapsed:.2f} s")


def test_criterion_6_worked_curve():
    p = validate(12, [10, 15, 20, 3])
    assert genus(p) == 7
    assert branch_count(p) == 12
    assert open_rank(p) == 25
    assert multiplicity_closed_form(p, 1) == 2
    assert multiplicity_closed_form(p, 6) == 0
    assert multiplicity_rank_oracle(p, 1) == 2
    assert multiplicity_rank_oracle(p, 6) == 0
    dec = homology_decomposition(p)
    assert sum(dec.multiplicities) == 14
    print("\nPASS criterion 6: worked curve n=12 d=(10,15,20,3): "
          "g=7, r=12, open rank 25, M_1=2, M_6=0, sum M=14")


def test_criterion_7_braid():
    for n, s in ((5, 5), (3, 6), (2, 4), (4, 8), (7, 7)):
        p = validate(n, [1] * s)
        for i in range(1, p.rank):
            assert lifts_to_kernel(p, i, mode="mod_n")
            assert lifts_to_kernel(p, i, mode="integral")
    rng = random.Random(7)
    for _ in range(100):
        p = random_curve(rng)
        for i in range(1, p.rank):
            # raises RuntimeError if the literal and lattice tests disagree
            lifts_to_kernel(p, i, mode="mod_n")
            lifts_to_kernel(p, i, mode="integral")
    for r in range(3, 7):
        for i in range(1, r - 1):
            a, b = braid_automorphism(i, r), braid_automorphism(i + 1, r)
            assert a.compose(b).compose(a).images == b.compose(a).compose(b).images
        for i in range(1, r - 1):
            for j in range(i + 2, r):
                a, b = braid_automorphism(i, r), braid_automorphism(j, r)
                assert a.compose(b).images == b.compose(a).images
    print("\nPASS criterion 7: all-ones liftability, literal/lattice agreement "
          "(100 curves), braid relations (rank <= 6)")


def test_criterion_8_fox_identity_and_alexander():
    rng = random.Random(8)
    for _ in range(500):
        r = rng.randint(1, 4)
        w = random_word(rng, r, rng.randint(0, 8))
        total = FormalSum.zero(r)
        for j in range(1, r + 1):
            xj = FormalSum.of(Word.generator(r, j)) - FormalSum.of(Word.identity(r))
            total = total + fox_derivative(w, j) * xj
        assert total == FormalSum.of(w) - FormalSum.of(Word.identity(r))
    for _ in range(50):
        p = random_curve(rng, s_max=6, n_max=14)
        assert np.array_equal(_alexander_closed_form(p).coeffs, _alexander_from_fox(p).coeffs)
    print("\nPASS criterion 8: Fox fundamental identity (500 words) and "
          "Alexander matrix agreement (50 curves)")


def test_criterion_9_homology_large_n():
    # every exponent a unit mod n: the norm elements and Fox relators are longest
    p = validate(2000, [1, 3, 7, 9, 11, 13, 17, 1939])
    t0 = time.perf_counter()
    dec = homology_decomposition(p)
    elapsed = time.perf_counter() - t0
    assert dec.multiplicities == (0,) + (p.s - 2,) * (p.n - 1)
    assert sum(dec.cw_table) == genus(p)
    assert elapsed < 2.0
    print(f"\nPASS criterion 9: homology decomposition at n=2000, s=8 in {elapsed:.2f} s")


def test_criterion_10_y_basis_large_exponents():
    # s = 8 and d_i drawn from [D/2, D] with D = 10^4; the worst of 10 curves
    rng = random.Random(10)
    worst = 0.0
    for _ in range(10):
        while True:
            n = rng.randint(2, 60)
            d = [rng.randint(5000, 10 ** 4) for _ in range(7)]
            d.append(-sum(d) % n + n * rng.randint(1, 3))
            if all(x % n for x in d) and math.gcd(math.gcd(*d[:-1]), n) == 1:
                break
        p = validate(n, d)
        t0 = time.perf_counter()
        ys = y_basis(p)
        worst = max(worst, time.perf_counter() - t0)
        assert len(ys) == p.rank
    assert worst < 0.1
    print(f"\nPASS criterion 10: y_basis at D=10^4, s=8, worst of 10 curves in "
          f"{worst * 1e3:.2f} ms")


def test_criterion_11_report_large_n(capsys):
    # d = (7, 11, 13, .): 5.5 * 10^6 kernel-generator letters to check, fold
    # and print
    n = 960
    d = [7, 11, 13, -31 % n + n]
    t0 = time.perf_counter()
    code = run(["report", "-n", str(n), "-d", ",".join(map(str, d))])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    assert rep["kernel_graph_rank"] == rep["open_rank"] == 2 * n + 1
    assert elapsed < 0.6
    with capsys.disabled():
        print(f"\nPASS criterion 11: report at n=960, d=(7,11,13,1889) in {elapsed:.2f} s")


def test_criterion_12_membership_reads_large_exponents():
    # the n=16 curve of the benchmark's d ~ 10^3 rung: a 27 456-edge graph,
    # which keeps its edges packed at 12 bytes each until its index is built
    p = validate(16, [881, 835, 252])
    d = p.d[:p.rank]
    tracemalloc.start()
    try:
        prod = product_graph(winding_cycle_graph(p.n, p.rank), powers_graph(d))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(prod.edges) == 27456
    assert kept <= 0.6 * 2 ** 20
    rng = random.Random(12)
    words = []
    for _ in range(10 ** 4):
        first = rng.randint(1, 2)
        words.append(Word.make(p.rank, [(1 + (first + k) % 2,
                                         rng.choice((-1, 1)) * rng.randint(1, 2))
                                        for k in range(10)]))
    assert all(len(x.syllables) == 10 for x in words)
    expected = [alpha_mod_n(p, x) == 0 for x in words]
    t0 = time.perf_counter()
    got = [membership_graph(prod, phi_substitute(x, d)) for x in words]
    elapsed = time.perf_counter() - t0
    assert got == expected
    assert 0 < sum(got) < len(got)
    assert elapsed < 0.5
    # 881 * 10^9 letters in one syllable: walking them one by one cannot finish
    big = [Word.make(p.rank, sylls) for sylls in
           ([(1, 10 ** 9)], [(1, 10 ** 9 + 1)], [(2, -10 ** 9), (1, 3), (2, 5)],
            [(1, 10 ** 9), (2, 16 * 10 ** 9 + 1)])]
    verdicts = [membership_graph(prod, phi_substitute(x, d)) for x in big]
    assert verdicts == [alpha_mod_n(p, x) == 0 for x in big]
    assert verdicts[:2] == [True, False]
    print(f"\nPASS criterion 12: the n=16, d=(881,835,252) graph keeps "
          f"{kept / 2 ** 20:.2f} MiB; 10^4 membership reads of 10-syllable words "
          f"in {elapsed:.3f} s; a 10^9 syllable read exactly")
