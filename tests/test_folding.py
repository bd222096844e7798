import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_curve, random_word
from kummercover.cover import alpha_mod_n, validate
from kummercover.folding import (GraphError, StallingsGraph, coset_graph,
                                 export_dot, fold, free_basis, full_bouquet,
                                 graph_from_words, membership_graph,
                                 phi_substitute, powers_graph, product_graph,
                                 pullback_check, rank, winding_cycle_graph,
                                 winding_kernel_generators)
from kummercover.freegroup import Word, parse_word


def w(rank, text):
    return parse_word(rank, text)


def test_single_loop_graph():
    g = graph_from_words(1, [w(1, "x1^2")])
    assert g.num_vertices == 2 and len(g.edges) == 2
    assert membership_graph(g, w(1, "x1^2"))
    assert membership_graph(g, w(1, "x1^4"))
    assert not membership_graph(g, w(1, "x1"))
    assert membership_graph(g, Word.identity(1))
    assert rank(g) == 1


def test_fold_idempotent(rng):
    for _ in range(50):
        words = [random_word(rng, 3, rng.randint(1, 6)) for _ in range(4)]
        words = [x for x in words if x]
        if not words:
            continue
        g = graph_from_words(3, words)
        assert fold(g) == g


def test_folding_confluence_under_word_order(rng):
    # canonical form must not depend on the order generators are glued in
    for _ in range(20):
        words = [random_word(rng, 3, rng.randint(1, 6)) for _ in range(5)]
        words = [x for x in words if x]
        if not words:
            continue
        base = graph_from_words(3, words)
        for _ in range(5):
            shuffled = words[:]
            rng.shuffle(shuffled)
            assert graph_from_words(3, shuffled) == base


def test_membership_matches_generators(rng):
    for _ in range(30):
        words = [random_word(rng, 3, rng.randint(1, 6)) for _ in range(4)]
        words = [x for x in words if x]
        g = graph_from_words(3, words) if words else full_bouquet(3)
        for x in words:
            assert membership_graph(g, x)
            assert membership_graph(g, x.inverse())
        if len(words) >= 2:
            assert membership_graph(g, words[0] * words[1])


def test_rank_of_bouquet():
    g = full_bouquet(4)
    assert rank(g) == 4
    assert free_basis(g) == tuple(Word.generator(4, i) for i in range(1, 5))


def test_winding_cycle_graph_structure():
    g = winding_cycle_graph(4, 3)
    assert g.num_vertices == 4
    assert len(g.edges) == 12
    assert rank(g) == 9  # = (s-2)n+1 with s = 4, n = 4
    assert membership_graph(g, w(3, "x1^4"))
    assert membership_graph(g, w(3, "x1 x2 x3 x1^-3"))
    assert not membership_graph(g, w(3, "x1"))


def test_winding_generators_fold_to_cycle():
    for n in (2, 3, 5, 8):
        for rank_ in (2, 3, 5):
            gens = winding_kernel_generators(n, rank_)
            assert graph_from_words(rank_, list(gens)) == winding_cycle_graph(n, rank_)


def test_coset_graph_structure():
    p = validate(12, [10, 15, 20, 3])
    g = coset_graph(p)
    assert g.num_vertices == 12 and len(g.edges) == 36
    assert rank(g) == 25
    assert fold(g) == g
    assert coset_graph(validate(4, [1, 1, 1, 1])) == winding_cycle_graph(4, 3)
    for t in (w(3, "x1^6"), w(3, "x2^4"), w(3, "x1 x2 x3^-2")):
        assert membership_graph(g, t) == (alpha_mod_n(p, t) == 0)


def _separate_loops_reference(rank_, words):
    """Each word as its own closed path at the basepoint, then fold."""
    edges, nxt = [], 1
    for word in words:
        letters = list(word.letters())
        cur = 0
        for k, a in enumerate(letters):
            tgt = 0 if k == len(letters) - 1 else nxt
            if tgt:
                nxt += 1
            edges.append((cur, a, tgt) if a > 0 else (tgt, -a, cur))
            cur = tgt
    return fold(StallingsGraph(rank=rank_, num_vertices=nxt, basepoint=0,
                               edges=tuple(edges)))


@st.composite
def word_families(draw):
    """Word lists mixing fresh words with the cases the two-ended walk reads
    differently: identities, single letters, inverses and products of
    earlier words (already closed paths) and shared suffixes."""
    rank_ = draw(st.integers(1, 3))
    syllables = st.lists(st.tuples(st.integers(1, rank_),
                                   st.sampled_from([-3, -2, -1, 1, 2, 3])),
                         max_size=5)
    words = [Word.make(rank_, draw(syllables))]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["fresh", "identity", "letter", "inverse",
                                     "product", "suffix"]))
        old = words[draw(st.integers(0, len(words) - 1))]
        if kind == "fresh":
            words.append(Word.make(rank_, draw(syllables)))
        elif kind == "identity":
            words.append(Word.identity(rank_))
        elif kind == "letter":
            words.append(Word.generator(rank_, draw(st.integers(1, rank_)),
                                        draw(st.sampled_from([-1, 1]))))
        elif kind == "inverse":
            words.append(old.inverse())
        elif kind == "product":
            words.append(old * words[draw(st.integers(0, len(words) - 1))])
        else:
            cut = draw(st.integers(0, len(old.syllables)))
            words.append(Word.make(rank_, draw(syllables)) *
                         Word.make(rank_, old.syllables[cut:]))
    return rank_, words


@settings(max_examples=300, deadline=None, derandomize=True)
@given(word_families())
@example((1, [w(1, "x1^3"), w(1, "x1^-2"), w(1, "x1")]))
@example((2, [Word.identity(2), w(2, "x1 x2 x1^-1"), w(2, "x1 x2^-1 x1^-1")]))
@example((2, [w(2, "x1 x2 x1^-2"), w(2, "x1 x2 x1^-1 x2^-1"),
              w(2, "x2^-1 x1^-2"), w(2, "x2")]))
def test_graph_from_words_matches_separate_loops(family):
    rank_, words = family
    assert graph_from_words(rank_, words) == _separate_loops_reference(rank_, words)


def test_powers_graph_counts():
    for d in ([2], [2, 3], [1, 4, 6], [5, 5, 5]):
        g = powers_graph(d)
        assert g.num_vertices == 1 + sum(x - 1 for x in d)
        assert len(g.edges) == sum(d)
        assert rank(g) == len(d)
        for j, dj in enumerate(d, start=1):
            assert membership_graph(g, Word.generator(len(d), j, dj))
            if dj > 1:
                assert not membership_graph(g, Word.generator(len(d), j, dj - 1))


def test_product_with_bouquet_is_identity(rng):
    for _ in range(20):
        words = [random_word(rng, 3, rng.randint(1, 6)) for _ in range(3)]
        words = [x for x in words if x]
        if not words:
            continue
        g = graph_from_words(3, words)
        assert product_graph(g, full_bouquet(3)) == g


def test_product_of_powers():
    g2 = powers_graph([2])
    g3 = powers_graph([3])
    prod = product_graph(g2, g3)
    for k in range(13):
        expect = k % 6 == 0
        assert membership_graph(prod, Word.generator(1, 1, k)) == expect


def test_product_membership_is_conjunction(rng):
    for _ in range(10):
        ws1 = [random_word(rng, 2, rng.randint(1, 5)) for _ in range(3)]
        ws2 = [random_word(rng, 2, rng.randint(1, 5)) for _ in range(3)]
        ws1, ws2 = [x for x in ws1 if x], [x for x in ws2 if x]
        if not ws1 or not ws2:
            continue
        g1, g2 = graph_from_words(2, ws1), graph_from_words(2, ws2)
        prod = product_graph(g1, g2)
        for _ in range(100):
            t = random_word(rng, 2, rng.randint(0, 8))
            both = membership_graph(g1, t) and membership_graph(g2, t)
            assert membership_graph(prod, t) == both


def test_free_basis_regenerates_graph(rng):
    for _ in range(20):
        words = [random_word(rng, 3, rng.randint(1, 6)) for _ in range(4)]
        words = [x for x in words if x]
        if not words:
            continue
        g = graph_from_words(3, words)
        basis = free_basis(g)
        assert len(basis) == rank(g)
        assert graph_from_words(3, list(basis)) == g


def test_winding_basis_lies_in_kernel():
    p = validate(6, [1, 1, 1, 3])
    g = winding_cycle_graph(p.n, p.rank)
    for b in free_basis(g):
        assert sum(b.exponent_vector()) % p.n == 0


def test_pullback_check(rng):
    for _ in range(10):
        p = random_curve(rng, s_max=5, n_max=8)
        for _ in range(50):
            t = random_word(rng, p.rank, rng.randint(0, 6))
            assert pullback_check(p, t)


def test_phi_substitute():
    word = w(3, "x1 x2^-2 x3")
    assert phi_substitute(word, [2, 3, 4]) == w(3, "x1^2 x2^-6 x3^4")


def test_diophantine_words_accepted():
    # 2*d1 + d2 = d3 mod n makes x1^d1 x1^d1 x2^d2 x3^-d3 a closed path
    n, d = 7, (3, 2, 1)   # 2*3+2 = 8 = 1 mod 7
    prod = product_graph(winding_cycle_graph(n, 3), powers_graph(list(d)))
    word = Word.make(3, [(1, 2 * d[0]), (2, d[1]), (3, -d[2])])
    assert membership_graph(prod, word)


def test_export_dot_deterministic():
    g = graph_from_words(2, [w(2, "x1 x2")])
    text = export_dot(g)
    assert text == export_dot(g)
    assert text.startswith("digraph stallings {")
    assert 'label="x1"' in text and text.endswith("}\n")


def test_export_dot_loop():
    g = graph_from_words(1, [w(1, "x1")])
    assert 'v0 -> v0 [label="x1"];' in export_dot(g)
    assert "doublecircle" in export_dot(g)


def test_rank_mismatch_errors():
    with pytest.raises(GraphError):
        membership_graph(full_bouquet(2), Word.generator(3, 1))
    with pytest.raises(GraphError):
        product_graph(full_bouquet(2), full_bouquet(3))
    with pytest.raises(GraphError):
        graph_from_words(2, [Word.generator(3, 3)])


def test_rank_disconnected_raises():
    g = StallingsGraph(rank=1, num_vertices=3, basepoint=0,
                       edges=((1, 1, 2), (2, 1, 1)))
    with pytest.raises(GraphError):
        rank(g)
