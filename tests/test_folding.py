import dataclasses
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_curve, random_word
from kummercover.cover import alpha_mod_n, validate
from kummercover.folding import (GraphError, PackedEdges, StallingsGraph,
                                 _core_prune, coset_graph, export_dot, fold,
                                 free_basis, full_bouquet, graph_from_words,
                                 membership_graph, phi_substitute, powers_graph,
                                 product_graph, pullback_check, rank,
                                 winding_cycle_graph, winding_kernel_generators)
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
def word_families(draw, rank_=None):
    """Word lists mixing fresh words with the cases the two-ended walk reads
    differently: identities, single letters, inverses and products of
    earlier words (already closed paths) and shared suffixes."""
    if rank_ is None:
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


def _steps(g):
    """step[v, +lab] / step[v, -lab]: the vertex reached from v by x_lab / x_lab^-1."""
    step = {}
    for u, lab, v in g.edges:
        step[u, lab] = v
        step[v, -lab] = u
    return step


def _walk_letters(g, word):
    """Reference reader, one edge per letter; None when the walk runs off the
    graph.  Once a syllable's walk comes back to the vertex it started from,
    the letters left go round the same cycle again, so only their count
    modulo its length is walked."""
    step = _steps(g)
    v = g.basepoint
    for lab, e in word.syllables:
        letter = lab if e > 0 else -lab
        start, left, walked = v, abs(e), 0
        while left:
            v = step.get((v, letter))
            if v is None:
                return None
            left -= 1
            walked += 1
            if v == start:
                left %= walked
    return v


def _read_by_jumps(g, word):
    v = g.basepoint
    for lab, e in word.syllables:
        v = g._jump(lab, v, e)
        if v < 0:
            return None
    return v


def _run_length(g, v, letter):
    """Letters readable from v before the walk runs off; None on a cycle."""
    step = _steps(g)
    k, cur = 0, v
    while True:
        cur = step.get((cur, letter))
        if cur is None:
            return k
        if cur == v:
            return None
        k += 1


@st.composite
def indexed_graphs(draw):
    """Graphs for the orbit index: graph_from_words graphs (their orbits are
    mostly paths), fiber products of two of them, and coset graphs (only
    cycles)."""
    kind = draw(st.sampled_from(["words", "product", "coset"]))
    if kind == "coset":
        return coset_graph(random_curve(random.Random(draw(st.integers(0, 2 ** 32)))))
    rank_, words = draw(word_families())
    g = graph_from_words(rank_, words)
    if kind == "product":
        g = product_graph(g, graph_from_words(rank_, draw(word_families(rank_))[1]))
    return g


@settings(max_examples=300, deadline=None, derandomize=True)
@given(indexed_graphs(), st.data())
def test_orbit_index_matches_letter_walk(g, data):
    rank_ = g.rank
    exponent = st.one_of(st.integers(1, 3), st.integers(1, 10 ** 6))
    syllables = st.lists(st.tuples(st.integers(1, rank_), st.sampled_from([-1, 1]),
                                   exponent), max_size=6)
    words = [Word.make(rank_, [(lab, sign * e) for lab, sign, e in sylls])
             for sylls in data.draw(st.lists(syllables, min_size=1, max_size=4))]
    for word in words:
        end = _walk_letters(g, word)
        assert _read_by_jumps(g, word) == end
        assert membership_graph(g, word) == (end == g.basepoint)
    # from the basepoint and from the end of a readable word, read each
    # letter up to the end of its path, and one step further
    starts = [Word.identity(rank_)] + [x for x in words if _walk_letters(g, x) is not None]
    for prefix in starts:
        v = _walk_letters(g, prefix)
        for letter in [a for lab in range(1, rank_ + 1) for a in (lab, -lab)]:
            run = _run_length(g, v, letter)
            if run is None:
                continue
            sign = 1 if letter > 0 else -1
            fits = prefix * Word.generator(rank_, abs(letter), sign * run) if run else prefix
            over = prefix * Word.generator(rank_, abs(letter), sign * (run + 1))
            assert _read_by_jumps(g, fits) == _walk_letters(g, fits) is not None
            assert _read_by_jumps(g, over) is None and _walk_letters(g, over) is None
            assert not membership_graph(g, over)


def test_orbit_index_edge_cases():
    g = graph_from_words(2, [w(2, "x1^3"), w(2, "x1 x2 x1^-1")])
    assert membership_graph(g, Word.identity(2))
    # x2 does not meet the basepoint, x1 lies on a 3-cycle
    assert not membership_graph(g, w(2, "x2"))
    assert not membership_graph(g, Word.generator(2, 2, -10 ** 6))
    assert membership_graph(g, Word.generator(2, 1, 3 * 10 ** 6))
    assert membership_graph(g, w(2, "x1 x2^1000000 x1^-1"))
    assert not membership_graph(g, Word.generator(2, 1, 10 ** 6))
    with pytest.raises(GraphError):
        membership_graph(g, Word.generator(3, 1))
    # equality, hashing, repr and DOT ignore the index built by the reads above
    h = graph_from_words(2, [w(2, "x1^3"), w(2, "x1 x2 x1^-1")])
    assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
    assert export_dot(g) == export_dot(h)
    # hand-built graphs the index cannot read
    unfolded = StallingsGraph(rank=1, num_vertices=2, basepoint=0,
                              edges=((0, 1, 0), (0, 1, 1)))
    outside = StallingsGraph(rank=1, num_vertices=1, basepoint=0, edges=((0, 1, 1),))
    for bad in (unfolded, outside):
        with pytest.raises(GraphError):
            membership_graph(bad, w(1, "x1"))


def test_packed_edges_round_trip():
    g = graph_from_words(2, [w(2, "x1^3"), w(2, "x1 x2 x1^-1"), w(2, "x2^-2 x1")])
    assert isinstance(g.edges, PackedEdges)
    triples = tuple(g.edges)
    assert all(type(t) is tuple and len(t) == 3 for t in triples)
    assert len(g.edges) == len(triples) == 6
    assert [g.edges[k] for k in range(-len(triples), len(triples))] == list(triples) * 2
    for k in (len(triples), -len(triples) - 1):
        with pytest.raises(IndexError):
            g.edges[k]
    # hand-built from tuples, a list or a generator: the same value as the
    # packed graph, with the same hash, repr and DOT
    for edges in (triples, list(triples), (t for t in triples)):
        h = StallingsGraph(rank=2, num_vertices=g.num_vertices, basepoint=0, edges=edges)
        assert isinstance(h.edges, PackedEdges) and tuple(h.edges) == triples
        assert h == g and hash(h) == hash(g) and h.edges == g.edges
        assert repr(h) == repr(g) == (
            f"StallingsGraph(rank=2, num_vertices={g.num_vertices}, basepoint=0, "
            f"edges={triples!r})")
        assert export_dot(h) == export_dot(g)
    # hand-built order is kept, so a reordering is a different value
    assert StallingsGraph(2, g.num_vertices, 0, triples[::-1]) != g
    empty = StallingsGraph(rank=1, num_vertices=1, basepoint=0, edges=())
    assert len(empty.edges) == 0 and tuple(empty.edges) == () and "edges=()" in repr(empty)
    extreme = ((2 ** 31 - 1, 1, -2 ** 31),)
    assert tuple(StallingsGraph(1, 1, 0, extreme).edges) == extreme
    # dataclasses.replace takes a tuple built from the iterated edges
    (u, lab, v), *rest = g.edges
    bad = (u, lab, (v + 1) % g.num_vertices)
    planted = dataclasses.replace(g, edges=(bad, *rest))
    assert tuple(planted.edges) == (bad, *rest) and planted != g
    assert dataclasses.replace(planted, edges=triples) == g


@pytest.mark.parametrize("edge", [(0, 1), (0, 1, 0, 0), (0, 1.0, 0), ("0", 1, 0),
                                  None, 7, (0, 1, 2 ** 31), (-2 ** 31 - 1, 1, 0)])
def test_packed_edges_reject_malformed_triples(edge):
    with pytest.raises(GraphError):
        StallingsGraph(rank=1, num_vertices=1, basepoint=0, edges=((0, 1, 0), edge))
    g = full_bouquet(1)
    with pytest.raises(GraphError):
        dataclasses.replace(g, edges=(*g.edges, edge))


def _prune_reference(basepoint, triples):
    """Remove every degree-1 vertex but the basepoint, recount, repeat."""
    while True:
        deg = {}
        for u, _, v in triples:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        hanging = {v for v, k in deg.items() if k == 1 and v != basepoint}
        if not hanging:
            return triples
        triples = [(u, g, v) for u, g, v in triples if u not in hanging and v not in hanging]


@st.composite
def edge_lists(draw):
    """Random multigraphs with loops, plus hanging paths and trees."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    triples = draw(st.lists(st.tuples(vertex, st.integers(1, 3), vertex), max_size=20))
    for _ in range(draw(st.integers(0, 3))):
        cur = draw(vertex)
        for _ in range(draw(st.integers(1, 6))):
            triples.append((cur, draw(st.integers(1, 3)), n))
            cur, n = (n if draw(st.booleans()) else cur), n + 1
    order = draw(st.permutations(range(len(triples))))
    return n, draw(st.integers(0, n - 1)), [triples[k] for k in order]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(edge_lists())
@example((3, 0, [(0, 1, 1), (1, 1, 2)]))
@example((2, 0, [(1, 1, 1), (0, 1, 1)]))
@example((3, 2, [(0, 1, 1), (1, 2, 1)]))
def test_core_prune_matches_repeated_recount(case):
    n, basepoint, triples = case
    flat = [x for t in triples for x in t]
    pruned = _core_prune(n, basepoint, flat)
    it = iter(pruned)
    assert list(zip(it, it, it)) == _prune_reference(basepoint, triples)


def test_core_prune_long_hanging_path_is_linear():
    # the factors read x2 at depths k and 2k, so the product is an x1-path of
    # k + 1 vertices from the basepoint, and all of it prunes away
    k = 4000
    g1 = graph_from_words(2, [Word.make(2, [(1, k), (2, 1), (1, -k)])])
    g2 = graph_from_words(2, [Word.make(2, [(1, 2 * k), (2, 1), (1, -2 * k)])])
    t0 = time.perf_counter()
    prod = product_graph(g1, g2)
    elapsed = time.perf_counter() - t0
    assert prod == StallingsGraph(rank=2, num_vertices=1, basepoint=0, edges=())
    assert elapsed < 0.5


def _product_reference(g1, g2):
    """Fiber product through tuple-keyed adjacency dicts."""
    out1 = {(u, lab): v for u, lab, v in g1.edges}
    in1 = {(v, lab): u for u, lab, v in g1.edges}
    out2 = {(u, lab): v for u, lab, v in g2.edges}
    in2 = {(v, lab): u for u, lab, v in g2.edges}
    start = (g1.basepoint, g2.basepoint)
    index, queue, edges = {start: 0}, [start], set()
    for v1, v2 in queue:
        for lab in range(1, g1.rank + 1):
            for a, b, forward in ((out1.get((v1, lab)), out2.get((v2, lab)), True),
                                  (in1.get((v1, lab)), in2.get((v2, lab)), False)):
                if a is None or b is None:
                    continue
                if (a, b) not in index:
                    index[a, b] = len(index)
                    queue.append((a, b))
                here, there = index[v1, v2], index[a, b]
                edges.add((here, lab, there) if forward else (there, lab, here))
    return fold(StallingsGraph(rank=g1.rank, num_vertices=len(index), basepoint=0,
                               edges=tuple(sorted(edges))))


def _free_basis_reference(g):
    out = {(u, lab): v for u, lab, v in g.edges}
    inc = {(v, lab): u for u, lab, v in g.edges}
    path = {g.basepoint: Word.identity(g.rank)}
    tree, queue = set(), [g.basepoint]
    for v in queue:
        for lab in range(1, g.rank + 1):
            x, y = out.get((v, lab)), inc.get((v, lab))
            if x is not None and x not in path:
                path[x] = path[v] * Word.generator(g.rank, lab)
                tree.add((v, lab, x))
                queue.append(x)
            if y is not None and y not in path:
                path[y] = path[v] * Word.generator(g.rank, lab, -1)
                tree.add((y, lab, v))
                queue.append(y)
    return tuple(path[u] * Word.generator(g.rank, lab) * path[v].inverse()
                 for u, lab, v in g.edges if (u, lab, v) not in tree)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(word_families(), st.data())
def test_product_and_free_basis_match_dict_reference(family, data):
    rank_, words1 = family
    g1 = graph_from_words(rank_, words1)
    g2 = graph_from_words(rank_, data.draw(word_families(rank_))[1])
    prod = product_graph(g1, g2)
    assert prod == _product_reference(g1, g2)
    for g in (g1, g2, prod):
        assert free_basis(g) == _free_basis_reference(g)


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


def test_phi_substitute_without_positive_multipliers_still_reduces(rng):
    word = w(3, "x1 x2 x1^2 x3^-1")
    assert phi_substitute(word, [2, 0, 5]) == w(3, "x1^6 x3^-5")
    assert phi_substitute(word, [2, -3, 5]) == w(3, "x1^2 x2^-3 x1^4 x3^-5")
    for _ in range(300):
        word = random_word(rng, 3, rng.randint(0, 8))
        d = [rng.randint(-2, 3) for _ in range(3)]
        got = phi_substitute(word, d)
        assert got == Word.make(3, [(g, e * d[g - 1]) for g, e in word.syllables])
        assert Word(3, got.syllables) == got   # reduced, whatever the signs


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


def _rank_by_vertex_sets(g):
    """E - V + 1 with a breadth-first connectivity check over one set of
    neighbours per vertex; None when disconnected."""
    verts = {g.basepoint} | {u for u, _, _ in g.edges} | {v for _, _, v in g.edges}
    adj = {v: set() for v in verts}
    for u, _, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, todo = {g.basepoint}, [g.basepoint]
    while todo:
        for x in adj[todo.pop()] - seen:
            seen.add(x)
            todo.append(x)
    return len(g.edges) - len(verts) + 1 if seen == verts else None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(edge_lists())
@example((3, 0, []))
@example((3, 1, [(0, 1, 2)]))
@example((4, 0, [(0, 1, 1), (1, 2, 0), (2, 1, 3), (3, 3, 2)]))
def test_rank_matches_vertex_set_search(case):
    n, basepoint, triples = case
    g = StallingsGraph(rank=3, num_vertices=n, basepoint=basepoint, edges=triples)
    expected = _rank_by_vertex_sets(g)
    if expected is None:
        with pytest.raises(GraphError):
            rank(g)
    else:
        assert rank(g) == expected


def test_rank_rejects_edges_off_the_vertices():
    with pytest.raises(GraphError):
        rank(StallingsGraph(rank=1, num_vertices=2, basepoint=0, edges=((0, 1, 2),)))
    with pytest.raises(GraphError):
        rank(StallingsGraph(rank=1, num_vertices=2, basepoint=2, edges=()))


def test_rank_of_large_intersection_graph_stays_small():
    # the 27 456-edge n=16 graph of test_criterion_12: counting its components
    # must not build a Python object per vertex
    d = (881, 835)
    g = product_graph(winding_cycle_graph(16, 2), powers_graph(d))
    expected = _rank_by_vertex_sets(g)
    tracemalloc.start()
    try:
        got = rank(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected == len(g.edges) - g.num_vertices + 1
    assert peak <= 2 * 2 ** 20
