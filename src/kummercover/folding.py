"""Stallings graphs for finitely generated subgroups of free groups: folding,
membership, rank, free bases, fiber-product intersections and DOT export.

Edges carry a positive generator label; an edge (u, g, v) is traversed forward
as x_g and backward as its inverse.  Folded graphs are deterministic and
co-deterministic, and all constructors return the canonical BFS-relabeled
form, so equal values mean isomorphic basepointed labeled graphs.

Inside this module an edge list is a flat int sequence u0, g0, v0, u1, ...;
no triple is built until a caller iterates ``StallingsGraph.edges``.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress
from typing import Iterable, Iterator, Sequence

from .cover import CurveParams, alpha_mod_n
from .freegroup import Word, _raw_word


class GraphError(ValueError):
    pass


_EDGE_BYTES = 3 * array("i").itemsize


def _triples(flat: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """The (u, g, v) triples of a flat edge list, one at a time."""
    it = iter(flat)
    return zip(it, it, it)


class PackedEdges:
    """The (src, label, dst) triples of a graph as C ints in one immutable
    buffer: 12 bytes an edge, where a tuple of three ints takes about 100.

    ``len`` counts edges; iterating or indexing builds each (u, g, v) tuple on
    the fly.  Equality and hashing compare the raw bytes, and the repr is that
    of the tuple of triples."""

    __slots__ = ("_raw",)

    def __init__(self, triples: Iterable[Sequence[int]]):
        flat = array("i")
        for t in triples:
            try:
                u, g, v = t
                flat.extend((u, g, v))
            except (TypeError, ValueError, OverflowError):
                raise GraphError(f"edge {t!r} is not a (src, label, dst) triple "
                                 "of C ints") from None
        self._raw = flat.tobytes()

    @classmethod
    def _of(cls, flat: array) -> PackedEdges:
        """Wrap a flat array('i') of whole triples without re-checking it."""
        packed = cls.__new__(cls)
        packed._raw = flat.tobytes()
        return packed

    @property
    def ints(self) -> memoryview:
        """The flat read-only view u0, g0, v0, u1, g1, v1, ..."""
        return memoryview(self._raw).cast("i")

    def __len__(self) -> int:
        return len(self._raw) // _EDGE_BYTES

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        return _triples(self.ints)

    def __getitem__(self, k: int) -> tuple[int, int, int]:
        n = len(self)
        k = operator.index(k)
        if k < 0:
            k += n
        if not 0 <= k < n:
            raise IndexError("edge index out of range")
        return tuple(self.ints[3 * k:3 * k + 3])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedEdges):
            return NotImplemented
        return self._raw == other._raw

    def __hash__(self) -> int:
        return hash(self._raw)

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class StallingsGraph:
    """A basepointed labeled graph.  ``edges`` accepts any iterable of
    (src, label, dst) triples, label in [1, rank], and stores them packed."""

    rank: int
    num_vertices: int
    basepoint: int
    edges: PackedEdges

    def __post_init__(self):
        if not isinstance(self.edges, PackedEdges):
            object.__setattr__(self, "edges", PackedEdges(self.edges))

    @cached_property
    def _orbits(self) -> tuple[tuple[array, array, array, array], ...]:
        """Orbit index, built on the first read; not a dataclass field, so
        equality, hashing and repr ignore it.

        In a folded graph the x_g-edges form a partial injection v -> v x_g,
        which splits into disjoint cycles and paths.  Entry g - 1 is
        (pos, seq, starts, lengths): seq lists the orbits one after another,
        each in x_g order; pos[v] is v's position in seq, or -1 when no
        x_g-edge meets v; orbit k starts at seq position starts[k] and has
        lengths[k] vertices, negated for a path."""
        nv = self.num_vertices
        succ = [array("i", [-1]) * nv for _ in range(self.rank)]
        entered = [bytearray(nv) for _ in range(self.rank)]
        for u, g, v in self.edges:
            if not (0 <= u < nv and 0 <= v < nv):
                raise GraphError(f"edge ({u}, {g}, {v}) leaves the {nv} vertices")
            nxt, into = succ[g - 1], entered[g - 1]
            if nxt[u] >= 0 or into[v]:
                raise GraphError(f"graph is not folded at label {g}")
            nxt[u] = v
            into[v] = 1
        index = []
        for nxt, into in zip(succ, entered):
            pos = array("i", [-1]) * nv
            seq, starts, lengths = array("i"), array("i"), array("i")
            # a path starts where an x_g-edge leaves and none enters; every
            # vertex with an x_g-edge left over after the paths is on a cycle
            for cyclic in (False, True):
                for v in range(nv):
                    if nxt[v] < 0 or pos[v] >= 0 or (into[v] and not cyclic):
                        continue
                    first = len(seq)
                    while v >= 0 and pos[v] < 0:
                        pos[v] = len(seq)
                        seq.append(v)
                        v = nxt[v]
                    starts.append(first)
                    lengths.append(len(seq) - first if cyclic else first - len(seq))
            index.append((pos, seq, starts, lengths))
        return tuple(index)

    def _jump(self, g: int, v: int, e: int) -> int:
        """The vertex reached from v by reading x_g^e (e != 0), or -1 when that
        walk runs off the graph."""
        return _orbit_jump(self._orbits[g - 1], v, e)


def _orbit_jump(orbits: tuple[array, array, array, array], v: int, e: int) -> int:
    """_jump within one label's entry of the orbit index: one modular step on
    a cycle, a bounds check on a path, whatever e is."""
    pos, seq, starts, lengths = orbits
    p = pos[v]
    if p < 0:
        return -1
    k = bisect_right(starts, p) - 1
    first, length = starts[k], lengths[k]
    if length > 0:
        return seq[first + (p - first + e) % length]
    p += e
    return seq[p] if first <= p < first - length else -1


def _canonicalize(rank: int, basepoint: int, edges: Sequence[int]) -> StallingsGraph:
    """BFS from the basepoint with label-sorted traversal over a flat edge
    list; assumes the graph is folded and connected."""
    # out[u * width + g] / inc[v * width + g]: the x_g-neighbour after / before
    width = rank + 1
    out: dict[int, int] = {}
    inc: dict[int, int] = {}
    for u, g, v in _triples(edges):
        out[u * width + g] = v
        inc[v * width + g] = u
    order: dict[int, int] = {basepoint: 0}
    queue = deque([basepoint])
    while queue:
        v = queue.popleft()
        for g in range(1, rank + 1):
            for nbr_map in (out, inc):
                w = nbr_map.get(v * width + g)
                if w is not None and w not in order:
                    order[w] = len(order)
                    queue.append(w)
    del out, inc
    # each relabeled edge as one int, so that sorting the ints sorts the edges
    nv = len(order)
    keys = []
    for u, g, v in _triples(edges):
        if u in order and v in order:
            keys.append((order[u] * width + g) * nv + order[v])
    del order
    keys.sort()
    packed = array("i")
    for key in keys:
        rest, v = divmod(key, nv)
        u, g = divmod(rest, width)
        packed.extend((u, g, v))
    return StallingsGraph(rank=rank, num_vertices=nv, basepoint=0,
                          edges=PackedEdges._of(packed))


def _fold_edges(n_vertices: int, basepoint: int,
                edges: Sequence[int]) -> tuple[int, array]:
    """Worklist union-find folding of a flat edge list; returns (basepoint
    root, folded flat edge list) with vertices renamed to roots (not yet
    canonical).  Near-linear: each merge moves the smaller adjacency dict into
    the larger one."""
    parent = list(range(n_vertices))
    outm: list[dict[int, int]] = [{} for _ in range(n_vertices)]
    inm: list[dict[int, int]] = [{} for _ in range(n_vertices)]
    stack = list(_triples(edges))

    def merge(x: int, y: int) -> None:
        # x, y distinct roots; loser's adjacency is re-queued as plain edges
        if len(outm[x]) + len(inm[x]) < len(outm[y]) + len(inm[y]):
            x, y = y, x
        parent[y] = x
        moved_out, moved_in = outm[y], inm[y]
        outm[y], inm[y] = {}, {}
        push = stack.append
        for g, t in moved_out.items():
            push((y, g, t))
        for g, s in moved_in.items():
            push((s, g, y))

    while stack:
        u, g, v = stack.pop()
        ru = u
        while parent[ru] != ru:
            parent[ru] = parent[parent[ru]]
            ru = parent[ru]
        rv = v
        while parent[rv] != rv:
            parent[rv] = parent[parent[rv]]
            rv = parent[rv]
        t = outm[ru].get(g)
        if t is not None:
            rt = t
            while parent[rt] != rt:
                parent[rt] = parent[parent[rt]]
                rt = parent[rt]
            outm[ru][g] = rt
            if rt != rv:
                merge(rt, rv)
                stack.append((ru, g, rv))
                continue
        else:
            outm[ru][g] = rv
        s = inm[rv].get(g)
        if s is not None:
            rs = s
            while parent[rs] != rs:
                parent[rs] = parent[parent[rs]]
                rs = parent[rs]
            inm[rv][g] = rs
            if rs != ru:
                merge(rs, ru)
                stack.append((rs, g, rv))
        else:
            inm[rv][g] = ru

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    folded = array("i")
    for r in range(n_vertices):
        if find(r) == r:
            for g, t in outm[r].items():
                folded.extend((r, g, find(t)))
    return find(basepoint), folded


def _core_prune(n_vertices: int, basepoint: int, edges: Sequence[int]) -> Sequence[int]:
    """Drop hanging trees from a flat edge list on range(n_vertices): remove
    degree-1 vertices other than the basepoint (loops count twice) until none
    is left.  Linear: a vertex is queued once, when its degree falls to 1, and
    link[v], the XOR of the indices of the edges left at v, is then the index
    of its one edge (a loop adds its index twice, so it cancels)."""
    deg = array("i", [0]) * n_vertices
    link = array("i", [0]) * n_vertices
    for k, (u, _, v) in enumerate(_triples(edges)):
        deg[u] += 1
        deg[v] += 1
        link[u] ^= k
        link[v] ^= k
    leaves = [v for v in range(n_vertices) if deg[v] == 1 and v != basepoint]
    if not leaves:
        return edges
    kept = bytearray(b"\x01") * (len(edges) // 3)
    while leaves:
        x = leaves.pop()
        if deg[x] != 1:   # its edge went with a neighbour that was a leaf too
            continue
        k = link[x]
        kept[k] = 0
        deg[x] = 0
        y = edges[3 * k] + edges[3 * k + 2] - x
        deg[y] -= 1
        link[y] ^= k
        if deg[y] == 1 and y != basepoint:
            leaves.append(y)
    pruned = array("i")
    for edge in compress(_triples(edges), kept):
        pruned.extend(edge)
    return pruned


def _finish(rank: int, basepoint: int, n_vertices: int,
            edges: Sequence[int]) -> StallingsGraph:
    bp, folded = _fold_edges(n_vertices, basepoint, edges)
    pruned = _core_prune(n_vertices, bp, folded)
    return _canonicalize(rank, bp, pruned)


def graph_from_words(rank: int, words: Sequence[Word]) -> StallingsGraph:
    """Folded core graph of the subgroup generated by the given reduced words.

    Each word follows existing edges from the basepoint along its front and,
    backwards, along its end, and only the unread middle (at least one letter)
    becomes a new path between the two vertices reached.  Joining two vertices
    of a connected graph by an arc adds one loop, and that loop reads the word,
    so the generated subgroup and hence the folded graph are unchanged; shared
    prefixes and suffixes (such as the y_1^-v ends of the kernel generators)
    then cost nothing in the folding pass."""
    edges = array("i")
    # A letter is coded c = a + rank for x_a (a > 0) or x_-a^-1 (a < 0), so its
    # inverse is 2 * rank - c; step[v * width + c] is the vertex reached from v
    # by reading it.
    width = 2 * rank + 1
    step: dict[int, int] = {}
    next_vertex = 1  # 0 is the basepoint
    for w in words:
        if w.rank != rank:
            raise GraphError("word rank mismatch")
        letters: list[int] = []
        for g, e in w.syllables:
            letters += [rank + g if e > 0 else rank - g] * abs(e)
        i, j = 0, len(letters)
        front = back = 0
        while i < j - 1:
            nxt = step.get(front * width + letters[i])
            if nxt is None:
                break
            front = nxt
            i += 1
        while i < j - 1:
            prev = step.get(back * width + 2 * rank - letters[j - 1])
            if prev is None:
                break
            back = prev
            j -= 1
        cur = front
        for k in range(i, j):
            if k == j - 1:
                nxt = back
            else:
                nxt = next_vertex
                next_vertex += 1
            c = letters[k]
            if c > rank:
                edges.extend((cur, c - rank, nxt))
            else:
                edges.extend((nxt, rank - c, cur))
            step.setdefault(cur * width + c, nxt)
            step.setdefault(nxt * width + 2 * rank - c, cur)
            cur = nxt
    return _finish(rank, 0, next_vertex, edges)


def fold(g: StallingsGraph) -> StallingsGraph:
    """Idempotent folding + core pruning + canonical relabeling."""
    return _finish(g.rank, g.basepoint, g.num_vertices, g.edges.ints)


def rank(g: StallingsGraph) -> int:
    """First Betti number E - V + 1 of the connected core, V counting the
    basepoint and every edge end.  Connectivity is a union-find over the flat
    edge ints in one int array, so no per-vertex object is built."""
    nv, base = g.num_vertices, g.basepoint
    if not 0 <= base < nv:
        raise GraphError(f"basepoint {base} is not one of the {nv} vertices")
    parent = array("i", range(nv))
    seen = bytearray(nv)
    seen[base] = 1
    merges = 0
    for u, lab, v in _triples(g.edges.ints):
        if not (0 <= u < nv and 0 <= v < nv):
            raise GraphError(f"edge ({u}, {lab}, {v}) leaves the {nv} vertices")
        seen[u] = seen[v] = 1
        while parent[u] != u:        # find, halving the path
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u != v:
            parent[u] = v
            merges += 1
    verts = seen.count(1)
    if verts - merges != 1:
        raise GraphError("graph is disconnected")
    return len(g.edges) - verts + 1


def membership_graph(g: StallingsGraph, w: Word) -> bool:
    """True iff w traces a closed path at the basepoint.  Each syllable is one
    jump in the orbit index, so the cost does not grow with the exponents."""
    if w.rank != g.rank:
        raise GraphError("word rank mismatch")
    orbits = g._orbits
    v = g.basepoint
    for lab, e in w.syllables:
        v = _orbit_jump(orbits[lab - 1], v, e)
        if v < 0:
            return False
    return v == g.basepoint


def product_graph(g1: StallingsGraph, g2: StallingsGraph) -> StallingsGraph:
    """Basepoint component of the label-matched fiber product; realizes the
    intersection of the two subgroups."""
    if g1.rank != g2.rank:
        raise GraphError("rank mismatch")
    orbits1, orbits2 = g1._orbits, g2._orbits
    # the pair (v1, v2) is coded as v1 * width + v2; pairs lists the codes in
    # the order the search numbers them
    width = g2.num_vertices
    pairs = [g1.basepoint * width + g2.basepoint]
    index = {pairs[0]: 0}
    edges = array("i")
    push = edges.append   # three appends beat one extend by a 3-tuple
    core = True
    for src, pair in enumerate(pairs):
        v1, v2 = divmod(pair, width)
        degree = 0
        for g in range(1, g1.rank + 1):
            o1, o2 = orbits1[g - 1], orbits2[g - 1]
            for e in (1, -1):
                w1 = _orbit_jump(o1, v1, e)
                if w1 < 0:
                    continue
                w2 = _orbit_jump(o2, v2, e)
                if w2 < 0:
                    continue
                degree += 1
                nbr = w1 * width + w2
                tgt = index.get(nbr)
                if tgt is None:
                    tgt = index[nbr] = len(pairs)
                    pairs.append(nbr)
                # every vertex is searched once, so recording out-edges only
                # lists each edge exactly once
                if e == 1:
                    push(src)
                    push(g)
                    push(tgt)
        if degree == 1 and src != 0:
            core = False
    num_vertices = len(pairs)
    del index, pairs   # the pair codes are not needed past the search
    if core:
        # the search takes vertices, labels and directions in the order
        # _canonicalize does, so with nothing to prune its numbering is
        # already canonical and its edges come out sorted
        return StallingsGraph(rank=g1.rank, num_vertices=num_vertices, basepoint=0,
                              edges=PackedEdges._of(edges))
    return _canonicalize(g1.rank, 0, _core_prune(num_vertices, 0, edges))


def free_basis(g: StallingsGraph) -> tuple[Word, ...]:
    """One word per non-tree edge relative to a BFS spanning tree at the basepoint."""
    # path[v] = reduced word reading the tree path basepoint -> v
    path: dict[int, Word] = {g.basepoint: Word.identity(g.rank)}
    tree: set[tuple[int, int, int]] = set()
    queue = deque([g.basepoint])
    while queue:
        v = queue.popleft()
        for lab in range(1, g.rank + 1):
            w = g._jump(lab, v, 1)
            if w >= 0 and w not in path:
                path[w] = path[v] * Word.generator(g.rank, lab)
                tree.add((v, lab, w))
                queue.append(w)
            u = g._jump(lab, v, -1)
            if u >= 0 and u not in path:
                path[u] = path[v] * Word.generator(g.rank, lab, -1)
                tree.add((u, lab, v))
                queue.append(u)
    basis = []
    for u, lab, v in g.edges:
        if (u, lab, v) not in tree:
            basis.append(path[u] * Word.generator(g.rank, lab) * path[v].inverse())
    return tuple(basis)


def export_dot(g: StallingsGraph) -> str:
    """Deterministic DOT rendering; identical graphs give byte-identical text."""
    c = _canonicalize(g.rank, g.basepoint, g.edges.ints)
    lines = ["digraph stallings {"]
    verts = {c.basepoint}
    for u, _, v in c.edges:
        verts.add(u)
        verts.add(v)
    for v in sorted(verts):
        shape = "doublecircle" if v == c.basepoint else "circle"
        lines.append(f'  v{v} [shape={shape}];')
    for u, lab, v in c.edges:
        lines.append(f'  v{u} -> v{v} [label="x{lab}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- named graphs ------------------------------------------------------------

def winding_kernel_generators(n: int, rank: int) -> tuple[Word, ...]:
    """Generators x_1^i x_j x_1^{-i-1} (0 <= i <= n-2, j >= 2) and x_1^{n-1} x_j
    of the mod-n winding kernel for the all-ones exponent vector."""
    gens = []
    for i in range(n - 1):
        for j in range(2, rank + 1):
            gens.append(Word.make(rank, [(1, i), (j, 1), (1, -i - 1)]))
    for j in range(1, rank + 1):
        gens.append(Word.make(rank, [(1, n - 1), (j, 1)]))
    return tuple(gens)


def _coset_edges(n: int, steps: Sequence[int]) -> array:
    """Schreier coset graph of the kernel of x_i -> steps[i-1] mod n: vertices
    Z/n and an edge v --x_i--> v + steps[i-1], as a flat edge list."""
    edges = array("i")
    for v in range(n):
        for i, di in enumerate(steps, start=1):
            edges.extend((v, i, (v + di) % n))
    return edges


def coset_graph(p: CurveParams) -> StallingsGraph:
    """Direct construction of the folded mod-n winding kernel graph: the
    Schreier coset graph v --x_i--> v + d_i on Z/n (i <= s-1)."""
    return _canonicalize(p.rank, 0, _coset_edges(p.n, p.d[:p.rank]))


def winding_cycle_graph(n: int, rank: int) -> StallingsGraph:
    """The unit-exponent coset graph: an n-cycle with all generators in
    parallel between consecutive vertices."""
    return _canonicalize(rank, 0, _coset_edges(n, (1,) * rank))


def powers_graph(d: Sequence[int]) -> StallingsGraph:
    """Graph of <x_1^{d_1}, ..., x_m^{d_m}>: a bouquet of subdivided loops."""
    rank = len(d)
    edges = array("i")
    nxt = 1
    for j, dj in enumerate(d, start=1):
        cur = 0
        for k in range(dj):
            tgt = 0 if k == dj - 1 else nxt
            if tgt != 0:
                nxt += 1
            edges.extend((cur, j, tgt))
            cur = tgt
    return _canonicalize(rank, 0, edges)


def full_bouquet(rank: int) -> StallingsGraph:
    """Single-vertex graph accepting the whole free group."""
    return StallingsGraph(rank=rank, num_vertices=1, basepoint=0,
                          edges=tuple((0, g, 0) for g in range(1, rank + 1)))


def phi_substitute(w: Word, d: Sequence[int]) -> Word:
    """Substitution x_j -> x_j^{d_j} (stays reduced for positive d_j)."""
    sylls = [(g, e * d[g - 1]) for g, e in w.syllables]
    if min(d, default=1) > 0:
        return _raw_word(w.rank, tuple(sylls))
    return Word.make(w.rank, sylls)


@lru_cache(maxsize=64)
def _intersection_graph(n: int, d: tuple[int, ...]) -> StallingsGraph:
    return product_graph(winding_cycle_graph(n, len(d)), powers_graph(d))


def pullback_check(p: CurveParams, w: Word) -> bool:
    """Agreement bit between the graph-theoretic membership of phi(w) in the
    intersection graph and the direct winding oracle; must always be true."""
    prod = _intersection_graph(p.n, p.d[:p.rank])
    graph_side = membership_graph(prod, phi_substitute(w, p.d[:p.rank]))
    oracle_side = alpha_mod_n(p, w) == 0
    return graph_side == oracle_side
