"""Stallings graphs for finitely generated subgroups of free groups: folding,
membership, rank, free bases, fiber-product intersections and DOT export.

A graph is stored as arcs (u, g, k, v) with k >= 1: an arc reads x_g^k from u
to v through k - 1 vertices that are not stored, and backward it reads the
inverse.  Every constructor returns the canonical form: each vertex but the
basepoint whose only edges are one x_g in and one x_g out is suppressed into
the arc through it, and the stored vertices are numbered breadth-first from the
basepoint.  Equal values therefore mean isomorphic basepointed labeled graphs,
and powers_graph(d), or its fiber product with an n-vertex coset graph, holds
O(len(d)) or O(n len(d)) arcs whatever the d_j are.

The letter graph, one edge (u, g, v) per letter, is derived: ``num_vertices``
counts its vertices and ``len(edges)`` its edges, and iterating ``edges``, DOT
and ``free_basis`` expand it on demand.  Inside this module an arc list is a
flat int sequence u0, g0, k0, v0, u1, ..., and a letter code names a vertex of
the letter graph: a stored vertex is its own number v < m, and the letter
vertices inside the arcs follow, arc by arc (see ``_firsts``).
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, compress
from typing import Iterable, Iterator, Sequence

from .cover import CurveParams, alpha_mod_n
from .freegroup import Word, _raw_word, _shared_ends


class GraphError(ValueError):
    pass


_ARC_BYTES = 4 * array("i").itemsize
_MAX_LETTERS = 2 ** 31 - 1   # the most letters one arc can read


def _triples(flat: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """The (u, g, v) triples of a flat letter edge list, one at a time."""
    it = iter(flat)
    return zip(it, it, it)


def _quads(flat: Sequence[int]) -> Iterator[tuple[int, int, int, int]]:
    """The (u, g, k, v) arcs of a flat arc list, one at a time."""
    it = iter(flat)
    return zip(it, it, it, it)


class PackedEdges:
    """A graph's arcs (src, label, k, dst) as C ints in one immutable buffer,
    16 bytes an arc, seen as the (src, label, dst) triples of its letter graph.

    ``len`` counts letters in O(1); iterating or indexing builds the triples on
    the fly.  When every k is 1 (a hand-built graph) the triples are the arcs
    in the order given.  An arc list with some k > 1 is always a canonical form
    (only ``_canonicalize`` makes one), and its letter vertices are numbered
    breadth-first from vertex 0, labels in increasing order, out-edges before
    in-edges, and its triples listed by source and label.  Equality and
    hashing compare the triples, and the repr is the tuple of them."""

    __slots__ = ("_raw", "_letters")

    def __init__(self, triples: Iterable[Sequence[int]]):
        flat = array("i")
        for t in triples:
            try:
                u, g, v = t
                flat.extend((u, g, 1, v))
            except (TypeError, ValueError, OverflowError):
                raise GraphError(f"edge {t!r} is not a (src, label, dst) triple "
                                 "of C ints") from None
        self._raw = flat.tobytes()
        self._letters = len(flat) // 4

    @classmethod
    def _of(cls, arcs: array) -> PackedEdges:
        """Wrap a flat array('i') of whole arcs without re-checking it."""
        packed = cls.__new__(cls)
        packed._raw = arcs.tobytes()
        packed._letters = sum(arcs[2::4])
        return packed

    @property
    def arcs(self) -> memoryview:
        """The flat read-only view u0, g0, k0, v0, u1, ..."""
        return memoryview(self._raw).cast("i")

    @property
    def _interior(self) -> int:
        """Letter vertices inside arcs: the sum of k - 1."""
        return self._letters - len(self._raw) // _ARC_BYTES

    def _letter_ints(self) -> array:
        """The letter triples as one flat array u0, g0, v0, u1, ..."""
        arcs = array("i", self._raw)
        n = len(arcs) // 4
        if self._letters == n:
            flat = array("i", [0]) * (3 * n)
            flat[0::3], flat[1::3], flat[2::3] = arcs[0::4], arcs[1::4], arcs[3::4]
            return flat
        rank, m = max(arcs[1::4]), max(max(arcs[0::4]), max(arcs[3::4])) + 1
        queue, _, _, flat = _letter_tree(rank, 0, m, arcs, _index(rank, m, arcs))
        order = array("i", bytes(len(queue) * 4))
        for number, code in enumerate(queue):
            order[code] = number
        flat[0::3] = array("i", map(order.__getitem__, flat[0::3]))
        flat[2::3] = array("i", map(order.__getitem__, flat[2::3]))
        return flat

    def __len__(self) -> int:
        return self._letters

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        return _triples(self._letter_ints())

    def __getitem__(self, k: int) -> tuple[int, int, int]:
        n = len(self)
        k = operator.index(k)
        if k < 0:
            k += n
        if not 0 <= k < n:
            raise IndexError("edge index out of range")
        return tuple(self._letter_ints()[3 * k:3 * k + 3])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedEdges):
            return NotImplemented
        if self._raw == other._raw:
            return True
        # two arc lists that both have k > 1 (or neither) are equal exactly
        # when their bytes are, so only a mixed pair is compared letter by letter
        if self._letters != other._letters or (
                (self._interior > 0) == (other._interior > 0)):
            return False
        return self._letter_ints() == other._letter_ints()

    def __hash__(self) -> int:
        return hash(self._letter_ints().tobytes())

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class StallingsGraph:
    """A basepointed labeled graph.  ``edges`` accepts any iterable of
    (src, label, dst) triples, label in [1, rank], and stores them packed, as
    arcs with k = 1; ``num_vertices`` counts the vertices of the letter graph."""

    rank: int
    num_vertices: int
    basepoint: int
    edges: PackedEdges

    def __post_init__(self):
        if not isinstance(self.edges, PackedEdges):
            object.__setattr__(self, "edges", PackedEdges(self.edges))

    @cached_property
    def _stored(self) -> int:
        """The number of stored vertices: letter vertices not inside an arc."""
        return self.num_vertices - self.edges._interior

    @cached_property
    def _orbits(self) -> tuple[tuple[list, list, list, list], ...]:
        """Orbit index (see ``_index``), built on the first read; not a
        dataclass field, so equality, hashing and repr ignore it."""
        return _index(self.rank, self._stored, self.edges.arcs)


def _index(rank: int, m: int, arcs: Sequence[int]) -> tuple[tuple[list, list, list, list], ...]:
    """Orbit index of a folded arc list on the stored vertices range(m).

    The x_g-arcs form a partial injection v -> v x_g^k, which splits into
    disjoint cycles and paths.  Laid one after another on a line of positions,
    one per letter vertex, entry g - 1 is (spot, marks, verts, inner): marks
    lists the positions of the stored vertices in increasing order, then one
    past the last position; verts[t] is the vertex at marks[t], and the letter
    vertex at position q inside the arc leaving verts[t] has code inner[t] + q.
    spot[v] is (position, first position of v's orbit, letters of the orbit,
    negated for a path), or None when no x_g-arc meets v."""
    succ = [array("i", [-1]) * m for _ in range(rank)]
    entered = [bytearray(m) for _ in range(rank)]
    for j, (u, g, k, v) in enumerate(_quads(arcs)):
        if not (0 <= u < m and 0 <= v < m):
            raise GraphError(f"edge ({u}, {g}, {v}) leaves the {m} vertices")
        if not 1 <= g <= rank or k < 1:
            raise GraphError(f"arc ({u}, {g}, {k}, {v}) is not x_g^k with 1 <= g <= {rank}")
        nxt, into = succ[g - 1], entered[g - 1]
        if nxt[u] >= 0 or into[v]:
            raise GraphError(f"graph is not folded at label {g}")
        nxt[u] = j
        into[v] = 1
    firsts = _firsts(m, arcs)
    index = []
    for nxt, into in zip(succ, entered):
        spot: list = [None] * m
        marks, verts, inner = [], [], []
        pos = 0
        # a path starts where an x_g-arc leaves and none enters; every vertex
        # with an x_g-arc left over after the paths is on a cycle
        for cyclic in (False, True):
            for v in range(m):
                if nxt[v] < 0 or spot[v] is not None or (into[v] and not cyclic):
                    continue
                first, lo, start = len(marks), pos, v
                while True:
                    marks.append(pos)
                    verts.append(v)
                    j = nxt[v]
                    if j < 0:
                        inner.append(0)
                        break
                    inner.append(firsts[j] - pos)
                    pos += arcs[4 * j + 2]
                    v = arcs[4 * j + 3]
                    if v == start:
                        break
                span = pos - lo if cyclic else lo - pos
                for t in range(first, len(marks)):
                    spot[verts[t]] = (marks[t], lo, span)
                pos += not cyclic   # a path's last vertex holds its last position
        marks.append(pos)
        index.append((spot, marks, verts, inner))
    return tuple(index)


def _orbit_jump(orbit: tuple[list, list, list, list], v: int, e: int) -> int:
    """The letter code reached from stored vertex v by reading x_g^e (e != 0),
    or -1 when that walk runs off the graph, read from label g's entry of the
    orbit index: one modular step on a cycle or a bounds check on a path, then
    one bisect, whatever e is.  A code >= the number of stored vertices lies
    inside an arc, where only x_g can be read next."""
    spot, marks, verts, inner = orbit
    s = spot[v]
    if s is None:
        return -1
    x, lo, span = s
    q = x + e
    if span > 0:
        q = lo + (q - lo) % span
    elif not lo <= q <= lo - span:
        return -1
    t = bisect_left(marks, q)
    return verts[t] if marks[t] == q else inner[t - 1] + q


def _next_stop(marks: list, s: tuple[int, int, int], t: int, sign: int) -> int:
    """The least t' >= t such that reading x_g^(sign t') from the vertex at
    spot s ends at a stored vertex, or -1 when its orbit, a path, ends first."""
    x, lo, span = s
    q = x + sign * t
    if span > 0:
        q = lo + (q - lo) % span
    elif not lo <= q <= lo - span:
        return -1
    if sign < 0:
        return t + q - marks[bisect_right(marks, q) - 1]
    # past a cycle's last stored vertex the next is its first, at lo (+ span)
    return t + min(marks[bisect_left(marks, q)], lo + abs(span)) - q


def _letter_tree(rank: int, basepoint: int, m: int, arcs: Sequence[int],
                 orbits: tuple) -> tuple[array, array, array, array]:
    """Breadth-first search of the letter graph from the basepoint, labels in
    increasing order, out-edges before in-edges, over letter codes: (queue,
    parent, via, edges).  queue lists the codes in the order found; the tree
    edge into w leaves parent[w] reading the signed label via[w]; edges lists
    the letter edges u0, g0, v0, u1, ... by source in the order of queue, then
    by label, which is their canonical order when the arcs are canonical."""
    nv = m + sum(arcs[2::4]) - len(arcs) // 4
    parent = array("i", [-1]) * nv
    via = array("i", bytes(4 * nv))
    parent[basepoint] = basepoint
    queue = array("i", [basepoint])
    edges = array("i")
    firsts = _firsts(m, arcs)
    for c in queue:   # the iterator sees the codes appended below
        if c < m:
            steps = [(_orbit_jump(orbits[lab - 1], c, sign), sign * lab)
                     for lab in range(1, rank + 1) for sign in (1, -1)]
        else:
            j = bisect_left(firsts, c) - 1
            u, lab, k, v = arcs[4 * j:4 * j + 4]
            i = c - firsts[j]
            steps = ((c + 1 if i < k - 1 else v, lab), (c - 1 if i > 1 else u, -lab))
        for w, a in steps:
            if w < 0:
                continue
            if a > 0:
                edges.extend((c, a, w))
            if parent[w] < 0:
                parent[w], via[w] = c, a
                queue.append(w)
    return queue, parent, via, edges


def _firsts(m: int, arcs: Sequence[int]) -> array:
    """firsts[j] + i is the code of letter vertex i (1 <= i < k) inside arc j,
    so the arc holding code c >= m is the last j with firsts[j] < c."""
    return array("i", accumulate((k - 1 for k in arcs[2::4]), initial=m - 1))[:-1]


def _canonicalize(rank: int, basepoint: int, n_vertices: int,
                  arcs: Sequence[int]) -> StallingsGraph:
    """Canonical form of a folded arc list on range(n_vertices), keeping the
    basepoint's component.  Each vertex but the basepoint whose only arcs are
    one x_g in and another x_g out is suppressed, its two arcs joined into one;
    the vertices left are numbered breadth-first from the basepoint, labels in
    increasing order, out-arcs before in-arcs, and the arcs are listed by
    source and label."""
    # the one arc leaving (entering) v; -1 when none does, -2 when more do
    out_of = array("i", [-1]) * n_vertices
    into = array("i", [-1]) * n_vertices
    for j, (u, _, _, v) in enumerate(_quads(arcs)):
        out_of[u] = j if out_of[u] == -1 else -2
        into[v] = j if into[v] == -1 else -2

    def through(v: int) -> bool:
        a, b = out_of[v], into[v]
        return (a >= 0 and b >= 0 and a != b and v != basepoint
                and arcs[4 * a + 1] == arcs[4 * b + 1])

    # out[u * width + g] / inc[v * width + g]: the x_g-neighbour after / before
    width = rank + 1
    out: dict[int, int] = {}
    inc: dict[int, int] = {}
    length: dict[int, int] = {}
    for u, g, k, v in _quads(arcs):
        if out_of[u] >= 0 and through(u):
            continue
        while out_of[v] >= 0 and through(v):
            a = out_of[v]
            k += arcs[4 * a + 2]
            v = arcs[4 * a + 3]
        if k > _MAX_LETTERS:
            raise GraphError(f"an x{g}-arc would read {k} letters, more than {_MAX_LETTERS}")
        out[u * width + g] = v
        inc[v * width + g] = u
        length[u * width + g] = k
    del out_of, into
    order: dict[int, int] = {basepoint: 0}
    queue = [basepoint]
    for v in queue:
        for g in range(1, width):
            for nbr_map in (out, inc):
                w = nbr_map.get(v * width + g)
                if w is not None and w not in order:
                    order[w] = len(order)
                    queue.append(w)
    # the queue holds the new numbering in order, so listing each vertex's
    # out-arcs by label lists the arcs sorted
    packed = array("i")
    for v in queue:
        for g in range(1, width):
            w = out.get(v * width + g)
            if w is not None:
                packed.extend((order[v], g, length[v * width + g], order[w]))
    edges = PackedEdges._of(packed)
    return StallingsGraph(rank=rank, num_vertices=len(order) + edges._interior,
                          basepoint=0, edges=edges)


def _fold_edges(n_vertices: int, basepoint: int,
                edges: Sequence[int]) -> tuple[int, array]:
    """Worklist union-find folding of a flat letter edge list; returns
    (basepoint root, folded flat arc list, every k 1) with vertices renamed to
    roots (not yet canonical).  Near-linear: each merge moves the smaller
    adjacency dict into the larger one."""
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
                folded.extend((r, g, 1, find(t)))
    return find(basepoint), folded


def _core_prune(n_vertices: int, basepoint: int, arcs: Sequence[int]) -> Sequence[int]:
    """Drop hanging trees from a flat arc list on range(n_vertices): remove
    degree-1 vertices other than the basepoint (loops count twice) until none
    is left.  Linear: a vertex is queued once, when its degree falls to 1, and
    link[v], the XOR of the indices of the arcs left at v, is then the index
    of its one arc (a loop adds its index twice, so it cancels)."""
    deg = array("i", [0]) * n_vertices
    link = array("i", [0]) * n_vertices
    for j, (u, _, _, v) in enumerate(_quads(arcs)):
        deg[u] += 1
        deg[v] += 1
        link[u] ^= j
        link[v] ^= j
    leaves = [v for v in range(n_vertices) if deg[v] == 1 and v != basepoint]
    if not leaves:
        return arcs
    kept = bytearray(b"\x01") * (len(arcs) // 4)
    while leaves:
        x = leaves.pop()
        if deg[x] != 1:   # its arc went with a neighbour that was a leaf too
            continue
        j = link[x]
        kept[j] = 0
        deg[x] = 0
        y = arcs[4 * j] + arcs[4 * j + 3] - x
        deg[y] -= 1
        link[y] ^= j
        if deg[y] == 1 and y != basepoint:
            leaves.append(y)
    pruned = array("i")
    for arc in compress(_quads(arcs), kept):
        pruned.extend(arc)
    return pruned


def _finish(rank: int, basepoint: int, n_vertices: int,
            edges: Sequence[int]) -> StallingsGraph:
    """Fold a flat letter edge list, prune it to its core and canonicalize."""
    bp, folded = _fold_edges(n_vertices, basepoint, edges)
    return _canonicalize(rank, bp, n_vertices, _core_prune(n_vertices, bp, folded))


def _common_letters(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Letters two syllables read alike from the end where they meet."""
    (g1, e1), (g2, e2) = a, b
    return min(abs(e1), abs(e2)) if g1 == g2 and (e1 > 0) == (e2 > 0) else 0


def _syllable_at(x: int, front_sums: list[int], back_sums: list[int],
                 length: int, ns: int) -> tuple[int, int, int]:
    """(index, first letter, end) of the syllable that holds letter x of a
    word of ns syllables and length letters, read from its front sums while
    they reach past x and from its back sums after that."""
    if x < front_sums[-1]:
        t = bisect_right(front_sums, x) - 1
        return t, front_sums[t], front_sums[t + 1]
    r = bisect_right(back_sums, length - 1 - x) - 1
    return ns - 1 - r, length - back_sums[r + 1], length - back_sums[r]


def graph_from_words(rank: int, words: Sequence[Word]) -> StallingsGraph:
    """Folded core graph of the subgroup generated by the given reduced words.

    Each word follows existing edges from the basepoint along its front and,
    backwards, along its end, and only the unread middle (at least one letter)
    becomes a new path between the two vertices reached.  Joining two vertices
    of a connected graph by an arc adds one loop, and that loop reads the word,
    so the generated subgroup and hence the folded graph are unchanged; shared
    prefixes and suffixes (such as the y_1^-v ends of the kernel generators)
    then cost nothing in the folding pass.

    Each walk resumes on the trail that the previous nonempty word left, as
    far as the two words share a prefix (suffix), instead of at the basepoint.
    Edges are only ever added, so a trail vertex is the one a letter-by-letter
    walk would reach, and the edges laid out are the same.  Words are read
    syllable by syllable, never as letter lists, and the letter counts of the
    whole syllables a word shares with the previous one at either end are
    carried over from that word, so for the kernel generators
    y_1^v y_j y_1^-v, y_1^n the Python steps number O(n * sum |y_j|), not
    O(n^2 |y_1|); the shared ends are compared only in C, by tuple slices."""
    edges = array("i")
    # A letter is coded c = a + rank for x_a (a > 0) or x_-a^-1 (a < 0), so its
    # inverse is 2 * rank - c; step[v * width + c] is the vertex reached from v
    # by reading it.
    width = 2 * rank + 1
    step: dict[int, int] = {}
    get = step.get
    next_vertex = 1  # 0 is the basepoint
    # front_trail[k] is the vertex that the first k letters of prev reach from
    # the basepoint, back_trail[k] the one its last k letters reach backwards;
    # front_sums[k] counts the letters of prev's first k syllables and
    # back_sums[k] those of its last k, each over prev's shared end and middle
    prev: tuple[tuple[int, int], ...] = ()
    front_trail, back_trail = [0], [0]
    front_sums, back_sums = [0], [0]
    for w in words:
        if w.rank != rank:
            raise GraphError("word rank mismatch")
        syl = w.syllables
        if not syl:
            continue
        ns, nprev = len(syl), len(prev)
        lo, hi = _shared_ends(syl, prev, len(front_sums) - 1, len(back_sums) - 1)
        letters = [abs(e) for _, e in syl[lo:ns - hi]]
        shared_front, shared_back = front_sums[lo], back_sums[hi]
        front_sums[lo:] = accumulate(letters, initial=shared_front)
        back_sums[hi:] = accumulate(reversed(letters), initial=shared_back)
        length = front_sums[-1] + shared_back
        # letters [0, i) lead to front, letters [j, length) backwards to back,
        # and at least one letter stays unread
        if lo < ns and lo < nprev:
            shared_front += _common_letters(syl[lo], prev[lo])
        i = min(shared_front, len(front_trail) - 1, length - 1)
        del front_trail[i + 1:]
        front = front_trail[-1]
        t, _, end = _syllable_at(i, front_sums, back_sums, length, ns)
        while i < length - 1:
            if i == end:
                t += 1
                end += abs(syl[t][1])
            g, e = syl[t]
            c = rank + g if e > 0 else rank - g
            stop = min(end, length - 1)
            while i < stop:
                nxt = get(front * width + c)
                if nxt is None:
                    break
                front = nxt
                front_trail.append(nxt)
                i += 1
            if i < stop:
                break
        if hi < ns and hi < nprev:
            shared_back += _common_letters(syl[ns - hi - 1], prev[nprev - hi - 1])
        k = min(shared_back, len(back_trail) - 1, length - i - 1)
        del back_trail[k + 1:]
        back = back_trail[-1]
        j = length - k
        u, start, _ = _syllable_at(j - 1, front_sums, back_sums, length, ns)
        while i < j - 1:
            if j == start:
                u -= 1
                start -= abs(syl[u][1])
            g, e = syl[u]
            c = rank - g if e > 0 else rank + g  # read backwards: the inverse
            stop = max(start, i + 1)
            while j > stop:
                nxt = get(back * width + c)
                if nxt is None:
                    break
                back = nxt
                back_trail.append(nxt)
                j -= 1
            if j > stop:
                break
        # the middle: new vertices first_new, ..., next_vertex - 1, then back;
        # letter i is in syllable t, or t ends at i, as the front walk left them
        first_new = next_vertex
        cur = front
        left = j - i
        while left:
            if i == end:
                t += 1
                end += abs(syl[t][1])
            g, e = syl[t]
            c = rank + g if e > 0 else rank - g
            run = min(end - i, left)
            for _ in range(run):
                left -= 1
                if left:
                    nxt = next_vertex
                    next_vertex += 1
                else:
                    nxt = back
                if e > 0:
                    edges.extend((cur, g, nxt))
                else:
                    edges.extend((nxt, g, cur))
                step.setdefault(cur * width + c, nxt)
                closed = step.setdefault(nxt * width + 2 * rank - c, cur) == cur
                cur = nxt
            i += run
        front_trail.extend(range(first_new, next_vertex))
        # reading the last letter backwards reaches the middle's last new
        # vertex unless an earlier edge at back already read it
        if closed:
            back_trail.extend(range(next_vertex - 1, first_new - 1, -1))
        prev = syl
    return _finish(rank, 0, next_vertex, edges)


def fold(g: StallingsGraph) -> StallingsGraph:
    """Idempotent folding + core pruning + canonical relabeling of the letter
    graph; an arc with k > 1 is laid out letter by letter first."""
    letters = array("i")
    code = g._stored
    for u, lab, k, v in _quads(g.edges.arcs):
        for _ in range(k - 1):
            letters.extend((u, lab, code))
            u, code = code, code + 1
        letters.extend((u, lab, v))
    return _finish(g.rank, g.basepoint, g.num_vertices, letters)


def rank(g: StallingsGraph) -> int:
    """First Betti number of the connected core: arcs - V + 1, V counting the
    basepoint and every arc end, which is the letter graph's E - V + 1.
    Connectivity is a union-find over the arcs in one int array, so no
    per-vertex object is built."""
    nv, base = g._stored, g.basepoint
    if not 0 <= base < nv:
        raise GraphError(f"basepoint {base} is not one of the {nv} vertices")
    parent = array("i", range(nv))
    seen = bytearray(nv)
    seen[base] = 1
    merges = 0
    for u, lab, _, v in _quads(g.edges.arcs):
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
    return len(g.edges.arcs) // 4 - verts + 1


def membership_graph(g: StallingsGraph, w: Word) -> bool:
    """True iff w traces a closed path at the basepoint.  Each syllable is one
    jump in the orbit index, so the cost does not grow with the exponents."""
    if w.rank != g.rank:
        raise GraphError("word rank mismatch")
    orbits, stored = g._orbits, g._stored
    v = g.basepoint
    for lab, e in w.syllables:
        v = _orbit_jump(orbits[lab - 1], v, e)
        # inside an arc only x_lab goes on, and the next syllable reads another
        if not 0 <= v < stored:
            return False
    return v == g.basepoint


def product_graph(g1: StallingsGraph, g2: StallingsGraph) -> StallingsGraph:
    """Basepoint component of the label-matched fiber product; realizes the
    intersection of the two subgroups.  The search runs over pairs of stored
    vertices.  Along each label and direction the two sides read letters in
    lockstep, and the side behind jumps to its next stored vertex at or past
    the other, until both stand on stored vertices at once (an arc of the
    product) or a side runs off its path, so the cost is in stored vertices
    passed, not in letters."""
    if g1.rank != g2.rank:
        raise GraphError("rank mismatch")
    orbits1, orbits2 = g1._orbits, g2._orbits
    # the pair (v1, v2) is coded as v1 * width + v2; pairs lists the codes in
    # the order the search numbers them
    width = g2._stored
    pairs = [g1.basepoint * width + g2.basepoint]
    index = {pairs[0]: 0}
    arcs = array("i")
    for src, pair in enumerate(pairs):
        v1, v2 = divmod(pair, width)
        for g, o1, o2 in zip(range(1, g1.rank + 1), orbits1, orbits2):
            s1, s2 = o1[0][v1], o2[0][v2]
            if s1 is None or s2 is None:
                continue
            for sign in (1, -1):
                t1 = _next_stop(o1[1], s1, 1, sign)
                t2 = _next_stop(o2[1], s2, 1, sign)
                while t1 != t2 and t1 >= 0 and t2 >= 0:
                    if t1 < t2:
                        t1 = _next_stop(o1[1], s1, t2, sign)
                    else:
                        t2 = _next_stop(o2[1], s2, t1, sign)
                if t1 < 0 or t2 < 0:
                    continue   # a hanging path, which the core drops
                nbr = (_orbit_jump(o1, v1, sign * t1) * width
                       + _orbit_jump(o2, v2, sign * t1))
                tgt = index.get(nbr)
                if tgt is None:
                    tgt = index[nbr] = len(pairs)
                    pairs.append(nbr)
                # every pair is searched once, so recording out-arcs only
                # lists each arc exactly once
                if sign > 0:
                    if t1 > _MAX_LETTERS:
                        raise GraphError(f"an x{g}-arc would read {t1} letters, "
                                         f"more than {_MAX_LETTERS}")
                    arcs.extend((src, g, t1, tgt))
    n = len(pairs)
    del index, pairs   # the pair codes are not needed past the search
    return _canonicalize(g1.rank, 0, n, _core_prune(n, 0, arcs))


def free_basis(g: StallingsGraph) -> tuple[Word, ...]:
    """One word per non-tree letter edge relative to the breadth-first
    spanning tree of the letter graph at the basepoint, in the order of
    ``edges``.  The tree is two int arrays over letter codes: the tree edge
    into v leaves parent[v] with the signed label via[v], so no word is built
    per vertex."""
    base, arcs = g.basepoint, g.edges.arcs
    _, parent, via, edges = _letter_tree(g.rank, base, g._stored, arcs, g._orbits)
    if not g.edges._interior:   # the letter edges are the arcs, in their order
        edges = g.edges._letter_ints()

    def climb(v: int) -> list[int]:
        """Signed labels of the tree path from the basepoint to v, last first."""
        out = []
        while v != base:
            out.append(via[v])
            v = parent[v]
        return out

    basis = []
    for u, lab, v in _triples(edges):
        if not (parent[v] == u and via[v] == lab or parent[u] == v and via[u] == -lab):
            letters = climb(u)[::-1] + [lab] + [-a for a in climb(v)]
            basis.append(Word.make(g.rank, [(abs(a), 1 if a > 0 else -1) for a in letters]))
    return tuple(basis)


def export_dot(g: StallingsGraph) -> str:
    """Deterministic DOT rendering of the letter graph; identical graphs give
    byte-identical text.  Raises GraphError unless g is folded."""
    g._orbits   # the index check: canonical forms are only defined when folded
    c = _canonicalize(g.rank, g.basepoint, g._stored, g.edges.arcs)
    lines = ["digraph stallings {"]
    # the canonical form numbers exactly the basepoint and the edge ends
    for v in range(c.num_vertices):
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


def _coset_arcs(n: int, steps: Sequence[int]) -> array:
    """Schreier coset graph of the kernel of x_i -> steps[i-1] mod n: vertices
    Z/n and an edge v --x_i--> v + steps[i-1], as a flat arc list."""
    arcs = array("i")
    for v in range(n):
        for i, di in enumerate(steps, start=1):
            arcs.extend((v, i, 1, (v + di) % n))
    return arcs


def coset_graph(p: CurveParams) -> StallingsGraph:
    """Direct construction of the folded mod-n winding kernel graph: the
    Schreier coset graph v --x_i--> v + d_i on Z/n (i <= s-1)."""
    return _canonicalize(p.rank, 0, p.n, _coset_arcs(p.n, p.d[:p.rank]))


def winding_cycle_graph(n: int, rank: int) -> StallingsGraph:
    """The unit-exponent coset graph: an n-cycle with all generators in
    parallel between consecutive vertices."""
    return _canonicalize(rank, 0, n, _coset_arcs(n, (1,) * rank))


def powers_graph(d: Sequence[int]) -> StallingsGraph:
    """Graph of <x_1^{d_1}, ..., x_m^{d_m}>: a bouquet of loop arcs x_j^{d_j}."""
    arcs = array("i")
    for j, dj in enumerate(d, start=1):
        if dj > _MAX_LETTERS:
            raise GraphError(f"x{j}^{dj} reads more than {_MAX_LETTERS} letters")
        if dj > 0:
            arcs.extend((0, j, dj, 0))
    return _canonicalize(len(d), 0, 1, arcs)


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
