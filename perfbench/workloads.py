"""The benchmark's workloads: seeded inputs, the ops that call kummercover, and
the check of every op's output against ``reference``.

An op is one library call (or one tight group of calls) plus its check.  All
inputs come from ``random.Random(seed)``; the library receives only the
generated (n, d) and words.  Workloads call kummercover through module
attributes (``folding.pullback_check``), never through names imported into
this module, so that the tracer's patches see every call.

Each timed stream is an endless sequence of groups of ops, and every group
has nearly the same mix of input sizes.  A pass ends at a group boundary, so
it measures the same mix on every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import kummercover.cli as cli
from kummercover import cover, exactlin, folding, homology, schreier
from kummercover import braid as braid_mod
from kummercover.freegroup import Word

import reference as ref
from reference import expect

HERE = os.path.dirname(os.path.abspath(__file__))
PHI = (math.sqrt(5) - 1) / 2     # step of the additive low-discrepancy sequences


@dataclass
class Op:
    kind: str
    curve: object                   # identifies the curve, for per-curve counts
    call: Callable[[], object]      # the library work; its duration is the latency
    check: Callable[[object], None]  # raises reference.Mismatch


def random_curve(rng: random.Random, s_min: int, s_max: int, n_min: int,
                 n_max: int) -> tuple[int, tuple[int, ...]]:
    """Same distribution as tests/conftest.py::random_curve, as plain (n, d)."""
    while True:
        n = rng.randint(n_min, n_max)
        s = rng.randint(s_min, s_max)
        d = [rng.randint(1, 3 * n) for _ in range(s - 1)]
        if any(x % n == 0 for x in d):
            continue
        last = (-sum(d)) % n
        last += n * rng.randint(1, 3)
        d.append(last)
        if last % n == 0:
            continue
        if math.gcd(math.gcd(*d), n) != 1:
            continue
        return n, tuple(d)


def _int_rows(obj) -> list[list[int]]:
    return [[int(x) for x in row] for row in obj["entries"]]


# -- report_mix -----------------------------------------------------------------

class ReportMix:
    """``kummercover report`` in-process on random_curve draws, n <= 36, s in [3, 6].

    The curves come from ``report_corpus.json``, a fixed universe of random_curve
    draws (see make_corpus.py), so that the inputs do not depend on the code
    under test.  Curves whose kernel generators would exceed LETTER_BUDGET
    letters are left out and counted: above it one report takes seconds and
    hundreds of MiB, and y_basis alone can take seconds on such curves.  The
    kept curves are sorted by the report time recorded in the file; the seed
    sets where the low-discrepancy walk over them starts, so every stretch of
    the walk is stratified by cost."""

    LETTER_BUDGET = 500_000
    cut_by_time = True

    def __init__(self, seed: int):
        rng = random.Random(seed)
        with open(os.path.join(HERE, "report_corpus.json")) as fh:
            universe = json.load(fh)["curves"]
        kept = sorted((millis, n, tuple(d)) for letters, millis, n, d in universe
                      if letters is not None and letters <= self.LETTER_BUDGET)
        self.pool = [(p.n, p.d) for p in (cover.validate(n, d) for _, n, d in kept)]
        self.offset = rng.random()
        self.info = {
            "universe": len(universe), "letter_budget": self.LETTER_BUDGET,
            "over_budget": len(universe) - len(kept),
            "expected_exit_1": sum(1 for n, d in self.pool if not ref.partial_gcd_ok(n, d)),
            "offset": self.offset,
        }

    @staticmethod
    def make_op(n, d) -> Op:
        argv = ["report", "-n", str(n), "-d", ",".join(map(str, d))]

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run(argv)
            return rc, out.getvalue(), err.getvalue()

        return Op("report", (n, d), call, lambda res: check_report(n, d, res))

    def warmup(self) -> Iterator[Op]:
        # the heaviest curve first: the peak RSS is then the pool's on every seed
        size = len(self.pool)
        for i in (size - 1, 0, size // 4, size // 2, 3 * size // 4):
            yield self.make_op(*self.pool[i])

    def stream(self, seconds: float) -> Iterator[list[Op]]:
        # one op per group: the low-discrepancy walk is stratified by cost at
        # every length
        k = 0
        while True:
            yield [self.make_op(*self.pool[int(((self.offset + k * PHI) % 1.0) * len(self.pool))])]
            k += 1


def check_report(n: int, d, res) -> None:
    rc, out, err = res
    s, dp = len(d), list(d[:-1])
    if not ref.partial_gcd_ok(n, d):
        expect(rc == 1 and "TransversalError" in err,
               f"expected exit 1 (TransversalError), got {rc}: {err.strip()[:200]}")
        return
    expect(rc == 0, f"exit {rc}: {err.strip()[:200]}")
    rep = json.loads(out)
    g, rank = ref.genus(n, d), ref.open_rank(n, s)
    expect(rep["params"] == {"n": n, "d": list(d)}, "params echo")
    expect(rep["genus"] == g, f"genus {rep['genus']} != Riemann-Hurwitz {g}")
    expect(rep["branch_count"] == ref.branch_count(n, d), "branch count")
    expect(rep["open_rank"] == rank, f"open rank {rep['open_rank']} != {rank}")
    expect(rep["kernel_graph_rank"] == rank,
           f"kernel graph rank {rep['kernel_graph_rank']} != {rank}")
    gens = rep["generators"]
    expect(gens["count"] == rank and len(gens["generators"]) == rank,
           "generator count != open rank")
    expect(len(gens["y_basis"]) == s - 1, "y basis size")
    snf = rep["snf"]
    gp = math.gcd(*dp)
    expect(snf["gcd"] == gp, "row SNF gcd")
    r = _int_rows(snf["R"])
    image = [sum(dp[i] * r[i][j] for i in range(s - 1)) for j in range(s - 1)]
    expect(image == [gp] + [0] * (s - 2), "d . R != (g, 0, ..., 0)")
    expect(abs(ref.determinant(r)) == 1, "R is not unimodular")
    cand = _int_rows(snf["structured_candidate"])
    det = ref.determinant(cand)
    expect(snf["structured_det"] == str(det), "structured candidate determinant")
    expect(snf["structured_is_transform"] == (abs(det) == 1), "structured verdict")
    expect(sum(dp[i] * cand[i][0] for i in range(s - 1)) == gp, "Bezout column")
    hom = rep["homology"]
    expect(hom["genus"] == g, "homology genus")
    expect(hom["M"] == ref.multiplicities(n, d), "M_nu != closed-form branch count")
    expect(hom["cw"] == ref.chevalley_weil(n, d), "Chevalley-Weil table")
    lifts = [v["lifts"] for v in rep["braid"]["verdicts"]]
    expect(lifts == [ref.braid_lifts_mod_n(n, d, i) for i in range(1, s - 1)],
           "braid liftability verdicts")


# -- homology_large_n -----------------------------------------------------------

class HomologyLargeN:
    """``homology_decomposition`` on a fixed ladder of (n, s), n in [40, 240] and
    s in [4, 8], with exponents drawn from the seed.

    The ladder's n are the midpoints of LADDER cells of equal mass under a
    density proportional to n^-3.  The cost of a curve grows as n^2, so the
    time a pass spends per unit of n falls as 1/n: every n in the range is
    met, but most ops are cheap, and the median op has many neighbours of
    nearly the same cost, so that it does not rest on the timing of one or
    two ops.  s cycles through [4, 8] along the ladder, so every band of n
    sees every s.  Every exponent is a unit mod n (each branch point totally
    ramified): the exponents' gcds with n set how long the norm elements and
    Fox relators are, so with units the cost of an op depends on (n, s)
    alone and the seed moves only digits.  An even n with an odd s admits no
    such curve and is moved to n + 1.

    A group of ops is one walk over the whole ladder, in golden-ratio order
    (step STEP of LADDER, coprime) from a seeded start, on fresh curves, so
    that ops of similar cost are spread over the pass.  The ops are few and
    their costs span 50x, and the tail percentile is set by the number of
    ops (the 11th largest), so a pass cut by time would put the median and
    the tail on different ladder points as the machine's speed drifts.  A
    pass is therefore a fixed number of walks, round(seconds / WALK_S) and
    at least one, where WALK_S is about the time of one walk on a 2-vCPU
    Xeon VM (25-45 s)."""

    N_RANGE = (40, 240)
    S_RANGE = (4, 8)
    LADDER, STEP = 71, 44     # STEP / LADDER is close to the golden ratio
    WALK_S = 35
    WALKS = 3                 # distinct walks; longer passes cycle through them
    cut_by_time = False       # the pass is whole walks, not --seconds

    def __init__(self, seed: int):
        rng = random.Random(seed)
        inv_lo, inv_hi = (x ** -2 for x in self.N_RANGE)
        span = self.S_RANGE[1] - self.S_RANGE[0] + 1
        ladder = []
        for j in range(self.LADDER):
            n = round((inv_lo - (j + 0.5) / self.LADDER * (inv_lo - inv_hi)) ** -0.5)
            s = self.S_RANGE[0] + j % span
            if n % 2 == 0 and s % 2 == 1:
                n += 1
            ladder.append((n, s))
        start = rng.randrange(self.LADDER)
        order = [ladder[(start + k * self.STEP) % self.LADDER] for k in range(self.LADDER)]
        self.walks = [[cover.validate(*unit_curve(rng, n, s)) for n, s in order]
                      for _ in range(self.WALKS)]
        self.warm = [cover.validate(*unit_curve(rng, 41, s)) for s in (4, 6)]
        self.info = {"ladder": ladder, "start": start, "walk_s": self.WALK_S}

    @staticmethod
    def _op(p) -> Op:
        return Op("homology", (p.n, p.d), lambda: homology.homology_decomposition(p),
                  lambda dec: check_homology(p.n, p.d, dec))

    def warmup(self) -> Iterator[Op]:
        return (self._op(p) for p in self.warm)

    def stream(self, seconds: float) -> Iterator[list[Op]]:
        for k in range(max(1, round(seconds / self.WALK_S))):
            yield [self._op(p) for p in self.walks[k % self.WALKS]]


def unit_curve(rng: random.Random, n: int, s: int) -> tuple[int, tuple[int, ...]]:
    """A curve whose s exponents are all units mod n, in the ranges random_curve
    draws from: d_i <= 3n, and the last one lifted by n to 3n."""
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    while True:
        d = [rng.choice(units) + n * rng.randint(0, 2) for _ in range(s - 1)]
        last = (-sum(d)) % n
        if math.gcd(last, n) == 1:
            return n, tuple(d) + (last + n * rng.randint(1, 3),)


def check_homology(n: int, d, dec) -> None:
    g = ref.genus(n, d)
    expect(dec.genus == g, f"genus {dec.genus} != Riemann-Hurwitz {g}")
    expect(list(dec.multiplicities) == ref.multiplicities(n, d),
           "M_nu != closed-form branch count")
    expect(list(dec.cw_table) == ref.chevalley_weil(n, d), "Chevalley-Weil table")


# -- exponent_queries -------------------------------------------------------------

@dataclass(eq=False)
class Session:
    """One curve of exponent_queries and its prebuilt query inputs."""

    p: object
    words: list                     # (w_a, w_b, w_k): w_k is w_a moved into the kernel
    graph: object = None            # intersection graph, built by the first visit
    dead: bool = False              # an op on this curve failed; skip the rest
    visits: int = 0


class ExponentQueries:
    """Queries on long words: stratified curves per rung of max d_i.  The
    first visit of a curve runs ``y_basis`` once and builds the intersection
    graph; later visits only read: ``pullback_check`` and membership in the
    prebuilt graph, ``transversal_reduce``, braid liftability for every
    generator, and ``structured_smith``.

    Rungs are (max d_i, s_min, s_max, curves); n runs over [3, 16].  s stays
    at 3 on the 10^3 rung because y_basis already exhausts 1 GiB on some s = 4
    curves there; the 10^4 rung is the separate workload exponent_queries_1e4.

    The ops span three decades of latency, so the median op sits where the
    latency distribution is thin and the curves near it set it.  Each rung
    has enough curves (24) that the seeded exponents of any few of them move
    the median little."""

    WORD_LEN = 10
    cut_by_time = True
    WORD_SETS = 8

    def __init__(self, seed: int, rungs, warm: bool = True):
        rng = random.Random(seed)
        self.warm = warm
        per_rung = []
        for top, s_lo, s_hi, count in rungs:
            per_rung.append([self._session(rng, top, s_lo + k % (s_hi - s_lo + 1), k, count)
                             for k in range(count)])
        # interleave the rungs so that each stretch of the stream mixes them
        self.sessions = [s for group in zip(*per_rung) for s in group]
        self.info = {"rungs": [list(r) for r in rungs], "word_len": self.WORD_LEN,
                     "word_sets": self.WORD_SETS,
                     "n": [s.p.n for s in self.sessions]}

    def _session(self, rng, top: int, s: int, k: int, count: int) -> Session:
        # n is a fixed ladder over [3, 16]; the first two exponents sit near
        # fixed points of the rung (fixed scrambles pair them with n), so
        # every seed gets the same size profile and the seed moves only digits
        n = 3 + round(k * 13 / (count - 1))     # n = 2 admits no curve with s = 3
        b, c = ((5 * k + 1) % count + 0.5) / count, ((7 * k + 2) % count + 0.5) / count
        low = top // 10
        jitter = max((top - low) // (4 * count), n)   # wide enough to reach every residue
        while True:
            d = [max(1, low + int(b * (top - low)) + rng.randint(-jitter, jitter)),
                 max(1, low + int(c * (top - low)) + rng.randint(-jitter, jitter))]
            d += [rng.randint(low, top) for _ in range(s - 3)]
            r = (-sum(d)) % n
            if r == 0 or any(x % n == 0 for x in d) or math.gcd(math.gcd(*d), n) != 1:
                continue
            d.append(r + n * rng.randint((low - r) // n + 1, (top - r) // n))
            p = cover.validate(n, d)
            break
        rank = p.rank
        words = []
        for _ in range(self.WORD_SETS):
            sylls_a = [(rng.randint(1, rank), rng.choice((-1, 1)) * rng.randint(1, 2))
                       for _ in range(self.WORD_LEN)]
            sylls_b = [(rng.randint(1, rank), rng.choice((-1, 1)) * rng.randint(1, 2))
                       for _ in range(self.WORD_LEN)]
            w_a = Word.make(rank, sylls_a)
            vec = ref.exponent_vector(w_a.syllables, rank)
            w_k = Word.make(rank, sylls_a + ref.kernel_correction(n, p.d, vec))
            words.append((w_a, Word.make(rank, sylls_b), w_k))
        return Session(p, words)

    # ops -------------------------------------------------------------------

    def _first_visit(self, ses: Session) -> Iterator[Op]:
        p = ses.p
        yield Op("y_basis", ses, lambda: schreier.y_basis(p),
                 lambda ys: check_y_basis(p.n, p.d, ys))

        def build():
            rank = p.rank
            ses.graph = folding.product_graph(folding.winding_cycle_graph(p.n, rank),
                                              folding.powers_graph(p.d[:rank]))
            return ses.graph

        yield Op("graph", ses, build, lambda g: check_graph(p.n, p.d, g))

    def _visit(self, ses: Session) -> Iterator[Op]:
        # reads outnumber the rest two to one, so the median op is a read
        p, rank = ses.p, ses.p.rank
        w_a, w_b, w_k = ses.words[(2 * ses.visits) % len(ses.words)]
        w_c, _, w_l = ses.words[(2 * ses.visits + 1) % len(ses.words)]
        ses.visits += 1
        for w in (w_a, w_k, w_c, w_l):
            vec = ref.exponent_vector(w.syllables, rank)
            yield Op("pullback", ses, lambda w=w: folding.pullback_check(p, w),
                     lambda ok: expect(ok is True, "pullback_check disagreed with its oracle"))
            yield Op("membership", ses,
                     lambda w=w: folding.membership_graph(
                         ses.graph, folding.phi_substitute(w, p.d[:rank])),
                     lambda got, vec=vec: expect(
                         got == ref.pullback_verdict(p.n, p.d, vec),
                         "membership verdict != (sum e_j d_j = 0 mod n)"))
        for w in (w_a, w_b):
            yield Op("transversal", ses, lambda w=w: schreier.transversal_reduce(p, w),
                     lambda res, w=w: check_transversal(p.n, p.d, w, res))
        yield Op("braid", ses,
                 lambda: [braid_mod.lifts_to_kernel(p, i) for i in range(1, rank)],
                 lambda got: expect(got == [ref.braid_lifts_mod_n(p.n, p.d, i)
                                            for i in range(1, rank)],
                                    "braid liftability verdicts"))
        yield Op("smith", ses, lambda: exactlin.structured_smith(p.d[:rank], p.n),
                 lambda res: check_structured(p.d[:rank], res))

    def _live(self, ops: Iterator[Op]) -> Iterator[Op]:
        for op in ops:
            if op.curve.dead:
                return
            yield op

    def warmup(self) -> Iterator[Op]:
        if not self.warm:
            return
        for ses in self.sessions:
            yield from self._live(self._first_visit(ses))
            yield from self._live(self._visit(ses))

    def stream(self, seconds: float) -> Iterator[list[Op]]:
        # without a warm-up, every curve's y_basis and graph come first
        first = [ses for ses in self.sessions if ses.graph is None]
        if first:
            yield (op for ses in first for op in self._live(self._first_visit(ses)))
        # a group visits every live curve once, so every group, and so every
        # pass, has the same mix of curves and query kinds whatever the seed
        while not all(s.dead for s in self.sessions):
            yield (op for ses in self.sessions for op in self._live(self._visit(ses)))


def check_y_basis(n: int, d, ys) -> None:
    rank = len(d) - 1
    expect(len(ys) == rank, "y basis size")
    wind = [ref.winding(d, ref.exponent_vector(y.syllables, rank)) for y in ys]
    expect(wind == [math.gcd(*d[:-1])] + [0] * (rank - 1),
           f"alpha(y_j) = {wind[:4]}, want (gcd, 0, ..., 0)")


def check_graph(n: int, d, g) -> None:
    # the intersection is the kernel of <x_j^{d_j}> -> Z/n, x_j^{d_j} -> d_j^2:
    # index m = n / (n, d_1^2, ..., d_r^2), so rank m (r - 1) + 1
    dp = d[:-1]
    m = n // math.gcd(n, *[x * x for x in dp])
    got = len(g.edges) - g.num_vertices + 1
    expect(got == m * (len(dp) - 1) + 1, f"intersection graph rank {got}")


def check_transversal(n: int, d, w, res) -> None:
    v, word = res
    rank = len(d) - 1
    vec = ref.exponent_vector(w.syllables, rank)
    expect(v == ref.transversal_exponent(n, d, vec), "transversal exponent")
    got = ref.winding(d, ref.exponent_vector(word.syllables, rank))
    expect(got == ref.winding(d, vec) - v * math.gcd(*d[:-1]),
           "alpha(w y_1^-v) != alpha(w) - v g")


def check_structured(dp, res) -> None:
    cand, det, is_snf = res
    rows = [list(r) for r in cand.entries]
    expect(det == ref.determinant(rows), "structured candidate determinant")
    expect(is_snf == (abs(det) == 1), "structured verdict")
    expect(sum(x * r[0] for x, r in zip(dp, rows)) == math.gcd(*dp), "Bezout column")


WORKLOADS = {
    "report_mix": ReportMix,
    "homology_large_n": HomologyLargeN,
    "exponent_queries": lambda seed: ExponentQueries(
        seed, [(100, 3, 4, 24), (1000, 3, 3, 24)]),
    # not in BENCHMARK.json: most s >= 4 curves exhaust the 1 GiB cap in y_basis
    "exponent_queries_1e4": lambda seed: ExponentQueries(
        seed, [(10_000, 3, 6, 8)], warm=False),
}
