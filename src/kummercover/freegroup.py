"""Reduced words in a free group, Nielsen moves, matrix-to-automorphism lifts
and Fox derivatives."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Sequence

from .exactlin import ExactLinError, IntMatrix, _factor_to_identity


class WordError(ValueError):
    """Malformed word or rank mismatch."""


def _reduce(syllables: Iterable[tuple[int, int]],
            rank: int) -> tuple[tuple[int, int], ...]:
    out: list[list[int]] = []
    for g, e in syllables:
        if e == 0:
            continue
        if not 1 <= g <= rank:
            raise WordError(f"generator index {g} out of range for rank {rank}")
        if out and out[-1][0] == g:
            out[-1][1] += e
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([g, e])
    return tuple((g, e) for g, e in out)


def _merge_reduced(a: tuple[tuple[int, int], ...],
                   b: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """Concatenate two reduced syllable tuples, cancelling across the junction
    only; avoids a full reduction pass."""
    trim, ib = len(a), 0
    lb = len(b)
    bridge: tuple[tuple[int, int], ...] = ()
    while trim > 0 and ib < lb:
        g1, e1 = a[trim - 1]
        g2, e2 = b[ib]
        if g1 != g2:
            break
        trim -= 1
        ib += 1
        e = e1 + e2
        if e != 0:
            bridge = ((g1, e),)
            break
    return a[:trim] + bridge + b[ib:]


def _raw_word(rank: int, syllables: tuple[tuple[int, int], ...]) -> "Word":
    """Wrap an already-reduced syllable tuple without re-validation."""
    w = object.__new__(Word)
    # writing the instance dict directly skips two frozen-dataclass setattrs
    fields = w.__dict__
    fields["rank"] = rank
    fields["syllables"] = syllables
    return w


# text of each syllable (g, e) with |e| <= _TEXT_EXP, filled on first use up
# to _TEXT_MAX entries; longer exponents and later syllables are formatted anew
_TEXT_EXP, _TEXT_MAX = 256, 4096
_syllable_text: dict[tuple[int, int], str] = {}


def _format_syllable(syllable: tuple[int, int]) -> str:
    g, e = syllable
    text = f"x{g}" if e == 1 else f"x{g}^{e}"
    if -_TEXT_EXP <= e <= _TEXT_EXP and len(_syllable_text) < _TEXT_MAX:
        _syllable_text[syllable] = text
    return text


def _shared_ends(syl: tuple[tuple[int, int], ...], prev: tuple[tuple[int, int], ...],
                 front_cap: int, back_cap: int) -> tuple[int, int]:
    """How many whole syllables syl shares with prev at the front, at most
    front_cap, and then at the back, at most back_cap and none of the front
    ones.  Each count is a binary search of tuple slice compares, so the
    shared syllables are compared in C only."""
    ns, nprev = len(syl), len(prev)
    lo, hi = 0, min(front_cap, ns, nprev) + 1
    while hi - lo > 1:      # the first lo syllables match, the first hi do not
        mid = (lo + hi) // 2
        if syl[lo:mid] == prev[lo:mid]:
            lo = mid
        else:
            hi = mid
    front = lo
    lo, hi = 0, min(back_cap, ns - front, nprev) + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if syl[ns - mid:ns - lo] == prev[nprev - mid:nprev - lo]:
            lo = mid
        else:
            hi = mid
    return front, lo


def _family_text(words: Iterable[Word]) -> list[str]:
    """str(w) for each word, formatting only the syllables that a word does
    not share with the previous nonempty word at either end: the rest is the
    previous text, sliced at offsets carried from word to word."""
    texts = []
    text = _syllable_text.get
    prev, prev_text = (), ""
    # front[k] is the length of the text of prev's first k syllables, each
    # with the "*" after it, back[k] that of its last k, each with the "*"
    # before it; each covers prev's shared end and its middle
    front, back = [0], [0]
    for w in words:
        syl = w.syllables
        if not syl:
            texts.append("1")
            continue
        lo, hi = _shared_ends(syl, prev, len(front) - 1, len(back) - 1)
        parts = [text(sy) or _format_syllable(sy) for sy in syl[lo:len(syl) - hi]]
        sizes = [len(part) + 1 for part in parts]
        if lo:
            parts.insert(0, prev_text[:front[lo] - 1])
        if hi:
            parts.append(prev_text[len(prev_text) - back[hi] + 1:])
        front[lo:] = accumulate(sizes, initial=front[lo])
        back[hi:] = accumulate(reversed(sizes), initial=back[hi])
        prev, prev_text = syl, "*".join(parts)
        texts.append(prev_text)
    return texts


@dataclass(frozen=True)
class Word:
    """Freely reduced word; syllables are (generator index >= 1, nonzero exponent)."""

    rank: int
    syllables: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for g, e in self.syllables:
            if not 1 <= g <= self.rank:
                raise WordError(f"generator index {g} out of range for rank {self.rank}")
            if e == 0:
                raise WordError("zero exponent syllable")
        for (g1, _), (g2, _) in zip(self.syllables, self.syllables[1:]):
            if g1 == g2:
                raise WordError("word is not freely reduced")

    @staticmethod
    def make(rank: int, syllables: Iterable[tuple[int, int]]) -> "Word":
        # _reduce already yields a validated reduced word, so skip the
        # second __post_init__ pass (it matters on bulk word construction)
        return _raw_word(rank, _reduce(syllables, rank))

    @staticmethod
    def generator(rank: int, i: int, e: int = 1) -> "Word":
        return Word.make(rank, [(i, e)])

    @staticmethod
    def identity(rank: int) -> "Word":
        return Word(rank, ())

    def __bool__(self) -> bool:
        return bool(self.syllables)

    def __len__(self) -> int:
        return sum(abs(e) for _, e in self.syllables)

    def __mul__(self, other: "Word") -> "Word":
        if self.rank != other.rank:
            raise WordError("rank mismatch")
        return _raw_word(self.rank, _merge_reduced(self.syllables, other.syllables))

    def inverse(self) -> "Word":
        # reversing and negating a reduced word keeps it reduced
        return _raw_word(self.rank,
                         tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, k: int) -> "Word":
        if k == 0:
            return Word.identity(self.rank)
        base = self if k > 0 else self.inverse()
        syl = base.syllables
        if syl and syl[0][0] != syl[-1][0]:
            # nothing cancels or merges where two copies meet
            return _raw_word(self.rank, syl * abs(k))
        out = Word.identity(self.rank)
        sq = base
        k = abs(k)
        while k:
            if k & 1:
                out = out * sq
            k >>= 1
            if k:
                sq = sq * sq
        return out

    def exponent_vector(self) -> tuple[int, ...]:
        v = [0] * self.rank
        for g, e in self.syllables:
            v[g - 1] += e
        return tuple(v)

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        text = _syllable_text.get
        return "*".join([text(sy) or _format_syllable(sy) for sy in self.syllables])


_TOKEN = re.compile(r"x(\d+)(?:\^(-?\d+))?")


def parse_word(rank: int, text: str) -> Word:
    text = text.strip()
    if text in ("", "1"):
        return Word.identity(rank)
    pos = 0
    sylls = []
    for m in _TOKEN.finditer(text):
        gap = text[pos:m.start()]
        if gap.strip() not in ("", "*"):
            raise WordError(f"cannot parse word near {gap!r}")
        g = int(m.group(1))
        e = int(m.group(2)) if m.group(2) is not None else 1
        sylls.append((g, e))
        pos = m.end()
    if text[pos:].strip():
        raise WordError(f"trailing junk in word: {text[pos:]!r}")
    return Word.make(rank, sylls)


@dataclass(frozen=True)
class FormalSum:
    """Integer linear combination of words (an element of the group ring of the
    free group)."""

    rank: int
    terms: tuple[tuple[Word, int], ...] = ()

    @staticmethod
    def make(rank: int, items: Iterable[tuple[Word, int]]) -> "FormalSum":
        acc: dict[Word, int] = {}
        for w, c in items:
            acc[w] = acc.get(w, 0) + c
        terms = tuple(sorted(((w, c) for w, c in acc.items() if c != 0),
                             key=lambda t: (len(t[0]), str(t[0]))))
        return FormalSum(rank, terms)

    @staticmethod
    def zero(rank: int) -> "FormalSum":
        return FormalSum(rank, ())

    @staticmethod
    def of(w: Word, c: int = 1) -> "FormalSum":
        return FormalSum.make(w.rank, [(w, c)])

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum.make(self.rank, self.terms + other.terms)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + other.scale(-1)

    def scale(self, c: int) -> "FormalSum":
        return FormalSum.make(self.rank, [(w, c * k) for w, k in self.terms])

    def __mul__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum.make(self.rank,
                              [(w1 * w2, c1 * c2)
                               for w1, c1 in self.terms for w2, c2 in other.terms])


def fox_derivative(w: Word, j: int) -> FormalSum:
    """Free Fox derivative d(w)/d(x_j)."""
    if not 1 <= j <= w.rank:
        raise WordError(f"generator index {j} out of range")
    rank, sylls = w.rank, w.syllables
    items: list[tuple[Word, int]] = []
    for t, (g, e) in enumerate(sylls):
        if g != j:
            continue
        # w is reduced, so the prefix ends in a generator other than x_j and
        # prefix * x_j^k is already reduced for every k != 0
        prefix = sylls[:t]
        if e > 0:
            items.append((_raw_word(rank, prefix), 1))
            items.extend((_raw_word(rank, prefix + ((j, k),)), 1) for k in range(1, e))
        else:
            items.extend((_raw_word(rank, prefix + ((j, -k),)), -1)
                         for k in range(1, 1 - e))
    return FormalSum.make(rank, items)


@dataclass(frozen=True)
class FreeAutomorphism:
    """Automorphism of a free group, certified invertible by carrying its inverse."""

    rank: int
    images: tuple[Word, ...]
    inverse_images: tuple[Word, ...]

    def __post_init__(self):
        if len(self.images) != self.rank or len(self.inverse_images) != self.rank:
            raise WordError("wrong number of generator images")
        # one direction suffices: free groups are Hopfian, so a surjective
        # endomorphism (forced by apply(inverse_images) = generators) is an
        # automorphism and the stored images are its genuine inverse
        for i in range(self.rank):
            gen = Word.generator(self.rank, i + 1)
            if self.apply(self.inverse_images[i]) != gen:
                raise WordError("stored inverse does not invert the automorphism")

    def apply(self, w: Word) -> Word:
        # single concatenation + one reduction pass; quadratic rebuilding is
        # far too slow for the long images produced by matrix lifts
        sylls: list[tuple[int, int]] = []
        inv_cache: dict[int, Word] = {}
        for g, e in w.syllables:
            if e > 0:
                base = self.images[g - 1]
            else:
                if g not in inv_cache:
                    inv_cache[g] = self.images[g - 1].inverse()
                base = inv_cache[g]
            sylls.extend(base.syllables * abs(e))
        return Word.make(self.rank, sylls)

    def inverse(self) -> "FreeAutomorphism":
        return _certified(self.rank, self.inverse_images, self.images)

    def compose(self, other: "FreeAutomorphism") -> "FreeAutomorphism":
        """self after other; abelianizes to matrix(self) @ matrix(other)."""
        if self.rank != other.rank:
            raise WordError("rank mismatch")
        # both factors are certified, so the composite pair is inverse by construction
        return _certified(self.rank, [self.apply(w) for w in other.images],
                          [other.inverse().apply(w) for w in self.inverse_images])

    def matrix(self) -> IntMatrix:
        """Abelianization; column i is the exponent vector of the image of x_i."""
        cols = [w.exponent_vector() for w in self.images]
        return IntMatrix.from_rows([[cols[j][i] for j in range(self.rank)]
                                    for i in range(self.rank)])


def _certified(rank: int, images: Sequence[Word],
               inverse_images: Sequence[Word]) -> FreeAutomorphism:
    """Wrap an image pair that is inverse by construction, skipping the
    word-level check of __post_init__, which is quadratic in the image lengths."""
    auto = object.__new__(FreeAutomorphism)
    object.__setattr__(auto, "rank", rank)
    object.__setattr__(auto, "images", tuple(images))
    object.__setattr__(auto, "inverse_images", tuple(inverse_images))
    return auto


def _apply_op(images: list[Word], op: tuple, invert: bool) -> None:
    """Replay one logged column operation of exactlin on words: post-compose
    the image list with the matching Nielsen move, or with its inverse when
    invert is set (additive length growth)."""
    if op[0] == "add":
        _, i, j, c = op
        if invert:
            c = -c
        images[j] = images[j] * images[i] ** c
    elif op[0] == "swap":
        _, i, j = op
        images[i], images[j] = images[j], images[i]
    else:
        images[op[1]] = images[op[1]].inverse()


def lift_unimodular(r: IntMatrix) -> FreeAutomorphism:
    """Lift a unimodular matrix to a free group automorphism whose abelianization
    (images' exponent vectors as columns) equals the matrix."""
    ops = _factor_to_identity(r)
    n = r.rows
    # r . E_1 ... E_k = I  =>  r = E_k^-1 ... E_1^-1 and r^-1 = E_1 ... E_k;
    # the two image lists are folded separately so neither needs the
    # (multiplicative-cost) inverse tracking of FreeAutomorphism.compose
    images = [Word.generator(n, k + 1) for k in range(n)]
    for op in reversed(ops):
        _apply_op(images, op, invert=True)
    inverse_images = [Word.generator(n, k + 1) for k in range(n)]
    for op in ops:
        _apply_op(inverse_images, op, invert=False)
    # both lists mirror the same verified factorization, so the pair is
    # inverse by construction
    auto = _certified(n, images, inverse_images)
    if auto.matrix() != r:
        raise ExactLinError("lift abelianization mismatch")
    return auto
