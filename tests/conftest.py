import math
import random

import pytest
from hypothesis import example
from hypothesis import strategies as st

from kummercover.cover import CurveParams, validate
from kummercover.freegroup import Word, parse_word


def random_curve(rng: random.Random, s_max: int = 6, n_max: int = 12,
                 s_min: int = 3, n_min: int = 2) -> CurveParams:
    """Rejection-sample a valid parameter set."""
    while True:
        n = rng.randint(n_min, n_max)
        s = rng.randint(s_min, s_max)
        d = [rng.randint(1, 3 * n) for _ in range(s - 1)]
        if any(x % n == 0 for x in d):
            continue
        last = (-sum(d)) % n
        # pad the closing exponent so it stays positive and not 0 mod n
        last += n * rng.randint(1, 3)
        d.append(last)
        if last % n == 0:
            continue
        if math.gcd(math.gcd(*d), n) != 1:
            continue
        return validate(n, d)


def random_word(rng: random.Random, rank: int, length: int) -> Word:
    sylls = [(rng.randint(1, rank), rng.choice([-1, 1]) * rng.randint(1, 2))
             for _ in range(length)]
    return Word.make(rank, sylls)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@st.composite
def word_families(draw, rank_=None):
    """Word lists mixing fresh words with the cases the two-ended walk reads
    differently: identities, single letters, inverses and products of
    earlier words (already closed paths) and shared suffixes; and with the
    cases that resume a walk on the previous word's trail: conjugate chains
    u^v w u^-v for consecutive v, prefixes and suffixes shared up to the
    middle of a syllable, a short word after a long one and the identity
    between two long words."""
    if rank_ is None:
        rank_ = draw(st.integers(1, 3))
    syllables = st.lists(st.tuples(st.integers(1, rank_),
                                   st.sampled_from([-3, -2, -1, 1, 2, 3])),
                         max_size=5)
    words = [Word.make(rank_, draw(syllables))]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["fresh", "identity", "letter", "inverse",
                                     "product", "suffix", "chain", "split",
                                     "short", "gap"]))
        old = words[draw(st.integers(0, len(words) - 1))]
        last = words[-1].syllables
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
        elif kind == "suffix":
            cut = draw(st.integers(0, len(old.syllables)))
            words.append(Word.make(rank_, draw(syllables)) *
                         Word.make(rank_, old.syllables[cut:]))
        elif kind == "chain":
            u = Word.make(rank_, draw(syllables))
            start = draw(st.integers(0, 3))
            for v in range(start, start + draw(st.integers(2, 4))):
                words.append(u ** v * old * u ** -v)
        elif kind == "split" and last:
            # share the previous word's first (or last) syllable in part
            at_end = draw(st.booleans())
            g, e = last[-1] if at_end else last[0]
            part = [(g, draw(st.integers(1, abs(e))) * (1 if e > 0 else -1))]
            rest = draw(syllables)
            words.append(Word.make(rank_, rest + part if at_end else part + rest))
        elif kind == "short":
            long = old * old * old
            cut = draw(st.integers(0, len(long.syllables)))
            words += [long, Word.make(rank_, long.syllables[:cut][:2])]
        elif kind == "gap":
            long = old * old
            words += [long, Word.identity(rank_), long * Word.make(rank_, draw(syllables))]
    return rank_, words


def _family(*texts):
    return 2, [parse_word(2, text) for text in texts]


def carried_end_examples(test):
    """The word lists on which sums carried from the previous word are read
    differently, as Hypothesis @example cases of word_families: the identity
    between two long words; an empty middle (a word that is the previous
    word's front, then its back); a share that ends inside a syllable; and a
    shared front (back) longer than the previous word's carried sums reach."""
    for family in (
            _family("x1^2*x2*x1^-1*x2^3", "1", "x1^2*x2*x1^-1*x2^3*x1"),
            _family("x1*x2^2*x1^-1*x2*x1^3", "x1*x2^2*x1^3"),
            _family("x2*x1^3*x2*x1^-2", "x2*x1^2*x2^-1*x1^-3"),
            _family("x1*x2*x1^2*x2^3", "x1*x2^-1*x1^2*x2^3",
                    "x1*x2^-1*x1^2*x2^3*x1"),
            _family("x1*x2*x1^2*x2^3", "x1*x2^-1*x1^2*x2^3",
                    "x2*x1*x2^-1*x1^2*x2^3")):
        test = example(family)(test)
    return test
