"""Artin braid generators as free-group automorphisms and the liftability test
for the abelianized winding kernels."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cover import CurveParams, OracleDisagreement
from .exactlin import IntMatrix, smith_row, unimodular_inverse
from .freegroup import FreeAutomorphism, Word


class BraidIndexError(ValueError):
    pass


@dataclass(frozen=True)
class BraidWord:
    """Word in the braid generators acting on a free group of the given rank."""

    rank: int
    letters: tuple[tuple[int, int], ...]   # (generator index, sign +-1)

    def __post_init__(self):
        for i, sign in self.letters:
            if not 1 <= i <= self.rank - 1:
                raise BraidIndexError(f"braid generator {i} out of range")
            if sign not in (1, -1):
                raise BraidIndexError("sign must be +-1")

    def automorphism(self) -> FreeAutomorphism:
        acc = FreeAutomorphism.identity(self.rank)
        for i, sign in self.letters:
            b = braid_automorphism(i, self.rank)
            acc = acc.compose(b if sign == 1 else b.inverse())
        return acc


def braid_automorphism(i: int, rank: int) -> FreeAutomorphism:
    """x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i, other generators fixed."""
    if not 1 <= i <= rank - 1:
        raise BraidIndexError(f"braid generator {i} out of range for rank {rank}")
    images = [Word.generator(rank, k) for k in range(1, rank + 1)]
    inv = [Word.generator(rank, k) for k in range(1, rank + 1)]
    images[i - 1] = Word.make(rank, [(i, 1), (i + 1, 1), (i, -1)])
    images[i] = Word.generator(rank, i)
    inv[i - 1] = Word.generator(rank, i + 1)
    inv[i] = Word.make(rank, [(i + 1, -1), (i, 1), (i + 1, 1)])
    return FreeAutomorphism(rank, tuple(images), tuple(inv))


def abelianized_braid(i: int, rank: int) -> IntMatrix:
    """Permutation matrix swapping coordinates i and i+1."""
    if not 1 <= i <= rank - 1:
        raise BraidIndexError(f"braid generator {i} out of range for rank {rank}")
    rows = [[1 if r == c else 0 for c in range(rank)] for r in range(rank)]
    rows[i - 1], rows[i] = rows[i], rows[i - 1]
    return IntMatrix.from_rows(rows)


@lru_cache(maxsize=64)
def _row_transform(dp: tuple[int, ...]) -> tuple[IntMatrix, IntMatrix]:
    """Row Smith transform R of (d_1, ..., d_{s-1}) and its inverse, which
    unimodular_inverse certifies by R R^-1 = I when first computed."""
    r = smith_row(dp).r_matrix
    return r, unimodular_inverse(r)


def _literal_condition(p: CurveParams, r: IntMatrix, r_inv: IntMatrix, i: int,
                       mode: str) -> tuple[bool, IntMatrix]:
    conj = r_inv @ abelianized_braid(i, p.rank) @ r
    head = [conj[0, j] for j in range(1, p.rank)]
    if mode == "integral":
        ok = all(x == 0 for x in head)
    else:
        ok = all(x % p.n == 0 for x in head)
    return ok, conj


def counterexample_vector(p: CurveParams, i: int, mode: str = "mod_n",
                          r: IntMatrix | None = None):
    """R-independent lattice test: an abelianized kernel element whose swap
    image leaves the kernel, or None when the swap preserves the kernel.  r is
    the row Smith transform of (d_1, ..., d_{s-1}), computed when not given."""
    if r is None:
        r = smith_row(p.d[:p.rank]).r_matrix
    d = p.d[:p.rank]
    swap = abelianized_braid(i, p.rank)
    for j in range(p.rank):
        basis = list(r.column(j))
        if j == 0:
            if mode == "integral":
                continue  # integral lattice omits the first basis vector
            basis = [p.n * x for x in basis]
        image = swap.mul_vector(basis)
        total = sum(x * di for x, di in zip(image, d))
        bad = total != 0 if mode == "integral" else total % p.n != 0
        if bad:
            return tuple(basis)
    return None


def lifts_to_kernel(p: CurveParams, i: int, mode: str = "mod_n",
                    audit: bool = False):
    """True iff the braid swap preserves the abelianized kernel (exactly for
    mode 'integral', mod n for mode 'mod_n')."""
    if mode not in ("integral", "mod_n"):
        raise ValueError("mode must be 'integral' or 'mod_n'")
    r, r_inv = _row_transform(p.d[:p.rank])
    literal, conj = _literal_condition(p, r, r_inv, i, mode)
    lattice = counterexample_vector(p, i, mode, r) is None
    if literal != lattice:
        raise OracleDisagreement("literal matrix test disagrees with lattice test")
    return (lattice, conj) if audit else lattice
