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


def _check_index(i: int, rank: int) -> None:
    if not 1 <= i <= rank - 1:
        raise BraidIndexError(f"braid generator {i} out of range for rank {rank}")


def braid_automorphism(i: int, rank: int) -> FreeAutomorphism:
    """x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i, other generators fixed."""
    _check_index(i, rank)
    images = [Word.generator(rank, k) for k in range(1, rank + 1)]
    inv = [Word.generator(rank, k) for k in range(1, rank + 1)]
    images[i - 1] = Word.make(rank, [(i, 1), (i + 1, 1), (i, -1)])
    images[i] = Word.generator(rank, i)
    inv[i - 1] = Word.generator(rank, i + 1)
    inv[i] = Word.make(rank, [(i + 1, -1), (i, 1), (i + 1, 1)])
    return FreeAutomorphism(rank, tuple(images), tuple(inv))


def abelianized_braid(i: int, rank: int) -> IntMatrix:
    """Permutation matrix swapping coordinates i and i+1."""
    _check_index(i, rank)
    rows = [[1 if r == c else 0 for c in range(rank)] for r in range(rank)]
    rows[i - 1], rows[i] = rows[i], rows[i - 1]
    return IntMatrix.from_rows(rows)


def _swapped(v, i: int) -> list[int]:
    """v with coordinates i and i+1 (1-based) swapped, i.e. S v for the swap S."""
    out = list(v)
    out[i - 1], out[i] = out[i], out[i - 1]
    return out


@lru_cache(maxsize=64)
def _row_transform(dp: tuple[int, ...]) -> tuple[IntMatrix, IntMatrix]:
    """Row Smith transform R of (d_1, ..., d_{s-1}) and its inverse, which
    unimodular_inverse certifies by R R^-1 = I when first computed."""
    r = smith_row(dp).r_matrix
    return r, unimodular_inverse(r)


def _literal_condition(p: CurveParams, row0: list[int], mode: str) -> bool:
    """Whether row 0 of R^-1 S R vanishes off the diagonal (mod n in mode
    'mod_n')."""
    if mode == "integral":
        return all(x == 0 for x in row0[1:])
    return all(x % p.n == 0 for x in row0[1:])


def _conjugated_row0(r: IntMatrix, r_inv: IntMatrix, i: int) -> list[int]:
    """Row 0 of R^-1 S R for the swap S: S is symmetric, so it is row 0 of
    R^-1 with two entries swapped, times R."""
    u = _swapped(r_inv.row(0), i)
    return [sum([x * row[j] for x, row in zip(u, r.entries)]) for j in range(r.cols)]


def counterexample_vector(p: CurveParams, i: int, mode: str = "mod_n",
                          r: IntMatrix | None = None):
    """R-independent lattice test: an abelianized kernel element whose swap
    image leaves the kernel, or None when the swap preserves the kernel.  r is
    the row Smith transform of (d_1, ..., d_{s-1}), computed when not given."""
    _check_index(i, p.rank)
    if r is None:
        r = smith_row(p.d[:p.rank]).r_matrix
    # (S b) . d = b . (S d), so swap d once instead of every basis vector
    d = _swapped(p.d[:p.rank], i)
    for j in range(p.rank):
        basis = list(r.column(j))
        if j == 0:
            if mode == "integral":
                continue  # integral lattice omits the first basis vector
            basis = [p.n * x for x in basis]
        total = sum([x * di for x, di in zip(basis, d)])
        bad = total != 0 if mode == "integral" else total % p.n != 0
        if bad:
            return tuple(basis)
    return None


def lifts_to_kernel(p: CurveParams, i: int, mode: str = "mod_n",
                    audit: bool = False):
    """True iff the braid swap preserves the abelianized kernel (exactly for
    mode 'integral', mod n for mode 'mod_n').  With audit, also returns the
    conjugated swap R^-1 S R, whose row 0 must match the one tested."""
    if mode not in ("integral", "mod_n"):
        raise ValueError("mode must be 'integral' or 'mod_n'")
    _check_index(i, p.rank)
    r, r_inv = _row_transform(p.d[:p.rank])
    row0 = _conjugated_row0(r, r_inv, i)
    literal = _literal_condition(p, row0, mode)
    lattice = counterexample_vector(p, i, mode, r) is None
    if literal != lattice:
        raise OracleDisagreement("literal matrix test disagrees with lattice test")
    if not audit:
        return lattice
    conj = r_inv @ abelianized_braid(i, p.rank) @ r
    if list(conj.row(0)) != row0:
        raise OracleDisagreement("conjugated swap matrix disagrees with its row 0")
    return lattice, conj
