"""Schreier transversals and explicit free generating sets for the kernels of
the winding map and its reduction mod n."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .cover import (CurveParams, CurveValidationError, OracleDisagreement,
                    alpha, alpha_mod_n)
from .exactlin import smith_row
from .freegroup import Word, _apply_op


class TransversalError(CurveValidationError):
    """gcd(d_1, ..., d_{s-1}) shares a factor with n: the powers of y_1 do not
    form a transversal."""


@dataclass(frozen=True)
class KernelGenerators:
    mode: str                       # "modn" or "integral"
    y_basis: tuple[Word, ...]
    generators: tuple[Word, ...]
    window: int | None = None       # half-width N, integral mode only


def _check_partial_gcd(p: CurveParams) -> int:
    g = math.gcd(*p.d[:p.rank])
    if math.gcd(g, p.n) != 1:
        raise TransversalError(
            f"gcd(d_1..d_{p.rank}) = {g} shares a factor with n = {p.n}")
    return g


@lru_cache(maxsize=64)
def y_basis(p: CurveParams) -> tuple[Word, ...]:
    """Free basis y_1, ..., y_{s-1} with alpha values (gcd, 0, ..., 0): the
    column operations of the row Smith form of (d_1, ..., d_{s-1}), replayed
    on the generators as Nielsen moves, so y_j abelianizes to column j of R.

    Memoized per curve: every fresh computation runs all three checks, and a
    repeated call returns the same certified tuple."""
    snf = smith_row(p.d[:p.rank])
    ys = [Word.generator(p.rank, k + 1) for k in range(p.rank)]
    for op in snf.ops:
        _apply_op(ys, op, invert=False)
    a1 = alpha(p, ys[0])
    if a1 != snf.gcd:
        raise OracleDisagreement(f"alpha(y_1) = {a1} != gcd {snf.gcd}")
    if not all(alpha(p, y) == 0 for y in ys[1:]):
        raise OracleDisagreement("alpha(y_j) != 0 for some j >= 2")
    for j, y in enumerate(ys):
        if y.exponent_vector() != snf.r_matrix.column(j):
            raise OracleDisagreement(f"y_{j + 1} does not abelianize to column {j + 1} of R")
    return tuple(ys)


def kernel_generators_mod_n(p: CurveParams) -> KernelGenerators:
    """The (s-2)n + 1 free generators y_1^v y_j y_1^-v (0 <= v < n, j >= 2)
    together with y_1^n, reduced in the x-alphabet."""
    _check_partial_gcd(p)
    ys = y_basis(p)
    gens: list[Word] = []
    y1 = ys[0]
    y1_inv = y1.inverse()
    c = ci = Word.identity(p.rank)      # c = y_1^v and ci = y_1^-v
    for v in range(p.n):
        for j in range(1, p.rank):
            gens.append(c * ys[j] * ci)
        c, ci = c * y1, y1_inv * ci
    gens.append(c)
    if len(gens) != (p.s - 2) * p.n + 1:
        raise OracleDisagreement(f"{len(gens)} kernel generators, expected (s-2)n+1")
    if not all(alpha_mod_n(p, g) == 0 for g in gens):
        raise OracleDisagreement("a kernel generator has nonzero winding mod n")
    return KernelGenerators(mode="modn", y_basis=ys, generators=tuple(gens))


def kernel_generators_integral(p: CurveParams, window: int = 3) -> KernelGenerators:
    """Truncation |v| <= window of the infinite family y_1^v y_j y_1^-v."""
    if window < 0:
        raise ValueError("window must be >= 0")
    _check_partial_gcd(p)
    ys = y_basis(p)
    y1 = ys[0]
    gens: list[Word] = []
    for v in range(-window, window + 1):
        c = y1 ** v
        ci = c.inverse()
        for j in range(1, p.rank):
            gens.append(c * ys[j] * ci)
    if not all(alpha(p, g) == 0 for g in gens):
        raise OracleDisagreement("a kernel generator has nonzero winding")
    return KernelGenerators(mode="integral", y_basis=ys,
                            generators=tuple(gens), window=window)


def transversal_reduce(p: CurveParams, w: Word) -> tuple[int, Word]:
    """Coset representative exponent v (so that H w = H y_1^v) and the kernel
    element w * y_1^-v."""
    g = _check_partial_gcd(p)
    ys = y_basis(p)
    v = (alpha_mod_n(p, w) * pow(g, -1, p.n)) % p.n
    word = w * ys[0] ** (-v)
    if alpha_mod_n(p, word) != 0:
        raise OracleDisagreement(f"w * y_1^-{v} has nonzero winding mod n")
    return v, word
