"""Group ring of the deck group as integer coefficient arrays, the Fox-calculus
relation matrix and the character multiplicities of the first homology of the
complete curve, computed by three independent routes that must agree."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cover import (CurveParams, OracleDisagreement, RankInstability, genus,
                    ramification)
from .freegroup import Word, fox_derivative


def _norm_coeffs(n: int, d: int, e: int) -> np.ndarray:
    """Coefficients of 1 + sigma^d + ... + sigma^{d (e - 1)} in Z[C_n]."""
    return np.bincount(np.arange(e, dtype=np.int64) * (d % n) % n, minlength=n)


@dataclass(frozen=True, eq=False)
class AlexanderMatrix:
    """s x (s+1) relation matrix over the group ring of the deck group, stored
    as one integer array: coeffs[i, j, k] is the coefficient of sigma^k in the
    (i, j) entry."""

    n: int
    s: int
    coeffs: np.ndarray


def _alexander_closed_form(p: CurveParams) -> AlexanderMatrix:
    s, n = p.s, p.n
    a = np.zeros((s, s + 1, n), dtype=np.int64)
    offset = 0
    for i, bp in enumerate(ramification(p)):
        a[i, i] = _norm_coeffs(n, bp.d, bp.e)
        a[i, s, offset % n] = 1
        offset += bp.d
    return AlexanderMatrix(n=n, s=s, coeffs=a)


def _alexander_from_fox(p: CurveParams) -> AlexanderMatrix:
    """Fox derivatives of the relators x_j^{e_j} and x_1 ... x_s, each term
    mapped through x_i -> sigma^{d_i} by its exponent vector."""
    s, n = p.s, p.n
    ram = ramification(p)
    relators = [Word.generator(s, j + 1) ** ram[j].e for j in range(s)]
    relators.append(Word.make(s, [(j, 1) for j in range(1, s + 1)]))
    shift = (0,) + p.d   # shift[g] = d_g, the power of sigma that x_g maps to
    a = np.zeros((s, s + 1, n), dtype=np.int64)
    for i in range(s):
        for j, r in enumerate(relators):
            terms = fox_derivative(r, i + 1).terms
            if terms:
                ks = [sum([e * shift[g] for g, e in w.syllables]) % n for w, _ in terms]
                np.add.at(a[i, j], ks, [c for _, c in terms])
    return AlexanderMatrix(n=n, s=s, coeffs=a)


def alexander_matrix(p: CurveParams) -> AlexanderMatrix:
    """Closed-form relation matrix, cross-checked entrywise against the Fox
    derivative construction."""
    closed = _alexander_closed_form(p)
    fox = _alexander_from_fox(p)
    if not np.array_equal(closed.coeffs, fox.coeffs):
        raise OracleDisagreement("closed-form and Fox relation matrices differ")
    return closed


def multiplicity_closed_form(p: CurveParams, nu: int) -> int:
    """Count of branch points with n not dividing nu*(n, d_i), minus two."""
    nu %= p.n
    if nu == 0:
        return 0
    count = sum(1 for di in p.d if (nu * math.gcd(p.n, di)) % p.n != 0)
    if count < 2:
        raise OracleDisagreement(f"multiplicity count {count} < 2 at nu={nu}; params leak")
    return count - 2


def _rank_multiplicities(p: CurveParams, q: AlexanderMatrix, tol: float) -> np.ndarray:
    """Rank-defect multiplicities at every nu: one DFT specializes the matrix
    at all n-th roots of unity and one batched SVD ranks them. Raises
    RankInstability naming the first nu with a singular value in the guard
    band [0.1, 10] x threshold."""
    if not 0 < tol <= 1e-4:
        raise ValueError("tol must be in (0, 1e-4]")
    # n * ifft(a)[nu] = sum_k a[k] z^k at z = exp(2 pi i nu / n)
    at_roots = np.moveaxis(q.n * np.fft.ifft(q.coeffs, axis=2), 2, 0)   # (n, s, s+1)
    svals = np.linalg.svd(at_roots, compute_uv=False)                    # (n, s), descending
    threshold = tol * svals[:, :1]
    unstable = ((0.1 * threshold <= svals) & (svals <= 10 * threshold)).any(axis=1)
    if unstable.any():
        raise RankInstability(
            f"singular value near threshold at nu={int(np.argmax(unstable))}")
    m = (p.s - (svals > threshold).sum(axis=1)) - 1
    m[0] += 1
    if (m < 0).any():
        raise OracleDisagreement(f"negative multiplicity at nu={int(np.argmax(m < 0))}")
    return m


def multiplicity_rank_oracle(p: CurveParams, nu: int, tol: float = 1e-8) -> int:
    """Numeric-rank route: specialize the relation matrix at the nu-th root of
    unity and read the multiplicity off the rank defect. This is entry nu of
    the batched computation over all roots, so an unstable nu anywhere raises."""
    return int(_rank_multiplicities(p, alexander_matrix(p), tol)[nu % p.n])


def chevalley_weil(p: CurveParams, nu: int) -> int:
    """Multiplicity of the nu-th character on holomorphic differentials:
    -1 + [nu=0] + sum_i <(-nu d_i)/n>, computed as n times itself in integers."""
    n = p.n
    nu %= n
    total = (n if nu == 0 else 0) - n
    for di in p.d:
        total += (-nu * di) % n
    if total % n != 0 or total < 0:
        g = math.gcd(total, n)
        shown = str(total // g) if g == n else f"{total // g}/{n // g}"
        raise OracleDisagreement(f"non-integral multiplicity {shown} at nu={nu}")
    return total // n


@dataclass(frozen=True)
class HomologyDecomposition:
    n: int
    genus: int
    multiplicities: tuple[int, ...]   # M_0 .. M_{n-1}
    cw_table: tuple[int, ...]         # m_0 .. m_{n-1}


def homology_decomposition(p: CurveParams, tol: float = 1e-8) -> HomologyDecomposition:
    """All three multiplicity routes; any disagreement raises naming the nu."""
    g = genus(p)
    by_rank = _rank_multiplicities(p, alexander_matrix(p), tol).tolist()
    ms = [chevalley_weil(p, nu) for nu in range(p.n)]
    big = []
    for nu in range(p.n):
        closed = multiplicity_closed_form(p, nu)
        hodge = ms[nu] + ms[(p.n - nu) % p.n]
        if not closed == by_rank[nu] == hodge:
            raise OracleDisagreement(
                f"nu={nu}: closed form {closed}, rank oracle {by_rank[nu]}, "
                f"Hodge sum {hodge}")
        big.append(closed)
    if big[0] != 0:
        raise OracleDisagreement("M_0 != 0")
    if sum(big) != 2 * g:
        raise OracleDisagreement(f"sum M = {sum(big)} != 2g = {2 * g}")
    if sum(ms) != g:
        raise OracleDisagreement(f"sum m = {sum(ms)} != g = {g}")
    return HomologyDecomposition(n=p.n, genus=g,
                                 multiplicities=tuple(big), cw_table=tuple(ms))
