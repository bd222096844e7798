"""Exact integer linear algebra: extended gcd, Smith normal forms, unimodular inverses.

Everything here is done with Python's unbounded integers; no floating point
is ever involved.  Matrices are immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


class ExactLinError(ValueError):
    """Invalid input to an exact linear algebra operation."""


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major, arbitrary precision entries."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ExactLinError("matrix dimensions must be positive")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ExactLinError("entry count does not match dimensions")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        t = tuple(tuple(int(x) for x in r) for r in rows)
        return IntMatrix(len(t), len(t[0]) if t else 0, t)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ExactLinError("dimension mismatch in matrix product")
        rows = [
            [sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
             for j in range(other.cols)]
            for i in range(self.rows)
        ]
        return IntMatrix.from_rows(rows)

    def mul_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ExactLinError("dimension mismatch in matrix-vector product")
        return tuple(sum(self.entries[i][k] * v[k] for k in range(self.cols))
                     for i in range(self.rows))

    def transpose(self) -> "IntMatrix":
        return IntMatrix.from_rows([self.column(j) for j in range(self.cols)])

    def det(self) -> int:
        """Exact determinant via fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ExactLinError("determinant of a non-square matrix")
        n = self.rows
        a = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def to_obj(self) -> dict:
        # entries as decimal strings: they can exceed 2**63
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[str(x) for x in r] for r in self.entries],
        }


@dataclass(frozen=True)
class SnfResult:
    """Row Smith normal form: input_row . r_matrix = (gcd, 0, ..., 0)."""

    gcd: int
    r_matrix: IntMatrix
    ops: tuple = ()     # the column operations, in the order applied


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with u*a + v*b = g = gcd(|a|, |b|) >= 0."""
    if a == 0 and b == 0:
        raise ExactLinError("gcd(0, 0) is undefined")
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def _col_op(rows: list[list[int]], op: tuple) -> None:
    """Apply one column operation to every row: ("add", i, j, c) is
    col_j += c * col_i, ("swap", i, j) and ("neg", i) are what they say."""
    if op[0] == "add":
        _, i, j, c = op
        for row in rows:
            row[j] += c * row[i]
    elif op[0] == "swap":
        _, i, j = op
        for row in rows:
            row[i], row[j] = row[j], row[i]
    else:
        i = op[1]
        for row in rows:
            row[i] = -row[i]


def _log_op(rows: list[list[int]], op: tuple, ops: list[tuple]) -> None:
    _col_op(rows, op)
    ops.append(op)


def _replay(ops: Sequence[tuple], m: int) -> IntMatrix:
    """The product E_1 ... E_k of the logged column operations (m x m)."""
    rows = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for op in ops:
        _col_op(rows, op)
    return IntMatrix.from_rows(rows)


def _clear_row(rows: list[list[int]], t: int, ops: list[tuple]) -> None:
    """Euclid across row t, columns >= t, until it reads (g, 0, ..., 0) with
    g > 0 in column t.  Each column operation is applied to every row and
    appended to ops."""
    row, m = rows[t], len(rows[t])
    while True:
        nz = [j for j in range(t, m) if row[j] != 0]
        if not nz:
            raise ExactLinError("matrix is singular")
        pivot = min(nz, key=lambda j: abs(row[j]))
        if pivot != t:
            _log_op(rows, ("swap", t, pivot), ops)
        done = True
        for j in range(t + 1, m):
            if row[j] != 0:
                q = row[j] // row[t]
                if q:
                    _log_op(rows, ("add", t, j, -q), ops)
                done = done and row[j] == 0
        if done:
            break
    if row[t] < 0:
        _log_op(rows, ("neg", t), ops)


def smith_row(d: Sequence[int]) -> SnfResult:
    """Smith normal form of a 1 x m row: find unimodular R with d.R = (g, 0, .., 0)."""
    d = [int(x) for x in d]
    if not d:
        raise ExactLinError("empty input row")
    if any(x == 0 for x in d):
        raise ExactLinError("zero entry in input row")
    ops: list[tuple] = []
    _clear_row([d], 0, ops)   # d now reads (g, 0, ..., 0)
    return SnfResult(gcd=d[0], r_matrix=_replay(ops, len(d)), ops=tuple(ops))


def _factor_to_identity(r: IntMatrix) -> list[tuple]:
    """Column operations E_1, ..., E_k with r . E_1 ... E_k = I, in the order
    applied; raises ExactLinError unless r is unimodular."""
    if r.rows != r.cols:
        raise ExactLinError("matrix is not square")
    n = r.rows
    m = [list(row) for row in r.entries]
    ops: list[tuple] = []
    for t in range(n):
        _clear_row(m, t, ops)
    if any(m[t][t] != 1 for t in range(n)):
        raise ExactLinError("matrix is not unimodular")
    # lower triangular with unit diagonal: clear below-diagonal entries
    for j in range(n - 2, -1, -1):
        for i in range(j + 1, n):
            if m[i][j] != 0:
                _log_op(m, ("add", i, j, -m[i][j]), ops)
    return ops


def _transposed(rows: list[list[int]]) -> list[list[int]]:
    return [list(c) for c in zip(*rows)]


def smith_full(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Full Smith normal form: L.A.R = D diagonal with divisor chain, L, R
    unimodular.  _clear_row clears row t with column operations, and column t
    with column operations of the transpose, which are row operations of A;
    R replays the column log and L is the transpose of the replayed row log."""
    m, n = a.rows, a.cols
    mat = [list(r) for r in a.entries]
    row_ops: list[tuple] = []
    col_ops: list[tuple] = []
    for t in range(min(m, n)):
        while True:
            if any(mat[t][t:]):
                _clear_row(mat, t, col_ops)
            tr = _transposed(mat)
            if any(tr[t][t:]):
                _clear_row(tr, t, row_ops)
            mat = _transposed(tr)
            if any(mat[t][t + 1:]):     # the column pass swapped a new row into row t
                continue
            # the pivot must divide the trailing block (a zero pivot divides only 0)
            g = mat[t][t]
            bad = next((i for i in range(t + 1, m)
                        if any(x % g if g else x for x in mat[i][t:])), None)
            if bad is None:
                break
            mat[t] = [x + y for x, y in zip(mat[t], mat[bad])]   # row_t += row_bad
            row_ops.append(("add", bad, t, 1))
    return _replay(row_ops, m).transpose(), IntMatrix.from_rows(mat), _replay(col_ops, n)


def unimodular_inverse(r: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with determinant +-1: r . E_1 ... E_k = I, so
    the inverse is the factorization's column operations replayed on I."""
    inv = _replay(_factor_to_identity(r), r.rows)
    if r @ inv != IntMatrix.identity(r.rows):
        raise ExactLinError("replayed factorization does not invert the matrix")
    return inv


def bezout_coefficients(d: Sequence[int]) -> tuple[int, list[int]]:
    """Coefficients h with sum(h_i * d_i) = gcd(d) > 0."""
    d = [int(x) for x in d]
    g = d[0]
    h = [1] + [0] * (len(d) - 1)
    if g < 0:
        g, h[0] = -g, -1
    for i in range(1, len(d)):
        g2, u, v = egcd(g, d[i])
        h = [u * x for x in h]
        h[i] = v
        g = g2
    return g, h


def structured_smith(d: Sequence[int], n: int | None = None) -> tuple[IntMatrix, int, bool]:
    """Candidate SNF transform built from Bezout coefficients and the ratios
    d_i/(d_1,d_i), d_1/(d_1,d_i); it is a valid Smith transform iff |det| = 1.

    The candidate, its determinant and the verdict depend on d alone; n is
    not read and is accepted only for callers that pass the cover order."""
    d = [int(x) for x in d]
    if len(d) < 2:
        raise ExactLinError("need at least two entries")
    if any(x <= 0 for x in d):
        raise ExactLinError("entries must be positive")
    m = len(d)
    g, h = bezout_coefficients(d)
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        rows[i][0] = h[i]
    for j in range(1, m):
        gj = math.gcd(d[0], d[j])
        rows[0][j] = -(d[j] // gj)   # -delta_j
        rows[j][j] = d[0] // gj      # Delta_j
    candidate = IntMatrix.from_rows(rows)
    det = candidate.det()
    is_snf = abs(det) == 1
    return candidate, det, is_snf

