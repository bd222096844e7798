"""Validated cover data for y^n = prod (x - b_i)^{d_i}: ramification,
monodromy, genus and the winding homomorphisms."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .freegroup import Word, WordError


class CurveValidationError(ValueError):
    """Base class for invalid cover data."""


class OracleDisagreement(RuntimeError):
    """Two independent computations of the same quantity differ."""


class RankInstability(RuntimeError):
    """A singular value fell inside the guard band around the rank threshold."""


class RamificationViolation(CurveValidationError):
    """Some d_i is divisible by n, so the point below it would be unramified."""


class DegreeViolation(CurveValidationError):
    """The exponent sum is not divisible by n (infinity would ramify)."""


class ReducibleCurve(CurveValidationError):
    """gcd(d_1, ..., d_s) shares a factor with n, so the curve is reducible."""


@dataclass(frozen=True)
class CurveParams:
    """Cover order n and the full exponent vector d (length s >= 3)."""

    n: int
    d: tuple[int, ...]

    @property
    def s(self) -> int:
        return len(self.d)

    @property
    def rank(self) -> int:
        """Rank of the free fundamental group of the punctured line."""
        return self.s - 1

    def to_obj(self) -> dict:
        return {"n": self.n, "d": list(self.d)}


def _integer(name: str, x) -> int:
    try:
        return operator.index(x)
    except TypeError:
        raise CurveValidationError(f"{name} = {x!r} is not an integer") from None


def validate(n: int, d) -> CurveParams:
    n = _integer("n", n)
    d = tuple(_integer(f"d_{i + 1}", x) for i, x in enumerate(d))
    if n < 2:
        raise CurveValidationError(f"cover order must be >= 2, got {n}")
    if len(d) < 3:
        raise CurveValidationError(f"need at least 3 branch points, got {len(d)}")
    if any(x <= 0 for x in d):
        raise CurveValidationError("exponents must be positive")
    for i, x in enumerate(d):
        if x % n == 0:
            raise RamificationViolation(
                f"d_{i + 1} = {x} is divisible by n = {n}; branch point would be unramified")
    if sum(d) % n != 0:
        raise DegreeViolation(
            f"sum of exponents {sum(d)} is not 0 mod n = {n}; infinity would ramify")
    g = math.gcd(*d)
    if math.gcd(g, n) != 1:
        raise ReducibleCurve(
            f"gcd of exponents {g} shares a factor with n = {n}; curve is reducible")
    return CurveParams(n=n, d=d)


@dataclass(frozen=True)
class BranchPoint:
    """Ramification record for one branch point."""

    index: int            # 1-based branch point index
    d: int                # exponent d_i
    gcd: int              # (n, d_i) = number of points above b_i
    e: int                # ramification index n/(n, d_i)
    ell: int              # monodromy exponent, inverse of d_i/(n,d_i) mod e

    def __post_init__(self):
        if self.e * self.gcd == 0:
            raise CurveValidationError(f"branch point {self.index}: zero ramification data")
        if (self.ell * (self.d // self.gcd)) % self.e != 1 % self.e:
            raise CurveValidationError(
                f"branch point {self.index}: ell = {self.ell} does not invert "
                f"d_i/(n, d_i) mod e = {self.e}")


def ramification(p: CurveParams) -> tuple[BranchPoint, ...]:
    pts = []
    for i, di in enumerate(p.d, start=1):
        g = math.gcd(p.n, di)
        e = p.n // g
        ell = pow(di // g, -1, e) if e > 1 else 1
        if ell == 0:
            ell = e  # canonical representative in [1, e]
        pts.append(BranchPoint(index=i, d=di, gcd=g, e=e, ell=ell))
    return tuple(pts)


def alpha(p: CurveParams, w: Word) -> int:
    """Winding homomorphism x_i -> d_i on the free group of rank s-1."""
    if w.rank != p.rank:
        raise WordError(f"word rank {w.rank} != {p.rank}")
    # one pass sums the exponents per generator, so the d_i multiply only once
    v = [0] * (p.rank + 1)
    for g, e in w.syllables:
        v[g] += e
    return sum(map(operator.mul, v[1:], p.d))


def alpha_mod_n(p: CurveParams, w: Word) -> int:
    return alpha(p, w) % p.n


def genus(p: CurveParams) -> int:
    two_g = 2 + (p.s - 2) * p.n - sum(math.gcd(p.n, di) for di in p.d)
    if two_g < 0 or two_g % 2 != 0:
        raise OracleDisagreement(f"genus formula gave invalid 2g = {two_g}; params leak")
    return two_g // 2


def branch_count(p: CurveParams) -> int:
    """Number of points of the cover lying above branch points."""
    return sum(math.gcd(p.n, di) for di in p.d)


def open_rank(p: CurveParams) -> int:
    """Rank of the free fundamental group of the punctured cover."""
    rk = (p.s - 2) * p.n + 1
    euler = 2 * genus(p) + branch_count(p) - 1
    if euler != rk:
        raise OracleDisagreement(f"open rank {rk} != 2g + branch count - 1 = {euler}")
    return rk

