"""Independent references for every output the benchmark checks.

Plain integer arithmetic only: nothing here imports or calls kummercover, so
a wrong answer from the library cannot also be a wrong reference.  Words are
read only through their ``syllables`` data, a tuple of (generator, exponent).

Run ``python3 perfbench/reference.py`` to pin the references on the worked
curve y^12 = (x-b1)^10 (x-b2)^15 (x-b3)^20 (x-b4)^3.
"""

from __future__ import annotations

import math
import sys
from itertools import permutations


class Mismatch(Exception):
    """An output of the library disagrees with the reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# -- curve invariants ---------------------------------------------------------

def genus(n: int, d) -> int:
    """Riemann-Hurwitz for the n-sheeted cover of P^1 branched over the b_i
    (infinity unbranched): 2g - 2 = -2n + sum_i (n - (n, d_i))."""
    two_g = 2 - 2 * n + sum(n - math.gcd(n, di) for di in d)
    if two_g < 0 or two_g % 2:
        raise ValueError(f"Riemann-Hurwitz gives 2g = {two_g}")
    return two_g // 2


def branch_count(n: int, d) -> int:
    return sum(math.gcd(n, di) for di in d)


def open_rank(n: int, s: int) -> int:
    return (s - 2) * n + 1


def multiplicities(n: int, d) -> list[int]:
    """Closed-form branch count: M_nu = #{i : n does not divide nu (n, d_i)} - 2,
    and M_0 = 0."""
    out = [0]
    for nu in range(1, n):
        out.append(sum(1 for di in d if (nu * math.gcd(n, di)) % n) - 2)
    return out


def chevalley_weil(n: int, d) -> list[int]:
    """m_nu = sum_i <-nu d_i / n> - 1 + [nu = 0], with <x> the fractional part."""
    out = []
    for nu in range(n):
        num = sum((-nu * di) % n for di in d)
        if num % n:
            raise ValueError(f"non-integral Chevalley-Weil sum at nu={nu}")
        out.append(num // n - 1 + (1 if nu == 0 else 0))
    return out


def partial_gcd_ok(n: int, d) -> bool:
    """Whether the powers of y_1 form a transversal: (d_1..d_{s-1}) coprime to n."""
    return math.gcd(math.gcd(*d[:-1]), n) == 1


# -- words ----------------------------------------------------------------------

def exponent_vector(syllables, rank: int) -> list[int]:
    v = [0] * rank
    for g, e in syllables:
        v[g - 1] += e
    return v


def winding(d, vec) -> int:
    """The winding number alpha(w) = sum_j e_j d_j of a word's exponent vector."""
    return sum(e * dj for e, dj in zip(vec, d))


def pullback_verdict(n: int, d, vec) -> bool:
    """phi(w) lies in the intersection graph iff sum e_j d_j = 0 (mod n)."""
    return winding(d, vec) % n == 0


def transversal_exponent(n: int, d, vec) -> int:
    """v with H w = H y_1^v: alpha(w) * g^-1 mod n, g = gcd(d_1..d_{s-1})."""
    g = math.gcd(*d[:-1])
    return (winding(d, vec) * pow(g, -1, n)) % n


def bezout(values) -> tuple[int, list[int]]:
    """(g, h) with sum h_i values_i = g = gcd(values) > 0."""
    g, h = 0, [0] * len(values)
    for i, x in enumerate(values):
        # invariant: sum h_j values_j = g over the first i entries
        old_r, r, old_u, u, old_v, v = g, x, 1, 0, 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_u, u = u, old_u - q * u
            old_v, v = v, old_v - q * v
        if old_r < 0:
            old_r, old_u, old_v = -old_r, -old_u, -old_v
        h = [old_u * c for c in h]
        h[i] = old_v
        g = old_r
    return g, h


def kernel_correction(n: int, d, vec) -> list[tuple[int, int]]:
    """Syllables x_j^{c_j} that, appended to a word with exponent vector vec,
    bring its winding number to 0 mod n (needs (d_1..d_{s-1}) coprime to n)."""
    dp = d[:-1]
    g, h = bezout(dp)
    scale = (-winding(d, vec) * pow(g, -1, n)) % n
    out = []
    for j, hj in enumerate(h, start=1):
        c = (hj * scale) % n
        if c > n // 2:
            c -= n
        if c:
            out.append((j, c))
    return out


# -- braid liftability ----------------------------------------------------------

def braid_lifts_mod_n(n: int, d, i: int) -> bool:
    """Whether the swap of exponents i, i+1 (1-based) preserves the abelianized
    mod-n kernel lattice L = {v in Z^{s-1} : alpha(v) in n g Z}, g = gcd(d_1..d_{s-1}).

    alpha(swap v) = alpha(v) + delta (v_i - v_{i+1}) with delta = d_{i+1} - d_i,
    so the lift exists iff f(v) = delta (v_i - v_{i+1}) mod n vanishes on L.
    L is the kernel of the surjection psi(v) = sum v_j d_j / g mod n, so that
    holds iff f = c psi for some c in Z/n; try every c."""
    dp = d[:-1]
    g = math.gcd(*dp)
    delta = dp[i] - dp[i - 1]
    f = [0] * len(dp)
    f[i - 1], f[i] = delta, -delta
    return any(all((fj - c * (dj // g)) % n == 0 for fj, dj in zip(f, dp))
               for c in range(n))


def determinant(rows) -> int:
    """Leibniz expansion; the structured Smith candidates here are at most 5 x 5."""
    m = len(rows)
    total = 0
    for perm in permutations(range(m)):
        inversions = sum(1 for a in range(m) for b in range(a + 1, m) if perm[a] > perm[b])
        term = -1 if inversions % 2 else 1
        for r, c in enumerate(perm):
            term *= rows[r][c]
            if not term:
                break
        total += term
    return total


# -- self-test --------------------------------------------------------------------

WORKED_N = 12
WORKED_D = (10, 15, 20, 3)


def self_test() -> None:
    """Pin the references on the worked curve; raise Mismatch on any drift."""
    n, d = WORKED_N, WORKED_D
    expect(genus(n, d) == 7, "worked curve: genus != 7")
    expect(open_rank(n, len(d)) == 25, "worked curve: open rank != 25")
    expect(branch_count(n, d) == 12, "worked curve: branch count != 12")
    big = multiplicities(n, d)
    expect(big == [0, 2, 2, 1, 0, 2, 0, 2, 0, 1, 2, 2], f"worked curve: M = {big}")
    cw = chevalley_weil(n, d)
    expect(sum(cw) == 7, "worked curve: sum of Chevalley-Weil table != g")
    expect(all(cw[nu] + cw[-nu % n] == big[nu] for nu in range(n)),
           "worked curve: Chevalley-Weil table violates m_nu + m_-nu = M_nu")
    expect(sum(big) == 2 * genus(n, d), "worked curve: sum M != 2g")
    # alpha(x1 x2^-1 x3^2) = 10 - 15 + 40 = 35 = 11 mod 12; g = 5, 5^-1 = 5 mod 12
    vec = exponent_vector(((1, 1), (2, -1), (3, 2)), 3)
    expect(vec == [1, -1, 2], "exponent vector")
    expect(not pullback_verdict(n, d, vec), "worked curve: pullback verdict")
    expect(transversal_exponent(n, d, vec) == 7, "worked curve: transversal exponent")
    fixed = vec.copy()
    for j, c in kernel_correction(n, d, vec):
        fixed[j - 1] += c
    expect(pullback_verdict(n, d, fixed), "kernel correction leaves the kernel")
    expect(bezout([10, 15, 20]) == (5, [-1, 1, 0]), "bezout")
    # README: swapping d_1, d_2 of the worked curve breaks the kernel
    expect(not braid_lifts_mod_n(n, d, 1), "worked curve: braid generator 1 lifts")
    expect(not braid_lifts_mod_n(n, d, 2), "worked curve: braid generator 2 lifts")
    expect(braid_lifts_mod_n(5, (1, 1, 1, 2), 1), "all-equal exponents must lift")
    expect(determinant([[2, 1], [7, 4]]) == 1, "2x2 determinant")
    expect(determinant([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3, "3x3 determinant")


if __name__ == "__main__":
    try:
        self_test()
    except Mismatch as exc:
        print(f"reference self-test failed: {exc}", file=sys.stderr)
        raise SystemExit(1)
    print("reference self-test passed")
