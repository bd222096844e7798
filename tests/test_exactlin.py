import math
import random

import pytest

from kummercover.exactlin import (ExactLinError, IntMatrix, egcd, smith_full,
                                  smith_row, structured_smith,
                                  unimodular_inverse)


def test_egcd_basic():
    g, u, v = egcd(10, 15)
    assert g == 5 and 10 * u + 15 * v == 5


def test_egcd_negative_and_zero():
    for a, b in [(-10, 15), (10, -15), (-10, -15), (0, 7), (7, 0), (-7, 0)]:
        g, u, v = egcd(a, b)
        assert g == math.gcd(a, b)
        assert u * a + v * b == g


def test_egcd_rejects_double_zero():
    with pytest.raises(ExactLinError):
        egcd(0, 0)


def test_smith_row_identity_on_examples():
    snf = smith_row([10, 15, 20])
    assert snf.gcd == 5
    assert snf.r_matrix.det() in (1, -1)
    row = IntMatrix.from_rows([[10, 15, 20]])
    assert (row @ snf.r_matrix).entries == ((5, 0, 0),)


def test_smith_row_random(rng):
    for _ in range(200):
        m = rng.randint(1, 6)
        d = [rng.choice([-1, 1]) * rng.randint(1, 500) for _ in range(m)]
        snf = smith_row(d)
        assert snf.gcd == math.gcd(*d)
        prod = IntMatrix.from_rows([d]) @ snf.r_matrix
        assert prod.entries[0] == (snf.gcd,) + (0,) * (m - 1)
        assert snf.r_matrix.det() in (1, -1)


# (row, gcd, R) as produced by the Euclid pivot rule: smallest |entry| first,
# then q = a // pivot, then a final negation; R must not drift from these
SMITH_ROW_GOLDEN = [
    ((10, 15, 20), 5, ((-1, 3, -2), (1, -2, 0), (0, 0, 1))),
    ((12, 9, 15), 3, ((1, -3, -2), (-1, 4, 1), (0, 0, 1))),
    ((6, 10, 15, 21), 1, ((1, -5, 5, -1), (1, -3, 0, 0), (-1, 4, -2, -1), (0, 0, 0, 1))),
    ((-7, 3), 1, ((-1, 3), (-2, 7))),
    ((1, 1, 1, 1, 1, 1, 1), 1, ((1, -1, -1, -1, -1, -1, -1), (0, 1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0, 1))),
    ((43, 59), 1, ((11, -59), (-8, 43))),
    ((853, 898, 633), 1, ((-1, 15, -1), (8, -108, -35), (-10, 133, 51))),
    ((4197, 8843, 3926, 1818), 1, ((19, -37, -50, -78), (0, 1, 0, 0), (377, -730, -969, -1548), (-858, 1657, 2208, 3523))),
    ((77155, 79548, 71763, 96330, 89343), 1, ((22, -84, -84, -63, 6), (5, -22, 7, 10, -1), (-51, 211, 49, 1, -4), (-19, 85, -39, -55, -1), (38, -169, 69, 104, 0))),
    ((-46, 72924, 90306, 11884, 74462, 44199), 1, ((-744, 4912, -5073, 10972, 7084, 1405), (0, 1, 0, 0, 0, 0), (-1, 0, -2, -1, -1, 0), (1, -2, 3, -2, -1, -2), (0, 0, 0, 0, 1, 0), (1, 4, -2, 14, 8, 2))),
    ((38592, 74002, 10370, -67898, 98148, -64367, -68045), 1, ((-3, 23, -41, -6, -19, 9, -3), (13, -102, 184, 28, 85, -27, 30), (-102, 726, -1208, -172, -562, 134, -243), (0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0, 0), (2, -14, 23, 3, 10, -3, 2), (-5, 26, -29, -3, -12, -1, -8))),
    ((3925, -74988, 25890, 17535, 40079, -26330, 1034, 49005), 1, ((-1, 0, -3, 3, -3, -3, -2, -1), (0, 1, 0, 0, 0, 0, 0, 0), (6, 8, -15, -2, -19, -3, -46, 25), (1, 0, 0, -2, 0, 0, -1, -1), (0, 0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1, 0, 0), (-116, -33, 150, 120, 164, -125, 655, -700), (-1, -2, 5, -1, 6, 5, 11, 2))),
    ((-26742, 77203, 81523), 1, ((615, 22157, 20117), (288, 10376, 9417), (-71, -2558, -2319))),
    ((19737, 66327, 68630, 74577), 1, ((-721, -1739, 2130, 596), (361, 879, -1069, -306), (116, 270, -339, -93), (-237, -570, 699, 200))),
    ((53, -23, -58, 71, 84, -61, 10), 1, ((0, 0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0), (1, -7, -2, -10, -4, -9, -3), (0, 0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1, 0), (-7, 52, 20, 71, 20, 70, 16))),
    ((237, 44, 744, 975, 393, 512, -547, -387), 1, ((1, -2, -1, -1, 0, 0, 0, 0), (-94, 321, -78, -327, -297, 77, -187, -102), (0, 0, 1, 0, 0, 0, 0, 0), (4, -14, 3, 15, 13, -4, 9, 5), (0, 0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0, 0, 1))),
    ((23, 36, -15, 9, 28), 1, ((0, 0, 0, 1, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (-3, -4, 11, 13, 28), (1, 0, -3, -5, -9))),
    ((2370, 514, 9858, -2708, 9996, 6258), 2, ((0, 1, 0, 0, 0, 0), (-7, 186, 303, 110, 180, 285), (1, -22, -45, -8, -25, -32), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (-1, 19, 46, 4, 23, 27))),
    ((50145, 98715), 15, ((-2319, 6581), (1178, -3343))),
    ((-98238, 7386, 73946, 81691, 5135, 95537, 59759, 27457), 1, ((0, 0, 0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0), (148, -317, 86, -411, -547, -892, -221, -317), (-38, 82, -23, 107, 140, 229, 56, 81), (-1155, 2486, -664, 3216, 4305, 6961, 1729, 2498), (1, -3, 0, -4, -4, -6, -2, -3), (0, 0, 0, 0, 0, 0, 1, 0), (-73, 155, -39, 201, 269, 440, 110, 156))),
]


@pytest.mark.parametrize("row,gcd,r", SMITH_ROW_GOLDEN)
def test_smith_row_golden(row, gcd, r):
    snf = smith_row(row)
    assert (snf.gcd, snf.r_matrix.entries) == (gcd, r)
    # R is the op log replayed on the identity
    replay = IntMatrix.identity(len(row))
    for op in snf.ops:
        e = [[1 if i == j else 0 for j in range(len(row))] for i in range(len(row))]
        if op[0] == "add":
            e[op[1]][op[2]] = op[3]
        elif op[0] == "swap":
            e[op[1]][op[1]] = e[op[2]][op[2]] = 0
            e[op[1]][op[2]] = e[op[2]][op[1]] = 1
        else:
            e[op[1]][op[1]] = -1
        replay = replay @ IntMatrix.from_rows(e)
    assert replay.entries == r


def test_smith_row_rejects_zero_entry():
    with pytest.raises(ExactLinError):
        smith_row([4, 0, 6])


def test_smith_full_random(rng):
    for _ in range(1000):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        bound = rng.choice([3, 20, 1000])
        zeros = rng.choice([0.0, 0.3, 0.6, 0.9])
        a = IntMatrix.from_rows([[0 if rng.random() < zeros else rng.randint(-bound, bound)
                                  for _ in range(n)] for _ in range(m)])
        l, d, r = smith_full(a)
        assert l.det() in (1, -1) and r.det() in (1, -1)
        assert (l @ a @ r).entries == d.entries
        diag = [d[i, i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i, j] == 0
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            if x != 0:
                assert y % x == 0
            else:
                assert y == 0


def test_unimodular_inverse_roundtrip(rng):
    ident = IntMatrix.identity(4)
    for _ in range(40):
        # random product of elementary matrices is unimodular
        m = IntMatrix.identity(4)
        for _ in range(8):
            e = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
            i, j = rng.sample(range(4), 2)
            e[i][j] = rng.randint(-3, 3)
            m = m @ IntMatrix.from_rows(e)
        inv = unimodular_inverse(m)
        assert (m @ inv).entries == ident.entries
        assert (inv @ m).entries == ident.entries


def test_unimodular_inverse_rejects_singular():
    with pytest.raises(ExactLinError):
        unimodular_inverse(IntMatrix.from_rows([[2, 0], [0, 1]]))
    with pytest.raises(ExactLinError):
        unimodular_inverse(IntMatrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(ExactLinError):
        unimodular_inverse(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))


# (A, diagonal of D) as computed by the pivot-search smith_full this
# implementation replaced; the Smith form is unique, so D must not change
SMITH_FULL_GOLDEN = [
    ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], [2, 6, 12]),
    ([[0, 0, 0], [0, 0, 0]], [0, 0]),
    ([[0, 3], [0, 0]], [3, 0]),
    ([[6, 4], [4, 6], [2, 2]], [2, 2]),
    ([[4, 0, 0], [0, 6, 0], [0, 0, 10]], [2, 2, 60]),
    ([[0, 0, 0], [0, 0, 7], [0, 5, 0]], [1, 35, 0]),
    ([[0, 6, 0], [-6, 0, 6], [2, 6, -6]], [2, 6, 12]),
    ([[0, 0, 0], [2, -2, -2], [0, 12, 12], [6, 0, -6]], [2, 6, 12]),
    ([[-6, 6, 12, 12], [0, -2, 2, 2], [0, 6, -6, 12], [2, 4, 0, 4]], [2, 2, 6, 90]),
    ([[2, 12, 0, -2], [-6, 12, -6, 0], [0, 6, 2, 0], [12, -6, 6, 0]], [2, 2, 6, 36]),
    ([[821, 0, 0], [0, 0, -592], [-990, -888, 732], [-952, 0, 742], [0, -752, -596]],
     [1, 2, 8]),
    ([[-585, 827, 0, -965, 173, 886], [0, 0, 0, 435, -647, 473],
      [-890, 0, 744, 0, 0, -930], [0, 947, -669, -912, 731, 208],
      [408, 0, 769, -252, -177, 0], [527, 0, -327, 0, 0, 0]],
     [1, 1, 1, 1, 1, 110909922811072608]),
]


def test_smith_full_golden():
    for rows, diag in SMITH_FULL_GOLDEN:
        a = IntMatrix.from_rows(rows)
        l, d, r = smith_full(a)
        expected = [[diag[i] if i == j else 0 for j in range(a.cols)] for i in range(a.rows)]
        assert d == IntMatrix.from_rows(expected)
        assert l @ a @ r == d


def test_unimodular_inverse_of_smith_transforms():
    for row, _, r in SMITH_ROW_GOLDEN:
        m = IntMatrix.from_rows(r)
        assert m @ unimodular_inverse(m) == IntMatrix.identity(len(row))


def test_structured_smith_identity(rng):
    # the candidate always satisfies d . C = (g, 0, ..., 0), unimodular or not
    for d in ([10, 15, 20], [12, 9, 15], [6, 10, 15, 21]):
        cand, det, is_snf = structured_smith(d, 7)
        g = math.gcd(*d)
        prod = IntMatrix.from_rows([d]) @ cand
        assert prod.entries[0] == (g,) + (0,) * (len(d) - 1)
        assert is_snf == (abs(det) == 1)


def test_structured_smith_determinant_formula(rng):
    # |det| = gcd(d) * d_1^{m-2} / prod_{i>=2} (d_1, d_i)
    for _ in range(80):
        m = rng.randint(2, 5)
        d = [rng.randint(1, 60) for _ in range(m)]
        cand, det, _ = structured_smith(d, 5)
        num = math.gcd(*d) * d[0] ** (m - 2)
        den = math.prod(math.gcd(d[0], x) for x in d[1:])
        assert abs(det) * den == num


def test_matrix_json_roundtrip_big_ints():
    big = 2 ** 80
    m = IntMatrix.from_rows([[big, -1], [0, 1]])
    obj = m.to_obj()
    assert obj["entries"][0][0] == str(big)
    assert [[int(x) for x in r] for r in obj["entries"]] == [list(r) for r in m.entries]
