import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from motive_height.rational import (
    QMatrix,
    hnf_columns,
    hnf_rational,
    integer_kernel,
    is_prime,
    smith_normal_form,
    vp,
)
from conftest import random_int_matrix, random_unimodular


# ---------------------------------------------------------------------------
# Independent oracle for Smith divisors: d_1 ... d_k = ratios of gcds of
# k x k minors.  Used to freeze expected values, never the main algorithm.
# ---------------------------------------------------------------------------

def minor_gcd_divisors(m: QMatrix):
    assert m.is_integer()
    ints = [[int(x) for x in row] for row in m.data]
    rows, cols = m.rows, m.cols
    k = min(rows, cols)
    gcds = [1]
    for size in range(1, k + 1):
        g = 0
        for rsel in combinations(range(rows), size):
            for csel in combinations(range(cols), size):
                sub = QMatrix([[ints[i][j] for j in csel] for i in rsel])
                g = math.gcd(g, int(sub.det()))
        gcds.append(g)
    out = []
    for i in range(1, k + 1):
        if gcds[i] == 0:
            out.append(0)
        else:
            out.append(gcds[i] // gcds[i - 1])
    return tuple(out)


def test_snf_identity():
    d, U, V = smith_normal_form(QMatrix.identity(2))
    assert d == (1, 1)


def test_snf_diag_2_3():
    d, U, V = smith_normal_form(QMatrix([[2, 0], [0, 3]]))
    assert d == (1, 6)
    assert minor_gcd_divisors(QMatrix([[2, 0], [0, 3]])) == (1, 6)


def test_snf_2468():
    m = QMatrix([[2, 4], [6, 8]])
    d, U, V = smith_normal_form(m)
    assert d == (2, 4)  # gcd 2, |det| = 8
    assert (U @ m @ V) == QMatrix([[2, 0], [0, 4]])


def test_snf_random_against_minor_oracle(rng):
    for trial in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = random_int_matrix(rng, rows, cols, bound=6)
        d, U, V = smith_normal_form(m)
        assert abs(U.det()) == 1 and abs(V.det()) == 1
        prod = U @ m @ V
        k = min(rows, cols)
        for i in range(rows):
            for j in range(cols):
                expected = d[i] if i == j and i < k else 0
                assert prod[i, j] == expected
        for i in range(k - 1):
            if d[i + 1] != 0:
                assert d[i] != 0 and d[i + 1] % d[i] == 0
            # zero divisors trail
            if d[i] == 0:
                assert d[i + 1] == 0
        assert d == minor_gcd_divisors(m)
        if rows == cols:
            prod_d = 1
            for x in d:
                prod_d *= x
            assert prod_d == abs(m.det())


def test_snf_rejects_non_integer():
    with pytest.raises(ValueError):
        smith_normal_form(QMatrix([[Fraction(1, 2)]]))


def test_hnf_canonical_under_rebasing(rng):
    for _ in range(30):
        n = rng.randint(1, 4)
        while True:
            m = random_int_matrix(rng, n, n, bound=5)
            if m.det() != 0:
                break
        u = random_unimodular(rng, n)
        assert hnf_columns(m) == hnf_columns(m @ u)
        q = m.scale(Fraction(1, rng.randint(1, 4)))
        assert hnf_rational(q) == hnf_rational(q @ u)


def test_hnf_drops_dependent_columns():
    m = QMatrix([[1, 2, 3], [0, 0, 0]])
    h = hnf_columns(m)
    assert h.cols == 1
    assert h.column(0) == (1, 0)


def test_integer_kernel_saturated():
    m = QMatrix([[2, -1, 0]])
    k = integer_kernel(m)
    assert k.cols == 2
    assert (m @ k).data == ((0, 0),)
    # (1, 2, 0) must be in the kernel lattice: saturation
    sol = QMatrix.from_columns([k.column(0), k.column(1)], rows=3)
    # solve sol @ x = (1,2,0) over Q, check integrality
    lifted = sol.transpose() @ sol
    rhs = sol.transpose() @ QMatrix.from_columns([(1, 2, 0)], rows=3)
    x = lifted.solve(rhs)
    assert all(v.denominator == 1 for v in (x[0, 0], x[1, 0]))


def test_rank_det_inverse(rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        m = random_int_matrix(rng, n, n, bound=6)
        if m.det() == 0:
            continue
        inv = m.inverse()
        assert m @ inv == QMatrix.identity(n)
        assert m.det() * inv.det() == 1


def test_vp_and_primality():
    assert vp(Fraction(8, 5), 2) == 3
    assert vp(Fraction(8, 5), 5) == -1
    assert vp(Fraction(8, 5), 3) == 0
    assert is_prime(2) and is_prime(97) and not is_prime(91) and not is_prime(1)


def test_empty_shapes_survive_transpose_and_products():
    k_by_0 = QMatrix.zeros(3, 0)
    assert (k_by_0.transpose().rows, k_by_0.transpose().cols) == (0, 3)
    empty = QMatrix.from_columns([(), (), ()])
    assert (empty.rows, empty.cols) == (0, 3)
    gram = k_by_0.transpose() @ k_by_0
    assert (gram.rows, gram.cols) == (0, 0)
    rhs = k_by_0.transpose() @ QMatrix.from_columns([(1, 2, 3)], rows=3)
    assert (rhs.rows, rhs.cols) == (0, 1)
    sol = gram.solve(rhs)
    assert (sol.rows, sol.cols) == (0, 1)


def test_product_matches_row_by_column_sums(rng):
    def matrix(rows, r, c):
        return QMatrix(rows) if r and c else QMatrix.zeros(r, c)

    for _ in range(200):
        n, k, m = (rng.randint(0, 5) for _ in range(3))
        a, b = ([[Fraction(rng.choice([0, 0, rng.randint(-9, 9)]), rng.randint(1, 6))
                  for _ in range(c)] for _ in range(r)] for r, c in ((n, k), (k, m)))
        prod = matrix(a, n, k) @ matrix(b, k, m)
        expected = [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0))
                     for j in range(m)] for i in range(n)]
        assert prod == matrix(expected, n, m)
        assert all(type(x) is Fraction for row in prod.data for x in row)


def test_products_keep_every_empty_shape():
    assert QMatrix.zeros(3, 0) @ QMatrix.zeros(0, 2) == QMatrix.zeros(3, 2)
    assert QMatrix.zeros(0, 4) @ QMatrix.identity(4) == QMatrix.zeros(0, 4)
    n_by_0 = QMatrix.identity(2) @ QMatrix.zeros(2, 0)
    assert (n_by_0.rows, n_by_0.cols, n_by_0.data) == (2, 0, ((), ()))


def test_zero_row_shapes_survive_scale_and_sums():
    empty = QMatrix.from_columns([(), (), ()])
    for m in (empty.scale(2), empty + empty, empty - empty):
        assert (m.rows, m.cols) == (0, 3)
    # the Hermite form drops zero columns, in Q^0 as in Q^2
    assert (hnf_rational(empty).rows, hnf_rational(empty).cols) == (0, 0)
    assert hnf_rational(QMatrix.zeros(2, 3)) == QMatrix.zeros(2, 0)
