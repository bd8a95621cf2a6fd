import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from motive_height.documents import _matrix
from motive_height.rational import (
    QMatrix,
    hnf_columns,
    hnf_rational,
    integer_kernel,
    is_prime,
    smith_normal_form,
    vp,
)
import rational_oracle
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
    assert smith_normal_form(QMatrix.identity(2)) == (1, 1)


def test_snf_diag_2_3():
    assert smith_normal_form(QMatrix([[2, 0], [0, 3]])) == (1, 6)
    assert minor_gcd_divisors(QMatrix([[2, 0], [0, 3]])) == (1, 6)


def test_snf_2468():
    assert smith_normal_form(QMatrix([[2, 4], [6, 8]])) == (2, 4)  # gcd 2, |det| = 8


def test_snf_random_against_minor_oracle(rng):
    for trial in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = random_int_matrix(rng, rows, cols, bound=6)
        d = smith_normal_form(m)
        k = min(rows, cols)
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


def test_is_prime_matches_a_sieve():
    # below 41^2 trial division alone decides; above it, Miller-Rabin
    n = 10 ** 5
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    assert [k for k in range(-5, n) if is_prime(k)] == [k for k in range(n) if sieve[k]]


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


# ---------------------------------------------------------------------------
# The integer form against Fraction arithmetic (tests/rational_oracle.py)
# ---------------------------------------------------------------------------

def random_rows(rng, rows, cols, singular=False):
    """Rows of Fractions with denominators 1..12, many zeros and, now and
    then, a zero row; ``singular`` repeats a row (or a combination)."""
    def entry():
        if rng.random() < 0.4:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    out = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows and rng.random() < 0.15:
        out[rng.randrange(rows)] = [Fraction(0)] * cols
    if singular and rows >= 2:
        i, j = rng.sample(range(rows), 2)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        out[i] = [c * x for x in out[j]]
    return out


def qm(rows, cols):
    return QMatrix(rows) if rows else QMatrix.zeros(0, cols)


def fraction_product(a, b, inner, cols):
    return tuple(tuple(sum((a[i][t] * b[t][j] for t in range(inner)), Fraction(0))
                       for j in range(cols)) for i in range(len(a)))


def test_det_solve_inverse_match_the_fraction_oracle(rng):
    singular = 0
    for trial in range(600):
        n = rng.randint(0, 6)
        a = random_rows(rng, n, n, singular=trial % 3 == 0)
        m = qm(a, n)
        d = rational_oracle.det(a)
        assert m.det() == d and type(m.det()) is Fraction
        k = rng.randint(0, 3)
        b = random_rows(rng, n, k)
        rhs = qm(b, k)
        if d == 0:
            singular += 1
            with pytest.raises(ZeroDivisionError):
                m.solve(rhs)
            with pytest.raises(ZeroDivisionError):
                rational_oracle.solve(a, b)
            continue
        x = m.solve(rhs)
        assert (x.rows, x.cols) == (n, k)
        assert x.data == tuple(map(tuple, rational_oracle.solve(a, b)))
        inv = m.inverse()
        assert inv.data == tuple(map(tuple, rational_oracle.solve(
            a, [[Fraction(int(i == j)) for j in range(n)] for i in range(n)])))
    assert singular > 100


def test_products_sums_and_shapes_match_fraction_arithmetic(rng):
    for _ in range(400):
        r, c, k = (rng.randint(0, 6) for _ in range(3))
        a, a2, b = random_rows(rng, r, c), random_rows(rng, r, c), random_rows(rng, c, k)
        ma, ma2, mb = qm(a, c), qm(a2, c), qm(b, k)
        prod = ma @ mb
        assert (prod.rows, prod.cols) == (r, k)
        assert prod.data == fraction_product(a, b, c, k)
        assert (ma + ma2).data == tuple(tuple(x + y for x, y in zip(u, v)) for u, v in zip(a, a2))
        assert (ma - ma2).data == tuple(tuple(x - y for x, y in zip(u, v)) for u, v in zip(a, a2))
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        assert ma.scale(s).data == tuple(tuple(s * x for x in u) for u in a)
        t = ma.transpose()
        assert (t.rows, t.cols) == (c, r)
        assert t.data == (tuple(zip(*a)) if r else ((),) * c)
        assert t.transpose() == ma
        h = ma.hstack(ma2)
        assert (h.rows, h.cols) == (r, 2 * c)
        assert h.data == tuple(tuple(u) + tuple(v) for u, v in zip(a, a2))
        for m in (prod, ma + ma2, ma - ma2, ma.scale(s), t, h):
            assert_lowest_terms(m)


def assert_lowest_terms(m):
    assert m.den > 0
    assert math.gcd(m.den, *(x for row in m.num for x in row)) == 1
    assert m.den == math.lcm(*(x.denominator for row in m.data for x in row))
    assert m.is_integer() == (m.den == 1) == all(
        x.denominator == 1 for row in m.data for x in row)


def test_equal_values_from_differently_scaled_inputs_are_equal(rng):
    for _ in range(200):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        a = random_rows(rng, r, c)
        m = qm(a, c)
        assert_lowest_terms(m)
        s = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        for same in (m.scale(s).scale(1 / s), (m + m).scale(Fraction(1, 2)),
                     _matrix([[str(x) for x in row] for row in a], "m", r, c),
                     QMatrix.from_columns(m.columns(), rows=r),
                     m @ QMatrix.identity(c), m.transpose().transpose()):
            assert same == m and hash(same) == hash(m)
            assert (same.num, same.den) == (m.num, m.den)
        zero = m - m
        assert zero == QMatrix.zeros(r, c) and zero.den == 1


def test_normal_forms_and_kernels_of_rational_matrices(rng):
    for _ in range(150):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        a = random_rows(rng, r, c, singular=rng.random() < 0.4)
        m = qm(a, c)
        rank = rational_oracle.rank(a)
        # Hermite form: the parent's Fraction round trip through lcm scaling
        h = hnf_rational(m)
        if c:
            d = math.lcm(*(x.denominator for row in a for x in row))
            ints = QMatrix.from_columns([[int(x * d) for x in col] for col in m.columns()],
                                        rows=r)
            assert h == hnf_columns(ints).scale(Fraction(1, d))
            assert (h.rows, h.cols) == (r, rank)
        assert_lowest_terms(h)
        # Smith divisors of the numerators: the minor gcds, rank of them nonzero
        num = m.numerators()
        divisors = smith_normal_form(num)
        assert divisors == minor_gcd_divisors(num)
        assert sum(1 for x in divisors if x) == rank
        # integer kernel: integral, annihilated, of rank cols - rank, saturated
        k = integer_kernel(m)
        assert (k.rows, k.cols) == (c, c - rank) and k.is_integer()
        assert m @ k == QMatrix.zeros(r, c - rank)
        if k.cols:
            assert smith_normal_form(k) == (1,) * k.cols


def test_hermite_inputs_are_their_own_form(rng):
    # a square Hermite form comes back unchanged, and rebasing it by a
    # unimodular matrix leads the general elimination back to it
    for _ in range(100):
        n = rng.randint(0, 5)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.randint(1, 6)
            for j in range(i):
                rows[i][j] = rng.randrange(rows[i][i])
        h = qm(rows, n)
        assert hnf_columns(h) == h
        if n:
            assert hnf_columns(h @ random_unimodular(rng, n)) == h


def test_empty_shape_rules():
    for k in range(4):
        assert (QMatrix.zeros(0, k).transpose().rows, QMatrix.zeros(0, k).transpose().cols) \
            == (k, 0)
        assert (QMatrix.zeros(k, 0).transpose().rows, QMatrix.zeros(k, 0).transpose().cols) \
            == (0, k)
    assert (hnf_rational(QMatrix.zeros(0, 3)).rows, hnf_rational(QMatrix.zeros(0, 3)).cols) \
        == (0, 0)
    for n, m in ((3, 2), (0, 2), (2, 0), (0, 0)):
        assert QMatrix.zeros(n, 0) @ QMatrix.zeros(0, m) == QMatrix.zeros(n, m)
    assert QMatrix.zeros(0, 0).det() == 1
