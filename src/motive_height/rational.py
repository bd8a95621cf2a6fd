"""Exact linear algebra over Q: matrices of Fractions, Smith and Hermite
normal forms, integer kernels, and p-adic valuations.

Everything here is exact; no floating point enters.  Sizes in this package
stay small (<= ~20x20), so the classical elimination algorithms are used
without modular tricks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"matrix entries must be exact rationals, got {type(x).__name__}")


class QMatrix:
    """Immutable matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable]):
        self.data = tuple(tuple(_frac(x) for x in row) for row in data)
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.rows else 0
        if any(len(r) != self.cols for r in self.data):
            raise ValueError("ragged matrix")

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls([[0] * cols for _ in range(rows)]) if rows else cls._make((), cols)

    @classmethod
    def _make(cls, data: tuple, cols: int) -> "QMatrix":
        """The matrix of rows of Fractions ``data``, unchecked; ``cols``
        keeps the shape of rows of length 0."""
        m = cls.__new__(cls)
        m.data, m.rows, m.cols = data, len(data), cols
        return m

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int | None = None) -> "QMatrix":
        columns = [tuple(c) for c in columns]
        n = len(columns[0]) if columns else rows
        if n is None:
            raise ValueError("need explicit row count for an empty column list")
        if n == 0 or not columns:
            return cls._make(((),) * n, len(columns))
        return cls([[c[i] for c in columns] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return isinstance(other, QMatrix) and self.data == other.data \
            and self.rows == other.rows and self.cols == other.cols

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"QMatrix[{self.rows}x{self.cols}: {body}]"

    def column(self, j: int) -> tuple:
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "QMatrix":
        return QMatrix.from_columns(self.data, rows=self.cols)

    def hstack(self, other: "QMatrix") -> "QMatrix":
        assert self.rows == other.rows
        return QMatrix.from_columns(self.columns() + other.columns(), rows=self.rows)

    def scale(self, c) -> "QMatrix":
        c = _frac(c)
        return QMatrix._make(tuple(tuple(x * c for x in row) for row in self.data), self.cols)

    def __add__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return QMatrix._make(tuple(tuple(a + b for a, b in zip(ra, rb))
                                   for ra, rb in zip(self.data, other.data)), self.cols)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        assert self.cols == other.rows, "shape mismatch"
        zero, out = Fraction(0), []
        for row in self.data:
            acc = [zero] * other.cols
            for x, other_row in zip(row, other.data):
                if x:
                    for j, y in enumerate(other_row):
                        if y:
                            acc[j] += x * y
            out.append(tuple(acc))
        return QMatrix._make(tuple(out), other.cols)

    def is_integer(self) -> bool:
        return all(x.denominator == 1 for row in self.data for x in row)

    def denominator_lcm(self) -> int:
        from math import lcm
        d = 1
        for row in self.data:
            for x in row:
                d = lcm(d, x.denominator)
        return d

    # ---- elimination-based operations ----

    def det(self) -> Fraction:
        assert self.rows == self.cols, "determinant of a non-square matrix"
        if self.rows == 0:
            return Fraction(1)
        work = [list(r) for r in self.data]
        det = Fraction(1)
        n = self.rows
        for k in range(n):
            piv = next((i for i in range(k, n) if work[i][k] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != k:
                work[k], work[piv] = work[piv], work[k]
                det = -det
            det *= work[k][k]
            inv = 1 / work[k][k]
            for i in range(k + 1, n):
                f = work[i][k] * inv
                if f:
                    for j in range(k, n):
                        work[i][j] -= f * work[k][j]
        return det

    def inverse(self) -> "QMatrix":
        return self.solve(QMatrix.identity(self.rows))

    def solve(self, rhs: "QMatrix") -> "QMatrix":
        """Solve self @ X = rhs for square invertible self."""
        assert self.rows == self.cols == rhs.rows
        n, m = self.rows, rhs.cols
        aug = [list(self.data[i]) + list(rhs.data[i]) for i in range(n)]
        for k in range(n):
            piv = next((i for i in range(k, n) if aug[i][k] != 0), None)
            if piv is None:
                raise ZeroDivisionError("singular matrix")
            if piv != k:
                aug[k], aug[piv] = aug[piv], aug[k]
            inv = 1 / aug[k][k]
            aug[k] = [x * inv for x in aug[k]]
            for i in range(n):
                if i != k and aug[i][k]:
                    f = aug[i][k]
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[k])]
        return QMatrix._make(tuple(tuple(row[n:]) for row in aug), m)


# ---------------------------------------------------------------------------
# Valuations
# ---------------------------------------------------------------------------

def vp_int(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(q: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    q = _frac(q)
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


def is_p_integral(q: Fraction, p: int) -> bool:
    return _frac(q).denominator % p != 0


def prime_factors(n: int) -> set[int]:
    """Primes dividing a nonzero integer (trial division; inputs are small)."""
    n = abs(int(n))
    if n == 0:
        raise ValueError("zero has no factorization")
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.add(n)
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin for n < 3.3e24
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Smith normal form over Z
# ---------------------------------------------------------------------------

def smith_normal_form(m: QMatrix):
    """Smith normal form of an integer matrix.

    Returns (divisors, U, V) with U @ m @ V diagonal, U and V unimodular,
    and divisors = (d_1, ..., d_k), k = min(rows, cols), satisfying
    d_1 | d_2 | ... | d_k >= 0 (trailing zeros for rank deficiency).
    """
    if not m.is_integer():
        raise ValueError("smith_normal_form requires integer entries")
    a = [[int(x) for x in row] for row in m.data]
    rows, cols = m.rows, m.cols
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, c):
        for r in a:
            r[dst] += c * r[src]
        for r in V:
            r[dst] += c * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        U[i] = [-x for x in U[i]]

    k = min(rows, cols)
    for t in range(k):
        # find a nonzero entry of least absolute value in the trailing block
        while True:
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break  # trailing block is zero
            i, j = best
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            done = True
            for i in range(t + 1, rows):
                q = a[i][t] // a[t][t]
                if q:
                    add_row(i, t, -q)
                if a[i][t]:
                    done = False
            for j in range(t + 1, cols):
                q = a[t][j] // a[t][t]
                if q:
                    add_col(j, t, -q)
                if a[t][j]:
                    done = False
            if done:
                # ensure pivot divides the rest of the block
                offender = None
                for i in range(t + 1, rows):
                    for j in range(t + 1, cols):
                        if a[i][j] % a[t][t]:
                            offender = i
                            break
                    if offender:
                        break
                if offender is None:
                    break
                add_row(t, offender, 1)
        if a[t][t] < 0:
            negate_row(t)

    divisors = tuple(abs(a[i][i]) for i in range(k))
    return divisors, QMatrix(U), QMatrix(V)


# ---------------------------------------------------------------------------
# Column-style Hermite normal form over Z, extended to rational lattices
# ---------------------------------------------------------------------------

def hnf_columns(m: QMatrix) -> QMatrix:
    """Column Hermite normal form of an integer matrix.

    Column operations only (the column span, i.e. the lattice generated by
    the columns, is preserved).  Output: pivot rows strictly increasing down
    the columns, positive pivots, entries left of a pivot reduced into
    [0, pivot); zero columns dropped.  The result is the unique canonical
    basis of the column lattice.
    """
    if not m.is_integer():
        raise ValueError("hnf_columns requires integer entries")
    a = [[int(x) for x in row] for row in m.data]
    rows = m.rows
    cols = m.cols

    def col(j):
        return [a[i][j] for i in range(rows)]

    pivot_col = 0
    for r in range(rows):
        if pivot_col >= cols:
            break
        # euclidean elimination within row r on columns >= pivot_col
        while True:
            nz = [j for j in range(pivot_col, cols) if a[r][j] != 0]
            if len(nz) <= 1:
                break
            jmin = min(nz, key=lambda j: abs(a[r][j]))
            for j in nz:
                if j == jmin:
                    continue
                q = a[r][j] // a[r][jmin]
                if q:
                    for i in range(rows):
                        a[i][j] -= q * a[i][jmin]
        nz = [j for j in range(pivot_col, cols) if a[r][j] != 0]
        if not nz:
            continue
        j = nz[0]
        if j != pivot_col:
            for i in range(rows):
                a[i][j], a[i][pivot_col] = a[i][pivot_col], a[i][j]
        if a[r][pivot_col] < 0:
            for i in range(rows):
                a[i][pivot_col] = -a[i][pivot_col]
        # reduce earlier columns against this pivot
        piv = a[r][pivot_col]
        for j in range(pivot_col):
            q = a[r][j] // piv
            if q:
                for i in range(rows):
                    a[i][j] -= q * a[i][pivot_col]
        pivot_col += 1

    kept = [j for j in range(cols) if any(a[i][j] for i in range(rows))]
    # canonical order: by pivot row
    def pivot_row(j):
        return next(i for i in range(rows) if a[i][j] != 0)
    kept.sort(key=pivot_row)
    return QMatrix.from_columns([col(j) for j in kept], rows=rows)


def hnf_rational(m: QMatrix) -> QMatrix:
    """Canonical column form of the lattice generated by rational columns."""
    if m.cols == 0:
        return m
    d = m.denominator_lcm()
    h = hnf_columns(m.scale(d))
    return h.scale(Fraction(1, d))


def integer_kernel(m: QMatrix) -> QMatrix:
    """Basis of { x in Z^cols : m @ x = 0 }; saturated by construction."""
    d = m.denominator_lcm()
    mi = m.scale(d)
    divisors, _, V = smith_normal_form(mi)
    k = min(mi.rows, mi.cols)
    null_cols = [j for j in range(k) if divisors[j] == 0]
    null_cols += list(range(k, mi.cols))
    return QMatrix.from_columns([V.column(j) for j in null_cols], rows=m.cols)
