"""Exact linear algebra over Q: integer matrices over one denominator, Smith
and Hermite forms, Hermite transforms, integer kernels and p-adic valuations.

A ``QMatrix`` holds its entries as a tuple of integer rows ``num`` over one
positive denominator ``den``, kept in lowest terms: gcd(den, every entry of
num) = 1.  So ``den`` is the lcm of the entry denominators, equal matrices
have equal (num, den), and integrality at p is ``den % p != 0``.
Determinants and solves use Bareiss's fraction-free elimination (Math. Comp.
22, 1968): every division in it is exact, so the whole computation stays in
Python integers.  Sizes in this package stay small (<= ~20x20), so no
modular tricks are used.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Sequence

# Fraction's string grammar, as in ``fractions._RATIONAL_FORMAT``
_RATIONAL_FORMAT = re.compile(r"""
    \A\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(_\d+)*)
    (?:(?:/(?P<denom>\d+(_\d+)*))?
     |(?:\.(?P<decimal>\d*|\d+(_\d+)*))?(?:E(?P<exp>[-+]?\d+(_\d+)*))?)
    \s*\Z""", re.VERBOSE | re.IGNORECASE)
# decimal exponents past this are refused before 10^|e| is formed; int()
# bounds digit strings at the same 4300
_MAX_EXPONENT = 4300


def parse_rational(s: str) -> tuple[int, int]:
    """(n, d) with d > 0 and n / d the value Fraction(s) reads, by the same
    grammar but with no gcd: a decimal "1.25e-3" gives d = 10^5.  A plain
    ASCII "[+-]digits[/digits]" is read without the regex."""
    if s.isascii():
        if s.isdigit():
            return int(s), 1
        num, slash, den = s.partition("/")
        if (num[1:] if num[:1] in "+-" else num).isdigit() and (
                not slash or den.isdigit() and den.strip("0")):
            return int(num), int(den) if slash else 1
    m = _RATIONAL_FORMAT.match(s)
    if m is None or m["denom"] is not None and not int(m["denom"]):
        raise ValueError(f"invalid rational literal {s!r}")
    places = (m["decimal"] or "").replace("_", "")
    e = int(m["exp"] or "0")
    if abs(e) > _MAX_EXPONENT:
        raise ValueError(f"exponent of {s!r} exceeds {_MAX_EXPONENT} in magnitude")
    e -= len(places)
    n = int((m["num"] or "0") + places) * 10 ** max(e, 0)
    return (-n if m["sign"] == "-" else n), int(m["denom"] or "1") * 10 ** max(-e, 0)


def _rational(x):
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"matrix entries must be exact rationals, got {type(x).__name__}")


class WriteOnce:
    """Refuses attribute assignment and deletion, so no kept result sits
    beside a rebound input; as in a frozen dataclass, each attribute is set
    once, by the constructor or a kept result, through object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class QMatrix:
    """Immutable matrix with exact rational entries: integer rows ``num``
    over the positive denominator ``den``, in lowest terms."""

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, data: Iterable[Iterable]):
        rows = [list(map(_rational, row)) for row in data]
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        if any(len(r) != self.cols for r in rows):
            raise ValueError("ragged matrix")
        # den is the lcm of the reduced entry denominators: lowest terms
        self.den = d = lcm(*[x.denominator for r in rows for x in r])
        self.num = tuple([tuple(map(int, r)) if d == 1 else
                          tuple([x.numerator * (d // x.denominator) for x in r])
                          for r in rows])

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls._make(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1, n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls._make(((0,) * cols,) * rows, 1, cols)

    @classmethod
    def _make(cls, num: tuple, den: int, cols: int) -> "QMatrix":
        """The matrix num / den, unchecked: the caller guarantees lowest
        terms; ``cols`` keeps the shape of rows of length 0."""
        m = cls.__new__(cls)
        m.num, m.den, m.rows, m.cols = num, den, len(num), cols
        return m

    @classmethod
    def from_numerators(cls, num: tuple, den: int, cols: int) -> "QMatrix":
        """The matrix num / den for a positive den, brought to lowest terms."""
        g = den
        for r in num:
            if g == 1:
                break
            g = gcd(g, *r)
        if g != 1:
            num = tuple([tuple([x // g for x in r]) for r in num])
            den //= g
        return cls._make(num, den, cols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int | None = None) -> "QMatrix":
        columns = [tuple(c) for c in columns]
        n = len(columns[0]) if columns else rows
        if n is None:
            raise ValueError("need explicit row count for an empty column list")
        if n == 0 or not columns:
            return cls.zeros(n, len(columns))
        return cls([[c[i] for c in columns] for i in range(n)])

    @property
    def data(self) -> tuple:
        """The entries as rows of Fractions, built on each read."""
        d = self.den
        return tuple(tuple(Fraction(x, d) for x in r) for r in self.num)

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.num[i][j], self.den)

    def __eq__(self, other):
        return isinstance(other, QMatrix) and self.num == other.num \
            and self.den == other.den and self.rows == other.rows and self.cols == other.cols

    def __hash__(self):
        return hash((self.rows, self.cols, self.num, self.den))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"QMatrix[{self.rows}x{self.cols}: {body}]"

    def column(self, j: int) -> tuple:
        return tuple(Fraction(r[j], self.den) for r in self.num)

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def block(self, rows: slice = slice(None), cols: slice = slice(None)) -> "QMatrix":
        """The submatrix on the given row and column slices."""
        width = len(range(*cols.indices(self.cols)))
        return QMatrix.from_numerators(tuple(r[cols] for r in self.num[rows]), self.den, width)

    def numerators(self) -> "QMatrix":
        """The integer matrix den * self."""
        return QMatrix._make(self.num, 1, self.cols)

    def transpose(self) -> "QMatrix":
        num = tuple(zip(*self.num)) if self.rows else ((),) * self.cols
        return QMatrix._make(num, self.den, self.rows)

    def hstack(self, other: "QMatrix") -> "QMatrix":
        assert self.rows == other.rows
        d = lcm(self.den, other.den)
        fa, fb = d // self.den, d // other.den
        # d is the lcm of every entry denominator: lowest terms
        return QMatrix._make(tuple(tuple(fa * x for x in ra) + tuple(fb * x for x in rb)
                                   for ra, rb in zip(self.num, other.num)),
                             d, self.cols + other.cols)

    def scale(self, c) -> "QMatrix":
        c = _rational(c)
        k = c.numerator
        return QMatrix.from_numerators(tuple(tuple(k * x for x in r) for r in self.num),
                                       self.den * c.denominator, self.cols)

    def __add__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        d = lcm(self.den, other.den)
        fa, fb = d // self.den, d // other.den
        return QMatrix.from_numerators(tuple(tuple(fa * a + fb * b for a, b in zip(ra, rb))
                                             for ra, rb in zip(self.num, other.num)),
                                       d, self.cols)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        assert self.cols == other.rows, "shape mismatch"
        if not self.cols:
            return QMatrix.zeros(self.rows, other.cols)
        right = list(zip(*other.num))
        return QMatrix.from_numerators(tuple([tuple([sum(map(mul, r, c)) for c in right])
                                              for r in self.num]),
                                       self.den * other.den, other.cols)

    def is_integer(self) -> bool:
        return self.den == 1

    def is_p_integral(self, p: int) -> bool:
        return self.den % p != 0

    # ---- fraction-free elimination ----

    def det(self) -> Fraction:
        """Bareiss elimination on num: each step's pivot divides the next
        step's 2x2 cross products exactly."""
        assert self.rows == self.cols, "determinant of a non-square matrix"
        n = self.rows
        a = list(self.num)  # each update replaces a row
        sign, prev = 1, 1
        for k in range(n - 1):
            if not a[k][k]:
                piv = next((i for i in range(k + 1, n) if a[i][k]), None)
                if piv is None:
                    return Fraction(0)
                a[k], a[piv] = a[piv], a[k]
                sign = -sign
            rk = a[k]
            pk = rk[k]
            for i in range(k + 1, n):
                f = a[i][k]
                a[i] = [(pk * x - f * y) // prev for x, y in zip(a[i], rk)]
            prev = pk
        return Fraction(sign * a[n - 1][n - 1], self.den ** n) if n else Fraction(1)

    def solve_lower(self, rhs: "QMatrix") -> "QMatrix":
        """Solve self @ X = rhs for lower-triangular self with a nonzero
        diagonal (a Hermite basis) by fraction-free forward substitution:
        row i of num^-1 rhs.num times the diagonal numerators l_0 ... l_i is
        an integer row z_i (Cramer's rule), which row i of rhs.num becomes
        once each row j < i has mapped it to l_j z - num[i][j] z_j."""
        assert self.rows == self.cols == rhs.rows
        diag = [row[i] for i, row in enumerate(self.num)]
        if 0 in diag:
            raise ZeroDivisionError("singular matrix")
        z = []
        for row, acc in zip(self.num, rhs.num):
            for zj, f, l in zip(z, row, diag):
                if f or l != 1:
                    acc = [l * x - f * y for x, y in zip(acc, zj)]
            z.append(acc)
        # X = den num^-1 rhs.num / rhs.den: over |l_0 ... l_(n-1)| rhs.den, row i
        # is ±den z_i times the l_j below it, in lowest terms if self is unimodular
        tail = self.den if prod(diag) > 0 else -self.den
        for i in range(self.rows - 1, -1, -1):
            z[i] = tuple(z[i]) if tail == 1 else tuple([tail * x for x in z[i]])
            tail *= diag[i]
        make = QMatrix._make if tail == 1 else QMatrix.from_numerators
        return make(tuple(z), tail // self.den * rhs.den, rhs.cols)

    def inverse(self) -> "QMatrix":
        return self.solve(QMatrix.identity(self.rows))

    def solve(self, rhs: "QMatrix") -> "QMatrix":
        """Solve self @ X = rhs for square invertible self.

        Fraction-free Gauss-Jordan on [num | rhs.num]: once the leading k x k
        block A_k has been eliminated, every row is det A_k times its value in
        ordinary Gauss-Jordan, an integer (a minor, by Sylvester's identity).
        So each update divides exactly by the previous pivot, and the last
        pivot d = ±det num leaves [d I | d num^-1 rhs.num].
        """
        assert self.rows == self.cols == rhs.rows
        n, m = self.rows, rhs.cols
        if n == 0:
            return QMatrix.zeros(0, m)
        a = [list(ra) + list(rb) for ra, rb in zip(self.num, rhs.num)]
        prev = 1
        for k in range(n):
            piv = next((i for i in range(k, n) if a[i][k]), None)
            if piv is None:
                raise ZeroDivisionError("singular matrix")
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
            rk = a[k]
            pk = rk[k]
            for i in range(n):
                if i == k:
                    continue
                f = a[i][k]
                if f:
                    a[i] = [(pk * x - f * y) // prev for x, y in zip(a[i], rk)]
                elif pk != prev:
                    a[i] = [pk * x // prev for x in a[i]]
            prev = pk
        # X = (num/den)^-1 (rhs.num/rhs.den) = right block * den / (d rhs.den)
        s = 1 if prev > 0 else -1
        scale = s * self.den
        return QMatrix.from_numerators(tuple(tuple(scale * x for x in r[n:]) for r in a),
                                       s * prev * rhs.den, m)


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
    q = _rational(q)
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


def diagonal_valuations(m: QMatrix, p: int) -> list[int]:
    """v_p of each diagonal entry of a matrix with a nonzero diagonal."""
    v_den = vp_int(m.den, p)
    return [vp_int(m.num[j][j], p) - v_den for j in range(min(m.rows, m.cols))]


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
    if n < 41 * 41:  # a composite n has a prime factor <= sqrt(n)
        return True
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

def smith_normal_form(m: QMatrix) -> tuple[int, ...]:
    """Smith divisors of an integer matrix: (d_1, ..., d_k), k = min(rows,
    cols), with d_1 | d_2 | ... | d_k >= 0 (trailing zeros for rank
    deficiency).

    Row and column operations on a copy of the entries; no transform is
    kept, since kernels come from ``hermite_transform``.
    """
    if not m.is_integer():
        raise ValueError("smith_normal_form requires integer entries")
    a = [list(row) for row in m.num]
    rows, cols = m.rows, m.cols
    k = min(rows, cols)
    for t in range(k):
        while True:
            # move a nonzero entry of least absolute value in the trailing
            # block to (t, t); stop if the block is zero
            nonzero = [(abs(a[i][j]), i, j) for i in range(t, rows)
                       for j in range(t, cols) if a[i][j]]
            if not nonzero:
                break
            _, i, j = min(nonzero)
            a[t], a[i] = a[i], a[t]
            if j != t:
                for r in a:
                    r[t], r[j] = r[j], r[t]
            rt = a[t]
            piv = rt[t]
            for i in range(t + 1, rows):
                q = a[i][t] // piv
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], rt)]
            for j in range(t + 1, cols):
                q = rt[j] // piv
                if q:
                    for r in a:
                        r[j] -= q * r[t]
            if any(a[i][t] for i in range(t + 1, rows)) or any(rt[t + 1:]):
                continue
            # the pivot must divide the rest of the block
            offender = next((r for r in a[t + 1:] if any(x % piv for x in r[t + 1:])), None)
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(rt, offender)]
    return tuple(abs(a[i][i]) for i in range(k))


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
    a = [list(row) for row in m.num]
    rows = m.rows
    cols = m.cols

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

    # the pivot columns come first, by pivot row; every later column is zero
    return QMatrix._make(tuple(tuple(r[:pivot_col]) for r in a), 1, pivot_col)


def _is_square_hermite(m: QMatrix) -> bool:
    """m is square, lower triangular with a positive diagonal, and reduced
    left of it: already its own column Hermite form."""
    return m.rows == m.cols and all(
        row[i] > 0 and not any(row[i + 1:]) and all(0 <= x < row[i] for x in row[:i])
        for i, row in enumerate(m.num))


def hnf_rational(m: QMatrix) -> QMatrix:
    """Canonical column form of the lattice generated by rational columns."""
    if m.cols == 0 or _is_square_hermite(m):
        return m
    # column operations keep the gcd of the entries, so h / den stays in
    # lowest terms
    h = hnf_columns(m.numerators())
    return QMatrix._make(h.num, m.den, h.cols)


def hermite_transform(m: QMatrix) -> tuple[QMatrix, QMatrix]:
    """(H, V) with [H; V] the column Hermite form of [m; I] for an integer m:
    V is unimodular, m V = H, H's first rank(m) columns hold its pivots and
    the rest are 0, and V's last columns below them span ker m.  So for a
    k x n m with k <= n, the diagonal of H's leading k x k block multiplies
    to the product of m's Smith divisors, which is 0 on a rank deficit."""
    if not m.is_integer():
        raise ValueError("hermite_transform requires integer entries")
    h = hnf_columns(QMatrix._make(m.num + QMatrix.identity(m.cols).num, 1, m.cols))
    return h.block(slice(m.rows)), h.block(slice(m.rows, None))


def integer_kernel(m: QMatrix) -> QMatrix:
    """Basis of { x in Z^cols : m @ x = 0 }: the last columns of V in the
    Hermite transform of den * m.  Saturated by construction."""
    h, v = hermite_transform(m.numerators())
    return v.block(cols=slice(sum(map(any, zip(*h.num))), None))
