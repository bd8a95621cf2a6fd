"""Certified real and complex arithmetic: (midpoint, radius) balls over mpmath.

Every archimedean quantity in this package is a ball: an mpf midpoint plus a
nonnegative mpf radius guaranteed to contain the true value.  Arithmetic
propagates radii by interval rules and inflates them by a few ulp per
operation to absorb rounding of the midpoint itself.  Operations between two
exact balls (radius zero) are carried out exactly and kept exact when the
exact result is representable at the working precision, so identities like
h(Q(0)) = 0 come out with radius literally zero.

Precision is process-global (it wraps mpmath's context): use
``working_precision(bits)`` around a computation.  The stated bit count is
the nominal fractional precision; a fixed number of guard bits is added
internally.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from mpmath import mp, mpf, isfinite
from mpmath.libmp import mpf_abs, mpf_neg

_DEFAULT_BITS = 128
_GUARD_BITS = 30

_bits = _DEFAULT_BITS
mp.prec = _DEFAULT_BITS + _GUARD_BITS


class PrecisionExhausted(ArithmeticError):
    """A computation could not be resolved at the working precision."""


class ZeroVector(ValueError):
    """A metric or normalization was requested for the zero element."""


class working_precision:
    """Context manager: run the enclosed computation at ``bits`` of precision."""

    def __init__(self, bits: int):
        if bits < 8:
            raise ValueError("precision must be at least 8 bits")
        self.bits = int(bits)

    def __enter__(self):
        global _bits
        self._saved = (_bits, mp.prec)
        _bits = self.bits
        mp.prec = self.bits + _GUARD_BITS
        return self

    def __exit__(self, *exc):
        global _bits
        _bits, mp.prec = self._saved
        return False


def current_bits() -> int:
    return _bits


def _ulp(x) -> mpf:
    # Generous per-operation rounding slack: 16 ulp at the working precision.
    if x == 0:
        return mpf(0)
    return abs(x) * mpf(2) ** (4 - mp.prec)


def _representable(x) -> bool:
    """x is stored without rounding at the working precision."""
    return x.bc <= mp.prec


Number = Union[int, Fraction, "RealBall"]


def _coerce(x) -> "RealBall":
    if isinstance(x, RealBall):
        return x
    if isinstance(x, int):
        return RealBall.exact_int(x)
    if isinstance(x, Fraction):
        return RealBall.from_fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to RealBall")


class RealBall:
    """A real number known to lie in [mid - rad, mid + rad]."""

    __slots__ = ("mid", "rad")

    def __init__(self, mid, rad=0):
        if isinstance(mid, str):
            # a decimal string is rarely a binary fraction: the rounding
            # move cannot be measured here, so the radius would be wrong
            raise TypeError("RealBall midpoint must be a number; "
                            "parse decimal strings with RealBall.from_decimal")
        if type(mid) is not mpf or not _representable(mid):
            # rounding to the working precision moves the midpoint: widen
            # the radius by the move, rounded up
            rounded = mpf(mid)
            move = mp.fsub(mid, rounded, exact=True)
            if move:
                rad = mp.fadd(rad, mp.make_mpf(mpf_abs(move._mpf_)), rounding="u")
            mid = rounded
        self.mid = mid
        self.rad = rad if type(rad) is mpf else mpf(rad)
        if self.rad < 0 or not isfinite(self.rad):
            raise ValueError(f"invalid radius {rad!r}")

    # ---- constructors ----

    @classmethod
    def exact_int(cls, n: int) -> "RealBall":
        m = mpf(n)
        if m == n:
            return cls(m, 0)
        return cls(m, _ulp(m))  # integer wider than the working precision

    @classmethod
    def from_fraction(cls, q: Fraction) -> "RealBall":
        q = Fraction(q)
        num = RealBall.exact_int(q.numerator)
        if q.denominator == 1:
            return num
        return num / RealBall.exact_int(q.denominator)

    @classmethod
    def from_decimal(cls, s: str, digits: int | None = None) -> "RealBall":
        """Parse a decimal literal; ``digits`` is the author's certified accuracy."""
        mid = mpf(s)
        rad = _ulp(mid) if mid != 0 else mpf(0)
        if digits is not None:
            scale = abs(mid) if mid != 0 else mpf(1)
            rad += scale * mpf(10) ** (-int(digits))
        return cls(mid, rad)

    @classmethod
    def zero(cls) -> "RealBall":
        return cls(0, 0)

    @classmethod
    def one(cls) -> "RealBall":
        return cls(1, 0)

    @classmethod
    def pi(cls) -> "RealBall":
        return cls(+mp.pi, _ulp(+mp.pi))

    # ---- predicates / accessors ----

    @property
    def lower(self) -> mpf:
        return self.mid - self.rad

    @property
    def upper(self) -> mpf:
        return self.mid + self.rad

    def is_exact(self) -> bool:
        return self.rad == 0

    def exact_fraction(self) -> Fraction:
        """The value of an exact ball as a Fraction."""
        if self.rad != 0:
            raise ValueError("not an exact ball")
        man = int(self.mid.man) if self.mid >= 0 else -int(self.mid.man)
        exp = int(self.mid.exp)
        return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)

    def contains_zero(self) -> bool:
        return abs(self.mid) <= self.rad

    def definitely_positive(self) -> bool:
        return self.lower > 0

    def contains(self, other: "RealBall") -> bool:
        return self.lower <= other.lower and other.upper <= self.upper

    def overlaps(self, other: "RealBall") -> bool:
        return abs(self.mid - other.mid) <= self.rad + other.rad

    # ---- arithmetic ----

    def __add__(self, other):
        o = _coerce(other)
        if self.rad == 0 and o.rad == 0:
            exact = mp.fadd(self.mid, o.mid, exact=True)
            if _representable(exact):
                return RealBall(exact, 0)
        mid = self.mid + o.mid
        return RealBall(mid, self.rad + o.rad + _ulp(mid))

    __radd__ = __add__

    def __neg__(self):
        # exact sign flip, so a midpoint wider than the working precision
        # reaches the constructor unrounded and widens the radius there
        return RealBall(mp.make_mpf(mpf_neg(self.mid._mpf_)), self.rad)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        o = _coerce(other)
        if self.rad == 0 and o.rad == 0:
            exact = mp.fmul(self.mid, o.mid, exact=True)
            if _representable(exact):
                return RealBall(exact, 0)
        mid = self.mid * o.mid
        rad = (abs(self.mid) * o.rad + abs(o.mid) * self.rad
               + self.rad * o.rad + _ulp(mid))
        return RealBall(mid, rad)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o.contains_zero():
            raise PrecisionExhausted("division by a ball containing zero")
        mid = self.mid / o.mid
        if self.rad == 0 and o.rad == 0 and \
                mp.fmul(mid, o.mid, exact=True) == self.mid:
            return RealBall(mid, 0)  # the rounded quotient is the exact one
        # |a/b - a0/b0| <= (|a0| rb + |b0| ra) / (|b0| (|b0| - rb))
        denom = abs(o.mid) * (abs(o.mid) - o.rad)
        rad = (abs(self.mid) * o.rad + abs(o.mid) * self.rad) / denom + _ulp(mid)
        return RealBall(mid, rad)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __abs__(self):
        # Valid enclosure: ||t| - |mid|| <= |t - mid| <= rad; |mid| exactly.
        return RealBall(mp.make_mpf(mpf_abs(self.mid._mpf_)), self.rad)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("only integer exponents are supported")
        if n == 0:
            return RealBall.one()
        if n < 0:
            return RealBall.one() / self ** (-n)
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    def sqrt(self) -> "RealBall":
        lo, hi = self.lower, self.upper
        if hi < 0:
            raise PrecisionExhausted("sqrt of a negative ball")
        slo = mp.sqrt(lo) if lo > 0 else mpf(0)
        shi = mp.sqrt(hi)
        mid = (slo + shi) / 2
        rad = (shi - slo) / 2 + _ulp(mid)
        if self.rad == 0 and mp.fmul(shi, shi, exact=True) == self.mid:
            return RealBall(shi, 0)
        return RealBall(mid, rad)

    def log(self) -> "RealBall":
        lo, hi = self.lower, self.upper
        if lo <= 0:
            raise PrecisionExhausted("log of a ball touching (-inf, 0]")
        if self.rad == 0 and self.mid == 1:
            return RealBall.zero()
        llo, lhi = mp.log(lo), mp.log(hi)
        mid = (llo + lhi) / 2
        return RealBall(mid, (lhi - llo) / 2 + _ulp(mid) + _ulp(lhi))

    def exp(self) -> "RealBall":
        if self.rad == 0 and self.mid == 0:
            return RealBall.one()
        elo, ehi = mp.exp(self.lower), mp.exp(self.upper)
        mid = (elo + ehi) / 2
        return RealBall(mid, (ehi - elo) / 2 + _ulp(mid) + _ulp(ehi))

    # ---- display ----

    def __repr__(self):
        return f"RealBall({self.mid!r}, {self.rad!r})"

    def __str__(self):
        return format_ball(self)


def format_ball(b: RealBall, digits: int = 30) -> str:
    from mpmath import nstr
    if b.rad == 0:
        return f"{nstr(b.mid, digits)} (exact)"
    return f"{nstr(b.mid, digits)} ± {nstr(b.rad, 3)}"


class ComplexBall:
    """A complex number enclosed in a rectangle: independent re/im balls.

    A ball made from exact data, a Gaussian rational times a power of
    2*pi*i, also remembers that value in ``exact``: a map k -> (re, im) of
    Fractions meaning sum_k (re + i im) (2 pi i)^k.  Exact questions about
    input data, such as whether a determinant vanishes, can then be decided
    exactly even when the value is not a binary fraction.
    """

    __slots__ = ("re", "im", "exact")

    def __init__(self, re, im=None, exact=None):
        self.re = re if isinstance(re, RealBall) else _coerce(re)
        if im is None:
            im = RealBall.zero()
        self.im = im if isinstance(im, RealBall) else _coerce(im)
        self.exact = exact

    # ---- constructors ----

    @classmethod
    def from_rationals(cls, re, im=0) -> "ComplexBall":
        re, im = Fraction(re), Fraction(im)
        return cls(RealBall.from_fraction(re), RealBall.from_fraction(im), {0: (re, im)})

    @classmethod
    def zero(cls) -> "ComplexBall":
        return cls(RealBall.zero(), RealBall.zero())

    @classmethod
    def one(cls) -> "ComplexBall":
        return cls(RealBall.one(), RealBall.zero())

    @classmethod
    def two_pi_i(cls) -> "ComplexBall":
        return cls(RealBall.zero(), RealBall.pi() * 2)

    @classmethod
    def tpi_power(cls, k: int, scale: Fraction = Fraction(1)) -> "ComplexBall":
        """scale * (2*pi*i)**k, for exact rational-in-(2*pi*i) data."""
        z = cls.from_rationals(scale)
        if k:
            z = z * cls.two_pi_i() ** k
            z.exact = {k: (Fraction(scale), Fraction(0))}
        return z

    # ---- predicates ----

    def is_exact(self) -> bool:
        return self.re.is_exact() and self.im.is_exact()

    def contains_zero(self) -> bool:
        return self.re.contains_zero() and self.im.contains_zero()

    def mid_complex(self):
        from mpmath import mpc
        return mpc(self.re.mid, self.im.mid)

    def exact_value(self) -> dict[int, tuple[Fraction, Fraction]] | None:
        """The value as a map k -> (re, im) of Fractions, meaning
        sum_k (re + i im) (2 pi i)^k, when it is known exactly, else None."""
        if self.exact is not None:
            return self.exact
        if self.is_exact():
            return {0: (self.re.exact_fraction(), self.im.exact_fraction())}
        return None

    # ---- arithmetic ----

    def __add__(self, other):
        o = _coerce_complex(other)
        return ComplexBall(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return ComplexBall(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_coerce_complex(other))

    def __rsub__(self, other):
        return _coerce_complex(other) + (-self)

    def __mul__(self, other):
        o = _coerce_complex(other)
        return ComplexBall(self.re * o.re - self.im * o.im,
                           self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce_complex(other)
        n2 = o.re * o.re + o.im * o.im
        if n2.contains_zero():
            raise PrecisionExhausted("division by a complex ball containing zero")
        num = self * o.conj()
        return ComplexBall(num.re / n2, num.im / n2)

    def __rtruediv__(self, other):
        return _coerce_complex(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("only integer exponents are supported")
        if n == 0:
            return ComplexBall.one()
        if n < 0:
            return ComplexBall.one() / self ** (-n)
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    def conj(self) -> "ComplexBall":
        # conj((a + b i) (2 pi i)^k) = (-1)^k (a - b i) (2 pi i)^k
        q = self.exact
        return ComplexBall(self.re, -self.im, None if q is None else {
            k: (-a, b) if k % 2 else (a, -b) for k, (a, b) in q.items()})

    def abs_ball(self) -> RealBall:
        return (self.re * self.re + self.im * self.im).sqrt()

    def __repr__(self):
        return f"ComplexBall({self.re!r}, {self.im!r})"

    def __str__(self):
        return f"({self.re} + {self.im}*i)"


def _coerce_complex(x) -> ComplexBall:
    if isinstance(x, ComplexBall):
        return x
    if isinstance(x, (int, Fraction, RealBall)):
        return ComplexBall(_coerce(x), RealBall.zero())
    raise TypeError(f"cannot coerce {type(x).__name__} to ComplexBall")


# ---------------------------------------------------------------------------
# Small dense linear algebra over complex balls (sizes here are <= ~20).
# ---------------------------------------------------------------------------

BallMatrix = tuple  # tuple of tuples of ComplexBall, row-major


def ball_matrix(rows: Iterable[Iterable]) -> BallMatrix:
    return tuple(tuple(_coerce_complex(x) for x in row) for row in rows)


def ball_identity(n: int) -> BallMatrix:
    return tuple(tuple(ComplexBall.one() if i == j else ComplexBall.zero()
                       for j in range(n)) for i in range(n))


def ball_mat_mul(a: BallMatrix, b: BallMatrix) -> BallMatrix:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    assert all(len(r) == k for r in a)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ComplexBall.zero()
            for t in range(k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _pivot_row(col: Sequence[ComplexBall], start: int) -> int:
    best, best_mag = -1, mpf(-1)
    for i in range(start, len(col)):
        mag = col[i].re.mid ** 2 + col[i].im.mid ** 2
        if mag > best_mag:
            best, best_mag = i, mag
    return best


def ball_lu_solve(a: BallMatrix, b: BallMatrix) -> BallMatrix:
    """Solve a X = b by Gaussian elimination with partial pivoting.

    Raises PrecisionExhausted if some pivot ball contains zero (the matrix
    cannot be certified invertible at the working precision).
    """
    n = len(a)
    m = len(b[0]) if b else 0
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for k in range(n):
        piv = _pivot_row([aug[i][k] for i in range(n)], k)
        if piv != k:
            aug[k], aug[piv] = aug[piv], aug[k]
        pivot = aug[k][k]
        if pivot.contains_zero():
            raise PrecisionExhausted("singular pivot in ball linear solve")
        for i in range(k + 1, n):
            factor = aug[i][k] / pivot
            aug[i][k] = ComplexBall.zero()
            for j in range(k + 1, n + m):
                aug[i][j] = aug[i][j] - factor * aug[k][j]
    # back substitution
    x = [[ComplexBall.zero()] * m for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(m):
            acc = aug[i][n + j]
            for t in range(i + 1, n):
                acc = acc - aug[i][t] * x[t][j]
            x[i][j] = acc / aug[i][i]
    return tuple(tuple(row) for row in x)


def ball_det(a: BallMatrix) -> ComplexBall:
    n = len(a)
    if n == 0:
        return ComplexBall.one()
    work = [list(row) for row in a]
    det = ComplexBall.one()
    sign = 1
    for k in range(n):
        piv = _pivot_row([work[i][k] for i in range(n)], k)
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
            sign = -sign
        pivot = work[k][k]
        if pivot.contains_zero():
            raise PrecisionExhausted("ball determinant cannot exclude zero")
        det = det * pivot
        for i in range(k + 1, n):
            factor = work[i][k] / pivot
            for j in range(k + 1, n):
                work[i][j] = work[i][j] - factor * work[k][j]
    return det if sign > 0 else -det
