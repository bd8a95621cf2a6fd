"""Certified real and complex arithmetic: (midpoint, radius) balls over mpmath.

Every archimedean quantity in this package is a ball: an mpf midpoint plus a
nonnegative mpf radius guaranteed to contain the true value.  Every ball is
made by one rule, after Arb's radii (arXiv:1611.02831): compute the midpoint
exactly, round it once to nearest at the working precision, and add the
exact rounding move to the radius, rounded up.  Sums, differences and
products form their midpoints and radius terms exactly; a quotient adds its
exact move |a - mid b| / |b| to the propagated bound; ``sqrt`` encloses
correctly rounded directed endpoints, and ``log``, ``exp`` and ``pi``, which
mpmath rounds faithfully but not correctly, move their directed endpoints
one more ulp outward; negation, and so conjugation, is an exact sign flip.
An operation on exact balls whose exact result fits the working precision
therefore stays exact, so identities like h(Q(0)) = 0 come out with radius
literally zero.

Determinants and solves run in one integer fixed-point elimination with
radii counted in ulps: entries, scaled by powers of two, are Gaussian
integers at scale 2^(precision + _FIX_GUARD) with one integer disk radius
each.  Every rounding is bounded in integers, and an ulp is added only where
bits are dropped, so exact data stay exact.  The elimination reads only the
integer parts that ``ball_parts`` takes from a matrix; they do not depend on
the precision, so a caller that eliminates many matrices built from the
same entries (the opposition determinants of one Hodge structure) reads
those entries once.

Precision is process-global: use ``working_precision(bits)`` around a
computation.  The stated bit count is the nominal fractional precision; a
fixed number of guard bits is added internally.  Every rounding here takes
its precision from ``current_bits()``, never from mpmath's ``mp.prec``, so a
caller who changes ``mp.prec`` does not change a result.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable

from mpmath import mp, mpf, nstr
from mpmath.libmp import (from_int, from_man_exp, fzero, mpf_abs, mpf_add, mpf_cmp, mpf_div,
                          mpf_exp, mpf_log, mpf_mul, mpf_neg, mpf_pi, mpf_shift,
                          mpf_sign, mpf_sqrt, mpf_sub, round_ceiling, round_down,
                          round_floor, round_nearest, round_up)

from .rational import parse_rational

_DEFAULT_BITS = 128
_GUARD_BITS = 30
MIN_BITS = 8

_bits = _DEFAULT_BITS
mp.prec = _DEFAULT_BITS + _GUARD_BITS


class PrecisionExhausted(ArithmeticError):
    """A computation could not be resolved at the working precision."""


class ZeroVector(ValueError):
    """A metric or normalization was requested for the zero element."""


class working_precision:
    """Context manager: run the enclosed computation at ``bits`` of precision.

    It also sets mpmath's ``mp.prec`` to match, for callers that use mpmath
    directly, and restores the caller's value on exit."""

    def __init__(self, bits: int):
        if bits < MIN_BITS:
            raise ValueError(f"precision must be at least {MIN_BITS} bits")
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


def _prec() -> int:
    """Mantissa bits of every rounding in this module: the working precision
    plus the guard bits."""
    return current_bits() + _GUARD_BITS


def _power(x, n: int, cls):
    """x ** n for an integer n, by repeated products."""
    if not isinstance(n, int):
        raise TypeError("only integer exponents are supported")
    if n <= 0:
        return cls.one() if n == 0 else cls.one() / x ** (-n)
    result = x
    for _ in range(n - 1):
        result = result * x
    return result


def _coerce(x) -> "RealBall":
    if isinstance(x, RealBall):
        return x
    if isinstance(x, (int, Fraction)):
        return RealBall(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to RealBall")


def _parts(x) -> tuple[int, int, int]:
    """x = n 2^e / d exactly, as (n, e, d), for an mpf, int or Fraction."""
    if isinstance(x, mpf):
        sign, man, exp, _ = x._mpf_
        if not man and exp:
            raise ValueError(f"non-finite ball part {x!r}")
        return (-man if sign else man), exp, 1
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator
    # a decimal string is rarely a binary fraction: from_decimal reads it exactly
    raise TypeError(f"a ball part must be an mpf, int or Fraction, not "
                    f"{type(x).__name__}; parse decimal strings with RealBall.from_decimal")


def _rounded(n: int, e: int, d: int, r: int, er: int) -> "RealBall":
    """The ball (n 2^e ± r 2^er) / d by the one rounding rule: the midpoint
    rounded to nearest, and the radius plus the exact move |n 2^e - d mid| / d,
    rounded up."""
    prec = _prec()
    sign, man, exp, _ = mid = mpf_div(from_man_exp(n, e), from_int(d), prec, round_nearest)
    c = min(e, er, exp)
    r = (r << (er - c)) + abs((n << (e - c)) - d * ((-man if sign else man) << (exp - c)))
    ball = RealBall.__new__(RealBall)
    ball.mid = mp.make_mpf(mid)
    ball.rad = mp.make_mpf(mpf_div(from_man_exp(r, c), from_int(d), prec, round_up))
    return ball


def _ball(mid: tuple, rad: tuple) -> "RealBall":
    """The ball of an exact raw midpoint and an exact raw radius."""
    sign, man, exp, _ = mid
    return _rounded(-man if sign else man, exp, 1, rad[1], rad[2])


def _span(lo: tuple, hi: tuple) -> "RealBall":
    """The ball [lo, hi] of raw endpoints."""
    return _ball(mpf_shift(mpf_add(lo, hi), -1), mpf_shift(mpf_sub(hi, lo), -1))


def _outward(lo: tuple, hi: tuple) -> "RealBall":
    """[lo, hi] for directed endpoints of mpmath's log, exp or pi.  These are
    faithful, not correctly rounded, so each endpoint moves out by 2^(1-prec)
    of its magnitude, at least an ulp; an exact zero (log 1) stays put."""
    shift = 1 - _prec()
    return _span(mpf_sub(lo, mpf_shift(mpf_abs(lo), shift)),
                 mpf_add(hi, mpf_shift(mpf_abs(hi), shift)))


class RealBall:
    """A real number known to lie in [mid - rad, mid + rad]."""

    __slots__ = ("mid", "rad")

    def __init__(self, mid, rad=0):
        """mid and rad are mpfs, ints or Fractions, taken exactly."""
        n, e, d = _parts(mid)
        r, er, dr = _parts(rad)
        if r < 0:
            raise ValueError(f"invalid radius {rad!r}")
        if dr != 1:  # a rational radius, rounded up to a binary one
            _, r, er, _ = mpf_div(from_int(r), from_int(dr), _prec(), round_up)
        ball = _rounded(n, e, d, r * d, er)
        self.mid, self.rad = ball.mid, ball.rad

    # ---- constructors ----

    @classmethod
    def from_decimal(cls, s: str, digits: int | None = None) -> "RealBall":
        """q ± |q| 10^-digits (± 10^-digits if q = 0) for a literal q in
        Fraction's grammar certified to ``digits`` >= 0 digits, rounded once.
        Far below an ulp, 10^-digits gives way to 2^-k <= 10^-digits."""
        n, d = parse_rational(s)
        if digits is None:
            return _rounded(n, 0, d, 0, 0)
        k = digits * 332192809488736234787 // 10 ** 20  # 10^20 log2(10), rounded down
        if k > 3 * _prec():
            return _rounded(n, 0, d, abs(n) or d, -k)
        t = 10 ** digits
        return _rounded(n * t, 0, d * t, abs(n) or d, 0)

    @classmethod
    def zero(cls) -> "RealBall":
        return cls(0)

    @classmethod
    def one(cls) -> "RealBall":
        return cls(1)

    @classmethod
    def pi(cls) -> "RealBall":
        return _outward(mpf_pi(_prec(), round_floor), mpf_pi(_prec(), round_ceiling))

    # ---- predicates / accessors ----

    @property
    def lower(self) -> mpf:
        return mp.make_mpf(mpf_sub(self.mid._mpf_, self.rad._mpf_, _prec(), round_floor))

    @property
    def upper(self) -> mpf:
        return mp.make_mpf(mpf_add(self.mid._mpf_, self.rad._mpf_, _prec(), round_ceiling))

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
        return mpf_cmp(mpf_abs(self.mid._mpf_), self.rad._mpf_) <= 0

    def overlaps(self, other: "RealBall") -> bool:
        return self.lower <= other.upper and other.lower <= self.upper

    # ---- arithmetic ----

    def __add__(self, other):
        o = _coerce(other)
        return _ball(mpf_add(self.mid._mpf_, o.mid._mpf_), mpf_add(self.rad._mpf_, o.rad._mpf_))

    __radd__ = __add__

    def __neg__(self):  # an exact sign flip, with no rounding
        ball = RealBall.__new__(RealBall)
        ball.mid, ball.rad = mp.make_mpf(mpf_neg(self.mid._mpf_)), self.rad
        return ball

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        o = _coerce(other)
        a, ra, b, rb = self.mid._mpf_, self.rad._mpf_, o.mid._mpf_, o.rad._mpf_
        # |xy - ab| <= |a| rb + |b| ra + ra rb
        rad = mpf_add(mpf_add(mpf_mul(mpf_abs(a), rb), mpf_mul(mpf_abs(b), ra)), mpf_mul(ra, rb))
        return _ball(mpf_mul(a, b), rad)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o.contains_zero():
            raise PrecisionExhausted("division by a ball containing zero")
        a, ra, b, rb = self.mid._mpf_, self.rad._mpf_, o.mid._mpf_, o.rad._mpf_
        prec, babs = _prec(), mpf_abs(b)
        mid, low = mpf_div(a, b, prec, round_nearest), mpf_sub(babs, rb)
        # |x/y - mid| <= (|a| rb + |b| ra) / (|b| (|b| - rb)) + |a - mid b| / |b|
        rad = mpf_add(mpf_add(mpf_mul(mpf_abs(a), rb), mpf_mul(babs, ra)),
                      mpf_mul(mpf_abs(mpf_sub(a, mpf_mul(mid, b))), low))
        return _ball(mid, mpf_div(rad, mpf_mul(babs, low), prec, round_up))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __abs__(self):
        # Valid enclosure: ||t| - |mid|| <= |t - mid| <= rad; |mid| exactly.
        return _ball(mpf_abs(self.mid._mpf_), self.rad._mpf_)

    def __pow__(self, n: int):
        return _power(self, n, RealBall)

    def sqrt(self) -> "RealBall":
        lo, hi = self.lower._mpf_, self.upper._mpf_
        if mpf_sign(hi) < 0:
            raise PrecisionExhausted("sqrt of a negative ball")
        # mpf_sqrt rounds correctly, so its directed endpoints need no move
        slo = mpf_sqrt(lo, _prec(), round_down) if mpf_sign(lo) > 0 else fzero
        return _span(slo, mpf_sqrt(hi, _prec(), round_up))

    def log(self) -> "RealBall":
        lo, hi = self.lower._mpf_, self.upper._mpf_
        if mpf_sign(lo) <= 0:
            raise PrecisionExhausted("log of a ball touching (-inf, 0]")
        return _outward(mpf_log(lo, _prec(), round_floor), mpf_log(hi, _prec(), round_ceiling))

    def exp(self) -> "RealBall":
        lo, hi = self.lower._mpf_, self.upper._mpf_
        return _outward(mpf_exp(lo, _prec(), round_floor), mpf_exp(hi, _prec(), round_ceiling))

    # ---- display ----

    def __repr__(self):
        return f"RealBall({self.mid!r}, {self.rad!r})"

    def __str__(self):
        if self.rad == 0:
            return f"{nstr(self.mid, 30)} (exact)"
        return f"{nstr(self.mid, 30)} ± {nstr(self.rad, 3)}"


class ComplexBall:
    """A complex number enclosed in a rectangle: independent re/im balls.

    A ball made from exact data, a Gaussian rational times a power of
    2*pi*i, also remembers that value in ``exact``: a map k -> (re, im) of
    Fractions meaning sum_k (re + i im) (2 pi i)^k.  Exact questions about
    input data, such as whether a determinant vanishes, can then be decided
    exactly even when the value is not a binary fraction.
    """

    __slots__ = ("re", "im", "exact")

    def __init__(self, re, im=0, exact=None):
        self.re, self.im, self.exact = _coerce(re), _coerce(im), exact

    # ---- constructors ----

    @classmethod
    def from_rationals(cls, re, im=0) -> "ComplexBall":
        re, im = Fraction(re), Fraction(im)
        return cls(RealBall(re), RealBall(im), {0: (re, im)})

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
        return _power(self, n, ComplexBall)

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


def rational_ball_mul(a, b) -> BallMatrix:
    """a @ b for one factor of exact rationals (rows of ints or Fractions,
    such as ``QMatrix.data``) and one ball matrix, in either order.

    Each output part is (sum_t n_t x_t) / d, with d the common denominator
    of the rational row or column and n_t = d q_t: the midpoints are summed
    exactly as one integer and rounded once, and the radius is rounded up.
    Exact data stay exact when the result fits the working precision.  The
    result carries no ``ComplexBall.exact``.
    """
    # the rational factor holds the non-ball entries (with none on either
    # side, both readings give the same empty product)
    if any(isinstance(x, ComplexBall) for row in a for x in row) or \
            any(not isinstance(x, ComplexBall) for row in b for x in row):
        out = _rational_times_balls(tuple(zip(*b)), tuple(zip(*a)))  # (Q^T B^T)^T
        return tuple(zip(*out)) if out else ((),) * len(a)
    return _rational_times_balls(a, b)


def _rational_times_balls(q, b) -> BallMatrix:
    # each column of b as (m, e) with x_t = m_t 2^e exactly, for x its real
    # midpoints, real radii, imaginary midpoints and imaginary radii
    cols = []
    for col in zip(*b):
        cols.append([])
        for raw in zip(*((z.re.mid._mpf_, z.re.rad._mpf_, z.im.mid._mpf_, z.im.rad._mpf_)
                         for z in col)):
            e = min((exp for _, man, exp, _ in raw if man), default=0)
            cols[-1].append(([(-man if sign else man) << (exp - e) if man else 0
                              for sign, man, exp, _ in raw], e))
    out = []
    for row in q:
        d = lcm(*(x.denominator for x in row))
        terms = [(t, x.numerator * (d // x.denominator)) for t, x in enumerate(row) if x]
        out.append(tuple(ComplexBall(*(_dot(d, terms, *mids, *rads)
                                       for mids, rads in (col[:2], col[2:])))
                         for col in cols))
    return tuple(out)


def _dot(d: int, terms: list, mids: list, e: int, rads: list, er: int) -> RealBall:
    """sum_t n_t x_t / d over (t, n_t) in terms, for x_t = mids[t] 2^e with
    radius rads[t] 2^er."""
    return _rounded(sum(n * mids[t] for t, n in terms), e, d,
                    sum(abs(n) * rads[t] for t, n in terms), er)


_FIX_GUARD = 8  # bits of the fixed point beyond the working mantissa


def ball_parts(a) -> tuple:
    """The integer form the elimination reads: each entry z becomes
    (mag, parts), parts the pairs (m, e) with m 2^e exactly, m signed, of
    z's real and imaginary midpoints and then radii, and mag the largest
    e + bitlength(m) of a nonzero midpoint part (None when both vanish).
    Nothing here depends on the precision, so a matrix read once serves
    every elimination at every precision, and ``conj_parts`` reads conj z
    off z's entry.  An entry already read stands for itself, so a matrix
    assembled from read entries passes through."""
    return tuple(tuple(_read(z) if isinstance(z, ComplexBall) else z for z in row)
                 for row in a)


def conj_parts(entry: tuple) -> tuple:
    """The ``ball_parts`` entry of conj z from that of z: the imaginary
    midpoint's sign flipped, as ``ComplexBall.conj`` flips it, exactly."""
    mag, (re, (m, e), *radii) = entry
    return mag, (re, (-m, e), *radii)


def _read(z: ComplexBall) -> tuple:
    raw = [x._mpf_ for x in (z.re.mid, z.im.mid, z.re.rad, z.im.rad)]
    mag = max((exp + bc for _, man, exp, bc in raw[:2] if man), default=None)
    return mag, tuple((-man if sign else man, exp) for sign, man, exp, _ in raw)


def _fixed(parts: tuple, shift: int) -> tuple[int, int, int]:
    """An entry's parts times 2^shift as a truncated Gaussian integer and a
    disk radius: the radii rounded up, plus an ulp for each part that lost
    bits."""
    out, lost = [], 0
    for m, exp in parts:
        k = exp + shift
        if k >= 0:
            out.append(m << k)
        else:
            v = abs(m) >> -k
            lost += v << -k != abs(m)
            out.append(-v if m < 0 else v)
    return out[0], out[1], out[2] + out[3] + lost


def _divide(ar: int, ai: int, ra: int, pivot: tuple, shift: int) -> tuple[int, int, int]:
    """(a / p) 2^shift with its radius, for a = ar + i ai (radius ra)."""
    pr, pi, rp, norm, low = pivot
    fr, er = divmod((ar * pr + ai * pi) << shift, norm)
    fi, ei = divmod((ai * pr - ar * pi) << shift, norm)
    rf = (er != 0) + (ei != 0)
    if ra or rp:
        # |A/P - a/p| <= (ra + |a/p| rp) / (|p| - rp), and |a/p| 2^shift is
        # below |f| + 2 as f is the floor of a/p 2^shift in each part
        rf -= -((ra << shift) + (isqrt(fr * fr + fi * fi) + 3) * rp) // (low - rp)
    return fr, fi, rf


def _complex_ball(re: int, im: int, rad: int, exp: int) -> ComplexBall:
    """(re + i im) 2^exp with disk radius rad 2^exp, as a rectangle."""
    return ComplexBall(_rounded(re, exp, 1, rad, exp), _rounded(im, exp, 1, rad, exp))


def _eliminate(full: tuple):
    """Eliminate the ``ball_parts`` rows [a | rhs], a square, in fixed point,
    pivoting on the largest |mid|^2: below each pivot, or in every other row
    when rhs has columns (Gauss-Jordan).  Returns (F, pivots, rows, sign,
    exp, col): pivot k is (pr, pi, rp, |p|^2, isqrt |p|^2), row k the lists
    (re, im, radius) of its row, column j was scaled by 2^-col[j], and
    det a = sign prod_k (pr + i pi) 2^exp."""
    n, frac = len(full), _prec() + _FIX_GUARD
    mask = (1 << frac) - 1
    col = [max((mag for mag, _ in c if mag is not None), default=0) for c in zip(*full)]
    gauss_jordan = len(col) > n
    rows, exp, sign, pivots = [], sum(col[:n]) - n * frac, 1, []
    for row in full:
        top = max((mag - c for (mag, _), c in zip(row[:n], col) if mag is not None),
                  default=0)
        exp += top
        rows.append(tuple(map(list, zip(*(_fixed(parts, frac - top - c)
                                          for (_, parts), c in zip(row, col))))))
    for k in range(n):
        piv = max(range(k, n), key=lambda i: rows[i][0][k] ** 2 + rows[i][1][k] ** 2)
        if piv != k:
            rows[k], rows[piv], sign = rows[piv], rows[k], -sign
        pre, pim, prad = rows[k]
        norm = pre[k] ** 2 + pim[k] ** 2
        pivots.append((pre[k], pim[k], prad[k], norm, isqrt(norm)))
        if pivots[-1][4] <= prad[k]:
            raise PrecisionExhausted("a pivot ball contains zero at the working precision")
        babs = [isqrt(x * x + y * y) + 1 for x, y in zip(pre, pim)]
        for i in (range(n) if gauss_jordan else range(k + 1, n)):
            re, im, rad = rows[i]
            fr, fi, rf = _divide(re[k], im[k], rad[k], pivots[-1], frac) if i != k else (0, 0, 0)
            fabs = isqrt(fr * fr + fi * fi) + 1
            for j in range(k + 1, len(col)) if fr or fi or rf else ():
                xr, xi = fr * pre[j] - fi * pim[j], fr * pim[j] + fi * pre[j]
                re[j] -= xr >> frac
                im[j] -= xi >> frac
                # c - f b moves by <= |f| rb + |b| rf + rf rb, plus two floors
                rad[j] += ((xr & mask) != 0) + ((xi & mask) != 0) - (
                    -(fabs * prad[j] + babs[j] * rf + rf * prad[j]) >> frac)
    return frac, pivots, rows, sign, exp, col


def ball_lu_solve(a: BallMatrix, b: BallMatrix) -> BallMatrix:
    """Solve a X = b by Gauss-Jordan elimination with partial pivoting.

    Raises PrecisionExhausted if some pivot ball contains zero (the matrix
    cannot be certified invertible at the working precision).
    """
    frac, pivots, rows, _, _, col = _eliminate(
        ball_parts(tuple(ra) + tuple(rb) for ra, rb in zip(a, b)))
    return tuple(tuple(_complex_ball(*_divide(re[j], im[j], rad[j], pivot, frac),
                                     col[j] - col[k] - frac) for j in range(len(a), len(re)))
                 for k, ((re, im, rad), pivot) in enumerate(zip(rows, pivots)))


def det_norm2(a: BallMatrix) -> tuple[int, int, int]:
    """|det a|^2 as integers (lo, hi, e) with lo 2^e <= |det a|^2 <= hi 2^e:
    a pivot disk p +- r, with N = |p|^2 and s = isqrt N <= |p| < s + 1, puts
    |P|^2 in [max(N - 2r(s + 1) + r^2, (s - r)^2), N + 2r(s + 1) + r^2], whose
    lower end is >= 1 as s > r is certified, and which is N when r = 0."""
    _, pivots, _, _, exp, _ = _eliminate(ball_parts(a))
    lo = hi = 1
    for _, _, r, norm, s in pivots:
        lo *= max(norm - 2 * r * (s + 1) + r * r, (s - r) ** 2)
        hi *= norm + 2 * r * (s + 1) + r * r
    return lo, hi, 2 * exp


def ball_det(a: BallMatrix) -> ComplexBall:
    """det a = sign prod p_k, with radius prod (|p_k| + r_k) - prod |p_k|:
    that grows with each |p_k|, so upper bounds of |p_k| may stand in."""
    _, pivots, _, sign, exp, _ = _eliminate(ball_parts(a))
    re, im, upper, widened = sign, 0, 1, 1
    for pr, pi, rp, _, low in pivots:
        re, im = re * pr - im * pi, re * pi + im * pr
        upper, widened = upper * (low + 1), widened * (low + 1 + rp)
    return _complex_ball(re, im, widened - upper, exp)
