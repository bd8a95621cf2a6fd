"""Exact Gaussian-rational linear algebra: the oracle for the ball kernel.

Gaussian rationals are pairs ``(re, im)`` of Fractions; determinants and
solves are exact Gaussian elimination, so the true value of a ball result
can be checked in Fraction arithmetic.
"""

from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def gdiv(x, y):
    n2 = y[0] * y[0] + y[1] * y[1]
    return gmul(x, (y[0] / n2, -y[1] / n2))


def _reduce(a, b):
    """Row-reduce [a | b] in place to upper triangular; returns the det of a."""
    n = len(a)
    det = ONE
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != ZERO), None)
        if piv is None:
            return ZERO
        if piv != k:
            a[k], a[piv], b[k], b[piv] = a[piv], a[k], b[piv], b[k]
            det = (-det[0], -det[1])
        det = gmul(det, a[k][k])
        for i in range(k + 1, n):
            f = gdiv(a[i][k], a[k][k])
            a[i] = [gsub(x, gmul(f, y)) for x, y in zip(a[i], a[k])]
            b[i] = [gsub(x, gmul(f, y)) for x, y in zip(b[i], b[k])]
    return det


def gdet(rows):
    return _reduce([list(r) for r in rows], [[] for _ in rows])


def gsolve(a, b):
    """(det a, X) with a X = b, for an invertible a."""
    a, b = [list(r) for r in a], [list(r) for r in b]
    det = _reduce(a, b)
    if det == ZERO:
        raise ZeroDivisionError("singular matrix")
    n = len(a)
    x = [None] * n
    for i in range(n - 1, -1, -1):
        acc = b[i]
        for t in range(i + 1, n):
            acc = [gsub(s, gmul(a[i][t], v)) for s, v in zip(acc, x[t])]
        x[i] = [gdiv(s, a[i][i]) for s in acc]
    return det, x


def _fraction(m) -> Fraction:
    sign, man, exp, _ = m._mpf_
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def ball_contains(z, value) -> bool:
    """The ComplexBall z contains the Gaussian rational ``value``."""
    return all(abs(_fraction(b.mid) - v) <= _fraction(b.rad)
               for b, v in ((z.re, value[0]), (z.im, value[1])))
