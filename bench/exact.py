"""Exact reference values that the benchmark checks every height against.

Nothing here touches motive_height: the references are computed from the
generated inputs alone, in exact Gaussian-rational arithmetic followed by one
mpmath logarithm at ``REF_BITS``, so they are independent of the code under
test.

Gaussian rationals are pairs ``(re, im)`` of Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf

REF_BITS = 320

ZERO = (Fraction(0), Fraction(0))


def gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def gconj(x):
    return (x[0], -x[1])


def ginv(x):
    n2 = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n2, -x[1] / n2)


def gdet(columns):
    """Determinant of the square matrix with the given columns."""
    n = len(columns)
    a = [[columns[j][i] for j in range(n)] for i in range(n)]
    det = (Fraction(1), Fraction(0))
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != ZERO), None)
        if piv is None:
            return ZERO
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = (-det[0], -det[1])
        pivot = a[k][k]
        det = gmul(det, pivot)
        pinv = ginv(pivot)
        for i in range(k + 1, n):
            if a[i][k] == ZERO:
                continue
            f = gmul(a[i][k], pinv)
            for j in range(k + 1, n):
                a[i][j] = gsub(a[i][j], gmul(f, a[k][j]))
    return det


def log_abs(x) -> mpf:
    """log |x| for a nonzero Gaussian rational, at REF_BITS."""
    n2 = x[0] * x[0] + x[1] * x[1]
    with mp.workprec(REF_BITS):
        return mp.log(mpf(n2.numerator) / n2.denominator) / 2


def hodge_opposition_dets(weight, levels, columns):
    """D_r = det[F^r | conj F^(w+1-r)] for a < r < b, exactly.

    ``columns`` are the adapted basis vectors, ordered by nondecreasing
    ``levels``; F^r is spanned by the columns of level >= r.
    """
    a, b = min(levels), max(levels) + 1
    out = {}
    for r in range(a + 1, b):
        f = [c for c, l in zip(columns, levels) if l >= r]
        g = [[gconj(x) for x in c] for c, l in zip(columns, levels)
             if l >= weight + 1 - r]
        if len(f) + len(g) != len(columns):
            raise ValueError(f"dim F^{r} + dim F^{weight + 1 - r} != rank")
        out[r] = gdet(f + g)
    return out


def pure_height(weight, levels, columns) -> mpf:
    """h = -log |ref| of a motive with only default-good primes."""
    with mp.workprec(REF_BITS):
        return -log_reference_metric(weight, levels, columns)


def log_reference_metric(weight, levels, columns) -> mpf:
    """log |ref| of the reference generator of L(M) for a pure structure.

    The determinant closed form log|ref| = a log|det P| + 1/2 sum_{a<r<b}
    log|D_r| (Deligne's opposedness of F and conj F), with P the adapted
    period matrix and [a, b) the level window.
    """
    a = min(levels)
    dets = hodge_opposition_dets(weight, levels, columns)
    if any(d == ZERO for d in dets.values()):
        raise ValueError("F and conj F are not opposed: not pure")
    det_p = gdet(columns)
    with mp.workprec(REF_BITS):
        total = a * log_abs(det_p) if a else mpf(0)
        for d in dets.values():
            total += log_abs(d) / 2
        return total


def log_lattice_scalar(window, valuations) -> mpf:
    """log of the windowed lattice scalar g_b^(b-1) / prod_{a<i<b} g_i, with
    g_i = prod_p p^(v_p(i)); ``valuations`` maps p -> {r: v}."""
    a, b = window
    with mp.workprec(REF_BITS):
        total = mpf(0)
        for p, v in valuations.items():
            e = (b - 1) * v.get(b, 0) - sum(v.get(i, 0) for i in range(a + 1, b))
            if e:
                total += e * mp.log(p)
        return total


def tate_height(r: int) -> mpf:
    """h(Q(r)) = -r^2 log(2 pi): window [-r, -r + 1), period (2 pi i)^(-r)."""
    with mp.workprec(REF_BITS):
        return -(r * r) * mp.log(2 * mp.pi)


def curve_height(omega1, omega2, window, valuations) -> mpf:
    """h(H_1(E)) = -1/2 log(2 |Im(conj(w1) w2)|) + v-adjustment (README,
    "Normalization"), for exact decimal periods given as Gaussian rationals."""
    im = gmul(gconj(omega1), omega2)[1]
    with mp.workprec(REF_BITS):
        metric = mp.log(2 * abs(mpf(im.numerator) / im.denominator)) / 2
        return -log_lattice_scalar(window, valuations) - metric


def ball_contains(mid, rad, value, slack_rel=mpf(2) ** -250) -> bool:
    """|mid - value| <= rad, evaluated at REF_BITS (with a negligible slack
    for the reference's own rounding)."""
    with mp.workprec(REF_BITS):
        return abs(mpf(mid) - value) <= mpf(rad) + slack_rel * (1 + abs(value))
