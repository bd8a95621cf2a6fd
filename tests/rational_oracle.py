"""Gaussian elimination over Fractions: the reference for ``QMatrix.det``
and ``QMatrix.solve``, which eliminate fraction-free on integer numerators.

Matrices here are lists of rows of Fractions (or ints).
"""

from fractions import Fraction


def det(rows) -> Fraction:
    n = len(rows)
    if n == 0:
        return Fraction(1)
    work = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
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


def solve(a, b) -> list:
    """X with a X = b for square invertible a; ZeroDivisionError if a is
    singular."""
    n = len(a)
    aug = [[Fraction(x) for x in ra] + [Fraction(x) for x in rb] for ra, rb in zip(a, b)]
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
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    return [row[n:] for row in aug]


def rank(rows) -> int:
    work = [[Fraction(x) for x in r] for r in rows]
    cols = len(work[0]) if work else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, len(work)):
            f = work[i][c] / work[r][c]
            work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r
