import random
from fractions import Fraction

import pytest
from mpmath import mp

from motive_height import balls
from motive_height.balls import (
    ComplexBall,
    PrecisionExhausted,
    RealBall,
    ball_det,
    ball_matrix,
    rational_ball_mul,
)
from motive_height.hodge import HodgeStructure
from motive_height.rational import QMatrix


def random_unimodular(rng: random.Random, n: int, steps: int = 12) -> QMatrix:
    """Product of elementary integer row operations; det = +-1."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            a[i][k] += c * a[j][k]
    if rng.random() < 0.5 and n:
        a[0] = [-x for x in a[0]]
    return QMatrix(a)


def random_int_matrix(rng: random.Random, rows: int, cols: int, bound: int = 9) -> QMatrix:
    return QMatrix([[rng.randint(-bound, bound) for _ in range(cols)]
                    for _ in range(rows)])


def random_fraction(rng: random.Random, bound: int = 6) -> Fraction:
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)


def random_symmetric_dims(rng: random.Random, weight: int, max_rank: int = 4,
                          max_width: int = 5):
    """Hodge numbers h(r) = h(w - r) with window length <= max_width and
    total rank <= max_rank."""
    even = weight % 2 == 0
    if not even and (max_rank < 2 or max_width < 2):
        raise ValueError("odd weight needs rank >= 2 and width >= 2")
    r0 = weight // 2 + 1 if even else (weight + 1) // 2
    pair_choices = [r0 + off for off in range(3)
                    if 2 * (r0 + off) - weight + 1 <= max_width]
    dims: dict[int, int] = {}
    total = 0
    target = rng.randint(1, max_rank)

    def add(r, k=1):
        nonlocal total
        dims[r] = dims.get(r, 0) + k
        total += k

    while total < target:
        room = target - total
        want_mid = even and (room < 2 or not pair_choices or rng.random() < 0.4)
        if want_mid:
            add(weight // 2)
        elif pair_choices and room >= 2:
            r = rng.choice(pair_choices)
            add(r)
            add(weight - r)
        else:
            break
    if total == 0:
        if even:
            add(weight // 2)
        else:
            add(pair_choices[0])
            add(weight - pair_choices[0])
    return dims


def random_pure_hodge(rng: random.Random, weight: int | None = None,
                      dims: dict | None = None, max_rank: int = 4,
                      max_width: int = 5):
    """Random pure Hodge structure built decomposition-first.

    Pieces above the middle get random Gaussian-rational bases, their
    conjugates span the mirror pieces, and an even-weight middle piece gets
    a real basis, so purity holds by construction.  Returns (H, dims).
    """
    if weight is None:
        weight = rng.randint(-3, 3)
    if dims is None:
        dims = random_symmetric_dims(rng, weight, max_rank, max_width)
    n = sum(dims.values())

    def rand_entry(real_only=False):
        re = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        im = 0 if real_only else Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        return ComplexBall.from_rationals(re, im)

    for _ in range(60):
        cols_by_level = {}
        for r in sorted(dims):
            if 2 * r < weight:
                continue
            k = dims[r]
            if 2 * r == weight:
                cols_by_level[r] = [tuple(rand_entry(real_only=True) for _ in range(n))
                                    for _ in range(k)]
            else:
                cols = [tuple(rand_entry() for _ in range(n)) for _ in range(k)]
                cols_by_level[r] = cols
                cols_by_level[weight - r] = [tuple(x.conj() for x in c) for c in cols]
        levels = []
        all_cols = []
        for r in sorted(cols_by_level):
            for c in cols_by_level[r]:
                levels.append(r)
                all_cols.append(c)
        basis = tuple(tuple(all_cols[j][i] for j in range(n)) for i in range(n))
        try:
            ball_det(ball_matrix(basis))
        except PrecisionExhausted:
            continue
        return HodgeStructure(weight, levels, basis), dims
    raise RuntimeError("could not build an invertible random Hodge structure")


def random_adapted_rebase(rng: random.Random, h: HodgeStructure):
    """Rebase the adapted basis: P -> P R for a random Gaussian-rational R with
    R[i][j] = 0 unless level(i) >= level(j), so every F^r is preserved and
    levels mix with themselves and with higher levels.

    Returns (rebased structure, prod_r |det R_rr|^r): the reference
    generator of L(H) is multiplied by prod_r (det R_rr)^r.
    """
    levels = h.levels

    def entry():
        return (Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

    zero = (Fraction(0), Fraction(0))
    while True:
        r_q = [[entry() if li >= lj else zero for lj in levels] for li in levels]
        r_mat = [[ComplexBall.from_rationals(*x) for x in row] for row in r_q]
        factor = RealBall.one()
        try:
            for r in sorted(set(levels)):
                block = [j for j, l in enumerate(levels) if l == r]
                d = ball_det(tuple(tuple(r_mat[i][j] for j in block) for i in block))
                factor = factor * d.abs_ball() ** r
        except PrecisionExhausted:
            continue
        # P (R_re + i R_im) = P R_re + i (P R_im)
        pr, pi = (rational_ball_mul(h.basis, [[x[part] for x in row] for row in r_q])
                  for part in (0, 1))
        basis = tuple(tuple(ComplexBall(u.re - v.im, u.im + v.re) for u, v in zip(*rows))
                      for rows in zip(pr, pi))
        rebased = HodgeStructure(h.weight, levels, basis)
        return rebased, factor


# ---------------------------------------------------------------------------
# Fontaine-Laffaille instance generators
# ---------------------------------------------------------------------------

def adapted_block_lower(rng: random.Random, levels, p: int, bound: int = 3) -> QMatrix:
    """Integer matrix, invertible with det prime to p, with entries only where
    level(row) >= level(col): preserves the adapted filtration convention."""
    n = len(levels)
    while True:
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if levels[i] > levels[j]:
                    a[i][j] = rng.randint(-bound, bound)
                elif levels[i] == levels[j]:
                    a[i][j] = rng.randint(-bound, bound) if i != j else rng.choice([1, -1, 2])
        m = QMatrix(a)
        d = m.det()
        if d != 0 and d.numerator % p != 0:
            return m


def unit_matrix_mod_p(rng: random.Random, n: int, p: int, bound: int = 3) -> QMatrix:
    """Random integer matrix with determinant prime to p."""
    while True:
        m = random_int_matrix(rng, n, n, bound)
        d = m.det()
        if d != 0 and d.numerator % p != 0:
            return m


def random_fl_module(rng: random.Random, p: int, levels=None, twist_basis=True,
                     window=None):
    """Strongly divisible module: phi = B U diag(p^level) B^{-1} on D = B Z^n."""
    from motive_height.fl import FilPhiModule
    from motive_height.lines import Lattice

    if levels is None:
        n = rng.randint(1, 3)
        lo = rng.randint(-2, 1)
        width = rng.randint(0, min(2, p - 2))
        levels = sorted(rng.choice(range(lo, lo + width + 1)) for _ in range(n))
    levels = [int(l) for l in levels]
    n = len(levels)
    b = adapted_block_lower(rng, levels, p) if twist_basis else QMatrix.identity(n)
    u = unit_matrix_mod_p(rng, n, p)
    diag = QMatrix([[Fraction(p) ** levels[j] if i == j else 0
                     for j in range(n)] for i in range(n)])
    phi = b @ u @ diag @ b.inverse()
    if window is None:
        window = (min(levels), max(levels) + 1)
    a_win, b_win = window
    assert all(a_win <= l < b_win for l in levels)
    fil = {}
    for i in range(a_win + 1, b_win):
        cols = [b.column(j) for j in range(n) if levels[j] >= i]
        fil[i] = QMatrix.from_columns(cols, rows=n)
    return FilPhiModule(p, Lattice(b), phi, fil, (a_win, b_win))


def block_projection_spec(msum, m2, p: int, exponent: int = 1):
    """Quotient spec for the projection of a direct sum onto its second
    summand's p-adic realization."""
    from motive_height.experiments import QuotientSpec
    from motive_height.fl import merge_by_level

    m1_levels = [l for l in msum.type.levels()]
    # recover the interleaving used by direct_sum
    l2 = m2.type.levels()
    l1 = list(m1_levels)
    for l in l2:
        l1.remove(l)
    order = merge_by_level(l1, l2)
    n, k = msum.rank, m2.rank
    pi = QMatrix([[1 if order[j] == (1, i) else 0 for j in range(n)]
                  for i in range(k)])
    fl_sum, fl2 = msum.local[p], m2.local[p]
    b2inv = fl2.lattice.basis.inverse()
    q_dr = b2inv @ pi @ fl_sum.lattice.basis
    assert q_dr.is_integer()
    phi_u = b2inv @ fl2.phi @ fl2.lattice.basis
    a, b = msum.window
    fil_u = tuple((i, b2inv @ fl2.filtration_matrix(i)) for i in range(a + 1, b))
    return QuotientSpec(p, k, q_dr, pi, phi_u, fil_u, exponent)


def random_motive(rng: random.Random, weight=None, dims=None, primes=(),
                  max_rank: int = 4, label: str = "R"):
    """Random valid motive datum: purity-first Hodge side plus strongly
    divisible filtered modules at the requested primes."""
    from motive_height.motive import MotiveData, MotiveType

    max_width = min([5] + [p - 1 for p in primes])
    if weight is None:
        weight = rng.randint(-3, 3)
        if max_width < 2 and weight % 2:
            weight += 1
    h, dims = random_pure_hodge(rng, weight, dims, max_rank, max_width)
    t = MotiveType.of(h.weight, dims)
    local = {p: random_fl_module(rng, p, levels=t.levels(), window=t.window)
             for p in primes}
    return MotiveData(t, h.basis, local, label=label)


@pytest.fixture
def rng():
    return random.Random(20260808)


@pytest.fixture(autouse=True)
def restore_precision():
    """Start and leave every test at the same precision state.  Some tests
    set mp.prec or mp.dps directly; mp.dps follows mp.prec, so restoring
    mp.prec and the ball precision restores all three."""
    saved = (balls._bits, mp.prec)
    yield
    balls._bits, mp.prec = saved
