import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from motive_height.balls import (
    ComplexBall,
    PrecisionExhausted,
    RealBall,
    ZeroVector,
    ball_det,
    det_norm2,
    working_precision,
)
from motive_height import hodge, motive
from motive_height.documents import example_document, parse_motive
from motive_height.hodge import (
    HodgeStructure,
    direct_sum,
    hodge_decompose,
    line_metric,
    purity_check,
)
from conftest import random_adapted_rebase, random_pure_hodge
from gaussian_oracle import gdet
from hodge_oracle import mid_complex, reference_metric, span_residual, svd_pieces


def tpi(k=1, scale=1):
    return ComplexBall.tpi_power(k, Fraction(scale))


def rank1(weight, level, entry) -> HodgeStructure:
    return HodgeStructure(weight, [level], [[entry]])


def approx(ball: RealBall, value, tol="1e-30") -> bool:
    return abs(ball.mid - mpf(value)) <= ball.rad + mpf(tol)


# ---------------------------------------------------------------------------
# purity
# ---------------------------------------------------------------------------

def test_purity_rank1_weight0():
    h = rank1(0, 0, ComplexBall.one())
    rep = purity_check(h)
    assert rep.ok and rep.dims == {0: 1}


def test_purity_rank1_tate_type():
    h = rank1(2, 1, tpi(1))
    rep = purity_check(h)
    assert rep.ok and rep.dims == {1: 1}


def test_purity_rank2_elliptic_shape():
    # F^1 spanned by (1, i), F^0 = C^2, weight 1
    basis = [[ComplexBall.one(), ComplexBall.one()],
             [ComplexBall.zero(), ComplexBall.from_rationals(0, 1)]]
    h = HodgeStructure(1, [0, 1], basis)
    rep = purity_check(h)
    assert rep.ok
    assert rep.dims == {1: 1, 0: 1}


def test_purity_fails_for_asymmetric_type():
    # rank 1, w = 0, single level 1: H^{1,-1} and H^{0,0} overlap
    h = rank1(0, 1, ComplexBall.one())
    rep = purity_check(h)
    assert not rep.ok


def test_purity_fails_conjugate_degenerate():
    # w = 1 with F^1 spanned by a real vector: F^1 = conj(F^0-complement) collapses
    basis = [[ComplexBall.one(), ComplexBall.one()],
             [ComplexBall.zero(), ComplexBall.one()]]
    h = HodgeStructure(1, [0, 1], basis)
    rep = purity_check(h)
    assert not rep.ok


def test_purity_exact_zero_decided_exactly():
    # F^1 = span(x, y) with conj(x, y) proportional to (x, y), so
    # D_1 = det[F^1 | conj F^1] = 0.  With (3, 1) elimination divides by 3,
    # (1/3, 1/7) are not binary fractions and (2 pi i, 2 pi i / 5) is not
    # even rational; exactly known entries still give an exact "not pure"
    # verdict.
    r = ComplexBall.from_rationals
    for x, y in ((r(3), r(1)), (r(Fraction(1, 3)), r(Fraction(1, 7))),
                 (tpi(1), tpi(1, Fraction(1, 5)))):
        basis = [[ComplexBall.one(), x], [ComplexBall.zero(), y]]
        rep = purity_check(HodgeStructure(1, [0, 1], basis))
        assert not rep.ok and "D_1 = 0" in rep.messages[0]


def test_purity_fails_for_singular_basis():
    # the level-0 column repeats the level-1 column: every D_r with a < r < b
    # is fine, but det P = D_0 vanishes
    i = ComplexBall.from_rationals(0, 1)
    basis = [[ComplexBall.one(), ComplexBall.one()], [i, i]]
    rep = purity_check(HodgeStructure(1, [0, 1], basis))
    assert not rep.ok and "singular" in rep.messages[0]


def test_opposition_det_ball_containing_zero_raises():
    # F^1 = span(1, 1 + eps i): D_1 = -2 eps i, nonzero for the midpoint
    # eps = 2^-200, but eps carries a radius of 2^-100.  The D_1 ball
    # contains zero, and the verdict is "cannot tell", not "not pure".
    eps = RealBall(mpf(2) ** -200, mpf(2) ** -100)
    basis = [[ComplexBall.one(), ComplexBall.one()],
             [ComplexBall.zero(), ComplexBall(RealBall.one(), eps)]]
    h = HodgeStructure(1, [0, 1], basis)
    with pytest.raises(PrecisionExhausted):
        purity_check(h)
    with pytest.raises(PrecisionExhausted):
        line_metric(h)


def test_certified_pivots_make_a_pure_structure():
    # entries k/7 +- 1/100: every pivot of det P is certified nonzero, but
    # the rectangle of ball_det contains zero.  Only the exact test may call
    # a D_r zero, so the structure is pure and its metric positive.
    rng = random.Random(2)

    def entry():
        return ComplexBall(*(RealBall(Fraction(rng.randint(-49, 49), 7), Fraction(1, 100))
                             for _ in "ri"))

    for _ in range(23):
        basis = [[entry() for _ in range(6)] for _ in range(6)]
    assert ball_det(tuple(map(tuple, basis))).contains_zero()
    h = HodgeStructure(-1, [-1] * 3 + [0] * 3, basis)
    assert purity_check(h).ok
    assert line_metric(h).lower > 0


def test_purity_decided_once_per_structure_and_precision(monkeypatch):
    calls = {"purity": 0, "dets": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    purity = counting("purity", hodge.purity_check)
    monkeypatch.setattr(hodge, "purity_check", purity)
    monkeypatch.setattr(motive, "purity_check", purity)
    monkeypatch.setattr(hodge, "det_norm2", counting("dets", hodge.det_norm2))
    m = parse_motive(example_document("elliptic:square"))
    motive.height(m)
    motive.height(m)
    assert calls == {"purity": 1, "dets": 2}  # D_-1 and D_0
    with working_precision(256):
        motive.height(m)
    assert calls == {"purity": 1, "dets": 4}


# ---------------------------------------------------------------------------
# the mirror pairing: |D_{w+1-r}| = |D_r|, one elimination per pair
# ---------------------------------------------------------------------------

def _interval(bounds):
    lo, hi, e = bounds
    return lo * Fraction(2) ** e, hi * Fraction(2) ** e


def _mirrored(h):
    """The r whose |D_r|^2 is read off the mirror D_{w+1-r}, eliminated first."""
    a, b = h.window()
    return [r for r in range(a + 1, b) if a < h.weight + 1 - r < r]


def _exact_norm2(h, r):
    """|D_r|^2 in Gaussian rationals, for a basis of exact rational entries."""
    cols = [[h.basis[i][j].exact_value()[0] for i in range(h.n)] for j in range(h.n)]
    own = [c for c, l in zip(cols, h.levels) if l >= r]
    mirror = [[(x, -y) for x, y in c] for c, l in zip(cols, h.levels)
              if l >= h.weight + 1 - r]
    re, im = gdet([[c[i] for c in own + mirror] for i in range(h.n)])
    return re * re + im * im


def _pairing_structures():
    """Random pure structures over wide windows, every other one rebased so
    that its entries are inexact balls."""
    rng = random.Random(1515)
    out = []
    for trial in range(300):
        w = rng.randint(-3, 6)
        h, _ = random_pure_hodge(rng, weight=w, max_rank=6, max_width=7)
        out.append((random_adapted_rebase(rng, h)[0], False) if trial % 2 else (h, True))
    return out


def test_mirrored_determinant_encloses_its_own_elimination():
    # the interval stored for a mirrored r is the mirror's; it must overlap
    # the interval of eliminating D_r itself, and with exact entries both
    # contain the exact |D_r|^2
    pairs = exact = 0
    for h, is_exact in _pairing_structures():
        for bits in (64, 128, 256):
            with working_precision(bits):
                dets = hodge._opposition_dets(h)
                for r in _mirrored(h):
                    assert dets[r] is dets[h.weight + 1 - r]
                    own_lo, own_hi = _interval(det_norm2(hodge._opposition_matrix(h, r)))
                    lo, hi = _interval(dets[r])
                    assert own_lo <= hi and lo <= own_hi, (h, r, bits)
                    pairs += 1
                    if is_exact:
                        truth = _exact_norm2(h, r)
                        assert own_lo <= truth <= own_hi and lo <= truth <= hi
                        exact += 1
    assert pairs >= 1000 and exact >= 400, (pairs, exact)


def test_unpaired_determinants_are_their_own_elimination():
    # every D_r that is eliminated gives det_norm2 of its ball matrix, bit
    # for bit: reading the basis once changes no scaling and no rounding
    for h, _ in _pairing_structures()[:120]:
        for bits in (64, 256):
            with working_precision(bits):
                dets = hodge._opposition_dets(h)
                for r in set(dets) - set(_mirrored(h)):
                    assert dets[r] == det_norm2(hodge._opposition_matrix(h, r)), (h, r)


def test_exactly_vanishing_interior_pair_keeps_its_messages():
    # w = 2, one column per level: c1 is a combination of c2 and conj c2, so
    # F^1 = span(c1, c2) meets conj F^2 and D_1 = 0, as does its mirror D_2,
    # while det P != 0.  With 1/3 or 2 pi i in c2 only the exact test can
    # tell; the mirror reuses that verdict, and both messages stay
    r = ComplexBall.from_rationals
    for c1, c2 in (((r(1), r(0)), (r(1), r(0, 1))),
                   ((r(1), r(0)), (r(Fraction(1, 3)), tpi(1))),
                   ((r(0), r(1)), (tpi(1), r(Fraction(1, 3))))):
        basis = [[r(0), c1[0], c2[0]], [r(0), c1[1], c2[1]], [r(1), r(0), r(0)]]
        rep = purity_check(HodgeStructure(2, [0, 1, 2], basis))
        assert rep.messages == ["F^1 meets conj F^2: D_1 = 0", "F^2 meets conj F^1: D_2 = 0"]


def test_eliminations_per_structure(monkeypatch):
    # one elimination for D_a and one per mirror pair or self-paired r:
    # K3 type (3 levels) 2, h^{p,q} = 1 at w = 5 (6 levels) 4
    calls = []
    det = hodge.det_norm2

    def counting(*args):
        calls.append(1)
        return det(*args)

    rng = random.Random(7)
    shapes = ((2, {0: 1, 1: 5, 2: 1}, 2), (5, {r: 1 for r in range(6)}, 4),
              (1, {0: 2, 1: 2}, 2), (0, {0: 3}, 1))
    structures = [(random_pure_hodge(rng, w, dims)[0], runs) for w, dims, runs in shapes]
    monkeypatch.setattr(hodge, "det_norm2", counting)
    for h, runs in structures:
        calls.clear()
        assert purity_check(h).ok and line_metric(h).lower > 0
        assert len(calls) == runs, (h, len(calls))


def test_pure_structure_builds_no_conjugate_ball(monkeypatch):
    rng = random.Random(8)
    structures = [random_pure_hodge(rng, w, dims)[0] for w, dims in
                  ((2, {0: 1, 1: 5, 2: 1}), (5, {r: 1 for r in range(6)}))]
    structures.append(parse_motive(example_document("elliptic:square")).hodge_structure())

    def refuse(self):
        raise AssertionError("ComplexBall.conj called")

    monkeypatch.setattr(ComplexBall, "conj", refuse)
    for h in structures:
        for bits in (64, 128):
            with working_precision(bits):
                assert purity_check(h).ok and line_metric(h).lower > 0


def test_metric_reads_no_scalar_chain(monkeypatch):
    # |metric|^4 is one integer interval: no |D_r| is built as a ball, and
    # at most one ball root is taken
    calls = {"abs_ball": 0, "sqrt": 0}
    for cls, name in ((ComplexBall, "abs_ball"), (RealBall, "sqrt")):
        def wrapper(self, fn=getattr(cls, name), name=name):
            calls[name] += 1
            return fn(self)
        monkeypatch.setattr(cls, name, wrapper)
    h = parse_motive(example_document("elliptic:square")).hodge_structure()
    assert h.n == 2
    line_metric(h, 1)
    assert calls["abs_ball"] == 0 and calls["sqrt"] <= 1


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decompose_rank1_q1_shape():
    h = rank1(-2, -1, tpi(-1))
    dec = hodge_decompose(h)
    assert dec.dims() == {-1: 1}


def test_decompose_rank2_pieces_match_spans():
    basis = [[ComplexBall.one(), ComplexBall.one()],
             [ComplexBall.zero(), ComplexBall.from_rationals(0, 1)]]
    h = HodgeStructure(1, [0, 1], basis)
    dec = hodge_decompose(h)
    # H^{1,0} = span(1, i): proportional to the F^1 column
    (col_10,) = dec.pieces[1].columns
    ratio = col_10[1] / col_10[0]
    assert abs(ratio.re.mid) < 1e-25 and abs(ratio.im.mid - 1) < 1e-25
    (col_01,) = dec.pieces[0].columns
    ratio = col_01[1] / col_01[0]
    assert abs(ratio.re.mid) < 1e-25 and abs(ratio.im.mid + 1) < 1e-25


def test_decompose_direct_sum_blocks(rng):
    h1, d1 = random_pure_hodge(rng, weight=2)
    h2, d2 = random_pure_hodge(rng, weight=2)
    h = direct_sum(h1, h2)
    rep = purity_check(h)
    assert rep.ok
    for r in set(d1) | set(d2):
        assert rep.dims.get(r, 0) == d1.get(r, 0) + d2.get(r, 0)


# ---------------------------------------------------------------------------
# the metric: hand-computed oracles
# ---------------------------------------------------------------------------

def test_metric_q_minus_1_is_2pi():
    # Q(-1): w = 2, e_dR = 2*pi*i * e_B, single gr^1
    h = rank1(2, 1, tpi(1))
    m = line_metric(h, 1)
    mp.prec = 250
    assert approx(m, 2 * mp.pi)
    assert m.rad < mpf("1e-30")


def test_metric_q_plus_1_is_2pi():
    # Q(1): w = -2, e_dR = (2*pi*i)^{-1} e_B, single gr^{-1}, exponent -1
    h = rank1(-2, -1, tpi(-1))
    m = line_metric(h, 1)
    mp.prec = 250
    assert approx(m, 2 * mp.pi)


def test_metric_weight0_trivial_is_exactly_one():
    h = rank1(0, 0, ComplexBall.one())
    m = line_metric(h, 1)
    assert m.mid == 1 and m.rad == 0


def test_metric_elliptic_lattice_formula():
    # H_1 of C/(Z w1 + Z w2): metric of the adapted reference generator
    # is sqrt(2 |Im(conj(w1) w2)|); here w1 = 1, w2 = i (square lattice).
    w1 = ComplexBall.one()
    w2 = ComplexBall.from_rationals(0, 1)
    # columns: level -1 reference (1/w1, 0); level 0 = (w2, -w1)
    basis = [[ComplexBall.one() / w1, w2],
             [ComplexBall.zero(), -w1]]
    h = HodgeStructure(-1, [-1, 0], basis)
    m = line_metric(h, 1)
    assert approx(m, mp.sqrt(2))


def test_metric_zero_target_raises():
    h = rank1(0, 0, ComplexBall.one())
    with pytest.raises(ZeroVector):
        line_metric(h, 0)


# ---------------------------------------------------------------------------
# metric properties (the acceptance suite reruns these at scale)
# ---------------------------------------------------------------------------

def test_metric_basis_independence(rng):
    # rebasing P by an adapted R scales the reference generator of L(H) by
    # prod_r (det R_rr)^r, and nothing else
    for _ in range(12):
        h, _ = random_pure_hodge(rng)
        rebased, factor = random_adapted_rebase(rng, h)
        lhs, rhs = line_metric(rebased), factor * line_metric(h)
        assert lhs.overlaps(rhs), (lhs, rhs)


def test_metric_and_pieces_match_svd_oracle(rng):
    # the closed-form metric against the intersection construction, and each
    # projected piece H^{r,w-r} (and its conjugate, H^{w-r,r}) against the
    # SVD intersection spans
    for trial in range(30):
        h, dims = random_pure_hodge(rng)
        if trial % 2:
            h, _ = random_adapted_rebase(rng, h)
        oracle = svd_pieces(h)
        dec = hodge_decompose(h)
        assert dec.dims() == {r: q.cols for r, q in oracle.items()} == dims
        for r, piece in dec.pieces.items():
            for col in piece.columns:
                mids = [mid_complex(x) for x in col]
                assert span_residual(oracle[r], mids) < mpf("1e-35")
                conj = [z.conjugate() for z in mids]
                assert span_residual(oracle[h.weight - r], conj) < mpf("1e-35")
        m = line_metric(h)
        assert abs(m.mid - reference_metric(h, oracle)) <= m.rad + mpf("1e-35") * m.mid


def test_metric_homogeneity(rng):
    for _ in range(12):
        h, _ = random_pure_hodge(rng)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = line_metric(h, c)
        base = line_metric(h)
        expected = RealBall(c) * base
        assert scaled.overlaps(expected)


def test_metric_direct_sum_multiplicative(rng):
    for _ in range(8):
        w = rng.choice([-2, -1, 0, 1, 2])
        h1, _ = random_pure_hodge(rng, weight=w, max_rank=2)
        h2, _ = random_pure_hodge(rng, weight=w, max_rank=2)
        m1, m2 = line_metric(h1), line_metric(h2)
        msum = line_metric(direct_sum(h1, h2))
        prod = m1 * m2
        assert msum.overlaps(prod), (msum, prod)


def test_metric_positive(rng):
    for _ in range(10):
        h, _ = random_pure_hodge(rng)
        assert line_metric(h).lower > 0


def test_conjugation_involution(rng):
    h, _ = random_pure_hodge(rng)
    twice = [[x.conj().conj() for x in row] for row in h.basis]
    for i in range(h.n):
        for j in range(h.n):
            assert twice[i][j].re.mid == h.basis[i][j].re.mid
            assert twice[i][j].im.mid == h.basis[i][j].im.mid


def test_precision_monotone_metric():
    h = rank1(2, 1, None) if False else None
    with working_precision(96):
        lo = line_metric(rank1(2, 1, tpi(1)), 1)
    with working_precision(192):
        hi = line_metric(rank1(2, 1, tpi(1)), 1)
    assert hi.rad < lo.rad
    assert abs(hi.mid - lo.mid) <= lo.rad + hi.rad
