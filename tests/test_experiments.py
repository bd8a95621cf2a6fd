import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from motive_height.balls import ComplexBall
from motive_height.experiments import (
    IncompatibleSpec,
    QuotientSpec,
    _rank_and_index,
    abc_report,
    check_s_equals_t,
    full_quotient_spec,
    invariance_experiment,
    kernel_mod,
    n_of_m,
    s_invariant,
    sublattice_motive,
    t_invariant,
    validate_spec,
)
from motive_height.fl import LocalLatticeSpec
from motive_height.motive import (
    MotiveData,
    MotiveType,
    direct_sum,
    elliptic_curve_h1,
    height,
    tate_motive,
    tate_twist,
    validate,
)
from motive_height.rational import QMatrix, hnf_rational
from conftest import block_projection_spec, random_int_matrix, random_motive, random_unimodular
from test_rational import minor_gcd_divisors


# ---------------------------------------------------------------------------
# s and t
# ---------------------------------------------------------------------------

def test_s_t_tate_one():
    m = tate_motive(1)
    assert s_invariant(m) == -1
    assert t_invariant(m) == -1
    assert check_s_equals_t(m).passed


def test_s_t_tate_zero():
    m = tate_motive(0)
    assert s_invariant(m) == 0 == t_invariant(m)


def test_s_t_elliptic():
    m = elliptic_curve_h1(ComplexBall.one(), ComplexBall.from_rationals(0, 1))
    assert s_invariant(m) == -1
    assert t_invariant(m) == -1


def test_s_t_fails_on_non_motivic_type():
    t = MotiveType.of(0, {1: 1})
    rep = check_s_equals_t(t)
    assert not rep.passed
    assert rep.defect == 1


def test_s_t_additive_and_twisted(rng):
    for _ in range(10):
        m1 = random_motive(rng, weight=2, label="A")
        m2 = random_motive(rng, weight=2, dims=dict(m1.type.hodge_numbers), label="B")
        s = direct_sum(m1, m2)
        assert check_s_equals_t(s).passed
        assert s_invariant(s) == s_invariant(m1) + s_invariant(m2)
        r = rng.randint(-2, 2)
        tw = m1.type.twist(r)
        assert s_invariant(tw) == s_invariant(m1) - r * m1.rank
        assert t_invariant(tw) == t_invariant(m1) - r * m1.rank


# ---------------------------------------------------------------------------
# kernel_mod
# ---------------------------------------------------------------------------

def test_kernel_mod_identity_when_trivial():
    a = QMatrix([[1, 0]])
    k = kernel_mod(a, 1)
    assert k == QMatrix.identity(2)


def test_kernel_mod_scalar():
    a = QMatrix([[1]])
    k = kernel_mod(a, 9)
    assert abs(k.det()) == 9


def test_kernel_mod_membership(rng):
    # every column lies in ker(a mod q), and the columns span all of it: its
    # index in Z^cols is |image of a mod q|, which the minor-gcd Smith
    # divisors give as prod_j q / gcd(d_j, q)
    for _ in range(80):
        a = random_int_matrix(rng, rng.randint(1, 3), rng.randint(1, 4), bound=6)
        q = rng.choice([3, 5, 9, 25])
        k = kernel_mod(a, q)
        assert k.cols == a.cols and (a @ k).scale(Fraction(1, q)).is_integer()
        assert abs(k.det()) == math.prod(q // math.gcd(d, q) for d in minor_gcd_divisors(a))


# ---------------------------------------------------------------------------
# sublattice construction
# ---------------------------------------------------------------------------

def test_sublattice_n0_is_identity():
    m = tate_motive(1, fl_primes=(3,))
    spec = full_quotient_spec(m, 3, exponent=0)
    assert sublattice_motive(m, spec) is m


def test_one_phi_in_basis_per_module(monkeypatch):
    # strong divisibility, full_quotient_spec and validate_spec (run again by
    # sublattice_motive) read the module's one kept phi_D = B^-1 phi B: phi
    # enters one product and one solve per module
    from motive_height.documents import example_document, parse_motive
    m = parse_motive(example_document("elliptic:square"))
    fl = m.local[3]
    products, solves = [], []
    matmul, solve = QMatrix.__matmul__, QMatrix.solve

    def counting_matmul(a, b):
        out = matmul(a, b)
        if a is fl.phi or b is fl.phi:
            products.append(out)
        return out

    def counting_solve(a, rhs):
        solves.append(any(rhs is x for x in products))
        return solve(a, rhs)

    monkeypatch.setattr(QMatrix, "__matmul__", counting_matmul)
    monkeypatch.setattr(QMatrix, "solve", counting_solve)
    assert validate(m).ok
    spec = full_quotient_spec(m, 3)
    validate_spec(m, spec)
    assert len(products) == 1 and solves.count(True) == 1
    assert spec.phi_u is fl.phi_in_basis()
    sub = sublattice_motive(m, spec)
    # the kernel module keeps phi over a new basis: its own phi_D, once
    assert sub.local[3].phi is fl.phi
    assert len(products) == 2 and solves.count(True) == 2


def test_sublattice_tate_full_quotient():
    m = tate_motive(1, fl_primes=(3,))
    spec = full_quotient_spec(m, 3, exponent=1)
    sub = sublattice_motive(m, spec)
    fl = sub.local[3]
    assert fl.lattice.basis == QMatrix([[3]])
    # Betti basis grows by 3, so coordinates (and the period entries) shrink
    base = m.period[0][0]
    ratio = sub.period[0][0] / base
    assert abs(ratio.re.mid - mpf(1) / 3) < mpf("1e-40")


def test_sublattice_block_quotient_indices(rng):
    m1 = random_motive(rng, weight=0, primes=(5,), max_rank=2, label="A")
    m2 = random_motive(rng, weight=0, dims=dict(m1.type.hodge_numbers),
                       primes=(5,), max_rank=2, label="B")
    msum = direct_sum(m1, m2)
    spec = block_projection_spec(msum, m2, 5, exponent=1)
    validate_spec(msum, spec)
    sub = sublattice_motive(msum, spec)
    # [D : D^(1)] = p^k and [H : H^(1)] = p^k
    dsub, d = sub.local[5].lattice, msum.local[5].lattice
    index = (d.basis.solve(dsub.basis)).det()
    assert abs(index) == Fraction(5) ** m2.rank
    kb = kernel_mod(spec.q_betti, 5)
    assert abs(kb.det()) == 5 ** m2.rank


def test_sublattice_composition(rng):
    m = tate_motive(1, fl_primes=(5,))
    spec = full_quotient_spec(m, 5)
    once = sublattice_motive(sublattice_motive(m, spec, 1),
                             _induced_spec(spec, 5, 1), 2)
    thrice = sublattice_motive(m, spec, 3)
    assert once.local[5].lattice == thrice.local[5].lattice


def _induced_spec(spec: QuotientSpec, p: int, n: int) -> QuotientSpec:
    # the same abstract surjection restricted to the kernel, unit-normalized
    q = p ** n
    kd = kernel_mod(spec.q_dr, q)
    kb = kernel_mod(spec.q_betti, q)
    return QuotientSpec(
        p, spec.k,
        (spec.q_dr @ kd).scale(Fraction(1, q)),
        (spec.q_betti @ kb).scale(Fraction(1, q)),
        spec.phi_u, spec.filtration_u, spec.exponent)


def test_incompatible_spec_rejected():
    m = tate_motive(1, fl_primes=(3,))
    good = full_quotient_spec(m, 3)
    bad = QuotientSpec(3, 1, good.q_dr, good.q_betti,
                       QMatrix([[Fraction(7)]]),  # wrong Frobenius on U
                       good.filtration_u, 1)
    with pytest.raises(IncompatibleSpec):
        validate_spec(m, bad)


def test_non_surjective_q_rejected():
    m = tate_motive(1, fl_primes=(3,))
    good = full_quotient_spec(m, 3)
    bad = QuotientSpec(3, 1, QMatrix([[3]]), good.q_betti,
                       good.phi_u, good.filtration_u, 1)
    with pytest.raises(IncompatibleSpec):
        validate_spec(m, bad)


def test_kernel_mismatch_through_periods_rejected(rng):
    # an off-block period entry of 2^-100 (row of the second summand, column
    # of the first) maps ker q_dr out of ker q_betti; the motive stays valid
    for _ in range(3):
        m1 = random_motive(rng, weight=0, primes=(5,), max_rank=2, label="A")
        m2 = random_motive(rng, weight=0, dims=dict(m1.type.hodge_numbers),
                           primes=(5,), max_rank=2, label="B")
        msum = direct_sum(m1, m2)
        spec = block_projection_spec(msum, m2, 5)
        validate_spec(msum, spec)
        second = [j for j in range(msum.rank)
                  if any(spec.q_betti[i, j] for i in range(spec.k))]
        first = [j for j in range(msum.rank) if j not in second]
        period = [list(row) for row in msum.period]
        period[second[0]][first[0]] = ComplexBall.from_rationals(Fraction(1, 2 ** 100))
        m = MotiveData(msum.type, period, msum.local, msum.bad_primes)
        assert validate(m).ok
        with pytest.raises(IncompatibleSpec, match="kernels disagree"):
            validate_spec(m, spec)


def test_q_betti_not_surjective_over_z_rejected(rng):
    m1 = random_motive(rng, weight=0, primes=(5,), max_rank=2, label="A")
    m2 = random_motive(rng, weight=0, dims=dict(m1.type.hodge_numbers),
                       primes=(5,), max_rank=2, label="B")
    msum = direct_sum(m1, m2)
    good = block_projection_spec(msum, m2, 5)
    bad = QuotientSpec(5, good.k, good.q_dr, good.q_betti.scale(2),
                       good.phi_u, good.filtration_u, 1)
    with pytest.raises(IncompatibleSpec, match="q_betti is not surjective"):
        validate_spec(msum, bad)


def test_q_dr_with_smith_divisors_one_p_rejected():
    m = direct_sum(tate_motive(1, fl_primes=(3,)), tate_motive(1, fl_primes=(3,)))
    good = full_quotient_spec(m, 3)
    q_dr = QMatrix([[1, 1], [1, 4]]) @ good.q_dr      # Smith divisors (1, 3)
    bad = QuotientSpec(3, 2, q_dr, good.q_betti, good.phi_u,
                       good.filtration_u, 1)
    with pytest.raises(IncompatibleSpec, match="q_dr is not surjective at p"):
        validate_spec(m, bad)


def _elliptic_spec_with_u0(u0: QMatrix):
    m = elliptic_curve_h1(ComplexBall.one(), ComplexBall.from_rationals(0, 1),
                          ap={5: 1})
    good = full_quotient_spec(m, 5)
    validate_spec(m, good)
    assert good.filtration_u == ((0, QMatrix([[0], [1]])),)
    return m, QuotientSpec(5, 2, good.q_dr, good.q_betti, good.phi_u,
                           ((0, u0),), 1)


def test_unsaturated_u_filtration_rejected():
    m, bad = _elliptic_spec_with_u0(QMatrix([[0], [5]]))
    with pytest.raises(IncompatibleSpec, match="U\\^0 is not saturated at p"):
        validate_spec(m, bad)


def test_u_filtration_not_image_of_d_rejected():
    m, bad = _elliptic_spec_with_u0(QMatrix([[1], [0]]))
    with pytest.raises(IncompatibleSpec, match="q\\(D\\^0\\) differs from U\\^0"):
        validate_spec(m, bad)


def test_u_filtration_with_dependent_columns_rejected():
    # same rank and index as q(D^0) = [[0], [1]], but not a basis: the
    # sublattice step would build one column per generator
    for u0 in (QMatrix([[0, 0], [1, 0]]), QMatrix([[0, 0], [1, 1]])):
        m, bad = _elliptic_spec_with_u0(u0)
        with pytest.raises(IncompatibleSpec, match="U\\^0 has dependent columns"):
            validate_spec(m, bad)
        with pytest.raises(IncompatibleSpec, match="U\\^0 has dependent columns"):
            invariance_experiment(m, bad)


def test_undeclared_u_filtration_step_rejected():
    m, good = _elliptic_spec_with_u0(QMatrix([[0], [1]]))
    for steps in ((), ((1, QMatrix([[0], [1]])),)):
        bad = QuotientSpec(5, 2, good.q_dr, good.q_betti, good.phi_u, steps, 1)
        with pytest.raises(IncompatibleSpec, match="U\\^0 is not declared"):
            validate_spec(m, bad)


def _coords_in(basis: QMatrix, cols: QMatrix):
    """Coordinates of ``cols`` in a basis of full column rank, through its
    Gram matrix; None when they leave the basis's rational span."""
    if basis.cols == basis.rows:
        return basis.solve(cols)
    coords = (basis.transpose() @ basis).solve(basis.transpose() @ cols)
    return coords if basis @ coords == cols else None


def equal_at_p_by_containment(a: QMatrix, b: QMatrix, p: int) -> bool:
    """Oracle: the Hermite bases of the two column lattices have the same
    rank and each lies in the other's lattice localized at p."""
    a, b = hnf_rational(a), hnf_rational(b)

    def contained(basis, cols):
        coords = _coords_in(basis, cols)
        return coords is not None and coords.is_p_integral(p)

    return a.cols == b.cols and contained(a, b) and contained(b, a)


def _lattice_pair(rng, kind: str, p: int):
    """Two generating matrices in Q^k whose lattices are related by ``kind``;
    the verdict of equality at p, or None where the draw decides it."""
    k = rng.randint(1, 4)
    if kind == "rank 0":
        a = QMatrix.zeros(k, rng.randint(0, 2))
        b = QMatrix.zeros(k, rng.randint(0, 2)) if rng.random() < 0.5 \
            else random_int_matrix(rng, k, 1, bound=3)
        return a, b, None
    r = rng.randint(1, k)
    while True:
        a = random_int_matrix(rng, k, r, bound=4)
        if hnf_rational(a).cols == r:
            break
    a = a.scale(Fraction(1, rng.choice([1, 2, 3, p, p * p])))
    if kind == "span":
        return a, random_int_matrix(rng, k, rng.randint(1, k), bound=4), None
    # rebase by M = U diag(c, 1, ..., 1) U' with c = 1, a p-power or prime to p
    c = {"same": 1, "p-power": p ** rng.randint(1, 2) * rng.choice([1, -1]),
         "prime-to-p": rng.choice([c for c in (2, 3, 4, 6, 7, 11) if c % p])}[kind]
    diag = QMatrix([[c if i == j == 0 else int(i == j) for j in range(r)] for i in range(r)])
    b = a @ random_unimodular(rng, r) @ diag @ random_unimodular(rng, r)
    if rng.random() < 0.3:  # a generating set with a dependent column
        b = b.hstack(b @ random_int_matrix(rng, r, 1, bound=3))
    if kind == "p-power" and rng.random() < 0.3:
        b = a.scale(Fraction(1, p))
    return a, b, kind != "p-power"


def test_rank_and_index_decide_equality_at_p_as_containment_does(rng):
    empty = QMatrix.zeros(2, 0)
    pairs = [(empty, empty, 5, True), (empty, QMatrix.zeros(2, 1), 5, True),
             (empty, QMatrix.from_columns([(1, 0)], rows=2), 5, False)]
    kinds = ("same", "p-power", "prime-to-p", "span", "rank 0")
    for t in range(1200):
        p = rng.choice([2, 3, 5])
        a, b, verdict = _lattice_pair(rng, kinds[t % len(kinds)], p)
        pairs.append((a, b, p, verdict))
    seen = set()
    for a, b, p, verdict in pairs:
        equal = _rank_and_index(a, p) == _rank_and_index(b, p) == _rank_and_index(a.hstack(b), p)
        assert equal == equal_at_p_by_containment(a, b, p), (a, b, p)
        assert verdict in (None, equal)
        seen.add(equal)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# invariance experiment
# ---------------------------------------------------------------------------

def test_invariance_n0_trivial():
    m = tate_motive(1, fl_primes=(3,))
    rep = invariance_experiment(m, full_quotient_spec(m, 3), 0)
    assert rep.passed
    assert rep.lattice_ratio == 1
    assert rep.betti_index == 1


def test_invariance_tate_n2_p3():
    m = tate_motive(1, fl_primes=(3,))
    rep = invariance_experiment(m, full_quotient_spec(m, 3), 2)
    assert rep.passed
    assert rep.s_u == -1
    assert rep.lattice_ratio == Fraction(1, 9)
    assert rep.betti_index == 9


def test_invariance_block_quotients(rng):
    done = 0
    for _ in range(6):
        p = rng.choice([5, 7])
        m1 = random_motive(rng, weight=2, primes=(p,), max_rank=2, label="A")
        m2 = random_motive(rng, weight=2, dims=dict(m1.type.hodge_numbers),
                           primes=(p,), max_rank=2, label="B")
        msum = direct_sum(m1, m2)
        spec = block_projection_spec(msum, m2, p, exponent=rng.randint(1, 2))
        rep = invariance_experiment(msum, spec)
        assert rep.passed, rep.messages
        assert rep.s_u == s_invariant(m2)
        done += 1
    assert done == 6


# ---------------------------------------------------------------------------
# abc bookkeeping
# ---------------------------------------------------------------------------

def test_n_of_m_no_bad_primes():
    assert n_of_m(tate_motive(0)).mid == 0


def test_n_of_m_single_prime():
    m = MotiveData(MotiveType.of(0, {0: 1}), [[ComplexBall.one()]],
                   {11: LocalLatticeSpec.from_map(11, (0, 1), {})},
                   bad_primes=[11])
    mp.prec = 200
    val = n_of_m(m)
    assert abs(val.mid - mp.log(11)) <= val.rad + mpf("1e-30")


def test_abc_report_rows_deterministic():
    batch = [tate_motive(0), tate_motive(1), tate_motive(-1)]
    rep1 = abc_report(batch)
    rep2 = abc_report(batch)
    assert rep1.render() == rep2.render()
    lines = rep1.render().splitlines()
    assert lines[1].startswith("id\t")
    assert len(lines) == 2 + 3
    assert lines[2].startswith("Q(0)\t0\t1\t0.0")


def test_invariance_experiment_one_metric_per_motive(monkeypatch):
    import motive_height.motive as motive_mod

    calls = []
    original = motive_mod.line_metric

    def counting(h, target):
        calls.append(h)
        return original(h, target)

    monkeypatch.setattr(motive_mod, "line_metric", counting)
    m = tate_motive(1, fl_primes=(3,))
    rep = invariance_experiment(m, full_quotient_spec(m, 3), 2)
    assert rep.passed
    assert len(calls) == 2
    assert rep.lattice_ratio == rep.sub_height.lattice_scalar / rep.base_height.lattice_scalar


def test_sublattice_strong_divisibility_verdict_comes_from_local_valuations(monkeypatch):
    from motive_height import fl
    from motive_height.experiments import StrongDivisibilityLost

    m = tate_motive(1, fl_primes=(3,))
    spec = full_quotient_spec(m, 3)
    validate(m)  # the base module keeps its real verdict
    original = fl.check_strong_divisibility

    def failing(module):
        return fl.StrongDivisibilityReport(False, original(module).witness)

    monkeypatch.setattr(fl, "check_strong_divisibility", failing)
    with pytest.raises(StrongDivisibilityLost, match="not strongly divisible") as info:
        sublattice_motive(m, spec, 1)
    assert "lattice sum has basis" in str(info.value.__cause__)
