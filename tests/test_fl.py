import random
import re
from fractions import Fraction

import pytest

from motive_height.fl import (
    FilPhiModule,
    LocalLatticeSpec,
    WindowTooWide,
    check_strong_divisibility,
    direct_sum,
    h0,
    h1cf,
    local_valuations,
    standard_module,
    tate_twist,
)
from motive_height.lines import Lattice
from motive_height.rational import QMatrix, hnf_rational, vp
from conftest import random_fl_module
from fl_oracle import (
    hermite_route_strong_divisibility,
    oracle_strong_divisibility,
    p_integral_rank_mod_p,
)


def qp1_module(p=5) -> FilPhiModule:
    # rank 1, phi = 1/p, D^{-1} = D, D^0 = 0
    return FilPhiModule(p, Lattice.standard(1), QMatrix([[Fraction(1, p)]]),
                        {}, (-1, 0))


def trivial_module(p=5) -> FilPhiModule:
    return FilPhiModule(p, Lattice.standard(1), QMatrix.identity(1), {}, (0, 1))


# ---------------------------------------------------------------------------
# strong divisibility
# ---------------------------------------------------------------------------

def test_strong_divisibility_qp1():
    rep = check_strong_divisibility(qp1_module())
    assert rep.ok
    assert rep.witness == Lattice.standard(1)


def test_strong_divisibility_trivial():
    assert check_strong_divisibility(trivial_module()).ok


def test_strong_divisibility_fails_shifted_window():
    m = FilPhiModule(5, Lattice.standard(1), QMatrix.identity(1), {}, (1, 2))
    rep = check_strong_divisibility(m)
    assert not rep.ok
    assert rep.witness == Lattice(QMatrix([[Fraction(1, 5)]]))


def test_strong_divisibility_failure_text_is_the_lattice_sum():
    m = FilPhiModule(5, Lattice.standard(1), QMatrix.identity(1), {}, (1, 2))
    with pytest.raises(ValueError) as info:
        local_valuations(m)
    assert str(info.value) == ("strong divisibility fails "
                               "(lattice sum has basis ((Fraction(1, 5),),))")


def test_strong_divisibility_builds_no_hermite_form_and_no_det(monkeypatch, rng):
    # the verdict reads phi in D's Hermite basis and the det phi kept by the
    # module; only reading the witness builds the lattice sum
    from motive_height import lines
    modules = [random_fl_module(rng, 5) for _ in range(10)]
    calls = []
    hnf = lines.hnf_rational
    monkeypatch.setattr(lines, "hnf_rational",
                        lambda m: calls.append("hnf") or hnf(m))
    det = QMatrix.det
    monkeypatch.setattr(QMatrix, "det", lambda m: calls.append("det") or det(m))
    reports = [check_strong_divisibility(m) for m in modules]
    assert all(rep.ok for rep in reports) and calls == []
    reports[0].witness
    assert calls == ["hnf"]


def random_sd_candidate(rng, ranks=(0, 1, 2, 2, 3, 3, 3, 4)) -> FilPhiModule | None:
    """A module for strong divisibility to judge: a strongly divisible one
    (identity or random adapted Hermite basis, window length 1-3, rank one
    of ``ranks``), then phi perturbed with denominators p or p^2 (in
    reference or in D coordinates) or scaled by p^{+-1}, and D rescaled by a
    p-power or a p-unit.  None when the perturbed phi is singular."""
    p = rng.choice([3, 5, 7])
    n = rng.choice(ranks)
    width = rng.randint(1, min(3, p - 1))
    lo = rng.randint(-2, 1)
    levels = sorted(rng.randint(lo, lo + width - 1) for _ in range(n))
    good = random_fl_module(rng, p, levels=levels, twist_basis=rng.random() < 0.7,
                            window=(lo, lo + width))
    basis, phi = good.lattice.basis, good.phi
    kind = rng.choice(["keep", "reference", "hermite", "shift"])
    if kind in ("reference", "hermite"):
        r = QMatrix([[rng.randint(-3, 3) if rng.random() < 0.3 else 0
                      for _ in range(n)] for _ in range(n)])
        if kind == "hermite":
            r = basis @ r @ basis.inverse()
        phi = phi + r.scale(Fraction(p) ** rng.choice([-2, -1, 0, 1, 2]))
    elif kind == "shift":
        phi = phi.scale(Fraction(p) ** rng.choice([-1, 1]))
    c = rng.choice([1, 1, p, Fraction(1, p), p * p, 2, Fraction(11, 13), Fraction(3 * p, 2)])
    fil = {i: good.filtration_matrix(i).scale(c) for i in range(lo + 1, lo + width)}
    if n and phi.det() == 0:
        return None
    return FilPhiModule(p, Lattice(basis.scale(c)), phi, fil, good.window)


def test_strong_divisibility_matches_both_oracles_on_3000_modules():
    rng = random.Random(20261020)
    verdicts, rank0, length1 = [], 0, 0
    while len(verdicts) < 3000:
        m = random_sd_candidate(rng)
        if m is None:
            continue
        rep = check_strong_divisibility(m)
        want, witness = hermite_route_strong_divisibility(m)
        assert rep.ok == want == oracle_strong_divisibility(m)
        if len(verdicts) % 10 == 0:
            assert rep.witness == witness
        verdicts.append(rep.ok)
        rank0 += m.n == 0
        length1 += m.window[1] - m.window[0] == 1
    assert verdicts.count(True) >= 1000 and verdicts.count(False) >= 1000
    assert rank0 >= 100 and length1 >= 500


def test_constructor_keeps_phi_in_a_non_identity_hermite_basis():
    # phi_D is set at construction as B^-1 phi B, det phi is det phi_D, and
    # the verdict read off them matches the oracle; B != I here, while the
    # modules of the example documents all have B = I
    rng = random.Random(20261022)
    verdicts, ranks = [], set()
    while len(verdicts) < 400:
        m = random_sd_candidate(rng, ranks=range(1, 7))
        if m is None or m.lattice.basis == QMatrix.identity(m.n):
            continue
        basis = m.lattice.basis
        assert m.phi_d == basis.solve(m.phi @ basis)
        assert m.phi_det == m.phi.det() == m.phi_d.det()
        ok = check_strong_divisibility(m).ok
        assert ok == oracle_strong_divisibility(m)
        if ok:
            assert local_valuations(m).v == tuple(
                (r, projection_valuation(m, r)) for r in range(m.window[0], m.window[1] + 1))
        verdicts.append(ok)
        ranks.add(m.n)
    assert ranks == set(range(1, 7))
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100


def test_window_too_wide():
    with pytest.raises(WindowTooWide):
        FilPhiModule(3, Lattice.standard(1), QMatrix.identity(1), {}, (0, 4))


def test_filtration_must_be_adapted():
    # D^0 spanning the FIRST coordinate violates the trailing-span convention
    fil = {0: QMatrix.from_columns([(1, 0)], rows=2)}
    with pytest.raises(ValueError):
        FilPhiModule(5, Lattice.standard(2), QMatrix.identity(2), fil, (-1, 1))


def test_filtration_saturation_checked():
    fil = {0: QMatrix.from_columns([(0, 5)], rows=2)}
    with pytest.raises(ValueError, match=re.escape(
            "D^0 is not D ∩ span of the last 1 reference coordinates at p = 5")):
        FilPhiModule(5, Lattice.standard(2), QMatrix.identity(2), fil, (-1, 1))


def oracle_step_valid(lattice: Lattice, step: QMatrix, p: int) -> bool:
    """An adapted step is D ∩ span at p iff its coordinates in D are
    p-integral and have full rank k modulo p."""
    return p_integral_rank_mod_p(lattice.basis.solve(step), p) == step.cols


def test_filtration_verdict_matches_mod_p_oracle(rng):
    # perturb one step of a valid module inside its adapted span
    verdicts = []
    for _ in range(150):
        p = rng.choice([3, 5, 7])
        m = random_fl_module(rng, p, levels=sorted(
            rng.randint(0, 1) for _ in range(rng.randint(2, 4))))
        fil = {i: m.filtration_matrix(i)
               for i in range(m.window[0] + 1, m.window[1])}
        steps = [i for i in fil if fil[i].cols]
        if not steps:
            continue
        i = rng.choice(steps)
        k = fil[i].cols
        g = [[Fraction(rng.randint(-3, 3), rng.choice([1, 1, p]))
              for _ in range(k)] for _ in range(k)]
        fil[i] = fil[i] @ QMatrix(g)
        want = all(oracle_step_valid(m.lattice, fil[j], p) for j in fil)
        try:
            FilPhiModule(p, m.lattice, m.phi, fil, m.window)
            got = True
        except ValueError as exc:
            assert "is not D ∩ span" in str(exc)
            got = False
        assert got == want
        verdicts.append(got)
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10


def test_strong_divisibility_matches_oracle_random(rng):
    agree = 0
    for _ in range(40):
        p = rng.choice([3, 5])
        m = random_fl_module(rng, p)
        assert check_strong_divisibility(m).ok
        assert oracle_strong_divisibility(m)
        agree += 1
    assert agree == 40


def test_strong_divisibility_failures_match_oracle(rng):
    fails = 0
    for _ in range(40):
        p = rng.choice([3, 5])
        n = rng.randint(1, 3)
        levels = sorted(rng.randint(0, min(2, p - 2)) for _ in range(n))
        good = random_fl_module(rng, p, levels=levels, twist_basis=False)
        # perturb phi by a stray power of p: breaks the lattice identity
        bad_phi = good.phi.scale(Fraction(p) ** rng.choice([-1, 1]))
        bad = FilPhiModule(p, good.lattice, bad_phi,
                           {i: good.filtration_matrix(i)
                            for i in range(good.window[0] + 1, good.window[1])},
                           good.window)
        got = check_strong_divisibility(bad).ok
        assert got == oracle_strong_divisibility(bad)
        if not got:
            fails += 1
    assert fails >= 10


def test_strong_divisibility_invariant_under_adapted_rebasing(rng):
    from conftest import adapted_block_lower
    for _ in range(10):
        p = rng.choice([3, 5])
        m = random_fl_module(rng, p)
        levels = m.levels
        g = adapted_block_lower(rng, levels, p)
        ginv = g.inverse()
        lattice = Lattice(g @ m.lattice.basis)
        phi = g @ m.phi @ ginv
        fil = {i: g @ m.filtration_matrix(i)
               for i in range(m.window[0] + 1, m.window[1])}
        rebased = FilPhiModule(p, lattice, phi, fil, m.window)
        assert check_strong_divisibility(rebased).ok == check_strong_divisibility(m).ok


# ---------------------------------------------------------------------------
# Tate twist
# ---------------------------------------------------------------------------

def fl_equal(m1: FilPhiModule, m2: FilPhiModule) -> bool:
    return (m1.p == m2.p and m1.window == m2.window
            and m1.lattice == m2.lattice and m1.phi == m2.phi
            and all(m1.filtration_matrix(i) == m2.filtration_matrix(i)
                    for i in range(m1.window[0], m1.window[1] + 1)))


def test_twist_of_trivial_is_qp1():
    assert fl_equal(tate_twist(trivial_module(), 1), qp1_module())


def test_twist_by_zero_is_identity():
    m = trivial_module()
    assert fl_equal(tate_twist(m, 0), m)


def test_twist_involution(rng):
    for _ in range(8):
        m = random_fl_module(rng, 5)
        r = rng.randint(-2, 2)
        assert fl_equal(tate_twist(tate_twist(m, r), -r), m)


def test_twist_preserves_strong_divisibility(rng):
    for _ in range(10):
        m = random_fl_module(rng, 7)
        t = tate_twist(m, rng.randint(-1, 1))
        assert check_strong_divisibility(t).ok


# ---------------------------------------------------------------------------
# h0 / h1cf diagnostics
# ---------------------------------------------------------------------------

def test_h0_trivial_full():
    k = h0(trivial_module())
    assert k.cols == 1


def test_h0_qp1_zero():
    assert h0(qp1_module()).cols == 0


def test_h0_rank_one_in_split_rank_two():
    # phi = diag(1/p, 1), D^0 = last coordinate line: fixed part is rank 1
    p = 5
    phi = QMatrix([[Fraction(1, p), 0], [0, 1]])
    fil = {0: QMatrix.from_columns([(0, 1)], rows=2)}
    m = FilPhiModule(p, Lattice.standard(2), phi, fil, (-1, 1))
    assert check_strong_divisibility(m).ok
    k = h0(m)
    assert k.cols == 1
    assert k.column(0) == (Fraction(0), Fraction(1))


def test_h1cf_qp1():
    assert h1cf(qp1_module()) == (1, ())


def test_h1cf_trivial():
    assert h1cf(trivial_module()) == (1, ())


def test_h1cf_torsion():
    p = 5
    m = FilPhiModule(p, Lattice.standard(1), QMatrix([[1 + p]]), {}, (0, 1))
    assert h1cf(m) == (0, (p,))


def test_rank_nullity_across_sequence(rng):
    for _ in range(15):
        p = rng.choice([3, 5, 7])
        m = random_fl_module(rng, p)
        b0 = m.filtration_matrix(0)
        image = (QMatrix.identity(m.n) - m.phi) @ b0
        image_rank = hnf_rational(image).cols  # the form drops zero columns
        assert h0(m).cols + image_rank == b0.cols
        free, torsion = h1cf(m)
        assert free == m.n - image_rank


def test_h1cf_torsion_matches_determinant(rng):
    # when 1 - phi is injective on a full D^0, the torsion order equals the
    # p-part of det(1 - phi) written in a basis of D
    from motive_height.rational import vp
    from math import prod
    found = 0
    for _ in range(40):
        p = rng.choice([3, 5])
        m = random_fl_module(rng, p, levels=[0] * rng.randint(1, 3))
        mat = m.lattice.basis.solve(
            (QMatrix.identity(m.n) - m.phi) @ m.lattice.basis)
        det = mat.det()
        if det == 0:
            continue
        free, torsion = h1cf(m)
        assert free == 0
        assert prod(torsion, start=1) == p ** vp(det, p)
        found += 1
    assert found >= 5


# ---------------------------------------------------------------------------
# local valuations
# ---------------------------------------------------------------------------

def test_local_valuations_trivial():
    spec = local_valuations(trivial_module())
    assert spec.provenance == "computed-from-FL"
    assert all(e == 0 for _, e in spec.v)


def test_local_valuations_qp1():
    spec = local_valuations(qp1_module())
    assert spec.value(0) == 0
    assert spec.value(-1) == 0


def test_local_valuations_scaled_lattice():
    # D = p * standard, D^r = 0 for r >= 1: v(r) = n
    p, n = 5, 2
    m = FilPhiModule(p, Lattice.standard(n).scale(p), QMatrix.identity(n),
                     {}, (0, 1))
    assert check_strong_divisibility(m).ok
    spec = local_valuations(m)
    assert spec.value(1) == n
    assert spec.value(0) == 0
    assert spec.value(7) == n  # stabilized


def projection_valuation(m: FilPhiModule, r: int) -> int:
    """v_p of the index of D / D^r, by projecting D onto its first
    n - rank D^r coordinates and taking the determinant of a Hermite basis."""
    keep = m.n - m.filtration_rank(r)
    if keep == 0:
        return 0
    projected = QMatrix([m.lattice.basis.data[i] for i in range(keep)])
    return vp(hnf_rational(projected).det(), m.p)


def test_local_valuations_match_projection_formula(rng):
    from conftest import adapted_block_lower
    for _ in range(30):
        p = rng.choice([3, 5, 7])
        m = random_fl_module(rng, p)
        g = adapted_block_lower(rng, m.levels, p)
        c = Fraction(p) ** rng.randint(-2, 2)
        a, b = m.window
        rebased = FilPhiModule(
            p, Lattice((g @ m.lattice.basis).scale(c)), g @ m.phi @ g.inverse(),
            {i: (g @ m.filtration_matrix(i)).scale(c) for i in range(a + 1, b)},
            m.window)
        for module in (m, rebased):
            spec = local_valuations(module)
            for r in range(a, b + 1):
                assert spec.value(r) == projection_valuation(module, r)


def test_twist_compatibility_of_valuations(rng):
    for _ in range(10):
        p = rng.choice([5, 7])
        m = random_fl_module(rng, p)
        r = rng.randint(m.window[0], m.window[1])
        twisted = tate_twist(m, r)
        assert local_valuations(twisted).value(0) == local_valuations(m).value(r)


def test_direct_sum_additivity(rng):
    for _ in range(8):
        p = rng.choice([5, 7])
        lo = rng.randint(-1, 0)
        levels1 = sorted(rng.randint(lo, lo + 1) for _ in range(rng.randint(1, 2)))
        levels2 = sorted(rng.randint(lo, lo + 1) for _ in range(rng.randint(1, 2)))
        window = (min(levels1 + levels2), max(levels1 + levels2) + 1)
        m1 = random_fl_module(rng, p, levels=levels1, window=window)
        m2 = random_fl_module(rng, p, levels=levels2, window=window)
        s = direct_sum(m1, m2)
        assert check_strong_divisibility(s).ok
        assert h0(s).cols == h0(m1).cols + h0(m2).cols
        assert h1cf(s)[0] == h1cf(m1)[0] + h1cf(m2)[0]
        vs, v1, v2 = local_valuations(s), local_valuations(m1), local_valuations(m2)
        for r in range(window[0], window[1] + 1):
            assert vs.value(r) == v1.value(r) + v2.value(r)


# ---------------------------------------------------------------------------
# standard module and local spec plumbing
# ---------------------------------------------------------------------------

def test_standard_module_is_default_good():
    m = standard_module(5, [-1, 0])
    assert check_strong_divisibility(m).ok
    assert all(e == 0 for _, e in local_valuations(m).v)


def test_local_spec_override_validation():
    spec = LocalLatticeSpec.from_map(2, (-1, 0), {0: 3})
    assert spec.value(0) == 3
    assert spec.value(5) == 3
    assert spec.value(-1) == 0
    with pytest.raises(ValueError):
        LocalLatticeSpec.from_map(2, (-1, 0), {-1: 1})  # v(a) must vanish
    with pytest.raises(ValueError):
        LocalLatticeSpec.from_map(2, (-1, 0), {4: 1})  # outside window
