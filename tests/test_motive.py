import random
import time
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from motive_height.balls import ComplexBall, RealBall, working_precision
from motive_height.documents import example_document, parse_motive
from motive_height.fl import FilPhiModule, LocalLatticeSpec, WindowTooWide
from motive_height.lines import Lattice
from motive_height.motive import (
    DegeneratePeriods,
    InvalidMotive,
    MotiveData,
    MotiveType,
    WeightMismatch,
    WindowMismatch,
    assemble_height_line,
    direct_sum,
    elliptic_curve_h1,
    global_lattice,
    height,
    tate_motive,
    tate_twist,
    validate,
)
from motive_height.rational import QMatrix
from conftest import adapted_block_lower, random_motive
from gaussian_oracle import gdet


def close(ball: RealBall, value, tol="1e-28"):
    return abs(ball.mid - mpf(value)) <= ball.rad + mpf(tol)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_tate_motive_validates():
    assert validate(tate_motive(0)).ok
    assert validate(tate_motive(1, fl_primes=(2, 5))).ok
    assert validate(tate_motive(-1, fl_primes=(3,))).ok


def test_validate_reports_strong_divisibility_failure():
    bad_fl = FilPhiModule(5, Lattice.standard(1),
                          QMatrix([[Fraction(1, 5)]]), {}, (0, 1))
    m = MotiveData(MotiveType.of(0, {0: 1}), [[ComplexBall.one()]],
                   {5: bad_fl})
    rep = validate(m)
    assert not rep.ok
    assert rep.issues == ["local datum at p=5: strong divisibility fails "
                          "(lattice sum has basis ((Fraction(1, 5),),))"]
    with pytest.raises(InvalidMotive):
        height(m)


def test_height_decides_strong_divisibility_once_per_module(monkeypatch):
    from motive_height import fl
    from motive_height.documents import example_document, parse_motive

    calls = []
    original = fl.check_strong_divisibility

    def counting(module):
        calls.append(module.p)
        return original(module)

    monkeypatch.setattr(fl, "check_strong_divisibility", counting)
    m = parse_motive(example_document("elliptic:square"))
    height(m)
    height(m)
    assert sorted(calls) == [3, 5]


def test_height_reads_the_local_data_in_one_pass(monkeypatch):
    from motive_height import motive

    calls = {"validate": 0, "intersect_adelic": 0}

    def counting(name):
        original = getattr(motive, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    m = parse_motive(example_document("elliptic:square"))
    for name in calls:
        monkeypatch.setattr(motive, name, counting(name))
    report = height(m)
    assert calls["validate"] <= 2
    assert calls["intersect_adelic"] == 1
    assert report.lattice_scalar == 1 and report.per_prime == ()


def test_tate_twist_decides_strong_divisibility_once_per_module(monkeypatch):
    from motive_height import fl

    calls = []
    original = fl.check_strong_divisibility

    def counting(module):
        calls.append(module.window)
        return original(module)

    monkeypatch.setattr(fl, "check_strong_divisibility", counting)
    height(tate_twist(tate_motive(1, fl_primes=(3,)), 1))
    # once for Q(1), which the twist requires valid, and once for Q(2)
    assert calls == [(-1, 0), (-2, -1)]


def test_standard_module_for_builds_one_module(monkeypatch):
    # the type's window (-1, 2) is wider than its levels' span (-1, 0)
    from motive_height.motive import standard_module_for

    built, init = [], FilPhiModule.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(FilPhiModule, "__init__", counting)
    module = standard_module_for(MotiveType.of(-2, {-1: 1}, (-1, 2)), 5)
    assert len(built) == 1 and module.window == (-1, 2) and module.levels == (-1,)


def test_built_objects_refuse_rebinding():
    # each of these sits beside a kept result: a rebound phi beside phi_D
    # and the strong-divisibility verdict, a rebound period beside the
    # Hodge structure, a rebound basis beside its parts and determinants
    from motive_height.fl import check_strong_divisibility

    module = tate_motive(1, fl_primes=(3,)).local[3]
    assert check_strong_divisibility(module).ok
    with pytest.raises(AttributeError, match="phi is read-only"):
        module.phi = QMatrix([[Fraction(1, 9)]])
    assert module.phi == QMatrix([[Fraction(1, 3)]])
    m = tate_motive(1)
    before = height(m).h
    with pytest.raises(AttributeError, match="period is read-only"):
        m.period = tuple(tuple(x * 2 for x in row) for row in m.period)
    h = m.hodge_structure()
    with pytest.raises(AttributeError, match="basis is read-only"):
        h.basis = m.period
    for obj, name in ((m, "local"), (h, "levels"), (module, "lattice")):
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        m.note = "new attributes are refused too"
    assert height(m).h.mid == before.mid


def test_validate_window_too_wide_at_construction():
    with pytest.raises(WindowTooWide):
        FilPhiModule(3, Lattice.standard(4), QMatrix.identity(4),
                     {1: QMatrix.from_columns([(0, 0, 0, 1)], rows=4),
                      2: QMatrix.from_columns([(0, 0, 0, 1)], rows=4)},
                     (0, 3))


def test_validate_rejects_impure_period():
    # weight 0 but a genuinely complex line at level 1: not pure
    m = MotiveData(MotiveType.of(0, {1: 1}), [[ComplexBall.one()]])
    rep = validate(m)
    assert not rep.ok


def test_validate_bad_prime_needs_override():
    m = MotiveData(MotiveType.of(0, {0: 1}), [[ComplexBall.one()]],
                   bad_primes=[11])
    rep = validate(m)
    assert not rep.ok and any("bad prime 11" in s for s in rep.issues)
    ok = MotiveData(MotiveType.of(0, {0: 1}), [[ComplexBall.one()]],
                    {11: LocalLatticeSpec.from_map(11, (0, 1), {})},
                    bad_primes=[11])
    assert validate(ok).ok


# ---------------------------------------------------------------------------
# global lattices
# ---------------------------------------------------------------------------

def test_global_lattice_default_is_one():
    m = tate_motive(1)
    a, b = m.window
    for r in range(a - 1, b + 2):
        assert global_lattice(m, r) == 1


def test_global_lattice_single_override():
    spec = LocalLatticeSpec.from_map(2, (0, 1), {1: 3})
    m = MotiveData(MotiveType.of(0, {0: 1}), [[ComplexBall.one()]], {2: spec})
    assert global_lattice(m, 1) == 8
    assert global_lattice(m, 0) == 1


def test_global_lattice_from_scaled_fl():
    # rank 2, D = 3 * standard at p = 3, D^r = 0 for r >= 1: index 9 at r = 1
    fl = FilPhiModule(3, Lattice.standard(2).scale(3), QMatrix.identity(2),
                      {}, (0, 1))
    m = MotiveData(MotiveType.of(0, {0: 2}),
                   [[ComplexBall.one(), ComplexBall.zero()],
                    [ComplexBall.zero(), ComplexBall.one()]],
                   {3: fl})
    assert global_lattice(m, 1) == 9
    assert global_lattice(m, 0) == 1


# ---------------------------------------------------------------------------
# heights of Tate motives (criterion 1 runs these at scale/tolerance)
# ---------------------------------------------------------------------------

def test_height_tate_zero_exact():
    rep = height(tate_motive(0))
    assert rep.h.mid == 0 and rep.h.rad == 0
    assert rep.lattice_scalar == 1


def test_height_tate_one_is_minus_log_2pi():
    rep = height(tate_motive(1))
    mp.prec = 300
    assert close(rep.h, -mp.log(2 * mp.pi))
    assert rep.metric.rad < mpf("1e-30")
    line = assemble_height_line(tate_motive(1))
    assert line.lattice_scalar == 1


def test_height_tate_minus_one_matches():
    rep = height(tate_motive(-1))
    mp.prec = 300
    assert close(rep.h, -mp.log(2 * mp.pi))


def test_height_report_consistency():
    rep = height(tate_motive(1, fl_primes=(2,)))
    # H = |e|^{-1} and h = -log|e| within radii
    assert (rep.multiplicative * rep.metric).overlaps(RealBall.one())
    assert (-(rep.metric.log())).overlaps(rep.h)
    assert rep.per_prime == ()


# ---------------------------------------------------------------------------
# direct sums and twists
# ---------------------------------------------------------------------------

def test_direct_sum_trivial_rank2():
    s = direct_sum(tate_motive(0), tate_motive(0))
    assert s.rank == 2
    rep = height(s)
    assert rep.h.mid == 0 and rep.h.rad == 0


def test_nfold_trivial_sum_is_exactly_zero():
    s = tate_motive(0)
    for _ in range(3):
        s = direct_sum(s, tate_motive(0))
    rep = height(s)
    assert s.rank == 4
    assert rep.h.mid == 0 and rep.h.rad == 0


def test_direct_sum_tate_one_twice():
    s = direct_sum(tate_motive(1), tate_motive(1))
    rep = height(s)
    mp.prec = 300
    assert close(rep.h, -2 * mp.log(2 * mp.pi))


def test_direct_sum_padding_preserves_height(rng):
    m = random_motive(rng, weight=0, primes=(5,))
    pad = MotiveData(MotiveType.of(0, {0: 1}, m.window), [[ComplexBall.one()]])
    rep1, rep2 = height(m), height(direct_sum(m, pad))
    assert rep1.h.overlaps(rep2.h)


def test_direct_sum_mismatch_errors():
    with pytest.raises(WeightMismatch):
        direct_sum(tate_motive(0), tate_motive(1))
    a = MotiveData(MotiveType.of(0, {0: 1}, (0, 1)), [[ComplexBall.one()]])
    b = MotiveData(MotiveType.of(0, {0: 1}, (0, 2)), [[ComplexBall.one()]])
    with pytest.raises(WindowMismatch):
        direct_sum(a, b)


def test_additivity_random(rng):
    for _ in range(6):
        w = rng.choice([-1, 0, 2])
        m1 = random_motive(rng, weight=w, primes=(5,), max_rank=3, label="A")
        m2 = random_motive(rng, weight=w, dims=dict(m1.type.hodge_numbers),
                           primes=(7,), label="B")
        s = direct_sum(m1, m2)
        hs = height(s).h
        hsum = height(m1).h + height(m2).h
        assert hs.overlaps(hsum), (hs, hsum)


def test_tate_twist_composes_with_heights():
    m = tate_motive(0, fl_primes=(5,))
    t = tate_twist(m, -1)
    rep = height(t)
    mp.prec = 300
    assert close(rep.h, -mp.log(2 * mp.pi))


# ---------------------------------------------------------------------------
# elliptic builder
# ---------------------------------------------------------------------------

def test_elliptic_square_lattice_formula():
    om1 = ComplexBall.one()
    om2 = ComplexBall.from_rationals(0, 1)
    m = elliptic_curve_h1(om1, om2, ap={5: -2, 3: 0})
    assert validate(m).ok
    rep = height(m)
    mp.prec = 300
    assert close(rep.h, -mp.log(2) / 2)  # -(1/2) log(2 * covol), covol = 1


def test_elliptic_rejects_degenerate_periods():
    om1 = ComplexBall.one()
    om2 = ComplexBall.from_rationals(2)  # real multiple
    with pytest.raises(DegeneratePeriods):
        elliptic_curve_h1(om1, om2)


def test_elliptic_bad_prime_override():
    om1 = ComplexBall.one()
    om2 = ComplexBall.from_rationals(Fraction(1, 3), 1)
    m = elliptic_curve_h1(om1, om2, ap={5: 1}, bad={2: {}})
    assert validate(m).ok
    assert m.bad_primes == frozenset({2})


def test_elliptic_fl_at_2_rejected():
    om1 = ComplexBall.one()
    om2 = ComplexBall.from_rationals(0, 1)
    with pytest.raises(WindowTooWide):
        elliptic_curve_h1(om1, om2, ap={2: 1})


# ---------------------------------------------------------------------------
# invariance properties
# ---------------------------------------------------------------------------

def test_default_consistency_explicit_standard_module(rng):
    from motive_height.motive import standard_module_for
    m = random_motive(rng, primes=(5,))
    withstd = MotiveData(m.type, m.period,
                         {**m.local, 7: standard_module_for(m.type, 7)},
                         label=m.label)
    a, b = m.window
    for r in range(a, b + 1):
        assert global_lattice(m, r) == global_lattice(withstd, r)


def test_window_stability(rng):
    m = random_motive(rng, primes=(5,))
    a, b = m.window
    base = height(m)
    wider = height(m, window=(a - 2, b))
    taller = height(m, window=(a, b + 2))
    assert base.h.overlaps(wider.h)
    assert base.h.overlaps(taller.h)
    assert wider.warnings


def test_window_must_contain_support(rng):
    m = random_motive(rng)
    a, b = m.window
    if b - a > 1:
        with pytest.raises(WindowMismatch):
            height(m, window=(a + 1, b))


def test_simple_formula_agrees(rng):
    # the windowed product against the telescoping product
    # tensor_r (L_r^{-1} (x) L_{r+1})^{x r}; they agree because L_a is
    # canonically trivial
    for _ in range(5):
        m = random_motive(rng, primes=(5, 7))
        a, b = m.window
        telescoping = Fraction(1)
        for r in range(a, b):
            telescoping *= (global_lattice(m, r + 1) / global_lattice(m, r)) ** r
        assert assemble_height_line(m).lattice_scalar == telescoping


def test_rebasing_covariance(rng):
    # an adapted rational change of dR reference basis, pushed through the
    # period matrix, the filtered modules and the implicit default lattices,
    # leaves the height unchanged
    from motive_height.motive import rebase_reference
    for _ in range(6):
        m = random_motive(rng, primes=(5,), label="C")
        levels = m.type.levels()
        r_mat = adapted_block_lower(rng, levels, 5)
        if rng.random() < 0.5:
            r_mat = r_mat.scale(Fraction(rng.choice([2, 3, 6]),
                                         rng.choice([1, 2, 5])))
        m2 = rebase_reference(m, r_mat)
        assert validate(m2).ok
        assert height(m).h.overlaps(height(m2).h), (height(m).h, height(m2).h)


def test_constructed_modules_pass_init_and_equal_their_reread_steps(monkeypatch, rng):
    # the constructions pass levels, not steps: each module they build still
    # goes through FilPhiModule.__init__ (which the benchmark counts), and
    # declaring its own steps D ∩ span gives back the same module
    from motive_height.experiments import full_quotient_spec, sublattice_motive
    from motive_height.fl import check_strong_divisibility, local_valuations
    from motive_height.motive import rebase_reference, standard_module_for

    built, init = [], FilPhiModule.__init__

    def counting(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(FilPhiModule, "__init__", counting)
    modules = []

    def made(build):
        start = len(built)
        module = build()
        assert any(module is x for x in built[start:])
        modules.append(module)

    for _ in range(4):
        m1 = random_motive(rng, weight=0, primes=(5,), max_rank=2, label="A")
        m2 = random_motive(rng, weight=0, dims=dict(m1.type.hodge_numbers),
                           primes=(5,), max_rank=2, label="B")
        msum = direct_sum(m1, m2)
        made(lambda: direct_sum(m1, m2).local[5])
        made(lambda: tate_twist(msum, rng.choice([-1, 1, 2])).local[5])
        r_mat = adapted_block_lower(rng, msum.type.levels(), 5).scale(Fraction(2, 3))
        made(lambda: rebase_reference(msum, r_mat).local[5])
        made(lambda: sublattice_motive(msum, full_quotient_spec(msum, 5)).local[5])
        made(lambda: standard_module_for(msum.type, 7))
    made(lambda: standard_module_for(MotiveType.of(-2, {-1: 1}, (-1, 2)), 5))

    for module in modules:
        a, b = module.window
        steps = {i: module.filtration_matrix(i) for i in range(a + 1, b)}
        again = FilPhiModule(module.p, module.lattice, module.phi, steps, module.window)
        assert again.levels == module.levels
        assert check_strong_divisibility(again).ok == check_strong_divisibility(module).ok
        assert local_valuations(again) == local_valuations(module)


def test_local_data_are_read_only():
    m = tate_motive(1)
    before = height(m).h
    with pytest.raises(TypeError):
        m.local[7] = LocalLatticeSpec.from_map(7, (-2, 0), {0: 3})
    assert 7 not in m.local
    after = height(m).h
    assert (after.mid, after.rad) == (before.mid, before.rad)


def test_order_independence_of_local_data(rng):
    m = random_motive(rng, primes=(3, 5, 7))
    shuffled = dict(reversed(list(m.local.items())))
    m2 = MotiveData(m.type, m.period, shuffled, label=m.label)
    r1, r2 = height(m), height(m2)
    assert r1.h.mid == r2.h.mid and r1.h.rad == r2.h.rad
    assert r1.per_prime == r2.per_prime


def test_precision_monotone_height():
    with working_precision(96):
        lo = height(tate_motive(1)).h
    with working_precision(160):
        hi = height(tate_motive(1)).h
    assert hi.rad < lo.rad


def test_more_precision_never_widens_a_height():
    # README: increasing --precision never increases a reported radius
    rng = random.Random(99)
    shapes = [(-1, {-1: g, 0: g}) for g in (1, 2, 3)] + \
        [(2, {0: 1, 1: n - 2, 2: 1}) for n in (4, 5, 6)] + \
        [(w, {r: 1 for r in range(w + 1)}) for w in (2, 3, 4)] + \
        [(5, {r: 1 for r in range(6)}), (2, {0: 1, 1: 5, 2: 1})]  # paired D_r
    motives = [parse_motive(example_document(name)) for name in
               ("trivial", "tate:1", "tate:-1", "tate:2", "elliptic:square")]
    motives += [random_motive(rng, weight, dims) for weight, dims in shapes]
    for m in motives:
        radii = []
        for bits in (64, 96, 128, 192, 256, 512):
            with working_precision(bits):
                radii.append(height(m).h.rad)
        assert all(hi <= lo for lo, hi in zip(radii, radii[1:])), (m.label, radii)


def _exact_log_reference_metric(weight, levels, columns):
    """a log|det P| + 1/2 sum_{a<r<b} log|D_r| in exact Gaussian rationals,
    with one logarithm per determinant at 320 bits."""
    n = len(levels)
    conj = [[(re, -im) for re, im in c] for c in columns]

    def log_abs(cols):
        re, im = gdet([[c[i] for c in cols] for i in range(n)])
        norm = re * re + im * im
        return mp.log(mpf(norm.numerator) / norm.denominator) / 2

    a, b = min(levels), max(levels) + 1
    with mp.workprec(320):
        total = a * log_abs(columns)
        for r in range(a + 1, b):
            total += log_abs([c for c, l in zip(columns, levels) if l >= r]
                             + [c for c, l in zip(conj, levels) if l >= weight + 1 - r]) / 2
        return total


def test_rank22_k3_type_height_is_fast_and_contains_the_exact_value():
    dims = {0: 1, 1: 20, 2: 1}
    m = random_motive(random.Random(22), 2, dims, label="k3:22")
    start = time.perf_counter()
    with working_precision(128):
        h = height(m).h
    elapsed = time.perf_counter() - start
    columns = [[m.period[i][j].exact_value()[0] for i in range(22)] for j in range(22)]
    truth = -_exact_log_reference_metric(2, m.type.levels(), columns)
    with mp.workprec(320):
        assert abs(h.mid - truth) <= h.rad
    assert h.rad < mpf(2) ** -120
    assert elapsed < 1.0, elapsed
