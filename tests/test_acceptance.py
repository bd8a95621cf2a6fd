"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import random
import time
from fractions import Fraction

from mpmath import mp, mpf

from motive_height.balls import ComplexBall, RealBall, working_precision
from motive_height.experiments import (
    abc_report,
    check_s_equals_t,
    full_quotient_spec,
    invariance_experiment,
    n_of_m,
    s_invariant,
    t_invariant,
)
from motive_height.fl import FilPhiModule, LocalLatticeSpec, check_strong_divisibility
from motive_height.lines import Lattice
from motive_height.motive import (
    MotiveData,
    MotiveType,
    direct_sum,
    elliptic_curve_h1,
    height,
    tate_motive,
    validate,
)
from motive_height.rational import QMatrix
from motive_height.hodge import direct_sum as hodge_direct_sum, line_metric

from conftest import (
    block_projection_spec,
    random_adapted_rebase,
    random_fl_module,
    random_motive,
    random_pure_hodge,
)
from faltings_oracle import (
    CURVE_24A,
    CURVE_32A,
    covolume,
    faltings_height,
    periods_agm,
    periods_quadrature,
)
from fl_oracle import oracle_strong_divisibility


def _line(num, name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} [{name}]: {status} "
          f"({elapsed:.2f}s, budget {budget}s) {detail}")


# ---------------------------------------------------------------------------

def test_criterion_1_tate_heights():
    budget, t0 = 1.0, time.monotonic()
    with working_precision(128):
        rep0 = height(tate_motive(0))
        rep1 = height(tate_motive(1))
        rep_neg = height(tate_motive(-1))
    mp.prec = 280
    target = -mp.log(2 * mp.pi)
    ok = (rep0.h.mid == 0 and rep0.h.rad == 0
          and abs(rep1.h.mid - target) < mpf("1e-30")
          and abs(rep_neg.h.mid - target) < mpf("1e-30")
          and rep1.h.rad < mpf("1e-30") and rep_neg.h.rad < mpf("1e-30"))
    elapsed = time.monotonic() - t0
    _line(1, "Tate heights", ok and elapsed < budget, elapsed, budget,
          f"h(Q(0)) = {rep0.h.mid}, h(Q(1)) = {rep1.h.mid} rad {rep1.h.rad}")
    assert ok
    assert elapsed < budget


def test_criterion_2_faltings_coincidence():
    budget, t0 = 10.0, time.monotonic()
    results = []
    for curve in (CURVE_32A, CURVE_24A):
        mp.dps = 60
        w1, w2 = periods_agm(curve)
        q1, q2 = periods_quadrature(curve)
        agm_quad_gap = max(abs(w1 - q1), abs(w2 - q2))
        oracle = faltings_height(curve)
        with working_precision(128):
            rad1 = abs(w1) * mpf("1e-55")
            om1 = ComplexBall(RealBall(w1, rad1), RealBall(0, 0))
            om2 = ComplexBall(RealBall(0, 0),
                              RealBall(w2.imag, abs(w2) * mpf("1e-55")))
            m = elliptic_curve_h1(om1, om2, ap=curve.ap,
                                  bad={p: {} for p in curve.bad_primes},
                                  label=curve.label)
            ok_valid = validate(m).ok
            rep = height(m)
        diff = abs(rep.h.mid - oracle)
        results.append((curve.label, ok_valid, diff, agm_quad_gap, rep.h.rad))
    ok = all(v and d < mpf("1e-15") and gap < mpf("1e-20") and rad < mpf("1e-25")
             for _, v, d, gap, rad in results)
    elapsed = time.monotonic() - t0
    detail = "; ".join(f"{lbl}: |pipeline - oracle| = {mp.nstr(d, 3)}"
                       for lbl, _, d, _, _ in results)
    _line(2, "Faltings coincidence", ok and elapsed < budget, elapsed, budget, detail)
    assert ok, results
    assert elapsed < budget


def test_criterion_3_lemma_audit():
    budget, t0 = 5.0, time.monotonic()
    rng = random.Random(333)
    ok = True
    # builders
    for r in range(-2, 3):
        ok = ok and check_s_equals_t(tate_motive(r)).passed
    ell = elliptic_curve_h1(ComplexBall.one(), ComplexBall.from_rationals(0, 1),
                            ap={5: -2})
    ok = ok and check_s_equals_t(ell).passed
    # 100 random valid direct sums / twists
    checked = 0
    while checked < 100:
        w = rng.choice([-2, -1, 0, 1, 2, 3])
        m1 = random_motive(rng, weight=w, label="A")
        ok = ok and check_s_equals_t(m1).passed
        checked += 1
        if checked % 3 == 0:
            m2 = random_motive(rng, weight=w,
                               dims=dict(m1.type.hodge_numbers), label="B")
            s = direct_sum(m1, m2)
            ok = ok and check_s_equals_t(s).passed
            checked += 1
        if checked % 5 == 0:
            tw = m1.type.twist(rng.randint(-2, 2))
            ok = ok and check_s_equals_t(tw).passed
            checked += 1
    # a deliberately non-motivic datum: w = 0 but a single level-1 line
    bad = MotiveType.of(0, {1: 1})
    rep = check_s_equals_t(bad)
    ok = ok and (not rep.passed) and rep.defect == 1
    elapsed = time.monotonic() - t0
    _line(3, "s = t lemma audit", ok and elapsed < budget, elapsed, budget,
          f"{checked} random cases; non-motivic defect = {rep.defect}")
    assert ok
    assert elapsed < budget


def test_criterion_4_height_invariance():
    budget, t0 = 60.0, time.monotonic()
    rng = random.Random(444)
    cases = 0
    ok = True
    failures = []
    for p in (3, 5, 7):
        for n in (0, 1, 2, 3):
            for rep_i in range(5):
                w = rng.choice([1, -1]) if p == 3 else rng.choice([-2, -1, 0, 1, 2])
                m1 = random_motive(rng, weight=w, primes=(p,), max_rank=2, label="A")
                m2 = random_motive(rng, weight=w, dims=dict(m1.type.hodge_numbers),
                                   primes=(p,), max_rank=2, label="B")
                msum = direct_sum(m1, m2)
                if rep_i % 2:
                    spec = full_quotient_spec(msum, p, exponent=n)
                else:
                    spec = block_projection_spec(msum, m2, p, exponent=n)
                report = invariance_experiment(msum, spec)
                if not report.passed:
                    failures.append((p, n, report.messages))
                ok = ok and report.passed
                # the exact identities, restated
                expected = Fraction(p) ** (n * report.s_u)
                ok = ok and report.lattice_ratio == expected
                ok = ok and Fraction(report.betti_index) ** msum.weight == \
                    Fraction(p) ** (2 * n * report.t_u)
                cases += 1
    elapsed = time.monotonic() - t0
    ok = ok and cases >= 50
    _line(4, "height invariance h(M^(n)) = h(M)", ok and elapsed < budget,
          elapsed, budget, f"{cases} grid cases, failures: {failures!r}")
    assert ok, failures
    assert elapsed < budget


def test_criterion_5_strong_divisibility_oracle():
    budget, t0 = 30.0, time.monotonic()
    rng = random.Random(555)
    agreements = passes = fails = skipped = 0
    ok = True
    for trial in range(220):
        p = rng.choice([3, 5])
        n = rng.randint(1, 3)
        lo = rng.randint(-1, 0)
        levels = sorted(rng.randint(lo, min(lo + p - 2, lo + 1)) for _ in range(n))
        kind = trial % 3
        if kind == 0:
            m = random_fl_module(rng, p, levels=levels, twist_basis=False)
        elif kind == 1:
            good = random_fl_module(rng, p, levels=levels, twist_basis=False)
            m = FilPhiModule(p, good.lattice,
                             good.phi.scale(Fraction(p) ** rng.choice([-1, 1])),
                             {i: good.filtration_matrix(i)
                              for i in range(good.window[0] + 1, good.window[1])},
                             good.window)
        else:
            # arbitrary phi with entries bounded by p^2, standard filtration
            den = rng.choice([1, p])
            while True:
                phi = QMatrix([[Fraction(rng.randint(-p * p, p * p), den)
                                for _ in range(n)] for _ in range(n)])
                if phi.det() != 0:
                    break
            fil = {i: QMatrix.from_columns(
                [[1 if t == j else 0 for t in range(n)]
                 for j in range(n) if levels[j] >= i], rows=n)
                for i in range(min(levels) + 1, max(levels) + 1)}
            m = FilPhiModule(p, Lattice.standard(n), phi, fil,
                             (min(levels), max(levels) + 1))
        bound = Fraction(p * p)
        entries = [abs(x) for row in m.phi.data for x in row] + \
                  [abs(x) for row in m.lattice.basis.data for x in row]
        if any(e > bound for e in entries):
            skipped += 1
            continue
        got = check_strong_divisibility(m).ok
        want = oracle_strong_divisibility(m)
        agreements += got == want
        ok = ok and (got == want)
        passes += got
        fails += not got
    ok = ok and fails >= 10 and passes >= 10
    elapsed = time.monotonic() - t0
    _line(5, "strong divisibility vs lattice-sum oracle", ok and elapsed < budget,
          elapsed, budget,
          f"{agreements} agreements, {passes} valid, {fails} failing, {skipped} out of bound")
    assert ok
    assert elapsed < budget


def test_criterion_6_metric_properties():
    budget, t0 = 30.0, time.monotonic()
    rng = random.Random(666)
    ok = True
    # basis independence: an adapted rebasing R moves the reference
    # generator by prod_r (det R_rr)^r and the metric by its absolute value
    for _ in range(200):
        h, _ = random_pure_hodge(rng, max_rank=3)
        rebased, factor = random_adapted_rebase(rng, h)
        ok = ok and line_metric(rebased).overlaps(factor * line_metric(h))
    # homogeneity
    for _ in range(200):
        h, _ = random_pure_hodge(rng, max_rank=3)
        c = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        lhs = line_metric(h, c)
        rhs = RealBall(c) * line_metric(h, 1)
        ok = ok and lhs.overlaps(rhs)
    # direct-sum multiplicativity
    for _ in range(200):
        w = rng.choice([-2, -1, 0, 1, 2])
        h1, _ = random_pure_hodge(rng, weight=w, max_rank=2)
        h2, _ = random_pure_hodge(rng, weight=w, max_rank=2)
        msum = line_metric(hodge_direct_sum(h1, h2))
        prod = line_metric(h1) * line_metric(h2)
        ok = ok and msum.overlaps(prod)
    elapsed = time.monotonic() - t0
    _line(6, "metric properties (200 trials each)", ok and elapsed < budget,
          elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_7_additivity_and_order_independence(tmp_path, capsys):
    budget, t0 = 30.0, time.monotonic()
    rng = random.Random(777)
    ok = True
    for _ in range(50):
        w = rng.choice([-2, -1, 0, 1, 2])
        m1 = random_motive(rng, weight=w, primes=(5,), max_rank=3, label="A")
        m2 = random_motive(rng, weight=w, dims=dict(m1.type.hodge_numbers),
                           primes=(7,), label="B")
        hs = height(direct_sum(m1, m2)).h
        hsum = height(m1).h + height(m2).h
        ok = ok and hs.overlaps(hsum)
    # schedule independence of the batch front end: sequential == parallel
    from motive_height.cli import main as cli_main
    from motive_height.documents import canonical_bytes, example_document
    paths = []
    for name in ("tate:1", "tate:0", "tate:-1", "elliptic:square"):
        path = tmp_path / (name.replace(":", "_") + ".json")
        path.write_bytes(canonical_bytes(example_document(name)))
        paths.append(str(path))
    code1 = cli_main(["batch", *paths])
    out_seq = capsys.readouterr().out
    code2 = cli_main(["batch", "--jobs", "3", *paths])
    out_par = capsys.readouterr().out
    ok = ok and code1 == code2 == 0 and out_seq == out_par
    # evaluation order inside a single motive
    m = random_motive(rng, primes=(3, 5, 7), label="O")
    m_rev = MotiveData(m.type, m.period,
                       dict(reversed(list(m.local.items()))), label="O")
    r1, r2 = height(m), height(m_rev)
    ok = ok and r1.h.mid == r2.h.mid and r1.h.rad == r2.h.rad
    elapsed = time.monotonic() - t0
    _line(7, "additivity and order independence", ok and elapsed < budget,
          elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_8_conjecture_bookkeeping():
    budget, t0 = 10.0, time.monotonic()
    mp.prec = 280
    flagged = {
        "one bad prime": ([11], mp.log(11)),
        "three bad primes": ([2, 3, 7], mp.log(2) + mp.log(3) + mp.log(7)),
        "no bad primes": ([], mpf(0)),
    }
    ok = True
    batch = []
    for label, (bad, expected) in flagged.items():
        local = {p: LocalLatticeSpec.from_map(p, (0, 1), {}) for p in bad}
        m = MotiveData(MotiveType.of(0, {0: 1}), [[ComplexBall.one()]],
                       local, bad_primes=bad, label=label)
        val = n_of_m(m)
        ok = ok and abs(val.mid - expected) <= val.rad + mpf("1e-35")
        batch.append(m)
    report = abc_report(batch)
    rendered = report.render()
    lines = rendered.splitlines()
    ok = ok and "no inequality asserted" in lines[0]
    ok = ok and len(lines) == 2 + len(batch)
    ok = ok and [row.label for row in report.rows] == list(flagged)
    elapsed = time.monotonic() - t0
    _line(8, "conjecture bookkeeping n(M)", ok and elapsed < budget,
          elapsed, budget)
    assert ok
    assert elapsed < budget
