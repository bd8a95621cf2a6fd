"""The benchmark's four workloads: seeded inputs, one op, and its check.

Every workload object holds ``items`` (the generated inputs of one pass),
``run_op(item)`` (the measured call, made through module attributes so the
traced run sees it) and ``check(item, output)`` which returns
``(ok, certified_bits)``.  Inputs come only from the workload's own
``random.Random``; each op builds fresh ``MotiveData`` objects, so the
library's per-object caches start cold.

Why each workload exists, and which layers it loads, is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from motive_height import cli, experiments, motive
from motive_height.balls import ComplexBall
from motive_height.fl import FilPhiModule
from motive_height.lines import Lattice
from motive_height.motive import MotiveData, MotiveType
from motive_height.rational import QMatrix

import exact

BITS = 128  # the CLI default


def certified_bits(rad) -> float:
    """-log2(radius); an exact result counts as the working precision."""
    if rad == 0:
        return float(BITS)
    return float(-mp.log(mpf(rad), 2))


# ---------------------------------------------------------------------------
# pure Hodge structures, built decomposition-first
# ---------------------------------------------------------------------------

def _gaussian(rng, real=False):
    re = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
    im = Fraction(0) if real else Fraction(rng.randint(-8, 8), rng.randint(1, 4))
    return (re, im)


def random_pure_columns(rng, weight, dims):
    """Adapted basis of a random pure structure of the given Hodge numbers.

    Pieces above the middle get random Gaussian-rational bases, the mirror
    pieces their conjugates and an even-weight middle piece a real basis,
    so purity holds by construction.  Returns (levels, columns), the
    columns ordered by level.
    """
    n = sum(dims.values())
    while True:
        by_level = {}
        for r in sorted(dims):
            if 2 * r < weight:
                continue
            if 2 * r == weight:
                by_level[r] = [[_gaussian(rng, real=True) for _ in range(n)]
                               for _ in range(dims[r])]
            else:
                cols = [[_gaussian(rng) for _ in range(n)] for _ in range(dims[r])]
                by_level[r] = cols
                by_level[weight - r] = [[exact.gconj(x) for x in c] for c in cols]
        levels, columns = [], []
        for r in sorted(by_level):
            for c in by_level[r]:
                levels.append(r)
                columns.append(c)
        if exact.gdet(columns) != exact.ZERO:
            return levels, columns


def period_balls(columns):
    n = len(columns)
    return tuple(tuple(ComplexBall.from_rationals(*columns[j][i]) for j in range(n))
                 for i in range(n))


def _hodge_label(weight, dims):
    return "w%d:" % weight + ",".join("%d" % dims[r] for r in sorted(dims))


@dataclass
class HodgeItem:
    label: str
    type: MotiveType
    period: tuple
    h_ref: mpf


class HodgeWorkload:
    """Library height() on fresh motives with only default-good primes."""

    shapes: tuple = ()

    def __init__(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        self.items = []
        for weight, dims in self.shapes:
            levels, columns = random_pure_columns(rng, weight, dims)
            self.items.append(HodgeItem(
                _hodge_label(weight, dims), MotiveType.of(weight, dims),
                period_balls(columns),
                exact.pure_height(weight, levels, columns)))

    def run_op(self, item):
        return motive.height(MotiveData(item.type, item.period, label=item.label))

    def check(self, item, rep):
        ok = exact.ball_contains(rep.h.mid, rep.h.rad, item.h_ref)
        return ok, certified_bits(rep.h.rad)

    def close(self):
        pass


class HodgeNarrow(HodgeWorkload):
    """Few levels, big pieces: weight -1 abelian type (h^{-1,0} = h^{0,-1} =
    g) and weight-2 K3 type (h^{2,0} = h^{0,2} = 1, h^{1,1} = n - 2)."""

    name = "hodge-narrow"
    shapes = tuple((-1, {-1: g, 0: g}) for g in (2, 3, 4)) + \
        tuple((2, {0: 1, 1: n - 2, 2: 1}) for n in (5, 6, 7))


class HodgeWide(HodgeWorkload):
    """Many levels, small pieces: h^{p,q} = 1 for p + q = w, and mixed
    shapes of the same ranks."""

    name = "hodge-wide"
    shapes = tuple((w, {r: 1 for r in range(w + 1)}) for w in (3, 4, 5)) + \
        ((3, {0: 1, 1: 2, 2: 2, 3: 1}),)


# ---------------------------------------------------------------------------
# curves-cli: JSON documents through the command line
# ---------------------------------------------------------------------------

PRIMES = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
DIGITS = 45


def _decimal(rng):
    """Random exact 50-digit decimal in (-10, 10), nonzero, as (str, Fraction)."""
    while True:
        k = rng.randint(-10 ** 50, 10 ** 50)
        if abs(k) > 10 ** 48:
            break
    sign = "-" if k < 0 else ""
    digits = str(abs(k)).rjust(50, "0")
    return f"{sign}{digits[:1]}.{digits[1:]}", Fraction(k, 10 ** 49)


def _neg(s):
    return s[1:] if s.startswith("-") else "-" + s


def _inverse_decimals(z):
    """1/z for a Gaussian rational, as decimal strings good to ~55 digits."""
    inv = exact.ginv(z)
    with mp.workprec(400):
        return tuple(mp.nstr(mpf(q.numerator) / q.denominator, 55) for q in inv)


def _fl_rows(p, a_p):
    return {"phi": [[str(Fraction(a_p, p)), "1"], [str(Fraction(-1, p)), "0"]],
            "lattice": [["1", "0"], ["0", "1"]],
            "filtration": [{"i": 0, "basis": [["0"], ["1"]]}]}


def curve_document(rng, index):
    """Rank-2 H_1 of a curve: random period lattice as certified decimals,
    FL modules at 8-12 good primes, one flagged bad prime with an override.
    Returns (document, reference height, bad prime)."""
    while True:
        (x1, fx1), (y1, fy1), (x2, fx2), (y2, fy2) = (_decimal(rng) for _ in range(4))
        w1, w2 = (fx1, fy1), (fx2, fy2)
        if abs(exact.gmul(exact.gconj(w1), w2)[1]) > Fraction(1, 10):
            break
    inv_re, inv_im = _inverse_decimals(w1)
    bad = rng.choice(PRIMES[:6])
    good = rng.sample([p for p in PRIMES if p != bad and p > 2], rng.randint(8, 12))
    v = {0: rng.randint(0, 3), 1: rng.randint(0, 3)}
    label = f"curve-{index}"
    doc = {
        "format_version": "1",
        "metadata": {"id": label},
        "type": {"weight": -1, "hodge_numbers": {"-1": 1, "0": 1}, "window": [-1, 1]},
        "betti": {"rank": 2},
        "period": [
            [{"re": inv_re, "im": inv_im, "digits": DIGITS},
             {"re": x2, "im": y2, "digits": DIGITS}],
            [{"re": "0", "im": "0"},
             {"re": _neg(x1), "im": _neg(y1), "digits": DIGITS}]],
        "local": [{"p": p, "fl": _fl_rows(p, rng.randint(-math.isqrt(4 * p),
                                                         math.isqrt(4 * p)))}
                  for p in sorted(good)]
        + [{"p": bad, "override": {str(r): e for r, e in v.items()}}],
        "bad_primes": [bad],
    }
    return doc, exact.curve_height(w1, w2, (-1, 1), {bad: v}), bad


def tate_document(r):
    return {
        "format_version": "1",
        "metadata": {"id": f"tate:{r}"},
        "type": {"weight": -2 * r, "hodge_numbers": {str(-r): 1},
                 "window": [-r, -r + 1]},
        "betti": {"rank": 1},
        "period": [[{"tpi": -r, "scale": "1"}]],
        "local": [{"p": 2, "fl": {"phi": [[str(Fraction(2) ** -r)]],
                                  "lattice": [["1"]], "filtration": []}}],
        "bad_primes": [],
    }


@dataclass
class DocItem:
    label: str
    path: str
    window: tuple
    h_ref: mpf
    n_ref: mpf


class CurvesCli:
    """``motive-height height <doc> --format rows`` over ~100 documents."""

    name = "curves-cli"
    n_curves = 93

    def __init__(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        entries = [(tate_document(r), exact.tate_height(r), None) for r in range(-3, 4)]
        entries += [curve_document(rng, i) for i in range(self.n_curves)]
        self.items = []
        for i, (doc, h_ref, bad) in enumerate(entries):
            path = os.path.join(workdir, f"doc{i:03d}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f, sort_keys=True)
            with mp.workprec(exact.REF_BITS):
                n_ref = mp.log(bad) if bad else mpf(0)
            self.items.append(DocItem(doc["metadata"]["id"], path,
                                      tuple(doc["type"]["window"]), h_ref, n_ref))

    def run_op(self, item):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["height", item.path, "--format", "rows"])
        return code, out.getvalue()

    def check(self, item, output):
        """The rows format prints h to 25 significant digits, so the printed
        ball is widened by that rounding before the comparison."""
        code, text = output
        fields = text.rstrip("\n").split("\t")
        if code != 0 or len(fields) != 6 or fields[0] != item.label \
                or (int(fields[1]), int(fields[2])) != item.window:
            return False, 0.0
        with mp.workprec(exact.REF_BITS):
            mid, rad, n_mid = mpf(fields[3]), mpf(fields[4]), mpf(fields[5])
            rounding = mpf(10) ** -24 * (1 + abs(mid))
            ok = abs(mid - item.h_ref) <= rad * mpf("1.01") + rounding \
                and abs(n_mid - item.n_ref) <= mpf(10) ** -24 * (1 + abs(n_mid))
        return ok, certified_bits(rad)

    def close(self):
        for item in self.items:
            with contextlib.suppress(FileNotFoundError):
                os.remove(item.path)
        with contextlib.suppress(OSError):
            os.rmdir(self.workdir)


# ---------------------------------------------------------------------------
# invariance-audit: the height-invariance grid
# ---------------------------------------------------------------------------

def _adapted_block_lower(rng, levels, p, bound=3):
    """Integer matrix, det prime to p, entries only where level(row) >=
    level(col), so the adapted filtration convention is preserved."""
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


def _unit_mod_p(rng, n, p, bound=3):
    while True:
        m = QMatrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])
        d = m.det()
        if d != 0 and d.numerator % p != 0:
            return m


def random_fl_module(rng, p, levels, window):
    """Strongly divisible module: phi = B U diag(p^level) B^-1 on D = B Z^n."""
    n = len(levels)
    b = _adapted_block_lower(rng, levels, p)
    u = _unit_mod_p(rng, n, p)
    diag = QMatrix([[Fraction(p) ** levels[j] if i == j else 0 for j in range(n)]
                    for i in range(n)])
    phi = b @ u @ diag @ b.inverse()
    lo, hi = window
    fil = {i: QMatrix.from_columns([b.column(j) for j in range(n) if levels[j] >= i],
                                   rows=n)
           for i in range(lo + 1, hi)}
    return FilPhiModule(p, Lattice(b), phi, fil, window)


def random_motive(rng, weight, dims, p, label):
    levels, columns = random_pure_columns(rng, weight, dims)
    t = MotiveType.of(weight, dims)
    m = MotiveData(t, period_balls(columns),
                   {p: random_fl_module(rng, p, levels, t.window)}, label=label)
    return m, exact.log_reference_metric(weight, levels, columns)


def block_projection_spec(msum, m2, p, exponent):
    """Quotient spec projecting a direct sum onto its second summand at p.
    Coordinates of the sum are interleaved stably by (level, side)."""
    l2 = m2.type.levels()
    l1 = list(msum.type.levels())
    for level in l2:
        l1.remove(level)
    order = [(side, j) for _, side, j in sorted(
        [(l, 0, j) for j, l in enumerate(l1)] + [(l, 1, j) for j, l in enumerate(l2)])]
    n, k = msum.rank, m2.rank
    pi = QMatrix([[1 if order[j] == (1, i) else 0 for j in range(n)] for i in range(k)])
    fl_sum, fl2 = msum.local[p], m2.local[p]
    b2inv = fl2.lattice.basis.inverse()
    q_dr = b2inv @ pi @ fl_sum.lattice.basis
    if not q_dr.is_integer():
        raise ValueError("block projection is not integral")
    phi_u = b2inv @ fl2.phi @ fl2.lattice.basis
    a, b = msum.window
    fil_u = tuple((i, b2inv @ fl2.filtration_matrix(i)) for i in range(a + 1, b))
    return experiments.QuotientSpec(p, k, q_dr, pi, phi_u, fil_u, exponent)


@dataclass
class AuditItem:
    label: str
    msum: MotiveData
    spec: object
    log_ref: mpf  # log |ref| of the sum, from the closed form


class InvarianceAudit:
    """One invariance_experiment per cell of p x n x spec kind."""

    name = "invariance-audit"
    primes = (5, 7, 11)
    exponents = (1, 2, 3)
    # rank-1 and rank-2 pure types; the cell index picks one, so the cost of
    # a pass does not depend on the seed
    shapes = ((-1, {-1: 1, 0: 1}), (0, {-1: 1, 1: 1}), (1, {0: 1, 1: 1}),
              (0, {0: 1}), (2, {0: 1, 2: 1}), (-2, {-1: 1}))

    def __init__(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        self.items = []
        cell = 0
        for p in self.primes:
            for n in self.exponents:
                for kind in ("full", "block"):
                    weight, dims = self.shapes[cell % len(self.shapes)]
                    cell += 1
                    m1, ref1 = random_motive(rng, weight, dims, p, "A")
                    m2, ref2 = random_motive(rng, weight, dims, p, "B")
                    msum = motive.direct_sum(m1, m2)
                    if kind == "full":
                        spec = experiments.full_quotient_spec(msum, p, exponent=n)
                    else:
                        spec = block_projection_spec(msum, m2, p, n)
                    with mp.workprec(exact.REF_BITS):
                        log_ref = ref1 + ref2
                    self.items.append(AuditItem(f"p={p} n={n} {kind}", msum, spec, log_ref))

    def run_op(self, item):
        m = item.msum
        fresh = MotiveData(m.type, m.period, m.local, m.bad_primes, label=m.label)
        return experiments.invariance_experiment(fresh, item.spec)

    def check(self, item, rep):
        p, n, w = item.spec.p, item.spec.exponent, item.msum.weight
        scalar = rep.base_height.lattice_scalar
        with mp.workprec(exact.REF_BITS):
            h_ref = -(mp.log(mpf(scalar.numerator)) - mp.log(scalar.denominator)) \
                - item.log_ref
        ok = (rep.passed
              and rep.lattice_ratio == Fraction(p) ** (n * rep.s_u)
              and Fraction(rep.betti_index) ** w == Fraction(p) ** (2 * n * rep.t_u)
              and exact.ball_contains(rep.base_height.h.mid, rep.base_height.h.rad, h_ref)
              and exact.ball_contains(rep.sub_height.h.mid, rep.sub_height.h.rad, h_ref))
        bits = min(certified_bits(rep.base_height.h.rad),
                   certified_bits(rep.sub_height.h.rad))
        return ok, bits

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (CurvesCli, HodgeNarrow, HodgeWide, InvarianceAudit)}
