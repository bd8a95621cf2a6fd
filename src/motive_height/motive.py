"""Z-motives over Q presented by realization data, and their heights.

A motive datum is a Hodge type (weight plus graded dimensions over a window
[a, b)), an invertible certified period matrix expressing the de Rham
reference basis in Betti coordinates, per-prime integral data (a filtered
phi-module or an explicit valuation override; absent primes are good with
trivial valuations), and bad-reduction flags.

The de Rham reference basis is required to be adapted to the filtration:
reference vectors are ordered by increasing level, M^r_dR is spanned by the
trailing vectors of level >= r, and the reference generator of each
determinant line det(M_dR / M^r_dR) is the wedge of the leading vectors.
The height is the Arakelov degree of the line

    L(M) = tensor_r (det gr^r M_dR)^{x r}

whose integral structure comes from the windowed product of the per-prime
determinant lattices and whose metric comes from the Hodge construction
transported through the period matrix: h(M) = -log |e| for e a generator
of the integral structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence, Union

from .balls import ComplexBall, RealBall, ball_matrix, rational_ball_mul
from . import fl as fl_mod
from .fl import FilPhiModule, LocalLatticeSpec, standard_module
from .hodge import HodgeStructure, line_metric, purity_check
from .lines import Lattice, MetrizedLine, intersect_adelic
from .rational import QMatrix, WriteOnce, is_prime, prime_factors, vp


class WeightMismatch(ValueError):
    pass


class WindowMismatch(ValueError):
    pass


class DegeneratePeriods(ValueError):
    """The two periods are proportional over R: no lattice in C."""


class InvalidMotive(ValueError):
    def __init__(self, issues):
        super().__init__("; ".join(issues))
        self.issues = list(issues)


@dataclass(frozen=True)
class MotiveType:
    """Shape datum: weight w and graded dimensions h(r) over a window."""

    weight: int
    hodge_numbers: tuple[tuple[int, int], ...]  # sorted (r, h(r) > 0)
    window: tuple[int, int]

    @classmethod
    def of(cls, weight: int, hodge_numbers: Mapping[int, int],
           window: tuple[int, int] | None = None) -> "MotiveType":
        hs = tuple(sorted((int(r), int(h)) for r, h in hodge_numbers.items() if h))
        if any(h < 0 for _, h in hs):
            raise ValueError("negative Hodge number")
        if window is None:
            if not hs:
                raise ValueError("empty type needs an explicit window")
            window = (hs[0][0], hs[-1][0] + 1)
        a, b = int(window[0]), int(window[1])
        if a > b:
            raise ValueError("window must satisfy a <= b")
        if any(not a <= r < b for r, _ in hs):
            raise ValueError(f"Hodge numbers escape the window [{a}, {b})")
        return cls(int(weight), hs, (a, b))

    @property
    def rank(self) -> int:
        return sum(h for _, h in self.hodge_numbers)

    def h(self, r: int) -> int:
        return dict(self.hodge_numbers).get(r, 0)

    def levels(self) -> list[int]:
        out = []
        for r, h in self.hodge_numbers:
            out.extend([r] * h)
        return out

    def filtration_dim(self, r: int) -> int:
        return sum(h for i, h in self.hodge_numbers if i >= r)

    def twist(self, r: int) -> "MotiveType":
        a, b = self.window
        return MotiveType.of(self.weight - 2 * r,
                             {i - r: h for i, h in self.hodge_numbers},
                             (a - r, b - r))


LocalDatum = Union[FilPhiModule, LocalLatticeSpec]


class MotiveData(WriteOnce):
    """Full realization datum of a Z-motive over Q."""

    __slots__ = ("type", "period", "local", "bad_primes", "label", "_cache")

    def __init__(self, type: MotiveType, period, local: Mapping[int, LocalDatum] | None = None,
                 bad_primes: Sequence[int] = (), label: str = "M"):
        put = object.__setattr__
        put(self, "type", type)
        put(self, "period", ball_matrix(period))
        put(self, "local", MappingProxyType(
            dict(sorted((int(p), d) for p, d in (local or {}).items()))))
        put(self, "bad_primes", frozenset(int(p) for p in bad_primes))
        put(self, "label", label)
        put(self, "_cache", {})

    @property
    def rank(self) -> int:
        return self.type.rank

    @property
    def weight(self) -> int:
        return self.type.weight

    @property
    def window(self) -> tuple[int, int]:
        return self.type.window

    def hodge_structure(self) -> HodgeStructure:
        if "hodge" not in self._cache:
            self._cache["hodge"] = HodgeStructure(
                self.weight, self.type.levels(), self.period)
        return self._cache["hodge"]

    def local_spec(self, p: int) -> LocalLatticeSpec:
        """The valuation data at p, computing it from FL data if needed."""
        key = ("spec", p)
        if key not in self._cache:
            datum = self.local.get(p)
            if datum is None:
                self._cache[key] = LocalLatticeSpec.default_good(p, self.window)
            elif isinstance(datum, LocalLatticeSpec):
                self._cache[key] = datum
            else:
                self._cache[key] = fl_mod.local_valuations(datum)
        return self._cache[key]

    def __repr__(self):
        return f"MotiveData({self.label!r}, w={self.weight}, rank={self.rank})"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    ok: bool
    issues: list[str] = field(default_factory=list)


def validate(m: MotiveData) -> ValidationReport:
    """Check every structural invariant; all other operations require ok."""
    if "validation" in m._cache:
        return m._cache["validation"]
    issues: list[str] = []
    n = m.rank
    a, b = m.window
    if len(m.period) != n or any(len(row) != n for row in m.period):
        issues.append(f"period matrix must be {n}x{n}")
        report = ValidationReport(False, issues)
        m._cache["validation"] = report
        return report

    if n:
        # PrecisionExhausted propagates: "cannot tell at this precision" is
        # a different verdict from "invalid"
        rep = purity_check(m.hodge_structure())
        if not rep.ok:
            issues.append("induced Hodge structure is not pure: "
                          + "; ".join(rep.messages))

    levels = tuple(m.type.levels())
    for p, datum in m.local.items():
        where = f"local datum at p={p}"
        if not is_prime(p):
            issues.append(f"{where}: not a prime")
            continue
        if isinstance(datum, LocalLatticeSpec):
            if datum.p != p:
                issues.append(f"{where}: spec claims p={datum.p}")
            if datum.window != (a, b):
                issues.append(f"{where}: window {datum.window} differs from "
                              f"the motive's ({a}, {b})")
            continue
        if datum.p != p:
            issues.append(f"{where}: module claims p={datum.p}")
        if datum.n != n:
            issues.append(f"{where}: rank {datum.n} != {n}")
            continue
        if datum.window != (a, b):
            issues.append(f"{where}: window {datum.window} differs from "
                          f"the motive's ({a}, {b})")
            continue
        if datum.levels != levels:
            for r in range(a, b):
                want = m.type.filtration_dim(r)
                got = datum.filtration_rank(r)
                if got != want:
                    issues.append(f"{where}: rank D^{r} = {got}, expected {want}")
        try:
            m.local_spec(p)  # decides strong divisibility
        except ValueError as exc:
            issues.append(f"{where}: {exc}")

    for p in sorted(m.bad_primes):
        if not isinstance(m.local.get(p), LocalLatticeSpec):
            issues.append(
                f"bad prime {p} carries no explicit valuation override; "
                f"integral structures at bad primes are never inferred")

    report = ValidationReport(not issues, issues)
    m._cache["validation"] = report
    return report


def _require_valid(m: MotiveData) -> None:
    report = validate(m)
    if not report.ok:
        raise InvalidMotive(report.issues)


# ---------------------------------------------------------------------------
# lattices, line, height
# ---------------------------------------------------------------------------

def global_lattice(m: MotiveData, r: int) -> Fraction:
    """Generator of the rank-one global lattice L_r(M)_Z relative to the
    reference generator of det(M_dR / M^r_dR): the product over p of
    p^{v_p(r)} with v from the local data (default zero)."""
    _require_valid(m)
    return intersect_adelic({p: m.local_spec(p).value(r) for p in m.local})


def _window_for(m: MotiveData, window) -> tuple[int, int]:
    if window is None:
        return m.window
    a, b = int(window[0]), int(window[1])
    ma, mb = m.window
    if a > ma or b < mb:
        raise WindowMismatch(
            f"window ({a}, {b}) does not contain the Hodge support [{ma}, {mb})")
    return (a, b)


def _height_line(m: MotiveData, a: int, b: int):
    """L(M) over the window [a, b] and its nonzero (p, r, v_p(r)), from one
    read of each prime's valuations.  The lattice scalar is
    L_b^{b-1} / prod_{a<r<b} L_r, so its exponent at p is
    (b - 1) v_p(b) - sum_{a<r<b} v_p(r)."""
    exponents, contributions = {}, []
    for p in m.local:
        spec = m.local_spec(p)
        values = [spec.value(r) for r in range(a, b + 1)]
        contributions += [(p, a + i, v) for i, v in enumerate(values) if v]
        exponents[p] = (b - 1) * values[-1] - sum(values[1:-1])
    metric = line_metric(m.hodge_structure(), 1) if m.rank else RealBall.one()
    line = MetrizedLine(f"L({m.label})", intersect_adelic(exponents), metric)
    return line, tuple(contributions)


def assemble_height_line(m: MotiveData, window=None) -> MetrizedLine:
    """The metrized line L(M) with its windowed integral structure."""
    _require_valid(m)
    return _height_line(m, *_window_for(m, window))[0]


@dataclass
class HeightReport:
    label: str
    window: tuple[int, int]
    h: RealBall
    multiplicative: RealBall  # H(M) = |e|^{-1}
    metric: RealBall          # |e| for e the integral generator
    lattice_scalar: Fraction
    per_prime: tuple[tuple[int, int, int], ...]  # nonzero (p, r, v)
    warnings: tuple[str, ...] = ()


def height(m: MotiveData, window=None) -> HeightReport:
    """Logarithmic height h(M) = -log |e|, e a generator of L(M)_Z."""
    _require_valid(m)
    a, b = _window_for(m, window)
    line, contributions = _height_line(m, a, b)
    norm = line.generator_norm()
    h_ball = -(norm.log())
    mult = RealBall.one() / norm
    warnings = ()
    if window is not None and (a, b) != m.window:
        warnings = (f"window overridden to ({a}, {b})",)
    return HeightReport(m.label, (a, b), h_ball, mult, norm,
                        line.lattice_scalar, contributions, warnings)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def direct_sum(m1: MotiveData, m2: MotiveData) -> MotiveData:
    """Block direct sum; requires equal weight and window.  Local data are
    combined per prime, default-good data filling the gaps."""
    if m1.weight != m2.weight:
        raise WeightMismatch(f"{m1.weight} != {m2.weight}")
    if m1.window != m2.window:
        raise WindowMismatch(f"{m1.window} != {m2.window}")
    _require_valid(m1)
    _require_valid(m2)
    a, b = m1.window
    levels1, levels2 = m1.type.levels(), m2.type.levels()
    order = fl_mod.merge_by_level(levels1, levels2)
    n = len(order)
    sides = (m1, m2)
    period = [[ComplexBall.zero()] * n for _ in range(n)]
    for i_new, (si, i_old) in enumerate(order):
        for j_new, (sj, j_old) in enumerate(order):
            if si == sj:
                period[i_new][j_new] = sides[si].period[i_old][j_old]
    numbers: dict[int, int] = {}
    for r, h in m1.type.hodge_numbers + m2.type.hodge_numbers:
        numbers[r] = numbers.get(r, 0) + h
    mt = MotiveType.of(m1.weight, numbers, (a, b))

    local: dict[int, LocalDatum] = {}
    for p in sorted(set(m1.local) | set(m2.local)):
        d1, d2 = m1.local.get(p), m2.local.get(p)
        if isinstance(d1, LocalLatticeSpec) or isinstance(d2, LocalLatticeSpec):
            s1, s2 = m1.local_spec(p), m2.local_spec(p)
            local[p] = LocalLatticeSpec.from_map(
                p, (a, b), {r: s1.value(r) + s2.value(r) for r in range(a, b + 1)})
        else:
            f1 = d1 if d1 is not None else standard_module_for(m1.type, p)
            f2 = d2 if d2 is not None else standard_module_for(m2.type, p)
            local[p] = fl_mod.direct_sum(f1, f2)
    return MotiveData(mt, period, local,
                      bad_primes=m1.bad_primes | m2.bad_primes,
                      label=f"{m1.label} (+) {m2.label}")


def standard_module_for(t: MotiveType, p: int) -> FilPhiModule:
    """Default-good filtered module matching a type (split Frobenius)."""
    return standard_module(p, t.levels(), t.window)


def rebase_reference(m: MotiveData, r_mat: QMatrix) -> MotiveData:
    """Change the de Rham reference basis by an adapted rational matrix.

    The period matrix picks up r_mat on the right, filtered modules are
    conjugated, and every prime where the determinant of a quotient block of
    r_mat is not a unit gets an explicit valuation override (the old
    implicit "reference = integral basis" assertion is re-expressed in the
    new coordinates).  h(M) is invariant under this operation.
    """
    _require_valid(m)
    n = m.rank
    levels = m.type.levels()
    if r_mat.rows != n or r_mat.cols != n or r_mat.det() == 0:
        raise ValueError("rebasing matrix must be square invertible")
    for i in range(n):
        for j in range(n):
            if r_mat[i, j] != 0 and levels[i] < levels[j]:
                raise ValueError("rebasing matrix is not adapted to the filtration")
    a, b = m.window
    quot_det = {}
    for r in range(a, b + 1):
        k = m.type.filtration_dim(r)
        lead = n - k
        block = QMatrix([[r_mat[i, j] for j in range(lead)] for i in range(lead)])
        quot_det[r] = block.det() if lead else Fraction(1)
    touched: set[int] = set()
    for d in quot_det.values():
        touched |= prime_factors(d.numerator) | prime_factors(d.denominator)
    r_inv = r_mat.inverse()
    local: dict[int, LocalDatum] = {}
    for p in sorted(set(m.local) | touched):
        datum = m.local.get(p)
        if isinstance(datum, FilPhiModule):
            # r_inv is adapted too: it keeps each trailing span, so
            # r_inv D ∩ span = r_inv (D ∩ span) and the levels stay
            local[p] = FilPhiModule(
                p, Lattice(r_inv @ datum.lattice.basis),
                r_inv @ datum.phi @ r_mat, datum.levels, (a, b))
        else:
            spec = m.local_spec(p)
            local[p] = LocalLatticeSpec.from_map(
                p, (a, b),
                {r: spec.value(r) - vp(quot_det[r], p) for r in range(a, b + 1)})
    period = rational_ball_mul(m.period, r_mat.data)
    return MotiveData(m.type, period, local, m.bad_primes,
                      label=f"{m.label}~rebased")


def tate_twist(m: MotiveData, r: int) -> MotiveData:
    """Twist by the r-th power of the Tate object: levels shift by -r,
    the period rescales by (2 pi i)^{-r}, local data twist accordingly."""
    _require_valid(m)
    r = int(r)
    if r == 0:
        return m
    factor = ComplexBall.tpi_power(-r)
    period = [[x * factor for x in row] for row in m.period]
    a, b = m.window
    local: dict[int, LocalDatum] = {}
    for p, datum in m.local.items():
        if isinstance(datum, LocalLatticeSpec):
            local[p] = LocalLatticeSpec.from_map(
                p, (a - r, b - r),
                {i - r: datum.value(i) for i in range(a, b + 1)},
                provenance=datum.provenance)
        else:
            local[p] = fl_mod.tate_twist(datum, r)
    return MotiveData(m.type.twist(r), period, local, m.bad_primes,
                      label=f"{m.label}({r})")


def tate_motive(r: int, fl_primes: Sequence[int] = ()) -> MotiveData:
    """The Tate object Q(r): rank 1, weight -2r, single graded piece at -r,
    period (2 pi i)^{-r}.  Optionally attach explicit filtered modules at
    the given primes (they compute the same trivial valuations as the
    default)."""
    r = int(r)
    t = MotiveType.of(-2 * r, {-r: 1})
    period = [[ComplexBall.tpi_power(-r)]]
    local = {p: standard_module(p, [-r]) for p in fl_primes}
    return MotiveData(t, period, local, label=f"Q({r})")


def elliptic_curve_h1(omega1: ComplexBall, omega2: ComplexBall,
                      ap: Mapping[int, int] | None = None,
                      bad: Mapping[int, Mapping[int, int] | LocalLatticeSpec] | None = None,
                      label: str = "E") -> MotiveData:
    """H_1 of an elliptic curve over Q from its period lattice.

    ``omega1, omega2`` are the periods of the Neron differential on a basis
    of H_1(E(C), Z).  Convention: the de Rham reference basis is (v, u) with
    v of level -1 mapping to the Neron generator of Lie(E) (so v = gamma_1 /
    omega1 under the uniformization) and u of level 0 spanning the Hodge
    line ker(H_1 tensor C -> Lie); in Betti coordinates the period matrix is

        [ 1/omega1   omega2 ]
        [    0      -omega1 ]

    Good primes listed in ``ap`` carry a filtered module with Frobenius
    [[a_p/p, 1], [-1/p, 0]] (characteristic polynomial x^2 - (a_p/p) x + 1/p;
    the H^1-normalized Frobenius p phi has eigenvalue product p) on the
    standard lattice; strong divisibility holds for every integer a_p.  Bad
    primes must come with explicit valuation overrides; the standard choice
    {} (all zero) asserts that the reference basis is a basis of the
    Neron-model cohomology at p.
    """
    im = (omega1.conj() * omega2).im
    if im.contains_zero():
        raise DegeneratePeriods(
            "Im(conj(omega1) * omega2) cannot be certified nonzero")
    t = MotiveType.of(-1, {-1: 1, 0: 1})
    period = [[ComplexBall.one() / omega1, omega2],
              [ComplexBall.zero(), -omega1]]
    local: dict[int, LocalDatum] = {}
    for p, a_p in sorted((ap or {}).items()):
        local[p] = elliptic_fl_module(p, a_p)
    bad = bad or {}
    for p, override in sorted(bad.items()):
        if isinstance(override, LocalLatticeSpec):
            local[p] = override
        else:
            local[p] = LocalLatticeSpec.from_map(p, (-1, 1), override)
    return MotiveData(t, period, local, bad_primes=sorted(bad), label=label)


def elliptic_fl_module(p: int, a_p: int) -> FilPhiModule:
    """Good-reduction filtered module of H_1 at p with trace a_p."""
    phi = QMatrix([[Fraction(a_p, p), 1], [Fraction(-1, p), 0]])
    return FilPhiModule(p, Lattice.standard(2), phi, (-1, 0), (-1, 1))
