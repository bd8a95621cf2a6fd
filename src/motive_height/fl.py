"""Fontaine-Laffaille filtered phi-modules at a prime p.

A module here is a full-rank lattice D in the ambient Q^n (coordinates are
the de Rham reference basis at p, adapted to the filtration: the subspace
spanned by a filtration step is a span of trailing standard basis vectors),
an invertible rational Frobenius matrix, and a weakly increasing level per
coordinate inside a window [a, b) of length at most p - 1.  D is kept in
Hermite form, lower triangular, so the step D^i = D ∩ span of the
coordinates of level >= i is spanned by the last rank D^i columns of that
basis: the levels are the whole filtration, and every p-local index below
is read off the one basis.

The constructor keeps phi_D = B^-1 phi B (B that basis, one product and
one forward substitution, ``QMatrix.solve_lower``) and det phi, and checks
each declared step D^i from B^-1 D^i.  The lattice identity
D = sum_i p^{-i} phi D^i (strong divisibility) is checked, never assumed,
by ``local_valuations``: a valuation test on the kept phi_D and det phi
that builds no further matrix.  The local integral
structure it induces on the determinant line of each quotient
D_dR / D^r_dR is reported as a single p-adic valuation per r, measured
against the reference basis of the quotient; the two cohomology-style
invariants (the fixed lattice of phi in D^0 and the cokernel of 1 - phi)
are exposed as diagnostics so the determinant bookkeeping can be audited
independently.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .lines import Lattice
from .rational import (
    QMatrix,
    WriteOnce,
    diagonal_valuations,
    integer_kernel,
    is_prime,
    smith_normal_form,
    vp,
    vp_int,
)


class WindowTooWide(ValueError):
    """Filtration window longer than p - 1: the construction does not apply."""


class FilPhiModule(WriteOnce):
    """Filtered phi-module (D, phi, levels) at p.

    ``filtration`` is either the declared steps {i: D^i}, or the level of
    each coordinate as a sequence.  Declared steps must be adapted, of
    non-increasing rank and equal to D ∩ span(D^i) at p; they are then
    reduced to levels.  Levels get shape checks only.  Construction also
    checks that p is prime and the window has length at most p - 1, and
    keeps phi in D's Hermite basis B, ``phi_d`` = B^-1 phi B, and
    ``phi_det`` = det phi = det phi_D, which must not vanish.  Strong
    divisibility is not checked here: ``local_valuations`` decides it, once
    per prime of a motive, and ``motive.validate`` reaches it through
    ``MotiveData.local_spec``.
    """

    __slots__ = ("p", "n", "lattice", "phi", "phi_d", "phi_det", "window", "levels")

    def __init__(self, p: int, lattice: Lattice, phi: QMatrix,
                 filtration: Mapping[int, QMatrix] | Sequence[int],
                 window: tuple[int, int]):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        a, b = int(window[0]), int(window[1])
        if not a < b:
            raise ValueError("empty filtration window")
        if b - a > p - 1:
            raise WindowTooWide(
                f"window length {b - a} exceeds p - 1 = {p - 1} at p = {p}")
        put = object.__setattr__
        put(self, "p", p)
        put(self, "n", lattice.n)
        put(self, "lattice", lattice)
        put(self, "phi", phi)
        put(self, "window", (a, b))
        if phi.rows != self.n or phi.cols != self.n:
            raise ValueError("phi shape mismatch")
        basis = lattice.basis
        put(self, "phi_d", basis.solve_lower(phi @ basis))
        put(self, "phi_det", self.phi_d.det())
        if self.phi_det == 0:
            raise ValueError("phi must be invertible")
        if isinstance(filtration, Mapping):
            put(self, "levels", self._read_steps(filtration))
            return
        levels = tuple(int(l) for l in filtration)
        if len(levels) != self.n:
            raise ValueError(f"{len(levels)} levels for rank {self.n}")
        if any(x > y for x, y in zip(levels, levels[1:])):
            raise ValueError("levels must be weakly increasing")
        if any(not a <= l < b for l in levels):
            raise ValueError(f"levels escape the window [{a}, {b})")
        put(self, "levels", levels)

    def _read_steps(self, filtration: Mapping[int, QMatrix]) -> tuple[int, ...]:
        """The levels of declared steps D^i, after checking each step."""
        p, n = self.p, self.n
        a, b = self.window
        steps = {}
        for i, m in filtration.items():
            i, m = int(i), m if isinstance(m, QMatrix) else QMatrix(m)
            if i <= a and m.cols != n:
                raise ValueError(f"D^{i} must be all of D")
            if i >= b and m.cols != 0:
                raise ValueError(f"D^{i} must vanish")
            if a < i < b:
                steps[i] = m
        for i in range(a + 1, b):
            if i not in steps:
                raise ValueError(f"missing filtration step D^{i}")
        basis = self.lattice.basis
        levels, prev_rank = [], n
        for i in range(a + 1, b):
            m = steps[i]
            if m.rows != n:
                raise ValueError(f"D^{i} has wrong ambient dimension")
            k = m.cols
            if k > prev_rank:
                raise ValueError(f"filtration ranks increase at step {i}")
            # adapted span: only the trailing k coordinates may appear
            if any(any(row) for row in m.num[:n - k]):
                raise ValueError(
                    f"D^{i} is not adapted: spans more than the last {k} "
                    f"reference coordinates")
            # D ∩ span(D^i) at p is spanned by the last k Hermite columns of D:
            # the top n - k rows of B^-1 D^i vanish with those of D^i, and its
            # bottom k x k block must lie in GL_k(Z_(p)) (the steps then nest)
            x = basis.solve_lower(m)
            if not (x.is_p_integral(p) and x.block(slice(n - k, None)).det().numerator % p):
                raise ValueError(
                    f"D^{i} is not D ∩ span of the last {k} reference "
                    f"coordinates at p = {p}")
            levels += [i - 1] * (prev_rank - k)
            prev_rank = k
        return tuple(levels + [b - 1] * prev_rank)

    # ---- accessors ----

    def filtration_rank(self, i: int) -> int:
        return sum(level >= i for level in self.levels)

    def filtration_matrix(self, i: int) -> QMatrix:
        """Z-basis of D^i = D ∩ span of the coordinates of level >= i: the
        last rank D^i columns of D's Hermite basis (a declared step equals
        it at p)."""
        return self.lattice.basis.block(cols=slice(self.n - self.filtration_rank(i), None))

    def __repr__(self):
        return (f"FilPhiModule(p={self.p}, n={self.n}, "
                f"window={self.window})")


# ---------------------------------------------------------------------------
# strong divisibility
# ---------------------------------------------------------------------------

class StrongDivisibilityReport:
    """The verdict, and the lattice sum sum_i p^{-i} phi D^i as its witness.

    The verdict does not need the sum, so a report made by
    ``check_strong_divisibility`` builds it on first read of ``witness``.
    """

    __slots__ = ("ok", "_witness", "_module")

    def __init__(self, ok: bool, witness: Lattice | None = None,
                 module: FilPhiModule | None = None):
        self.ok = ok
        self._witness = witness
        self._module = module

    @property
    def witness(self) -> Lattice:
        if self._witness is None:
            m = self._module
            gens = QMatrix.zeros(m.n, 0)
            for i in range(*m.window):
                gens = gens.hstack((m.phi @ m.filtration_matrix(i))
                                   .scale(Fraction(1, m.p) ** i))
            self._witness = Lattice(gens)
        return self._witness


def check_strong_divisibility(m: FilPhiModule) -> StrongDivisibilityReport:
    """Decide whether sum_i p^{-i} phi D^i equals D after localization at p.

    At p, D^i is spanned by the Hermite columns b_j of D with level l_j >= i,
    so the sum is spanned by the p^{-l_j} phi b_j: in D's basis B, by the
    columns of phi_D diag(p^{-l_j}) with phi_D = B^{-1} phi B.  The sum is D
    iff that matrix lies in GL_n(Z_(p)): every nonzero entry of column j of
    phi_D has valuation >= l_j, and v_p(det phi) = sum_j l_j.
    """
    p, levels, phi_d = m.p, m.levels, m.phi_d
    # with phi_D = num / den: p^(l_j + v_p(den)) divides column j of num
    v_den = vp_int(phi_d.den, p)
    moduli = [p ** max(level + v_den, 0) for level in levels]
    ok = vp(m.phi_det, p) == sum(levels) and all(
        x % q == 0 for row in phi_d.num for x, q in zip(row, moduli))
    return StrongDivisibilityReport(ok, module=m)


def tate_twist(m: FilPhiModule, r: int) -> FilPhiModule:
    """Twist: levels shift by -r, phi scales by p^{-r}; D and the lattice
    sum_i p^{-i} phi D^i are unchanged, so strong divisibility is m's."""
    r = int(r)
    a, b = m.window
    return FilPhiModule(m.p, m.lattice, m.phi.scale(Fraction(1, m.p) ** r),
                        [level - r for level in m.levels], (a - r, b - r))


# ---------------------------------------------------------------------------
# cohomology-style diagnostics
# ---------------------------------------------------------------------------

def h0(m: FilPhiModule) -> QMatrix:
    """Saturated sublattice ker(1 - phi) restricted to D^0 (ambient columns)."""
    b0 = m.filtration_matrix(0)
    if b0.cols == 0:
        return QMatrix.zeros(m.n, 0)
    one_minus_phi = QMatrix.identity(m.n) - m.phi
    ker = integer_kernel(one_minus_phi @ b0)
    return b0 @ ker


def h1cf(m: FilPhiModule) -> tuple[int, tuple[int, ...]]:
    """Structure of coker(1 - phi: D^0 -> D) at p: (free rank, torsion orders).

    Torsion orders are the p-powers from the localized Smith form of the
    map written in a basis of D.
    """
    p = m.p
    b0 = m.filtration_matrix(0)
    if b0.cols == 0:
        return m.n, ()
    one_minus_phi = QMatrix.identity(m.n) - m.phi
    image = one_minus_phi @ b0
    coords = m.lattice.basis.solve_lower(image)
    if not coords.is_p_integral(p):
        raise ValueError("(1 - phi) D^0 escapes D at p: inconsistent module")
    # the denominator is a p-unit, so the numerators have the same p-torsion
    divisors = smith_normal_form(coords.numerators())
    nonzero = [d for d in divisors if d]
    free_rank = m.n - len(nonzero)
    torsion = tuple(p ** vp_int(d, p) for d in nonzero if d % p == 0)
    return free_rank, torsion


# ---------------------------------------------------------------------------
# the local integral structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalLatticeSpec:
    """Per-prime valuations of the determinant lattices L_r relative to the
    reference generator of det(M_dR / M^r_dR)."""

    p: int
    window: tuple[int, int]
    v: tuple[tuple[int, int], ...]  # (r, valuation) for r = a, a + 1, ..., b
    provenance: str  # computed-from-FL | explicit-override | default-good

    @classmethod
    def from_map(cls, p: int, window: tuple[int, int], values: Mapping[int, int],
                 provenance: str = "explicit-override") -> "LocalLatticeSpec":
        a, b = window
        filled = {r: int(values.get(r, 0)) for r in range(a, b + 1)}
        for r in values:
            if r < a or r > b:
                raise ValueError(f"override at r = {r} outside window [{a}, {b}]")
        if filled[a] != 0:
            raise ValueError(
                "v(a) must vanish: det(M_dR/M^a_dR) is the canonical trivial line")
        return cls(int(p), (a, b), tuple(sorted(filled.items())), provenance)

    @classmethod
    def default_good(cls, p: int, window: tuple[int, int]) -> "LocalLatticeSpec":
        a, b = window
        return cls(int(p), (a, b), tuple((r, 0) for r in range(a, b + 1)),
                   "default-good")

    def value(self, r: int) -> int:
        a, b = self.window
        return self.v[min(max(r, a), b) - a][1]  # stabilized outside the window


def local_valuations(m: FilPhiModule) -> LocalLatticeSpec:
    """Valuations v(r) = v_p[D / D^r : reference quotient lattice].

    This is where a module's strong divisibility is decided: without it
    there is no integral structure, and ValueError says so with the lattice
    sum as witness.  Since D^r = D ∩ span(D^r) at p, D / D^r is D projected
    onto the coordinates of level < r: the leading block of D's
    lower-triangular Hermite basis, so v(r) sums the diagonal valuations of
    those coordinates.
    """
    report = check_strong_divisibility(m)
    if not report.ok:
        raise ValueError(f"strong divisibility fails "
                         f"(lattice sum has basis {report.witness.basis.data})")
    a, b = m.window
    # the levels are sorted: v(r) is a prefix sum of the diagonal valuations
    prefix = list(accumulate(diagonal_valuations(m.lattice.basis, m.p), initial=0))
    return LocalLatticeSpec(m.p, (a, b), tuple(
        (r, prefix[bisect_left(m.levels, r)]) for r in range(a, b + 1)), "computed-from-FL")


# ---------------------------------------------------------------------------
# assembly helpers
# ---------------------------------------------------------------------------

def merge_by_level(levels_a: Sequence[int], levels_b: Sequence[int]):
    """Interleaving of two level-sorted coordinate lists, stable by side.

    Returns a list of (side, index) in the merged order; both the Hodge and
    the p-adic direct sums must use this same rule.
    """
    tagged = [(l, 0, j) for j, l in enumerate(levels_a)] + \
             [(l, 1, j) for j, l in enumerate(levels_b)]
    tagged.sort(key=lambda t: (t[0], t[1]))
    return [(side, j) for _, side, j in tagged]


def direct_sum(m1: FilPhiModule, m2: FilPhiModule) -> FilPhiModule:
    """Block direct sum with coordinates re-interleaved by level: D and phi
    are the block sums with rows and columns in the merged order, so D^i is
    the sum of the summands' steps."""
    if m1.p != m2.p:
        raise ValueError("direct sum requires a common prime")
    if m1.window != m2.window:
        raise ValueError("direct sum requires a common window")
    order = merge_by_level(m1.levels, m2.levels)

    def interleaved(*blocks: QMatrix) -> QMatrix:
        return QMatrix([[blocks[si][i, j] if si == sj else 0 for sj, j in order]
                        for si, i in order])

    levels = [(m1, m2)[side].levels[j] for side, j in order]
    return FilPhiModule(m1.p, Lattice(interleaved(m1.lattice.basis, m2.lattice.basis)),
                        interleaved(m1.phi, m2.phi), levels, m1.window)


def standard_module(p: int, levels: Sequence[int],
                    window: tuple[int, int] | None = None) -> FilPhiModule:
    """The split default-good module: standard lattice, adapted standard
    filtration, phi = diag(p^level), over ``window`` (by default the
    levels' span)."""
    levels = [int(l) for l in levels]
    n = len(levels)
    phi = QMatrix([[Fraction(p) ** levels[j] if i == j else 0
                    for j in range(n)] for i in range(n)])
    return FilPhiModule(p, Lattice.standard(n), phi, levels,
                        window or (min(levels), max(levels) + 1))
