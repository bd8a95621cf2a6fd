"""Fontaine-Laffaille filtered phi-modules at a prime p.

A module here is a full-rank lattice D in the ambient Q^n (coordinates are
the de Rham reference basis at p, adapted to the filtration: the subspace
spanned by a filtration step is a span of trailing standard basis vectors),
an invertible rational Frobenius matrix, and steps D^i over a window [a, b)
of length at most p - 1, with D^a = D, D^b = 0 and each D^i equal to
D ∩ span(D^i) at p.  D is kept in Hermite form, lower triangular, and every
p-local index below is read off that one basis.

The lattice identity D = sum_i p^{-i} phi D^i (strong divisibility) is
checked, never assumed, by ``local_valuations``: in D's Hermite basis it is
a valuation test on the entries of phi and on det phi.  The local integral
structure it induces on the determinant line of each quotient
D_dR / D^r_dR is reported as a single p-adic valuation per r, measured
against the reference basis of the quotient; the two cohomology-style
invariants (the fixed lattice of phi in D^0 and the cokernel of 1 - phi)
are exposed as diagnostics so the determinant bookkeeping can be audited
independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .lines import Lattice
from .rational import (
    QMatrix,
    diagonal_valuations,
    integer_kernel,
    is_prime,
    smith_normal_form,
    vp,
    vp_int,
)


class WindowTooWide(ValueError):
    """Filtration window longer than p - 1: the construction does not apply."""


class FilPhiModule:
    """Filtered phi-module (D, phi, (D^i)) at p.

    Construction checks the shape: p prime, a window of length at most
    p - 1, phi invertible, and each D^i adapted, of non-increasing rank and
    equal to D ∩ span(D^i) at p.  Strong divisibility is not checked here:
    ``local_valuations`` decides it, once per prime of a motive, and
    ``motive.validate`` reaches it through ``MotiveData.local_spec``.
    """

    __slots__ = ("p", "n", "lattice", "phi", "phi_det", "window", "_fil", "_phi_d")

    def __init__(self, p: int, lattice: Lattice, phi: QMatrix,
                 filtration: Mapping[int, QMatrix], window: tuple[int, int]):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        a, b = int(window[0]), int(window[1])
        if not a < b:
            raise ValueError("empty filtration window")
        if b - a > p - 1:
            raise WindowTooWide(
                f"window length {b - a} exceeds p - 1 = {p - 1} at p = {p}")
        self.p = p
        self.n = lattice.n
        self.lattice = lattice
        self.phi = phi
        self._phi_d = None
        self.window = (a, b)
        if phi.rows != self.n or phi.cols != self.n:
            raise ValueError("phi shape mismatch")
        self.phi_det = phi.det()
        if self.phi_det == 0:
            raise ValueError("phi must be invertible")
        self._fil = {}
        for i, m in filtration.items():
            i = int(i)
            if i <= a or i >= b:
                self._check_boundary(i, m)
                continue
            self._fil[i] = m if isinstance(m, QMatrix) else QMatrix(m)
        for i in range(a + 1, b):
            if i not in self._fil:
                raise ValueError(f"missing filtration step D^{i}")
        self._validate_filtration()

    def _check_boundary(self, i, m):
        m = m if isinstance(m, QMatrix) else QMatrix(m)
        a, b = self.window
        if i <= a and m.cols != self.n:
            raise ValueError(f"D^{i} must be all of D")
        if i >= b and m.cols != 0:
            raise ValueError(f"D^{i} must vanish")

    def _validate_filtration(self):
        p, n = self.p, self.n
        basis = self.lattice.basis
        prev_rank = n
        for i in range(self.window[0] + 1, self.window[1]):
            m = self._fil[i]
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
            # D ∩ span(D^i) at p is spanned by the last k Hermite columns of
            # D: their bottom block T must carry the bottom rows of D^i by a
            # p-integral X with det X a p-unit (the steps then nest)
            bottom = slice(n - k, None)
            x = basis.block(bottom, bottom).solve(m.block(bottom))
            d = x.det()
            if not (x.is_p_integral(p) and d and vp(d, p) == 0):
                raise ValueError(
                    f"D^{i} is not D ∩ span of the last {k} reference "
                    f"coordinates at p = {p}")
            prev_rank = k

    # ---- accessors ----

    def filtration_matrix(self, i: int) -> QMatrix:
        a, b = self.window
        if i <= a:
            return self.lattice.basis
        if i >= b:
            return QMatrix.zeros(self.n, 0)
        return self._fil[i]

    def phi_in_basis(self) -> QMatrix:
        """phi_D = B^-1 phi B, phi in D's Hermite basis B; computed on first
        use and kept."""
        if self._phi_d is None:
            basis = self.lattice.basis
            self._phi_d = basis.solve(self.phi @ basis)
        return self._phi_d

    def filtration_rank(self, i: int) -> int:
        return self.filtration_matrix(i).cols

    def coordinate_levels(self) -> list[int]:
        """Level of each ambient coordinate under the adapted convention."""
        a, b = self.window
        out = []
        for j in range(self.n):
            level = a
            for i in range(a + 1, b):
                if j >= self.n - self.filtration_rank(i):
                    level = i
            out.append(level)
        return out

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
    p, levels = m.p, m.coordinate_levels()
    phi_d = m.phi_in_basis()
    # with phi_D = num / den: p^(l_j + v_p(den)) divides column j of num
    v_den = vp_int(phi_d.den, p)
    moduli = [p ** max(level + v_den, 0) for level in levels]
    ok = vp(m.phi_det, p) == sum(levels) and all(
        x % q == 0 for row in phi_d.num for x, q in zip(row, moduli))
    return StrongDivisibilityReport(ok, module=m)


def tate_twist(m: FilPhiModule, r: int) -> FilPhiModule:
    """Twist: filtration shifts by r, phi scales by p^{-r}; D and the lattice
    sum_i p^{-i} phi D^i are unchanged, so strong divisibility is m's."""
    r = int(r)
    a, b = m.window
    fil = {i - r: m.filtration_matrix(i) for i in range(a + 1, b)}
    return FilPhiModule(m.p, m.lattice, m.phi.scale(Fraction(1, m.p) ** r),
                        fil, (a - r, b - r))


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
    coords = m.lattice.basis.solve(image)
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
    onto the first n - rank D^r coordinates: the leading block of D's
    lower-triangular Hermite basis.
    """
    report = check_strong_divisibility(m)
    if not report.ok:
        raise ValueError(f"strong divisibility fails "
                         f"(lattice sum has basis {report.witness.basis.data})")
    a, b = m.window
    diag = diagonal_valuations(m.lattice.basis, m.p)
    values = {r: sum(diag[:m.n - m.filtration_rank(r)]) for r in range(a, b + 1)}
    return LocalLatticeSpec(m.p, (a, b), tuple(sorted(values.items())),
                            "computed-from-FL")


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


def _embed_columns(cols: Sequence[Sequence], side: int, order, n: int):
    out = []
    for c in cols:
        full = [Fraction(0)] * n
        for new_i, (s, old_i) in enumerate(order):
            if s == side:
                full[new_i] = c[old_i]
        out.append(full)
    return out


def direct_sum(m1: FilPhiModule, m2: FilPhiModule) -> FilPhiModule:
    """Block direct sum with coordinates re-interleaved by level."""
    if m1.p != m2.p:
        raise ValueError("direct sum requires a common prime")
    if m1.window != m2.window:
        raise ValueError("direct sum requires a common window")
    order = merge_by_level(m1.coordinate_levels(), m2.coordinate_levels())
    n = m1.n + m2.n
    sides = (m1, m2)
    lat_cols = _embed_columns(m1.lattice.basis.columns(), 0, order, n) + \
        _embed_columns(m2.lattice.basis.columns(), 1, order, n)
    lattice = Lattice(QMatrix.from_columns(lat_cols, rows=n))
    phi = [[Fraction(0)] * n for _ in range(n)]
    for i_new, (si, i_old) in enumerate(order):
        for j_new, (sj, j_old) in enumerate(order):
            if si == sj:
                phi[i_new][j_new] = sides[si].phi[i_old, j_old]
    a, b = m1.window
    fil = {}
    for i in range(a + 1, b):
        cols = _embed_columns(m1.filtration_matrix(i).columns(), 0, order, n) + \
            _embed_columns(m2.filtration_matrix(i).columns(), 1, order, n)
        fil[i] = QMatrix.from_columns(cols, rows=n)
    return FilPhiModule(m1.p, lattice, QMatrix(phi), fil, m1.window)


def standard_module(p: int, levels: Sequence[int]) -> FilPhiModule:
    """The split default-good module: standard lattice, adapted standard
    filtration, phi = diag(p^level)."""
    levels = [int(l) for l in levels]
    if any(levels[i] > levels[i + 1] for i in range(len(levels) - 1)):
        raise ValueError("levels must be weakly increasing")
    n = len(levels)
    a, b = min(levels), max(levels) + 1
    phi = QMatrix([[Fraction(p) ** levels[j] if i == j else 0
                    for j in range(n)] for i in range(n)])
    fil = {}
    for i in range(a + 1, b):
        cols = [[1 if t == j else 0 for t in range(n)]
                for j in range(n) if levels[j] >= i]
        fil[i] = QMatrix.from_columns(cols, rows=n)
    return FilPhiModule(p, Lattice.standard(n), phi, fil, (a, b))
