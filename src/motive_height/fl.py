"""Fontaine-Laffaille filtered phi-modules at a prime p.

A module here is a full-rank lattice D in the ambient Q^n (coordinates are
the de Rham reference basis at p, adapted to the filtration: the subspace
spanned by a filtration step is a span of trailing standard basis vectors),
an invertible rational Frobenius matrix, and a nested chain of saturated
sub-lattices D^i over a window [a, b) of length at most p - 1, with
D^a = D and D^b = 0.

The lattice identity D = sum_i p^{-i} phi D^i (strong divisibility) is
checked, never assumed.  The local integral structure it induces on the
determinant line of each quotient D_dR / D^r_dR is reported as a single
p-adic valuation per r, measured against the reference basis of the
quotient; the two cohomology-style invariants (the fixed lattice of phi in
D^0 and the cokernel of 1 - phi) are exposed as diagnostics so the
determinant bookkeeping can be audited independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .lines import Lattice, NotSublattice
from .rational import (
    QMatrix,
    hnf_rational,
    integer_kernel,
    is_p_integral,
    is_prime,
    smith_normal_form,
    vp,
    vp_int,
)


class WindowTooWide(ValueError):
    """Filtration window longer than p - 1: the construction does not apply."""


class FilPhiModule:
    """Filtered phi-module (D, phi, (D^i)) at p; validated on construction."""

    __slots__ = ("p", "n", "lattice", "phi", "window", "_fil")

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
        self.window = (a, b)
        if phi.rows != self.n or phi.cols != self.n:
            raise ValueError("phi shape mismatch")
        if phi.det() == 0:
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
        p = self.p
        prev = self.lattice.basis
        prev_rank = self.n
        for i in range(self.window[0] + 1, self.window[1]):
            m = self._fil[i]
            if m.rows != self.n:
                raise ValueError(f"D^{i} has wrong ambient dimension")
            k = m.cols
            if k > prev_rank:
                raise ValueError(f"filtration ranks increase at step {i}")
            if k == 0:
                prev, prev_rank = m, 0
                continue
            if m.rank() != k:
                raise ValueError(f"D^{i} basis is not independent")
            # adapted span: only the trailing k coordinates may appear
            for row in range(self.n - k):
                if any(m[row, j] != 0 for j in range(k)):
                    raise ValueError(
                        f"D^{i} is not adapted: spans more than the last {k} "
                        f"reference coordinates")
            # nested in the previous step, p-locally
            if prev_rank and not _contained_at_p(prev, m, p):
                raise NotSublattice(f"D^{i} escapes D^{i - 1} at p = {p}")
            # saturated in D at p
            dcoords = _coords_in(self.lattice.basis, m)
            if dcoords is None or not _all_p_integral(dcoords, p):
                raise NotSublattice(f"D^{i} is not contained in D at p = {p}")
            if not _saturated_at_p(dcoords, p):
                raise ValueError(f"D^{i} is not saturated in D at p = {p}")
            prev, prev_rank = m, k

    # ---- accessors ----

    def filtration_matrix(self, i: int) -> QMatrix:
        a, b = self.window
        if i <= a:
            return self.lattice.basis
        if i >= b:
            return QMatrix.zeros(self.n, 0)
        return self._fil[i]

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


def _coords_in(basis_matrix: QMatrix, cols: QMatrix) -> Optional[QMatrix]:
    """Coordinates of ``cols`` in the (possibly non-square) basis matrix."""
    k = basis_matrix.cols
    if k == basis_matrix.rows:
        return basis_matrix.solve(cols)
    gram = basis_matrix.transpose() @ basis_matrix
    rhs = basis_matrix.transpose() @ cols
    coords = gram.solve(rhs)
    if basis_matrix @ coords == cols:
        return coords
    return None


def _all_p_integral(m: QMatrix, p: int) -> bool:
    return all(is_p_integral(x, p) for row in m.data for x in row)


def _contained_at_p(basis_matrix: QMatrix, cols: QMatrix, p: int) -> bool:
    """``cols`` lie in the lattice spanned by ``basis_matrix``, localized at p."""
    coords = _coords_in(basis_matrix, cols)
    return coords is not None and _all_p_integral(coords, p)


def _saturated_at_p(coords: QMatrix, p: int) -> bool:
    """The p-integral columns ``coords`` span a sublattice saturated at p: no
    nonzero Smith divisor is divisible by p."""
    divisors, _, _ = smith_normal_form(coords.scale(coords.denominator_lcm()))
    return not any(d and d % p == 0 for d in divisors)


# ---------------------------------------------------------------------------
# strong divisibility
# ---------------------------------------------------------------------------

@dataclass
class StrongDivisibilityReport:
    ok: bool
    witness: Lattice  # the lattice sum_i p^{-i} phi D^i


def check_strong_divisibility(m: FilPhiModule) -> StrongDivisibilityReport:
    """Decide whether sum_i p^{-i} phi D^i equals D after localization at p."""
    a, b = m.window
    p = m.p
    pieces = []
    for i in range(a, b):
        fil = m.filtration_matrix(i)
        if fil.cols:
            pieces.append((m.phi @ fil).scale(Fraction(1, p) ** i))
    gens = pieces[0]
    for extra in pieces[1:]:
        gens = gens.hstack(extra)
    basis = hnf_rational(gens)
    witness = Lattice(basis)
    coords = m.lattice.basis.solve(witness.basis)
    ok = _all_p_integral(coords, p) and vp(coords.det(), p) == 0
    return StrongDivisibilityReport(ok, witness)


def tate_twist(m: FilPhiModule, r: int) -> FilPhiModule:
    """Twist: filtration shifts by r, phi scales by p^{-r}; D is unchanged."""
    r = int(r)
    a, b = m.window
    fil = {i - r: m.filtration_matrix(i) for i in range(a + 1, b)}
    twisted = FilPhiModule(m.p, m.lattice, m.phi.scale(Fraction(1, m.p) ** r),
                           fil, (a - r, b - r))
    if not check_strong_divisibility(twisted).ok:
        raise ValueError("strong divisibility lost under Tate twist")
    return twisted


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
    if not _all_p_integral(coords, p):
        raise ValueError("(1 - phi) D^0 escapes D at p: inconsistent module")
    scale = coords.denominator_lcm()
    if scale % p == 0:
        raise AssertionError("denominator lcm not prime to p")
    divisors, _, _ = smith_normal_form(coords.scale(scale))
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
    v: tuple[tuple[int, int], ...]  # sorted (r, valuation) pairs on [a, b]
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
        r = min(max(r, a), b)  # stabilized outside the window
        return dict(self.v)[r]

    def is_trivial(self) -> bool:
        return all(e == 0 for _, e in self.v)


def local_valuations(m: FilPhiModule, window: tuple[int, int] | None = None) -> LocalLatticeSpec:
    """Valuations v(r) = v_p(det(D / D^r)) against the reference quotient basis.

    Requires strong divisibility (checked here); the quotient is taken by
    dropping the trailing adapted coordinates spanned by D^r.
    """
    report = check_strong_divisibility(m)
    if not report.ok:
        raise ValueError("strong divisibility fails; no integral structure")
    a, b = window if window is not None else m.window
    if (a, b) != m.window:
        ma, mb = m.window
        if not (a <= ma and mb <= b):
            raise ValueError(f"window ({a}, {b}) does not contain the module's")
    values = {}
    for r in range(a, b + 1):
        values[r] = _quotient_valuation(m, r)
    return LocalLatticeSpec(m.p, (a, b), tuple(sorted(values.items())),
                            "computed-from-FL")


def _quotient_valuation(m: FilPhiModule, r: int) -> int:
    k = m.filtration_rank(r)
    keep = m.n - k
    if keep == 0:
        return 0
    projected = QMatrix([m.lattice.basis.data[i] for i in range(keep)])
    return vp(hnf_rational(projected).det(), m.p)


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
