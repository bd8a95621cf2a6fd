"""Verifiable identities and conjecture bookkeeping.

Three families of checks live here.  The s = t identity ties the graded
dimensions of a pure type to its weight (s = sum_r r h(r) against
t = w n / 2); a failure flags data that cannot come from a pure motive.
The sublattice construction replaces the integral data by the kernel of a
surjection onto a quotient modulo p^n, and the invariance experiment
verifies the resulting exact identities: the integral line rescales by
exactly p^{n s(U)}, the Betti lattice index accounts for the metric change,
and the height is unchanged.  This triple of assertions is the strongest
internal audit that the local integral structure really is the determinant
of the lattice quotients.  Kernels and preimages of lattices come from
one Hermite form (``rational.integer_kernel``); ranks, saturation and
equality at p come from one set of Smith divisors.  Finally, the conductor-style quantity
n(M) = sum log p over bad primes is tabulated next to heights; no
inequality between them is asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .balls import RealBall, rational_ball_mul
from .fl import FilPhiModule
from .lines import Lattice
from .motive import HeightReport, MotiveData, MotiveType, height, validate
from .rational import QMatrix, integer_kernel, smith_normal_form, vp_int


class IncompatibleSpec(ValueError):
    """The declared quotient data fail a compatibility requirement."""


class StrongDivisibilityLost(ValueError):
    """The sublattice construction produced a non-strongly-divisible module:
    the quotient spec is inconsistent with the Frobenius."""


# ---------------------------------------------------------------------------
# s and t
# ---------------------------------------------------------------------------

def _type_of(m: Union[MotiveData, MotiveType]) -> MotiveType:
    return m.type if isinstance(m, MotiveData) else m


def s_invariant(m: Union[MotiveData, MotiveType]) -> int:
    """sum_r r * h(r): the total filtration slope of the type."""
    t = _type_of(m)
    return sum(r * h for r, h in t.hodge_numbers)


def t_invariant(m: Union[MotiveData, MotiveType]) -> Fraction:
    """w * rank / 2."""
    t = _type_of(m)
    return Fraction(t.weight * t.rank, 2)


@dataclass
class STReport:
    s: int
    t: Fraction
    defect: Fraction

    @property
    def passed(self) -> bool:
        return self.defect == 0


def check_s_equals_t(m: Union[MotiveData, MotiveType]) -> STReport:
    """Pass iff s = t; the defect s - t is reported.  Works on the type
    alone, so deliberately broken data can be diagnosed without passing
    full validation."""
    s, t = s_invariant(m), t_invariant(m)
    return STReport(s, t, s - t)


# ---------------------------------------------------------------------------
# quotient specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuotientSpec:
    """Surjection of the p-adic realization onto a rank-k quotient.

    q_dr acts on coordinates with respect to the (canonical) basis of the
    lattice D at p; q_betti acts on the standard Betti coordinates.  The
    declared quotient carries its own Frobenius and filtration on Z^k.
    ``exponent`` is the default p-power depth n.
    """

    p: int
    k: int
    q_dr: QMatrix
    q_betti: QMatrix
    phi_u: QMatrix
    filtration_u: tuple[tuple[int, QMatrix], ...]  # interior steps (i, basis)
    exponent: int = 1

    def u_filtration_matrix(self, i: int, window: tuple[int, int]) -> QMatrix:
        a, b = window
        if i <= a:
            return QMatrix.identity(self.k)
        if i >= b:
            return QMatrix.zeros(self.k, 0)
        return dict(self.filtration_u)[i]

    def u_rank(self, i: int, window: tuple[int, int]) -> int:
        return self.u_filtration_matrix(i, window).cols

    def s_of_quotient(self, window: tuple[int, int]) -> int:
        a, b = window
        return sum(r * (self.u_rank(r, window) - self.u_rank(r + 1, window))
                   for r in range(a, b))

    def t_of_quotient(self, weight: int) -> Fraction:
        return Fraction(weight * self.k, 2)


def full_quotient_spec(m: MotiveData, p: int, exponent: int = 1) -> QuotientSpec:
    """The identity surjection T_p -> T_p as a quotient spec."""
    fl = m.local.get(p)
    if not isinstance(fl, FilPhiModule):
        raise IncompatibleSpec(f"no filtered module at p={p}")
    n = m.rank
    binv = fl.lattice.basis_inverse()
    a, b = m.window
    fil_u = tuple((i, binv @ fl.filtration_matrix(i)) for i in range(a + 1, b))
    return QuotientSpec(p, n, QMatrix.identity(n), QMatrix.identity(n),
                        fl.phi_in_basis(), fil_u, exponent)


def _rank_and_index(m: QMatrix, p: int) -> tuple[int, int]:
    """(rank, v_p-index) of the lattice L spanned by the columns of m: the
    count of nonzero Smith divisors of den * m, and v_p of their product less
    rank * v_p(den), which is v_p of the (rational) index of L in the
    saturated QL cap Z^k.  A lattice inside another of the same rank and
    v_p-index equals it at p."""
    nonzero = [d for d in smith_normal_form(m.numerators()) if d]
    return len(nonzero), sum(vp_int(d, p) for d in nonzero) - len(nonzero) * vp_int(m.den, p)


def validate_spec(m: MotiveData, spec: QuotientSpec) -> None:
    """Raise IncompatibleSpec unless all declared compatibilities hold.

    The lattice conditions are decided exactly.  The period condition is
    decided on balls and fails only when the data certify that it fails."""
    rep = validate(m)
    if not rep.ok:
        raise IncompatibleSpec("motive itself is invalid: " + "; ".join(rep.issues))
    p, k, n = spec.p, spec.k, m.rank
    fl = m.local.get(p)
    if not isinstance(fl, FilPhiModule):
        raise IncompatibleSpec(f"no filtered module at p={p}")
    a, b = m.window
    if spec.q_dr.rows != k or spec.q_dr.cols != n:
        raise IncompatibleSpec("q_dr shape mismatch")
    if spec.q_betti.rows != k or spec.q_betti.cols != n:
        raise IncompatibleSpec("q_betti shape mismatch")
    if not spec.q_dr.is_integer() or not spec.q_betti.is_integer():
        raise IncompatibleSpec("quotient maps must be integer matrices")
    if k == 0:
        return
    if list(smith_normal_form(spec.q_betti)[:k]) != [1] * k:
        raise IncompatibleSpec("q_betti is not surjective")
    # k <= n now, so q_dr has k Smith divisors; onto at p iff all are units
    if any(d % p == 0 for d in smith_normal_form(spec.q_dr)):
        raise IncompatibleSpec("q_dr is not surjective at p")
    # Frobenius compatibility in D-coordinates, exactly
    if spec.phi_u @ spec.q_dr != spec.q_dr @ fl.phi_in_basis():
        raise IncompatibleSpec("phi_U does not intertwine q_dr with phi")
    # filtration: q maps D^i onto U^i at p, and U^i is saturated
    binv = fl.lattice.basis_inverse()
    for i in range(a + 1, b):
        u_i = dict(spec.filtration_u).get(i)
        if u_i is None:
            raise IncompatibleSpec(f"U^{i} is not declared")
        if not u_i.is_integer():
            raise IncompatibleSpec(f"U^{i} must be an integer sublattice")
        u_read = _rank_and_index(u_i, p)
        if u_read[0] != u_i.cols:
            raise IncompatibleSpec(f"U^{i} has dependent columns: its "
                                   f"{u_i.cols} columns span rank {u_read[0]}")
        if u_read[1]:
            raise IncompatibleSpec(f"U^{i} is not saturated at p")
        # image and U^i are equal at p iff both have the rank and index of
        # their sum
        image = spec.q_dr @ (binv @ fl.filtration_matrix(i))
        if not _rank_and_index(image, p) == u_read == _rank_and_index(image.hstack(u_i), p):
            raise IncompatibleSpec(f"q(D^{i}) differs from U^{i} at p")
    if k == n:
        return
    # Betti/de Rham kernels through the period matrix: P ker(q_dr) and
    # ker(q_betti) both have rank n - k and det P != 0 (validate), so they
    # agree iff Z = q_betti P K_d vanishes
    k_d = fl.lattice.basis @ integer_kernel(spec.q_dr)      # dR coordinates
    z = rational_ball_mul(spec.q_betti.data, rational_ball_mul(m.period, k_d.data))
    if not all(x.contains_zero() for row in z for x in row):
        raise IncompatibleSpec(
            "Betti and de Rham kernels disagree through the period matrix")


# ---------------------------------------------------------------------------
# the sublattice construction
# ---------------------------------------------------------------------------

def _preimage(a: QMatrix, target: QMatrix) -> QMatrix:
    """Basis of { x in Z^cols : a x in the lattice spanned by target }: the
    top block of the integer kernel of [a | -target]."""
    return integer_kernel(a.hstack(target.scale(-1))).block(slice(a.cols))


def kernel_mod(a: QMatrix, modulus: int) -> QMatrix:
    """Basis of { c in Z^cols : a c = 0 mod modulus } (a integer)."""
    return _preimage(a, QMatrix.identity(a.rows).scale(modulus))


def sublattice_motive(m: MotiveData, spec: QuotientSpec,
                      n: Optional[int] = None) -> MotiveData:
    """The motive with integral data replaced by ker(T -> U/p^n U).

    Same rational data and periods; the filtered module at p shrinks to the
    declared kernels, the Betti lattice shrinks to ker(q_betti mod p^n) and
    the period matrix is rewritten in a basis of the new lattice.
    """
    n_exp = spec.exponent if n is None else int(n)
    if n_exp < 0:
        raise ValueError("exponent must be nonnegative")
    validate_spec(m, spec)
    if n_exp == 0 or spec.k == 0:
        return m
    p = spec.p
    q = p ** n_exp
    fl = m.local[p]
    a, b = m.window

    kd = kernel_mod(spec.q_dr, q)                     # D-coordinates
    new_lattice = Lattice(fl.lattice.basis @ kd)      # ambient
    binv = fl.lattice.basis_inverse()
    new_fil = {}
    for i in range(a + 1, b):
        fil_i = fl.filtration_matrix(i)
        w_map = spec.q_dr @ (binv @ fil_i)            # k x k_i, p-integral
        new_fil[i] = fil_i @ _preimage(w_map, spec.u_filtration_matrix(i, (a, b)).scale(q))
    try:
        new_fl = FilPhiModule(p, new_lattice, fl.phi, new_fil, (a, b))
    except ValueError as exc:
        raise StrongDivisibilityLost(f"kernel module is malformed: {exc}")

    kb_inv = kernel_mod(spec.q_betti, q).inverse()
    period = rational_ball_mul(kb_inv.data, m.period)
    local = dict(m.local)
    local[p] = new_fl
    sub = MotiveData(m.type, period, local, m.bad_primes,
                     label=f"{m.label}^({n_exp})")
    try:
        sub.local_spec(p)  # decides strong divisibility, once
    except ValueError as exc:
        raise StrongDivisibilityLost(
            "kernel lattice is not strongly divisible: the quotient spec is "
            "inconsistent with the Frobenius") from exc
    return sub


# ---------------------------------------------------------------------------
# the invariance experiment
# ---------------------------------------------------------------------------

@dataclass
class InvarianceReport:
    label: str
    p: int
    exponent: int
    s_u: int
    t_u: Fraction
    lattice_ratio: Fraction
    lattice_ratio_expected: Fraction
    lattice_identity_ok: bool
    betti_index: int
    betti_identity_ok: bool
    base_height: HeightReport
    sub_height: HeightReport
    heights_match: bool
    messages: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (self.lattice_identity_ok and self.betti_identity_ok
                and self.heights_match)


def invariance_experiment(m: MotiveData, spec: QuotientSpec,
                          n: Optional[int] = None) -> InvarianceReport:
    """Audit h(M^(n)) = h(M) and its two exact lattice identities."""
    n_exp = spec.exponent if n is None else int(n)
    sub = sublattice_motive(m, spec, n_exp)
    a, b = m.window
    s_u = spec.s_of_quotient((a, b))
    t_u = spec.t_of_quotient(m.weight)

    base_h = height(m)
    sub_h = height(sub)
    ratio = sub_h.lattice_scalar / base_h.lattice_scalar
    expected = Fraction(spec.p) ** (n_exp * s_u)
    lattice_ok = ratio == expected

    if n_exp == 0 or spec.k == 0:
        betti_index = 1
    else:
        kb = kernel_mod(spec.q_betti, spec.p ** n_exp)
        betti_index = abs(int(kb.det()))
    w = m.weight
    betti_ok = Fraction(betti_index) ** w == Fraction(spec.p) ** (2 * n_exp * t_u)
    match = base_h.h.overlaps(sub_h.h)

    messages = []
    if not lattice_ok:
        messages.append(f"lattice ratio {ratio} != p^(n s(U)) = {expected}")
    if not betti_ok:
        messages.append(f"index {betti_index}^w != p^(2 n t(U))")
    if not match:
        messages.append("heights differ beyond combined radii")
    return InvarianceReport(m.label, spec.p, n_exp, s_u, t_u, ratio, expected,
                            lattice_ok, betti_index, betti_ok, base_h, sub_h,
                            match, messages)


# ---------------------------------------------------------------------------
# conductor-style bookkeeping
# ---------------------------------------------------------------------------

def n_of_m(m: MotiveData) -> RealBall:
    """sum of log p over flagged bad-reduction primes (all residue norms are
    the primes themselves over Q)."""
    total = RealBall.zero()
    for p in sorted(m.bad_primes):
        total = total + RealBall(p).log()
    return total


ABC_HEADER = ("# over Q: log|D_K| = 0, [K:Q] = 1; no inequality asserted\n"
              "id\ta\tb\th_mid\th_rad\tn_of_M")


@dataclass
class AbcRow:
    label: str
    window: tuple[int, int]
    h: RealBall
    n_of_m: RealBall

    def render(self) -> str:
        """One tab-separated line of the table, as ``height --format rows``
        and ``batch`` print it."""
        from mpmath import nstr
        a, b = self.window
        return "\t".join([self.label, str(a), str(b), nstr(self.h.mid, 25),
                          nstr(self.h.rad, 3), nstr(self.n_of_m.mid, 25)])


@dataclass
class AbcReport:
    """Height-vs-conductor table over Q: log |D_K| = 0 and [K:Q] = 1, so the
    columns are directly comparable across rows.  Nothing is asserted about
    any inequality between them."""

    rows: list[AbcRow]

    def render(self) -> str:
        return "\n".join([ABC_HEADER] + [row.render() for row in self.rows])


def abc_report(batch: Sequence[MotiveData]) -> AbcReport:
    rows = []
    for m in batch:
        rep = height(m)
        rows.append(AbcRow(m.label, rep.window, rep.h, n_of_m(m)))
    return AbcReport(rows)
