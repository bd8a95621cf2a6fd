"""Pure Hodge structures and the canonical metric on their determinant line.

A weight-w pure structure here is the integral lattice Z^n (implicit
standard basis) together with a descending filtration F on C^n.  The
filtration is stored through an *adapted basis*: an invertible complex
matrix P whose j-th column carries an integer level l(j), weakly increasing
in j, with F^r spanned by the columns of level >= r.  The level-r columns
double as the reference generators of the graded piece gr^r = F^r/F^{r+1};
the metric of any element of the determinant line

    L(H) = tensor_r (det gr^r)^{x r}

is measured against the tensor product of these reference wedges.

Everything is read off the opposition determinants

    D_r = det[ F^r columns | conj(F^{w+1-r}) columns ],   a <= r < b,

for the level window [a, b) (D_a = det P).  The filtration is pure of
weight w exactly when F^r and conj(F^{w+1-r}) are opposed (Deligne,
Theorie de Hodge II, 1.2): dim F^r + dim F^{w+1-r} = n for every r, an
integer test, and every D_r is nonzero.  Writing L(H) as the telescoping
(det H)^{x a} (x) tensor_{a<r<b} det F^r and pairing each det F^r with
conj(det F^{w+1-r}) gives the metric of the reference generator in closed
form,

    |ref| = |det P|^a * prod_{a<r<b} |D_r|^{1/2}.

Each |D_r|^2 is an integer interval read off the pivot norms of a ball
elimination, so the metric needs one pair of integer fourth roots.  The
dimension test at r = a and r = b forces a + b = w + 1, so r -> w + 1 - r
pairs the interior levels, and |D_{w+1-r}| = |D_r|: conjugation is an exact
sign flip, so [conj F^r | F^{w+1-r}] is entrywise the conjugate of D_r's
matrix, and swapping its column blocks gives D_{w+1-r}'s.  Only the D_r
with r <= w + 1 - r are computed, all from one elimination per structure
and precision, because the filtration is nested: with P's columns ordered
by descending level each F^r is a prefix, the conjugate columns are carried
beside them, and D_r branches off after dim F^r pivot steps by the Schur
complement identity

    det[A | B] = +- (the pivots of A's steps) * det S_B,

S_B the rows of B that the prefix steps leave below A's pivots.  The main
line ends in det P.  The basis is read into the elimination's integer form
once per structure.  A D_r whose branch meets a pivot that is not certified
nonzero is eliminated on its own, and only that elimination can lead to
the verdicts below.  A D_r is zero only by the exact test, when some pivot
of its own elimination is not certified nonzero and every entry is known
exactly (an exact ball, or a Gaussian rational times a power of 2 pi i); an
exactly vanishing D_r means the structure is not pure.  Otherwise the working
precision cannot tell: PrecisionExhausted is raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Sequence

from .balls import (
    BallMatrix,
    ComplexBall,
    PrecisionExhausted,
    RealBall,
    ZeroVector,
    ball_lu_solve,
    ball_matrix,
    ball_parts,
    conj_parts,
    current_bits,
    det_norm2,
)
from .fl import merge_by_level
from .rational import QMatrix, WriteOnce


class HodgeStructure(WriteOnce):
    """Integral lattice Z^n with a level-adapted complex Hodge filtration."""

    __slots__ = ("n", "weight", "levels", "basis", "_cache")

    def __init__(self, weight: int, levels: Sequence[int], basis: BallMatrix):
        put = object.__setattr__
        put(self, "weight", int(weight))
        put(self, "levels", tuple(int(l) for l in levels))
        put(self, "basis", ball_matrix(basis))
        put(self, "n", len(self.levels))
        put(self, "_cache", {})
        if any(self.levels[i] > self.levels[i + 1] for i in range(self.n - 1)):
            raise ValueError("column levels must be weakly increasing")
        if len(self.basis) != self.n or any(len(r) != self.n for r in self.basis):
            raise ValueError("adapted basis must be square of size n")

    # ---- shape ----

    def window(self) -> tuple[int, int]:
        return (min(self.levels), max(self.levels) + 1) if self.n else (0, 0)

    def dims(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for l in self.levels:
            out[l] = out.get(l, 0) + 1
        return out

    def filtration_dim(self, r: int) -> int:
        return sum(1 for l in self.levels if l >= r)

    def filtration_columns(self, r: int) -> list[tuple]:
        return [tuple(self.basis[i][j] for i in range(self.n))
                for j, l in enumerate(self.levels) if l >= r]

    def __repr__(self):
        return f"HodgeStructure(w={self.weight}, levels={self.levels})"


# ---------------------------------------------------------------------------
# the opposition determinants
# ---------------------------------------------------------------------------

def _opposition_matrix(h: HodgeStructure, r: int) -> BallMatrix:
    """[F^r | conj F^{w+1-r}]; square once the dimension test has passed."""
    cols = h.filtration_columns(r) + [
        tuple(x.conj() for x in c) for c in h.filtration_columns(h.weight + 1 - r)]
    return tuple(tuple(c[i] for c in cols) for i in range(h.n))


def _exactly_singular(m: BallMatrix) -> bool:
    """True when every entry is known exactly and det m is exactly zero.

    Exact entries are Laurent polynomials in t = 2 pi i over Q(i), so det m
    is one too, of degree span at most n (kmax - kmin).  As t is
    transcendental, det m = 0 exactly when that polynomial vanishes
    identically, which it does iff it vanishes at the integers
    1 .. n (kmax - kmin) + 1.  Each value is a determinant over Q(i), and
    det (A + iB) = 0 iff the rational det [[A, -B], [B, A]] = |det|^2 is.
    """
    values = [[x.exact_value() for x in row] for row in m]
    if any(v is None for row in values for v in row):
        return False
    powers = [k for row in values for v in row for k in v] or [0]
    span = len(m) * (max(powers) - min(powers))
    for t in range(1, span + 2):
        re, im = ([[sum(c[part] * Fraction(t) ** k for k, c in v.items()) for v in row]
                   for row in values] for part in (0, 1))
        real_form = QMatrix([a + [-y for y in b] for a, b in zip(re, im)]
                            + [b + a for a, b in zip(re, im)])
        if real_form.det() != 0:
            return False
    return True


def _opposition_dets(h: HodgeStructure) -> dict[int, tuple[int, int, int] | None]:
    """|D_r|^2 by ``det_norm2`` for a <= r < b, cached per precision; None is
    an exactly vanishing D_r.  Requires the dimension test of ``purity_check``.

    The basis is read into the elimination's integer form once per
    structure.  One elimination runs along P's columns by descending level,
    carrying the conjugate columns, and reads each D_r with r <= w + 1 - r
    off its branch after dim F^r steps; its mirror has the same modulus (see
    the module docstring).  A D_r whose branch has a pivot that is not
    certified is eliminated on its own, and then decided exactly."""
    key = ("dets", current_bits())
    if key not in h._cache:
        if "parts" not in h._cache:
            h._cache["parts"] = ball_parts(h.basis)
        parts, (lo, hi), w, n = h._cache["parts"], h.window(), h.weight, h.n
        dims = {r: h.filtration_dim(r) for r in range(lo, hi) if 2 * r <= w + 1}
        order = sorted(range(n), key=lambda j: -h.levels[j])  # each F^r a prefix
        carried = order[:n - min(dims.values(), default=n)]
        shared = det_norm2(tuple(tuple(row[j] for j in order)
                                 + tuple(conj_parts(row[j]) for j in carried)
                                 for row in parts), set(dims.values()))
        dets = {}
        for r in range(lo, hi):
            if r in dims:
                dets[r] = shared[dims[r]] or _own_det(h, r)
            else:
                dets[r] = dets[w + 1 - r]
        h._cache[key] = dets
    return h._cache[key]


def _own_det(h: HodgeStructure, r: int) -> tuple[int, int, int] | None:
    """|D_r|^2 from D_r's own elimination, None when D_r vanishes exactly."""
    own, mirror = h.n - h.filtration_dim(r), h.n - h.filtration_dim(h.weight + 1 - r)
    try:
        return det_norm2(tuple(row[own:] + tuple(map(conj_parts, row[mirror:]))
                               for row in h._cache["parts"]))
    except PrecisionExhausted:
        if not _exactly_singular(_opposition_matrix(h, r)):
            raise PrecisionExhausted(
                f"D_{r} = det[F^{r} | conj F^{h.weight + 1 - r}] cannot be "
                f"certified nonzero at {current_bits()} bits") from None
        return None


# ---------------------------------------------------------------------------
# purity and decomposition
# ---------------------------------------------------------------------------

@dataclass
class PurityReport:
    ok: bool
    dims: dict[int, int]
    messages: list[str] = field(default_factory=list)


def purity_check(h: HodgeStructure) -> PurityReport:
    """Decide whether F is a pure weight-w Hodge filtration.

    First the exact test dim F^r + dim F^{w+1-r} = n (for a <= r <= b, which
    covers every r), then D_r != 0 for a <= r < b.  Raises PrecisionExhausted
    when a D_r can neither be certified nonzero nor shown to vanish exactly.
    """
    messages = _impurity(h)
    return PurityReport(not messages, h.dims(), list(messages) if h.n else ["rank zero: vacuous"])


def _impurity(h: HodgeStructure) -> tuple[str, ...]:
    """Why F is not pure (nothing when it is), decided once per precision."""
    key = ("purity", current_bits())
    if key not in h._cache:
        lo, hi = h.window()
        w = h.weight
        messages = []
        for r in range(lo, hi + 1):
            total = h.filtration_dim(r) + h.filtration_dim(w + 1 - r)
            if total != h.n:
                messages.append(f"dim F^{r} + dim F^{w + 1 - r} = {total}, expected {h.n}")
        if not messages:
            for r, d in _opposition_dets(h).items():
                if d is None:
                    messages.append("the adapted basis is singular" if r == lo else
                                    f"F^{r} meets conj F^{w + 1 - r}: D_{r} = 0")
        h._cache[key] = tuple(messages)
    return h._cache[key]


def _require_pure(h: HodgeStructure) -> None:
    if _impurity(h):
        raise ValueError(f"not a pure Hodge structure: {list(_impurity(h))}")


@dataclass
class _Piece:
    """Basis of one H^{r,w-r}."""
    r: int
    columns: list


@dataclass
class HodgeDecomposition:
    weight: int
    pieces: dict[int, _Piece]

    def dims(self) -> dict[int, int]:
        return {r: len(p.columns) for r, p in self.pieces.items() if p.columns}


def hodge_decompose(h: HodgeStructure) -> HodgeDecomposition:
    """Bases of the pieces H^{r,w-r} = F^r  intersect  conj(F^{w-r}).

    For r < b - 1, C^n = F^{r+1} (+) conj(F^{w-r}) because D_{r+1} != 0, so
    projecting the level-r columns onto conj(F^{w-r}) along F^{r+1} gives a
    basis of H^{r,w-r}: one ball solve against the D_{r+1} matrix.  The top
    piece is F^{b-1} itself.  Requires purity.
    """
    _require_pure(h)
    lo, hi = h.window()
    pieces: dict[int, _Piece] = {}
    for r in range(lo, hi):
        refs = [tuple(h.basis[i][j] for i in range(h.n))
                for j, l in enumerate(h.levels) if l == r]
        if r == hi - 1 or not refs:
            pieces[r] = _Piece(r, refs)
            continue
        m = _opposition_matrix(h, r + 1)
        k = h.filtration_dim(r + 1)
        coords = ball_lu_solve(m, tuple(tuple(c[i] for c in refs) for i in range(h.n)))
        pieces[r] = _Piece(r, [
            tuple(sum((coords[t][j] * m[i][t] for t in range(k, h.n)),
                      start=ComplexBall.zero())
                  for i in range(h.n))
            for j in range(len(refs))])
    return HodgeDecomposition(h.weight, pieces)


# ---------------------------------------------------------------------------
# the metric
# ---------------------------------------------------------------------------

def line_metric(h: HodgeStructure,
                target: int | Fraction | RealBall | ComplexBall = 1) -> RealBall:
    """Canonical metric of an element of L(H) = tensor_r (det gr^r)^{x r}.

    ``target`` is a scalar c, meaning c times the tensor of the gr^r
    reference wedges.  Returns |c| * |det P|^a * prod_{a<r<b} |D_r|^{1/2} as a
    ball from the floor and the ceiling of the fourth roots of the ends of one
    integer interval for |c|^4 |D_a|^{4a} prod |D_r|^2, an int or Fraction c
    taken exactly; a ball c multiplies the metric of 1.
    """
    if not isinstance(target, (int, Fraction)):
        z = target if isinstance(target, ComplexBall) else ComplexBall(target)
        if z.contains_zero():
            raise ZeroVector("target vanishes")
        return z.abs_ball() * line_metric(h)
    if not target:
        raise ZeroVector("target vanishes")
    c = Fraction(target)
    _require_pure(h)
    a, _ = h.window()
    # |metric|^4 lies in [num[0] / den[1], num[1] / den[0]] 2^e
    num, den, e = [c.numerator ** 4] * 2, [c.denominator ** 4] * 2, 0
    for r, (lo, hi, ex) in _opposition_dets(h).items():
        k = 2 * a if r == a else 1
        side = num if k >= 0 else den
        side[0], side[1], e = side[0] * lo ** abs(k), side[1] * hi ** abs(k), e + k * ex
    # roots of current_bits() + 64 bits, more than a ball's mantissa: ulp 2^-t
    t = current_bits() + 64 - ((num[1].bit_length() - den[0].bit_length() + e) >> 2)
    s = 4 * t + e
    low = (num[0] << s) // den[1] if s >= 0 else num[0] // (den[1] << -s)
    high = -(-(num[1] << s) // den[0]) if s >= 0 else -(-num[1] // (den[0] << -s))
    root_lo, root_hi = isqrt(isqrt(low)), isqrt(isqrt(high))
    root_hi += root_hi ** 4 < high
    half_ulp = Fraction(2) ** (-t - 1)
    return RealBall((root_lo + root_hi) * half_ulp, (root_hi - root_lo) * half_ulp)


def direct_sum(a: HodgeStructure, b: HodgeStructure) -> HodgeStructure:
    """Block direct sum, columns re-interleaved so levels stay sorted
    (a's columns precede b's within each level), as fl.merge_by_level orders
    the p-adic direct sum."""
    if a.weight != b.weight:
        raise ValueError("direct sum requires equal weights")
    n = a.n + b.n
    cols, levels = [], []
    for side, j in merge_by_level(a.levels, b.levels):
        src, offset = (a, 0) if side == 0 else (b, a.n)
        col = [ComplexBall.zero()] * n
        for i in range(src.n):
            col[offset + i] = src.basis[i][j]
        cols.append(col)
        levels.append(src.levels[j])
    basis = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    return HodgeStructure(a.weight, levels, basis)
