"""Lattices in Q^n, adelic valuation data, and metrized determinant lines.

A full-rank lattice is stored as the canonical Hermite form of any matrix
of generators, so equality is plain comparison.  One-dimensional integral
structures are a positive rational multiple of a reference generator; the
archimedean side is a certified ball attached to the same reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .balls import RealBall
from .rational import QMatrix, diagonal_valuations, hnf_rational, is_prime


class NotSublattice(ValueError):
    """The claimed inner lattice is not contained in the outer one at p."""


class MissingMetric(ValueError):
    """A metric was requested from a line with no archimedean data attached."""


class Lattice:
    """Full-rank lattice in Q^n: the column Hermite form of its generators."""

    __slots__ = ("n", "basis", "_inverse")

    def __init__(self, generators: QMatrix):
        """Any n x m generator matrix of rank n; its Hermite form has one
        column per unit of rank, so a rank deficit shows as missing columns."""
        self.basis = hnf_rational(generators)
        self.n = generators.rows
        if self.basis.cols != self.n:
            raise ValueError("lattice basis is singular")
        self._inverse = None

    def basis_inverse(self) -> QMatrix:
        """basis^-1, which takes ambient coordinates to coordinates in the
        basis; computed on first use and kept."""
        if self._inverse is None:
            self._inverse = self.basis.inverse()
        return self._inverse

    @classmethod
    def standard(cls, n: int) -> "Lattice":
        return cls(QMatrix.identity(n))

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"Lattice({self.basis!r})"

    def scale(self, c) -> "Lattice":
        return Lattice(self.basis.scale(c))


def quotient_lattice_valuation(outer: Lattice, inner: Lattice, p: int) -> int:
    """v_p of the index [outer : inner] after localization at p.

    Requires inner to be a sublattice of outer at p (the change-of-basis
    matrix must be p-integral); raises NotSublattice otherwise.  Both
    Hermite bases are lower triangular, so the index is the ratio of their
    diagonals.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if outer.n != inner.n:
        raise ValueError("ambient dimension mismatch")
    if not outer.basis.solve(inner.basis).is_p_integral(p):
        raise NotSublattice(f"inner lattice escapes the outer one at p={p}")
    return sum(diagonal_valuations(inner.basis, p)) - sum(diagonal_valuations(outer.basis, p))


class ValuationMap:
    """Finitely supported map prime -> integer exponent (zero entries dropped)."""

    __slots__ = ("_v",)

    def __init__(self, entries: Mapping[int, int] | None = None):
        v = {}
        for p, e in (entries or {}).items():
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            e = int(e)
            if e:
                v[int(p)] = e
        self._v = dict(sorted(v.items()))

    def __getitem__(self, p: int) -> int:
        return self._v.get(p, 0)

    def items(self):
        return self._v.items()

    def support(self):
        return tuple(self._v)

    def __eq__(self, other):
        return isinstance(other, ValuationMap) and self._v == other._v

    def __add__(self, other: "ValuationMap") -> "ValuationMap":
        merged = dict(self._v)
        for p, e in other.items():
            merged[p] = merged.get(p, 0) + e
        return ValuationMap(merged)

    def __repr__(self):
        return f"ValuationMap({self._v})"


def intersect_adelic(v: ValuationMap) -> Fraction:
    """Positive rational generator of the global lattice with local
    valuation v(p) at every prime p (the intersection of Q with the given
    adelic lattice inside the finite adeles)."""
    q = Fraction(1)
    for p, e in v.items():
        q *= Fraction(p) ** e
    return q


@dataclass(frozen=True)
class MetrizedLine:
    """One-dimensional Q-vector space with reference generator ``label``,
    integral structure lattice = lattice_scalar * Z * ref, and (optionally)
    a certified metric value |ref|."""

    label: str
    lattice_scalar: Fraction
    metric_ref: Optional[RealBall] = None

    def __post_init__(self):
        if self.lattice_scalar <= 0:
            raise ValueError("lattice_scalar must be positive")

    def metric(self) -> RealBall:
        if self.metric_ref is None:
            raise MissingMetric(f"line {self.label!r} carries no metric")
        return self.metric_ref

    def has_metric(self) -> bool:
        return self.metric_ref is not None

    def generator_norm(self) -> RealBall:
        """|e| for e = lattice_scalar * ref, the Z-basis of the lattice."""
        return RealBall(self.lattice_scalar) * self.metric()


def line_tensor(factors: Sequence[tuple[MetrizedLine, int]]) -> MetrizedLine:
    """Tensor product of metrized lines with integer exponents.

    lattice scalars multiply as q_i^{e_i}; metrics likewise with ball
    propagation.  If any factor with nonzero exponent lacks a metric the
    result carries none (querying it raises MissingMetric).
    """
    scalar = Fraction(1)
    metric: Optional[RealBall] = RealBall.one()
    parts = []
    for line, e in factors:
        e = int(e)
        if e == 0:
            continue
        scalar *= line.lattice_scalar ** e
        parts.append(f"({line.label})^{e}" if e != 1 else f"({line.label})")
        if metric is not None:
            if line.has_metric():
                metric = metric * line.metric() ** e
            else:
                metric = None
    label = " ⊗ ".join(parts) if parts else "1"
    return MetrizedLine(label, scalar, metric)
