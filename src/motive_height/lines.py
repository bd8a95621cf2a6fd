"""Lattices in Q^n, adelic intersections, and metrized determinant lines.

A full-rank lattice is stored as the canonical Hermite form of any matrix
of generators, so equality is plain comparison.  One-dimensional integral
structures are a positive rational multiple of a reference generator; the
archimedean side is a certified ball attached to the same reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .balls import RealBall
from .rational import QMatrix, diagonal_valuations, hnf_rational, is_prime


class NotSublattice(ValueError):
    """The claimed inner lattice is not contained in the outer one at p."""


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


def intersect_adelic(v: Mapping[int, int]) -> Fraction:
    """Positive rational generator of the global lattice with local
    valuation v[p] at every prime p (the intersection of Q with the given
    adelic lattice inside the finite adeles); absent primes have v = 0."""
    q = Fraction(1)
    for p, e in v.items():
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e:
            q *= Fraction(p) ** e
    return q


@dataclass(frozen=True)
class MetrizedLine:
    """One-dimensional Q-vector space with reference generator ``label``,
    integral structure lattice = lattice_scalar * Z * ref, and the certified
    metric value |ref|."""

    label: str
    lattice_scalar: Fraction
    metric_ref: RealBall

    def __post_init__(self):
        if self.lattice_scalar <= 0:
            raise ValueError("lattice_scalar must be positive")

    def generator_norm(self) -> RealBall:
        """|e| for e = lattice_scalar * ref, the Z-basis of the lattice."""
        return RealBall(self.lattice_scalar) * self.metric_ref


def line_tensor(factors: Sequence[tuple[MetrizedLine, int]]) -> MetrizedLine:
    """Tensor product of metrized lines with integer exponents: lattice
    scalars multiply as q_i^{e_i}, metrics likewise with ball propagation."""
    scalar = Fraction(1)
    metric = RealBall.one()
    parts = []
    for line, e in factors:
        e = int(e)
        if e == 0:
            continue
        scalar *= line.lattice_scalar ** e
        metric = metric * line.metric_ref ** e
        parts.append(f"({line.label})^{e}" if e != 1 else f"({line.label})")
    label = " ⊗ ".join(parts) if parts else "1"
    return MetrizedLine(label, scalar, metric)
