import random
from fractions import Fraction

import pytest

from motive_height.balls import RealBall
from motive_height.lines import (
    Lattice,
    MetrizedLine,
    NotSublattice,
    intersect_adelic,
    line_tensor,
    quotient_lattice_valuation,
)
from motive_height.rational import QMatrix, hnf_rational
from conftest import random_unimodular


def test_quotient_valuation_equal_lattices():
    l = Lattice.standard(3)
    assert quotient_lattice_valuation(l, l, 5) == 0


def test_quotient_valuation_index_p():
    outer = Lattice.standard(2)
    inner = Lattice(QMatrix([[5, 0], [0, 1]]))
    assert quotient_lattice_valuation(outer, inner, 5) == 1
    assert quotient_lattice_valuation(outer, inner, 3) == 0


def test_quotient_valuation_det6():
    outer = Lattice.standard(2)
    inner = Lattice(QMatrix.from_columns([(2, 0), (1, 3)], rows=2))
    assert quotient_lattice_valuation(outer, inner, 2) == 1
    assert quotient_lattice_valuation(outer, inner, 3) == 1
    assert quotient_lattice_valuation(outer, inner, 5) == 0


def test_quotient_valuation_not_sublattice():
    outer = Lattice(QMatrix([[5, 0], [0, 1]]))
    inner = Lattice.standard(2)
    with pytest.raises(NotSublattice):
        quotient_lattice_valuation(outer, inner, 5)
    # at 3 the containment holds (1/5 is a 3-unit)
    assert quotient_lattice_valuation(outer, inner, 3) == 0


def test_quotient_valuation_basis_independent(rng):
    for _ in range(25):
        n = rng.randint(1, 4)
        outer = Lattice.standard(n)
        diag = QMatrix([[rng.choice([1, 2, 3, 4, 6]) if i == j else 0
                         for j in range(n)] for i in range(n)])
        inner = Lattice(diag)
        base = quotient_lattice_valuation(outer, inner, 2)
        u, v = random_unimodular(rng, n), random_unimodular(rng, n)
        outer2 = Lattice(outer.basis @ u)
        inner2 = Lattice(inner.basis @ v)
        assert quotient_lattice_valuation(outer2, inner2, 2) == base


def test_intersect_adelic_skips_zeros_and_rejects_non_primes():
    assert intersect_adelic({2: 0, 5: 0}) == 1
    assert intersect_adelic({2: 3, 5: 0, 7: -1}) == Fraction(8, 7)
    for v in ({4: 1}, {4: 0}, {1: 2}, {2: 1, 9: -1}):
        with pytest.raises(ValueError, match="is not prime"):
            intersect_adelic(v)


def test_intersect_adelic_examples():
    assert intersect_adelic({}) == 1
    assert intersect_adelic({2: 3, 5: -1}) == Fraction(8, 5)
    assert intersect_adelic({7: 2}) == 49


def test_intersect_adelic_additive(rng):
    primes = [2, 3, 5, 7, 11]
    for _ in range(25):
        v = {p: rng.randint(-3, 3) for p in rng.sample(primes, 3)}
        w = {p: rng.randint(-3, 3) for p in rng.sample(primes, 3)}
        total = {p: v.get(p, 0) + w.get(p, 0) for p in set(v) | set(w)}
        assert intersect_adelic(total) == intersect_adelic(v) * intersect_adelic(w)


def test_line_tensor_exponent_zero_is_trivial():
    line = MetrizedLine("A", Fraction(2), RealBall(3))
    out = line_tensor([(line, 0)])
    assert out.lattice_scalar == 1
    assert out.metric_ref.mid == 1 and out.metric_ref.is_exact()


def test_line_tensor_square():
    line = MetrizedLine("A", Fraction(2), RealBall(3))
    out = line_tensor([(line, 2)])
    assert out.lattice_scalar == 4
    assert out.metric_ref.mid == 9


def test_line_tensor_mixed_exponents():
    a = MetrizedLine("A", Fraction(8, 5), RealBall(1))
    b = MetrizedLine("B", Fraction(2), RealBall(1))
    out = line_tensor([(a, -1), (b, 1)])
    assert out.lattice_scalar == Fraction(5, 4)


def test_line_tensor_associative_commutative(rng):
    for _ in range(20):
        lines = [MetrizedLine(f"L{i}",
                              Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                              RealBall(Fraction(rng.randint(1, 9), rng.randint(1, 9))))
                 for i in range(3)]
        exps = [rng.randint(-2, 2) for _ in range(3)]
        forward = line_tensor(list(zip(lines, exps)))
        shuffled = list(zip(lines, exps))
        rng.shuffle(shuffled)
        backward = line_tensor(shuffled)
        assert forward.lattice_scalar == backward.lattice_scalar
        assert forward.metric_ref.overlaps(backward.metric_ref)
        # nesting
        nested = line_tensor([(line_tensor(list(zip(lines[:2], exps[:2]))), 1),
                              (lines[2], exps[2])])
        assert nested.lattice_scalar == forward.lattice_scalar


def test_lattice_canonical_scale():
    a = Lattice(QMatrix([[2, 1], [0, 3]]))
    b = Lattice(QMatrix([[2, 3], [0, 3]]))  # same lattice, different basis
    assert a == b


def test_lattice_from_generators_is_its_hermite_form():
    gens = QMatrix([[2, 4, 1], [0, 6, 3]])  # 2 x 3, full rank
    lattice = Lattice(gens)
    assert lattice.n == 2
    assert lattice.basis.cols == 2
    assert lattice == Lattice(hnf_rational(gens))
    assert lattice == Lattice(QMatrix([[1, 2], [3, 0]]))  # (4, 6) is redundant


@pytest.mark.parametrize("gens", [
    QMatrix([[1, 2, 3], [2, 4, 6]]),   # rank 1 among three columns
    QMatrix([[1, 2], [2, 4]]),         # square, singular
    QMatrix.from_columns([(1, 0)], rows=2),
    QMatrix.zeros(2, 0),
])
def test_lattice_rank_deficient_generators_raise(gens):
    with pytest.raises(ValueError, match="lattice basis is singular"):
        Lattice(gens)
