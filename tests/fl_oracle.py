"""Two independent verdicts on strong divisibility, the oracles for
``fl.check_strong_divisibility``.

* The Hermite route: build the lattice sum sum_i p^{-i} phi D^i from its
  generators (their Hermite form) and ask whether D contains it at p with
  index prime to p.
* The mod-p rank route: span_{Z_p}(columns) = Z_p^n iff the D-coordinates
  of the generators are p-integral and have full rank modulo p (Nakayama).

Neither reads phi in D's basis or the coordinate levels, which is how the
package decides.
"""

from fractions import Fraction

from motive_height.fl import FilPhiModule
from motive_height.lines import Lattice, NotSublattice, quotient_lattice_valuation
from motive_height.rational import QMatrix


def lattice_sum_generators(m: FilPhiModule) -> QMatrix:
    """The columns p^{-i} phi D^i for every step i of the window."""
    cols = []
    for i in range(*m.window):
        cols.extend((m.phi @ m.filtration_matrix(i))
                    .scale(Fraction(1, m.p) ** i).columns())
    return QMatrix.from_columns(cols, rows=m.n)


def hermite_route_strong_divisibility(m: FilPhiModule) -> tuple[bool, Lattice]:
    """(verdict, lattice sum): the sum lies in D at p with index prime to p."""
    witness = Lattice(lattice_sum_generators(m))
    try:
        ok = quotient_lattice_valuation(m.lattice, witness, m.p) == 0
    except NotSublattice:
        ok = False
    return ok, witness


def p_integral_rank_mod_p(coords: QMatrix, p: int):
    """Rank over F_p of a p-integral matrix, or None if it is not p-integral."""
    if any(x.denominator % p == 0 for row in coords.data for x in row):
        return None
    red = [[(x.numerator * pow(x.denominator, -1, p)) % p for x in row]
           for row in coords.data]
    rank = 0
    rows, cols = len(red), coords.cols
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if red[r][c] % p), None)
        if piv is None:
            continue
        red[rank], red[piv] = red[piv], red[rank]
        inv = pow(red[rank][c], -1, p)
        red[rank] = [v * inv % p for v in red[rank]]
        for r in range(rows):
            if r != rank and red[r][c]:
                f = red[r][c]
                red[r] = [(v - f * w) % p for v, w in zip(red[r], red[rank])]
        rank += 1
    return rank


def oracle_strong_divisibility(m: FilPhiModule) -> bool:
    coords = m.lattice.basis.solve(lattice_sum_generators(m))
    return p_integral_rank_mod_p(coords, m.p) == m.n
