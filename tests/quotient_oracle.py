"""References for the reading of a quotient spec's maps, built the way the
library built them before it read each map once through its Hermite
transform: kernels mod q from the integer kernel of [a | -q I], and the
surjectivity verdicts from Smith divisors.
"""

from motive_height.rational import QMatrix, integer_kernel, smith_normal_form


def kernel_mod(a: QMatrix, modulus: int) -> QMatrix:
    """Basis of { c in Z^cols : a c = 0 mod modulus } (a integer): the top
    block of the integer kernel of [a | -modulus I]."""
    return integer_kernel(a.hstack(QMatrix.identity(a.rows).scale(-modulus))) \
        .block(slice(a.cols))


def surjectivity_verdict(q_dr: QMatrix, q_betti: QMatrix, p: int, k: int):
    """The first failed surjectivity message for k x n integer maps, in the
    order ``validate_spec`` checks them, or None: q_betti is onto Z^k iff
    its first k Smith divisors are 1, and q_dr is onto at p iff p divides
    none of its Smith divisors."""
    if list(smith_normal_form(q_betti)[:k]) != [1] * k:
        return "q_betti is not surjective"
    if any(d % p == 0 for d in smith_normal_form(q_dr)):
        return "q_dr is not surjective at p"
    return None
