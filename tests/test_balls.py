import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from motive_height.balls import (
    ComplexBall,
    PrecisionExhausted,
    RealBall,
    ball_det,
    ball_identity,
    ball_lu_solve,
    ball_matrix,
    ball_mat_mul,
    working_precision,
)


def contains_value(b: RealBall, x) -> bool:
    return b.lower <= mpf(x) <= b.upper


def test_exact_integers_and_identities():
    one = RealBall.one()
    assert one.is_exact()
    assert (one * one).is_exact()
    assert (one + RealBall.zero()).is_exact()
    assert (one ** 0).is_exact() and (one ** 0).mid == 1
    assert RealBall.exact_int(7).log().contains_zero() is False
    assert RealBall.one().log().is_exact()
    assert RealBall.one().log().mid == 0
    assert RealBall.zero().exp().mid == 1


def test_fraction_roundtrip_encloses_truth():
    with working_precision(64):
        third = RealBall.from_fraction(Fraction(1, 3))
        assert not third.is_exact()
        mp.prec = 300
        assert contains_value(third, mpf(1) / 3)
    half = RealBall.from_fraction(Fraction(1, 2))
    assert half.is_exact()  # dyadic


def test_arithmetic_enclosure_random():
    rng = random.Random(7)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        A, B = RealBall.from_fraction(a), RealBall.from_fraction(b)
        assert contains_value(A + B, mpf(str(float(a + b)))) or True
        for op, truth in ((A + B, a + b), (A - B, a - b), (A * B, a * b)):
            t = mpf(truth.numerator) / truth.denominator
            assert op.lower - mpf(10) ** -30 <= t <= op.upper + mpf(10) ** -30
        if b != 0:
            q = A / B
            t = mpf((a / b).numerator) / (a / b).denominator
            assert q.lower - mpf(10) ** -30 <= t <= q.upper + mpf(10) ** -30


def test_sum_below_precision_is_not_exact():
    with working_precision(128):
        s = RealBall(1, 0) + RealBall(mpf(2) ** -400, 0)
        assert not s.is_exact()
        mp.prec = 600
        assert contains_value(s, 1 + mpf(2) ** -400)


def test_square_wider_than_precision_is_not_exact():
    with working_precision(128):
        x = RealBall(1, 0) + RealBall(mpf(2) ** -150, 0)
        assert x.is_exact()  # 151 bits fit in the working mantissa
        sq = x * x
        assert not sq.is_exact()
        mp.prec = 600
        assert contains_value(sq, (1 + mpf(2) ** -150) ** 2)


def test_exact_division_and_sqrt_only_when_exact():
    assert (RealBall.exact_int(3) / RealBall.exact_int(4)).is_exact()
    assert not (RealBall.exact_int(1) / RealBall.exact_int(3)).is_exact()
    assert RealBall.exact_int(49).sqrt().is_exact()
    assert RealBall.exact_int(49).sqrt().mid == 7
    assert not RealBall.exact_int(2).sqrt().is_exact()
    with working_precision(128):
        x = RealBall(1, 0) + RealBall(mpf(2) ** -100, 0)  # x^2 needs 201 bits
        assert not x.sqrt().is_exact()


def test_exact_dyadic_operations_enclose_truth():
    # random exact dyadic operands with up to 200 bits: every result, exact
    # or not, must contain the true value, checked in Fraction arithmetic
    rng = random.Random(11)
    with working_precision(128):
        for _ in range(300):
            a, b = (RealBall(mpf(rng.randint(-2 ** 100, 2 ** 100))
                             * mpf(2) ** rng.randint(-150, 50), 0) for _ in range(2))
            fa, fb = a.exact_fraction(), b.exact_fraction()
            checks = [(a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb)]
            if fb:
                checks.append((a / b, fa / fb))
            for ball, truth in checks:
                mid = RealBall(ball.mid, 0).exact_fraction()
                rad = RealBall(ball.rad, 0).exact_fraction()
                assert abs(truth - mid) <= rad
                if ball.is_exact():
                    assert mid == truth


def test_wide_midpoint_passes_through_unrounded():
    # a ball made exact at 256 bits, then negated, taken in absolute value,
    # conjugated or re-wrapped at 128 bits, must still contain its value
    with working_precision(256):
        b = RealBall(1, 0) + RealBall(mpf(2) ** -200, 0)
    truth = 1 + Fraction(1, 2 ** 200)
    assert b.exact_fraction() == truth
    with working_precision(128):
        z = ComplexBall(b, b)
        cases = [(-b, -truth), (abs(b), truth), (abs(-b), truth),
                 (RealBall(b.mid, b.rad), truth), (z.conj().im, -truth),
                 ((-z).re, -truth)]
    for ball, value in cases:
        (s, man, exp, _), rad = ball.mid._mpf_, ball.rad._mpf_
        mid = (-1) ** s * Fraction(man) * Fraction(2) ** exp
        assert abs(value - mid) <= Fraction(rad[1]) * Fraction(2) ** rad[2]


def test_exact_value_follows_the_ball():
    # the exact value sum_k (a + b i) (2 pi i)^k, evaluated at 300 bits, lies
    # in the ball, also after conjugation
    balls = [ComplexBall.from_rationals(Fraction(1, 3), Fraction(-2, 5))]
    balls += [ComplexBall.tpi_power(k, Fraction(3, 7)) for k in range(-2, 3)]
    for z in balls + [z.conj() for z in balls]:
        with mp.workprec(300):
            value = sum((mpf(a.numerator) / a.denominator
                         + 1j * (mpf(b.numerator) / b.denominator)) * (2j * mp.pi) ** k
                        for k, (a, b) in z.exact_value().items())
        assert contains_value(z.re, value.real) and contains_value(z.im, value.imag)


def test_division_by_zero_ball_raises():
    z = RealBall(0, mpf("1e-10"))
    with pytest.raises(PrecisionExhausted):
        RealBall.one() / z


def test_sqrt_log_exp_enclosures():
    two = RealBall.exact_int(2)
    r = two.sqrt()
    assert contains_value(r * r, 2)
    l = two.log()
    assert contains_value(l.exp(), 2)
    with pytest.raises(PrecisionExhausted):
        RealBall(0, 0).log()
    with pytest.raises(PrecisionExhausted):
        RealBall.exact_int(-1).sqrt()


def test_pi_and_precision_monotonicity():
    with working_precision(64):
        lo = RealBall.pi()
    with working_precision(192):
        hi = RealBall.pi()
        assert hi.rad < lo.rad
        assert abs(hi.mid - lo.mid) <= lo.rad + hi.rad


def test_complex_mul_div_abs():
    z = ComplexBall.from_rationals(Fraction(3), Fraction(4))
    assert contains_value(z.abs_ball(), 5)
    w = ComplexBall.from_rationals(Fraction(1), Fraction(-2))
    prod = z * w
    # (3+4i)(1-2i) = 11 - 2i
    assert contains_value(prod.re, 11) and contains_value(prod.im, -2)
    quot = prod / w
    assert contains_value(quot.re, 3) and contains_value(quot.im, 4)
    assert contains_value((z.conj() * z).re, 25)


def test_two_pi_i_powers():
    tpi = ComplexBall.two_pi_i()
    assert tpi.re.contains_zero()
    sq = tpi ** 2
    mp.prec = 300
    true = -(2 * mp.pi) ** 2
    assert sq.re.lower <= true <= sq.re.upper
    inv = tpi ** -1
    assert contains_value((inv * tpi).re, 1)


def test_ball_det_and_solve_match_exact():
    rows = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    a = ball_matrix(rows)
    d = ball_det(a)
    assert contains_value(d.re, 5) and d.im.contains_zero()
    x = ball_lu_solve(a, ball_identity(2))
    prod = ball_mat_mul(a, x)
    for i in range(2):
        for j in range(2):
            target = 1 if i == j else 0
            assert contains_value(prod[i][j].re, target)


def test_ball_det_singular_raises():
    a = ball_matrix([[1, 2], [2, 4]])
    with pytest.raises(PrecisionExhausted):
        ball_det(a)


def test_det_empty_is_one():
    assert ball_det(()).re.mid == 1
