import operator
import random
import time
from fractions import Fraction
from math import isqrt

import pytest
from mpmath import mp, mpf
from mpmath.libmp import from_int, from_man_exp, from_rational, mpf_div, round_nearest, round_up

from motive_height import balls, cli, hodge
from motive_height.balls import (
    ComplexBall,
    PrecisionExhausted,
    RealBall,
    ball_det,
    ball_lu_solve,
    ball_matrix,
    ball_parts,
    det_norm2,
    rational_ball_mul,
    working_precision,
)
from motive_height.documents import canonical_bytes
from gaussian_oracle import ZERO, ball_contains, gdet, gsolve


def ball_identity(n: int):
    return tuple(tuple(ComplexBall.one() if i == j else ComplexBall.zero()
                       for j in range(n)) for i in range(n))


def ball_mat_mul(a, b):
    """Ball x ball product by scalar ball arithmetic."""
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), ComplexBall.zero())
                       for col in zip(*b)) for row in a)


def contains_value(b: RealBall, x) -> bool:
    return b.lower <= mpf(x) <= b.upper


def fraction(x: mpf) -> Fraction:
    """The exact value of an mpf."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


def encloses(b: RealBall, value: Fraction) -> bool:
    return abs(value - fraction(b.mid)) <= fraction(b.rad)


def test_exact_integers_and_identities():
    one = RealBall.one()
    assert one.is_exact()
    assert (one * one).is_exact()
    assert (one + RealBall.zero()).is_exact()
    assert (one ** 0).is_exact() and (one ** 0).mid == 1
    assert RealBall(7).log().contains_zero() is False
    assert RealBall.one().log().is_exact()
    assert RealBall.one().log().mid == 0
    assert RealBall.zero().exp().mid == 1


def test_fraction_roundtrip_encloses_truth():
    with working_precision(64):
        third = RealBall(Fraction(1, 3))
        assert not third.is_exact()
        mp.prec = 300
        assert contains_value(third, mpf(1) / 3)
    half = RealBall(Fraction(1, 2))
    assert half.is_exact()  # dyadic


def test_arithmetic_enclosure_random():
    rng = random.Random(7)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        A, B = RealBall(a), RealBall(b)
        checks = [(A + B, a + b), (A - B, a - b), (A * B, a * b)]
        if b != 0:
            checks.append((A / B, a / b))
        for ball, truth in checks:
            assert encloses(ball, truth)


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
    assert (RealBall(3) / RealBall(4)).is_exact()
    assert not (RealBall(1) / RealBall(3)).is_exact()
    assert RealBall(49).sqrt().is_exact()
    assert RealBall(49).sqrt().mid == 7
    assert not RealBall(2).sqrt().is_exact()
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
    # conjugated or re-wrapped at 128 bits, must still contain its value;
    # negation and conjugation are exact sign flips, so they keep it exactly
    with working_precision(256):
        b = RealBall(1, 0) + RealBall(mpf(2) ** -200, 0)
    truth = 1 + Fraction(1, 2 ** 200)
    assert b.exact_fraction() == truth
    with working_precision(128):
        z = ComplexBall(b, b)
        assert (-b).exact_fraction() == z.conj().im.exact_fraction() == -truth
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
    two = RealBall(2)
    r = two.sqrt()
    assert contains_value(r * r, 2)
    l = two.log()
    assert contains_value(l.exp(), 2)
    with pytest.raises(PrecisionExhausted):
        RealBall(0, 0).log()
    with pytest.raises(PrecisionExhausted):
        RealBall(-1).sqrt()


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


def test_string_midpoint_rejected():
    # "0.1" would round to a binary value with radius 0, excluding 1/10
    with pytest.raises(TypeError, match="from_decimal"):
        RealBall("0.1")
    with pytest.raises(TypeError):
        RealBall("1")
    ball = RealBall.from_decimal("0.1")
    mid = RealBall(ball.mid).exact_fraction()
    rad = RealBall(ball.rad).exact_fraction()
    assert 0 < rad and abs(mid - Fraction(1, 10)) <= rad


def test_decimal_radius_up_to_60_digits_and_past_the_precision():
    # up to 60 digits, q certified to d digits is the exact q +- |q| 10^-d
    # (10^-d for q = 0) with its midpoint rounded to nearest and the move
    # added to the radius, rounded up once
    texts = ["0.38137988175090659403116299048180789664631461867404", "-3e-7", "0", "22/7"]
    for bits in (64, 128, 256):
        with working_precision(bits):
            prec = bits + balls._GUARD_BITS
            for text in texts:
                q = Fraction(text)
                mid = from_rational(q.numerator, q.denominator, prec, round_nearest)
                for d in range(61):
                    rad = (abs(q) or 1) / Fraction(10) ** d + abs(q - fraction(mp.make_mpf(mid)))
                    ball = RealBall.from_decimal(text, d)
                    assert ball.mid._mpf_ == mid
                    assert ball.rad._mpf_ == from_rational(rad.numerator, rad.denominator,
                                                           prec, round_up)
    # a million digits: no 10^d is built, and the ball still holds
    # q +- |q| 2^-k, with 2^k <= 10^d
    d, q = 10 ** 6, Fraction(texts[0])
    start = time.perf_counter()
    ball = RealBall.from_decimal(texts[0], d)
    assert time.perf_counter() - start < 1
    k = (10 ** d).bit_length() - 1
    assert fraction(ball.rad) - abs(q - fraction(ball.mid)) >= q / 2 ** k


def test_decimal_exponent_is_bounded_before_ten_to_it_is_formed():
    # |e| <= 4300 parses exactly as Fraction reads it; past that, a
    # ValueError comes at once instead of a 10^e of a million digits
    for text in ("1e4300", "-2.5E-4300", "7e+0", "1_0e4_300"):
        ball = RealBall.from_decimal(text)
        assert abs(fraction(ball.mid) - Fraction(text)) <= fraction(ball.rad)
    for text in ("1e4301", "1e1000000", "1e-1000000", "0.0e-99999"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds 4300 in magnitude"):
            RealBall.from_decimal(text, 45)
        assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# the one rounding rule of the scalar operations
# ---------------------------------------------------------------------------

def rounded_by_mpf_division(n, e, d, r, er):
    """(mid, rad) of the ball (n 2^e ± r 2^er) / d, each part rounded by one
    mpf division, as the rounding rule was first written."""
    prec = balls._prec()
    sign, man, exp, _ = mid = mpf_div(from_man_exp(n, e), from_int(d), prec, round_nearest)
    c = min(e, er, exp)
    r = (r << (er - c)) + abs((n << (e - c)) - d * ((-man if sign else man) << (exp - c)))
    return mid, mpf_div(from_man_exp(r, c), from_int(d), prec, round_up)


def test_rounding_by_integer_division_matches_mpf_division(rng):
    # n = 0, r = 0 and negative n; d = 1, 2^k, 5^k, 10^k or any; an odd n
    # one bit wider than the precision over d = 1 or 2^k is a tie to even
    denominators = (lambda: 1, lambda: 2 ** rng.randint(1, 300),
                    lambda: 5 ** rng.randint(1, 120), lambda: 10 ** rng.randint(1, 100),
                    lambda: rng.randint(1, 2 ** rng.randint(1, 400)))
    cases = 0
    for bits in (64, 128, 256):
        with working_precision(bits):
            for _ in range(7000):
                tie = 2 ** balls._prec() + 2 * rng.getrandbits(balls._prec() - 1) + 1
                n = rng.choice([0, rng.randint(-2 ** 40, 2 ** 40),
                                rng.randint(-2 ** 600, 2 ** 600), tie, -tie])
                r = rng.choice([0, rng.randint(0, 2 ** 20), rng.randint(0, 2 ** 500)])
                d = rng.choice(denominators)()
                e, er = rng.randint(-400, 100), rng.randint(-400, 100)
                ball = balls._rounded(n, e, d, r, er)
                assert (ball.mid._mpf_, ball.rad._mpf_) == \
                    rounded_by_mpf_division(n, e, d, r, er), (n, e, d, r, er)
                cases += 1
    assert cases >= 20000


def test_radius_terms_are_rounded_up():
    # 1 + 2^-200 does not fit 128 bits: a radius sum rounded to nearest came
    # out as exactly 1, which excludes the true sum and product
    tiny = mp.ldexp(1, -200)
    with working_precision(128):
        for ball in (RealBall(0, 1) + RealBall(0, tiny), RealBall(0, 1) * RealBall(1, tiny)):
            assert fraction(ball.rad) >= 1 + Fraction(1, 2 ** 200)


def _operand(rng, width: int) -> RealBall:
    """A ball of magnitude up to about 2^8: exact, exact with a mantissa of
    twice the working width (which the constructor rounds), centred at zero,
    radius-dominated (|mid| < rad) or midpoint-dominated."""
    kind = rng.choice(["exact", "exact", "wide", "zero", "radius", "mid"])
    bits = 2 * width if kind == "wide" else rng.randint(1, 60)
    man, exp = rng.randint(-2 ** bits, 2 ** bits), rng.randint(-12, 4) - bits
    mid = mp.make_mpf(from_man_exp(man, exp))
    if kind == "zero":
        return RealBall(0, mp.make_mpf(from_man_exp(rng.randint(1, 2 ** 20), rng.randint(-60, -16))))
    if kind in ("exact", "wide"):
        ball = RealBall(mid)
        assert encloses(ball, fraction(mid))
        return ball
    shift = rng.randint(1, 4) if kind == "radius" else -rng.randint(10, 100)
    return RealBall(mid, mp.make_mpf(from_man_exp(abs(man) + 1, exp + shift)))


def _corners(b: RealBall) -> tuple[Fraction, Fraction]:
    return fraction(b.mid) - fraction(b.rad), fraction(b.mid) + fraction(b.rad)


def _oracle(f, q: Fraction, width: int) -> tuple[Fraction, Fraction]:
    """An interval around f(q), for a dyadic q, from mpmath at four times
    the working width."""
    with mp.workprec(4 * width):
        v = fraction(f(mp.make_mpf(from_man_exp(q.numerator, 1 - q.denominator.bit_length()))))
    slack = abs(v) / 2 ** (4 * width - 8)
    return v - slack, v + slack


def _dyadic_sqrt(q: Fraction) -> Fraction | None:
    n, d = q.numerator, q.denominator
    if q >= 0 and isqrt(n) ** 2 == n and isqrt(d) ** 2 == d:
        return Fraction(isqrt(n), isqrt(d))
    return None


def _assert_encloses_tightly(ball: RealBall, values, width: int):
    """ball holds every value, and its radius is at most their spread plus
    a few ulp."""
    assert all(encloses(ball, v) for v in values)
    spread = max(values) - min(values)
    assert fraction(ball.rad) <= spread + (1 + max(map(abs, values))) / 2 ** (width - 4)


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_scalar_operations_enclose_exact_values(bits):
    # the image of a ball under + - * / (over both corners of each operand)
    # and under the monotone sqrt, log and exp is spanned by the images of
    # the corners, so a result holding those holds every possible value
    rng = random.Random(bits)
    with working_precision(bits):
        width = mp.prec
        for _ in range(150):
            a, b = _operand(rng, width), _operand(rng, width)
            exact = a.is_exact() and b.is_exact()
            ops = [(operator.add, a + b), (operator.sub, a - b), (operator.mul, a * b)]
            if b.contains_zero():
                with pytest.raises(PrecisionExhausted):
                    a / b
            else:
                ops.append((operator.truediv, a / b))
            for op, ball in ops:
                values = [op(x, y) for x in _corners(a) for y in _corners(b)]
                _assert_encloses_tightly(ball, values, width)
                if exact:
                    assert ball.is_exact() == fits(values[0])

            lo, hi = _corners(a)
            if hi < 0:
                with pytest.raises(PrecisionExhausted):
                    a.sqrt()
            else:
                r = a.sqrt()
                low, high = _corners(r)
                # sqrt(max(lo, 0)) and sqrt(hi) lie in [low, high], exactly
                assert (low <= 0 or low ** 2 <= max(lo, 0)) and high >= 0 and high ** 2 >= hi
                root = _dyadic_sqrt(lo)
                if a.is_exact():
                    assert r.is_exact() == (root is not None and fits(root))
            if lo <= 0:
                with pytest.raises(PrecisionExhausted):
                    a.log()
            else:
                values = [*_oracle(mp.log, lo, width), *_oracle(mp.log, hi, width)]
                _assert_encloses_tightly(a.log(), values, width)
                if a.is_exact():
                    assert a.log().is_exact() == (lo == 1)
            # exp has no exact case: exp(0) = 1 carries the outward ulp too
            values = [*_oracle(mp.exp, lo, width), *_oracle(mp.exp, hi, width)]
            _assert_encloses_tightly(a.exp(), values, width)


def test_exact_identities_of_the_transcendental_operations():
    for bits in (64, 128, 256):
        with working_precision(bits):
            assert RealBall(1).log().is_exact() and RealBall(1).log().mid == 0
            assert RealBall(Fraction(9, 16)).sqrt().exact_fraction() == Fraction(3, 4)
            one = RealBall(0).exp()
            assert encloses(one, Fraction(1)) and fraction(one.rad) <= Fraction(2, 2 ** mp.prec)
            _assert_encloses_tightly(RealBall.pi(), _oracle(lambda x: x * mp.pi, Fraction(1), mp.prec),
                                     mp.prec)


# ---------------------------------------------------------------------------
# the fixed-point elimination kernel behind ball_det, det_norm2 and ball_lu_solve
# ---------------------------------------------------------------------------

def norm2_contains(bounds, det) -> bool:
    """|det|^2 lies in det_norm2's [lo, hi] 2^e, for an exact Gaussian det."""
    lo, hi, e = bounds
    scale = Fraction(2) ** e
    return 1 <= lo <= hi and lo * scale <= det[0] ** 2 + det[1] ** 2 <= hi * scale


def _random_entry(rng, exp2):
    """A complex ball of magnitude about 2^exp2 and its exact value: either
    an exact Gaussian rational or decimals carrying a stated accuracy."""
    if rng.random() < 0.5:
        value = tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 9)) * Fraction(2) ** exp2
                      for _ in range(2))
        return ComplexBall.from_rationals(*value), value
    exp10 = round(exp2 * 0.30103) - 12
    digits = rng.choice([None, 20, 40])
    texts = [f"{rng.randint(-10 ** 12, 10 ** 12)}e{exp10}" for _ in range(2)]
    return (ComplexBall(*(RealBall.from_decimal(t, digits) for t in texts)),
            tuple(Fraction(t) for t in texts))


def test_kernel_encloses_exact_det_and_solve():
    # rows of magnitude 2^-100 .. 2^100 and columns of 2^-60 .. 2^60 on top,
    # entries exact or with decimal radii: the exact determinant and
    # solution lie in every returned ball
    rng = random.Random(2026)
    certified = 0
    for _ in range(50):
        n, m = rng.randint(1, 12), rng.randint(1, 3)
        cols = [rng.randint(-60, 60) for _ in range(n + m)]
        rows = [[_random_entry(rng, e + c) for c in cols]
                for e in (rng.randint(-100, 100) for _ in range(n))]
        a = tuple(tuple(z for z, _ in row[:n]) for row in rows)
        b = tuple(tuple(z for z, _ in row[n:]) for row in rows)
        exact_a = [[v for _, v in row[:n]] for row in rows]
        exact_b = [[v for _, v in row[n:]] for row in rows]
        with working_precision(rng.choice([64, 128, 256])):
            try:
                d, x, norm2 = ball_det(a), ball_lu_solve(a, b), det_norm2(a)
            except PrecisionExhausted:
                continue
        certified += 1
        det, truth = gsolve(exact_a, exact_b)
        assert ball_contains(d, det) and norm2_contains(norm2, det)
        assert all(ball_contains(x[i][j], truth[i][j]) for i in range(n) for j in range(m))
    assert certified >= 45


def test_parts_read_once_serve_every_precision():
    # ball_parts reads no precision: a matrix read once eliminates exactly as
    # its balls do at every precision, and read entries pass a second read
    rng = random.Random(1516)
    for _ in range(30):
        n = rng.randint(1, 8)
        a = tuple(tuple(_random_entry(rng, rng.randint(-40, 40))[0] for _ in range(n))
                  for _ in range(n))
        parts = ball_parts(a)
        assert ball_parts(parts) == parts
        for bits in (64, 128, 256):
            with working_precision(bits):
                try:
                    want = det_norm2(a)
                except PrecisionExhausted:
                    with pytest.raises(PrecisionExhausted):
                        det_norm2(parts)
                    continue
                assert det_norm2(parts) == want


def test_near_singular_raises_until_the_precision_resolves_it():
    # det [[1, 1/3], [3, 1 + 2^-200]] = 2^-200: invisible at 128 bits
    eps = Fraction(1, 2 ** 200)
    rows = [[(Fraction(1), Fraction(0)), (Fraction(1, 3), Fraction(0))],
            [(Fraction(3), Fraction(0)), (1 + eps, Fraction(0))]]
    a = tuple(tuple(ComplexBall.from_rationals(*v) for v in row) for row in rows)
    with working_precision(128):
        with pytest.raises(PrecisionExhausted):
            ball_det(a)
        with pytest.raises(PrecisionExhausted):
            ball_lu_solve(a, ball_identity(2))
    with working_precision(512):
        a = tuple(tuple(ComplexBall.from_rationals(*v) for v in row) for row in rows)
        d = ball_det(a)
        assert ball_contains(d, gdet(rows)) and not d.contains_zero()


def test_exactly_singular_goes_to_the_exact_decision(monkeypatch, capsys, tmp_path):
    # F^1 = span(1/3, 1/7) is real, so D_1 = det[F^1 | conj F^1] vanishes
    # exactly, but not in fixed point: the kernel raises and the exact test
    # decides, which makes the document invalid (exit 1)
    d1 = tuple(tuple(ComplexBall.from_rationals(q) for q in row)
               for row in ((Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 7), Fraction(1, 7))))
    with pytest.raises(PrecisionExhausted):
        ball_det(d1)
    assert hodge._exactly_singular(d1)
    decided = []
    exactly_singular = hodge._exactly_singular
    monkeypatch.setattr(hodge, "_exactly_singular",
                        lambda m: decided.append(exactly_singular(m)) or decided[-1])
    doc = {"format_version": "1", "metadata": {"id": "w1"},
           "type": {"weight": 1, "hodge_numbers": {"0": 1, "1": 1}},
           "period": [["1", "1/3"], ["0", "1/7"]], "local": [], "bad_primes": []}
    path = tmp_path / "singular.json"
    path.write_bytes(canonical_bytes(doc))
    assert cli.main(["height", str(path)]) == 1
    assert "D_1 = 0" in capsys.readouterr().err
    assert decided == [True]


def test_exact_triangular_det_has_radius_zero():
    # rows of an upper triangular Gaussian-integer matrix, in any order:
    # every factor and update is exact, so the determinant is too
    rng = random.Random(5)
    for n in range(1, 10):
        rows = [[(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
                 if j > i else ZERO for j in range(n)] for i in range(n)]
        for i in range(n):
            rows[i][i] = (Fraction(rng.choice([-3, -1, 1, 2, 5])), Fraction(rng.randint(-4, 4)))
        rng.shuffle(rows)
        a = tuple(tuple(ComplexBall.from_rationals(*v) for v in row) for row in rows)
        d, (lo, hi, e), det = ball_det(a), det_norm2(a), gdet(rows)
        assert d.is_exact() and d.exact_value() == {0: det}
        assert lo == hi and lo * Fraction(2) ** e == det[0] ** 2 + det[1] ** 2



def test_kernel_counts_every_dropped_bit_of_exact_data():
    # exact entries: powers of two in the first column, so the first factors
    # are exact, and 150-bit mantissas elsewhere, spread over 2^-8 .. 1 (they
    # fit the fixed point, but the first updates drop bits) or 2^-250 .. 1
    # (the conversion drops bits).  The ulps counted for those drops are then
    # the whole radius.
    rng = random.Random(13)

    def wide(spread):
        return RealBall(mpf(rng.randint(-2 ** 150, 2 ** 150))
                        * mpf(2) ** (rng.randint(-spread, 0) - 150))

    for _ in range(200):
        n, spread = rng.randint(2, 4), rng.choice([8, 250])
        rows = [(ComplexBall(RealBall(mpf(rng.choice([-1, 1])) * mpf(2) ** rng.randint(-20, 0))),)
                + tuple(ComplexBall(wide(spread), wide(spread)) for _ in range(n - 1))
                for _ in range(n)]
        exact = [[(z.re.exact_fraction(), z.im.exact_fraction()) for z in row] for row in rows]
        assert ball_contains(ball_det(tuple(rows)), gdet(exact))
        assert norm2_contains(det_norm2(tuple(rows)), gdet(exact))



def _growth_matrix(n, d, s, v=1):
    """Exact integers: 1 on the diagonal, -1 below it and 1 in the last
    column, so exact factors of -1 double the last column row by row; then
    pivot d at (n-2, n-2) over s below it, whose factor s/d drops bits, and
    v in the corner."""
    rows = [[Fraction(1 if j in (i, n - 1) else -1 if j < i else 0) for j in range(n)]
            for i in range(n)]
    rows[n - 2][n - 2], rows[n - 1][n - 2], rows[n - 1][n - 1] = d, s, v
    return [[(Fraction(x), Fraction(0)) for x in row] for row in rows]


def test_factor_rounding_is_counted_after_pivot_row_growth():
    # the pivot row's last entry has grown to 2^(n-3) after scaling when the
    # inexact factor s/d multiplies it, so the floor of the factor moves the
    # update by up to 2^(n-3) ulps: only the factor's own rounding ulp,
    # scaled by |b|, covers that
    def balls(rows):
        return tuple(tuple(ComplexBall.from_rationals(*x) for x in row) for row in rows)

    with working_precision(64):
        for n in range(3, 12):
            ones = [[(Fraction(1), Fraction(0))] for _ in range(n)]
            for d, s in ((3, -1), (3, 1), (5, -3), (3, -2), (7, -1)):
                rows = _growth_matrix(n, d, s)
                x = ball_lu_solve(balls(rows), balls(ones))
                _, truth = gsolve(rows, ones)
                assert all(ball_contains(x[i][0], truth[i][0]) for i in range(n))
        # a nearly cancelled last pivot, so that the determinant's midpoint
        # rounding cannot hide the moved update
        for n, d, s, v in ((8, 7, 6, -8), (10, 3, 2, -84), (10, 7, 6, -36), (10, 11, 10, -22)):
            rows = _growth_matrix(n, d, s, v)
            assert ball_contains(ball_det(balls(rows)), gdet(rows))
            assert norm2_contains(det_norm2(balls(rows)), gdet(rows))


# ---------------------------------------------------------------------------
# the product of an exact rational matrix and a ball matrix
# ---------------------------------------------------------------------------

def fits(q: Fraction) -> bool:
    """q is a binary fraction with at most mp.prec significant bits."""
    n, d = q.numerator, q.denominator
    return n == 0 or (d & (d - 1) == 0 and (n // (n & -n)).bit_length() <= mp.prec)


def _random_part(rng) -> RealBall:
    """A real ball with |midpoint| up to 2^80 and down to 2^-120: exact,
    midpoint-dominated, centred at zero, or radius-dominated (|mid| < rad)."""
    mid = mp.ldexp(rng.randint(-2 ** 40, 2 ** 40), rng.randint(-120, 40))
    kind = rng.choice(["exact", "exact", "mid", "zero", "radius"])
    if kind == "exact":
        return RealBall(mid)
    if kind == "zero":
        return RealBall(0, mp.ldexp(rng.randint(1, 2 ** 20), rng.randint(-100, 60)))
    shift = rng.randint(10, 100) if kind == "mid" else -rng.randint(1, 10)
    return RealBall(mid, abs(mid) * mpf(2) ** -shift + mp.ldexp(1, -100))


def _random_balls(rng, rows, cols):
    return tuple(tuple(ComplexBall(_random_part(rng), _random_part(rng))
                       for _ in range(cols)) for _ in range(rows))


def _random_rationals(rng, rows, cols):
    return tuple(tuple(Fraction(rng.choice([0, rng.randint(-9, 9)]), rng.randint(1, 7))
                       for _ in range(cols)) for _ in range(rows))


def assert_encloses(out: RealBall, qs, xs):
    """out holds sum_t q_t x_t for every x_t in the ball xs[t], is at most a
    few ulp wider than that set, and is exact iff the exact sum fits."""
    center = sum((q * fraction(x.mid) for q, x in zip(qs, xs)), Fraction(0))
    spread = sum((abs(q) * fraction(x.rad) for q, x in zip(qs, xs)), Fraction(0))
    rad = fraction(out.rad)
    assert abs(fraction(out.mid) - center) + spread <= rad
    assert rad <= spread + Fraction(4, 2 ** mp.prec) * (abs(center) + spread)
    if spread == 0:
        assert (rad == 0) == fits(center)


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_rational_product_encloses_exact_sums_on_both_sides(bits):
    rng = random.Random(bits)
    with working_precision(bits):
        for _ in range(100):
            n, k, m = (rng.randint(1, 6) for _ in range(3))
            q, b = _random_rationals(rng, n, k), _random_balls(rng, k, m)
            out = rational_ball_mul(q, b)                       # Q B
            for i, j in [(i, j) for i in range(n) for j in range(m)]:
                col = [b[t][j] for t in range(k)]
                assert_encloses(out[i][j].re, q[i], [z.re for z in col])
                assert_encloses(out[i][j].im, q[i], [z.im for z in col])
            qt, bt = tuple(zip(*q)), tuple(zip(*b))
            out = rational_ball_mul(bt, qt)                     # B^T Q^T
            for i, j in [(i, j) for i in range(m) for j in range(n)]:
                assert_encloses(out[i][j].re, q[j], [z.re for z in bt[i]])
                assert_encloses(out[i][j].im, q[j], [z.im for z in bt[i]])


def test_rational_product_of_exact_data():
    three = ComplexBall.from_rationals(3, -6)
    # (1/3) 3 + (2/3) 3 and 3 (1/3) + 3 (2/3) are exact
    for out in (rational_ball_mul([[Fraction(1, 3), Fraction(2, 3)]], [[three], [three]]),
                rational_ball_mul([[three, three]], [[Fraction(1, 3)], [Fraction(2, 3)]])):
        z = out[0][0]
        assert (z.re.mid, z.im.mid, z.re.rad, z.im.rad) == (3, -6, 0, 0)
        assert z.exact is None
    # exact dyadic data whose sum fits keep radius 0; 1/3 does not fit
    wide = ComplexBall(RealBall(mp.ldexp(3, 80)), RealBall(mp.ldexp(-5, -70)))
    z = rational_ball_mul([[2, -1, 0]], [[wide], [wide], [ComplexBall.one()]])[0][0]
    assert z.re.rad == z.im.rad == 0 and z.re.mid == mp.ldexp(3, 80)
    # the sum is rounded to exactly mp.prec bits: 2^(prec-1) + 1 fits and
    # 2 * 2^(prec-1) + 1 does not
    top, one = ComplexBall(RealBall(mp.ldexp(1, mp.prec - 1))), ComplexBall.one()
    z = rational_ball_mul([[1, 1], [2, 1]], [[top], [one]])
    assert z[0][0].re.rad == 0 and z[1][0].re.rad > 0
    z = rational_ball_mul([[Fraction(1, 3)]], [[ComplexBall.one()]])[0][0]
    assert z.re.rad > 0 and z.im.is_exact()
    assert encloses(z.re, Fraction(1, 3))


def test_rational_product_empty_shapes():
    # rows of length 0 carry no column count, so n x 0 @ 0 x m is n x 0
    b, q = _random_balls(random.Random(1), 2, 3), ((Fraction(1),) * 2,) * 4
    assert rational_ball_mul((), b) == ()                       # 0x2 @ 2x3
    assert rational_ball_mul(((),) * 3, ()) == ((),) * 3         # 3x0 @ 0xm
    assert rational_ball_mul(q, ((),) * 2) == ((),) * 4          # 4x2 @ 2x0
    assert rational_ball_mul((), q) == ()                       # 0x4 @ 4x2
    assert rational_ball_mul(((),) * 2, ()) == ((),) * 2         # 2x0 @ 0xm
    assert rational_ball_mul(tuple(zip(*b)), ((),) * 2) == ((),) * 3    # 3x2 @ 2x0


def test_rational_product_builds_no_scalar_ball_operations(monkeypatch):
    rng = random.Random(5)
    q, b = _random_rationals(rng, 4, 5), _random_balls(rng, 5, 3)
    calls = []
    for cls in (RealBall, ComplexBall):
        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            def counted(self, other, _op=cls.__dict__[name], _name=name):
                calls.append(_name)
                return _op(self, other)
            monkeypatch.setattr(cls, name, counted)
    rational_ball_mul(q, b)
    rational_ball_mul(tuple(zip(*b)), tuple(zip(*q)))
    assert calls == []
    RealBall.one() * RealBall.one()
    assert calls == ["__mul__"]
