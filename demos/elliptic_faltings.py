"""The H_1 of an elliptic curve and its Faltings height.

We take y^2 = x^3 - x (conductor 32, minimal model), compute its period
lattice by the AGM, feed the periods into the H_1 builder together with
Frobenius traces at two good primes and a zero override at the bad prime 2,
and compare the pipeline height with the closed formula

    h = -(1/2) log( 2 |Im(conj(w1) w2)| ).

The factor 2 inside the log is the i-normalization of ||omega||^2 (the
integral i * int omega ^ conj(omega)); conventions in the literature differ
from this one by (1/2) log 2.
"""

from mpmath import agm, conj, im, mp, mpf, sqrt

from motive_height import ComplexBall, RealBall, elliptic_curve_h1, height, validate
from motive_height.balls import working_precision

mp.dps = 50

# periods of dx/(2y) on y^2 = x^3 - x: square lattice Omega (Z + iZ)
omega_re = mp.pi / agm(sqrt(2), 1)
print(f"real period  Omega = {omega_re}")
print(f"lattice            = Omega * (Z + i Z)")

covol = abs(im(conj(omega_re) * (1j * omega_re)))
closed_form = -mp.log(2 * covol) / 2
print(f"closed formula h   = {closed_form}")

with working_precision(128):
    w1 = ComplexBall(RealBall(omega_re, abs(omega_re) * mpf("1e-45")),
                     RealBall.zero())
    w2 = ComplexBall(RealBall.zero(),
                     RealBall(omega_re, abs(omega_re) * mpf("1e-45")))
    m = elliptic_curve_h1(w1, w2, ap={3: 0, 5: -2}, bad={2: {}},
                          label="y^2 = x^3 - x")
    print(f"validates          = {validate(m).ok}")
    rep = height(m)
    print(f"pipeline h(M)      = {rep.h}")
    print(f"difference         = {abs(rep.h.mid - closed_form)}")

print()
print("The pipeline route validates the period matrix (its determinant and")
print("D_0 = det[F^0 | conj F^0] certified nonzero), checks strong")
print("divisibility at the good primes and reads the metric off those")
print("determinants; the closed formula only knows the lattice covolume.")
print("They agree to the full working precision.")
