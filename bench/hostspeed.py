"""Host-speed probe: a fixed kernel, independent of motive_height, timed
between ops so that timings can be stated at one reference host speed.

On a VM whose physical cores are shared with other tenants, the speed of the
same code moves between levels about 1.15x and 1.7x apart, for seconds to
minutes at a time, and no steal time shows in the guest.  A run can sit in a
slow phase from start to end, so no statistic taken inside one run removes it.
The probe runs the same kinds of work as the library under test: mpf
arithmetic at working and doubled precision, a small midpoint-radius class
with slots, and Fraction arithmetic.  Its time tracks the host's current speed.
A latency measured while the probe takes ``p`` seconds is reported as
``latency * REFERENCE_S / p``.

The probe does not import motive_height, so a change to the library cannot
move it.  Everything a change does to the library shows in the scaled
timings.
"""

from __future__ import annotations

import time
from fractions import Fraction

from mpmath import mp, mpf

# The probe's time at this host's fastest level (Python 3.11.7, mpmath 1.3.0
# with its pure-Python backend).  It sets the unit of the scaled timings.
REFERENCE_S = 0.016
PROBE_EVERY_S = 0.25


class _Ball:
    __slots__ = ("mid", "rad")

    def __init__(self, mid, rad):
        self.mid = mid
        self.rad = rad

    def __add__(self, o):
        m = self.mid + o.mid
        return _Ball(m, self.rad + o.rad + abs(m) * _EPS)

    def __mul__(self, o):
        m = self.mid * o.mid
        return _Ball(m, abs(self.mid) * o.rad + abs(o.mid) * self.rad
                     + self.rad * o.rad + abs(m) * _EPS)

    def __truediv__(self, o):
        m = self.mid / o.mid
        den = abs(o.mid) * (abs(o.mid) - o.rad)
        return _Ball(m, (abs(self.mid) * o.rad + abs(o.mid) * self.rad) / den
                     + abs(m) * _EPS)


_EPS = mpf(2) ** -150  # exact at any precision


def _kernel():
    with mp.workprec(158):
        s, x = mpf(1), mpf(3) / 7
        for _ in range(300):
            s = s * x + x / (s + 1)
        a = [_Ball(mpf(i + 1) / 7, _EPS) for i in range(8)]
        for _ in range(6):
            for i in range(8):
                for j in range(8):
                    if i != j:
                        a[j] = a[j] * a[i] / (a[i] + a[j] + a[0])
    with mp.workprec(316):
        s, x = mpf(1), mpf(5) / 11
        for _ in range(100):
            s = s * x - x / (s + 3)
    q = Fraction(1, 3)
    for i in range(1, 300):
        q = q * Fraction(3, 7) + Fraction(1, i)
        q = Fraction(q.numerator % 10 ** 40, q.denominator % 10 ** 40 or 1)


def probe() -> float:
    """Seconds the fixed kernel takes right now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
