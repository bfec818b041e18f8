"""Critical angle and inflection point of the half-side kernel.

For each side count n the second derivative of the half-side kernel has a
single zero, the inflection point x0, in closed form: with
d = cos(2*pi/n) + cos(x), the zero condition csc^2(x/2)*d = sin(x)*cot(x/2)
becomes cos^2(x0/2) = sin(pi/n). The equal-split margin has a single root
below x0, the critical angle, solved for in the deficit t = flat - x =
area/n on [flat - x0, flat), where the margin falls from positive to -inf;
its half sides take their deficits from t, and max_area is n*t. With
e = (pi/n)**(1/3) the root is
t = e*(4 - 4e**2 + (56/45)e**4 - (268/567)e**6 + (1352/8019)e**10
- (47504/426465)e**12) + O(e**17), its e**9 and e**15 terms zero: the
margin's series in e inverted order by order (de Bruijn, Asymptotic Methods
in Analysis, ch. 2; tests/test_threshold.py derives it in fractions). From
n = SERIES_FROM the start is that series; below it the first four terms,
and below n = 8 the first two, or the midpoint where those are outside
(n = 3).
Each step is a Newton step on the margin's closed-form slope where that
lands strictly inside the sign bracket, and a bisection step otherwise, so
the iteration converges unconditionally and, near the root, quadratically;
it stops at the first iterate, the start included, whose margin is within
its own rounding floor. The loop in critical_angle is the one root finder;
it calls the scalar kernels _half_side and _half_side_d1 itself.
Over every n in [3, 10**6] a solve takes 1 iteration for each n from
SERIES_FROM on (the series start within the floor), 2 for 852 n, 3 for 130,
and at most 7; over n in [3, 2000] a mean of 1.59. The result keeps x0, so
only critical_angle is memoized.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from .analysis import _half_side_d1
from .errors import BracketError, ConvergenceError
from .geometry import _check_sides, _flat, _half_side, _record

MAX_ITERATIONS = 200
_FLOOR_EPS = 4.0 * sys.float_info.epsilon
# From this n on the start has all four terms. Below it the two-term start is
# kept: there the four-term one is still 4e-3 to 0.12 relative off the root,
# saves 1 to 3 iterations of five solves, and its solves ended further from
# mpmath's root at n = 3, 5, 6 and 7 (12.6, 2.2, 12.6 and 2.2 ulp, against
# 1.4, 0.2, 10.6 and 0.2). From 8 to 2000 the solves ended nearer the root
# than from the two-term start (a mean of 5.2 ulp, against 6.8), and n = 8
# and 12 kept their bits.
START_TERMS_FROM = 8
# From this n on the start is the root's series. Swept against mpmath over
# every n in [300, 5000): the floor takes that start from n = 479, but below
# 600 it is up to 3.3e-14 off in max_area (the solve 9.8e-15); from 1000 it
# stays within 8.1e-16 (the solve reads up to 2.2e-14 in [1000, 2000)).
SERIES_FROM = 1000
# t/e = c0 + c1*e**2 + ... + c6*e**12 for e = (pi/n)**(1/3): the e**1 to e**13
# terms of t, whose e**9 and e**15 terms are zero.
SERIES = (4.0, -4.0, 56.0 / 45.0, -268.0 / 567.0, 0.0, 1352.0 / 8019.0, -47504.0 / 426465.0)


@_record
class ThresholdResult:
    """Critical angle for one side count, with solver diagnostics.

    Splitting helps if and only if the interior angle is below
    `critical_angle`; equivalently the total area exceeds `max_area`.
    For every n in [SERIES_FROM, 10**6], `critical_angle` is within 4e-16
    relative error of the exact root and `max_area` within 1e-15 (measured
    against mpmath over every such n, each the series start accepted: at
    worst 2.9e-16 at n = 10721 and 8.1e-16 at n = 1017). Below SERIES_FROM
    the solve's bounds hold: 1e-13 and 2.5e-12 (measured over every n in
    [3, 10**6] when the solve ran at each: at worst 4.7e-14 and 2.26e-12,
    at n = 765935). A series start outside the floor would go on through
    the solve; no n in [SERIES_FROM, 10**6] does, and that path was checked
    only at n = 1000, 10**4 and 765935 with a perturbed coefficient.
    `iterations` counts the iterates evaluated, the start included: 1 for an
    accepted series start, whose `residual` is the margin there.
    """

    n: int
    critical_angle: float
    inflection: float
    max_area: float
    iterations: int
    residual: float


def inflection_point(n: int) -> float:
    """Unique zero of the kernel's second derivative on its angle domain.

    The zero satisfies cos^2(x0/2) = sin(pi/n), so x0 = 2*acos(sqrt(sin(pi/n))).
    """
    return _inflection(_check_sides(n))


def _inflection(n: int) -> float:
    """inflection_point without the side-count check."""
    return 2.0 * math.acos(math.sqrt(math.sin(math.pi / n)))


@lru_cache(maxsize=None, typed=True)
def critical_angle(n: int) -> ThresholdResult:
    """Critical interior angle: the unique root of the equal-split margin.

    Solved for the deficit t = flat - x on [flat - x0, flat) from t0, as the
    module docstring describes. In t the margin is 2K(x + t/2) - K(x), its
    half sides taking their deficits (-t/4 and -t/2) from t, and its slope
    is K'(x) - K'(x + t/2). A margin within its rounding floor
    4*eps*(2K(x + t/2) + K(x)), which bounds the error of its two terms
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 1-3), is zero. Every iterate has lo < t < flat, so x = flat - t is
    at least an ulp of flat (about 2e-16) and K(x) < 40: the floor, and so
    the returned `residual`, stays below 1.1e-13 (2e-12 even at x = 5e-324,
    where K < 746), with no further check. Neither end is evaluated: the
    margin is -inf at t = flat, and positive at t = lo as K is concave on
    [x0, flat) with K(flat) = 0 (Jensen: 2K((x0 + flat)/2) >= K(x0); computed,
    at least 9.9e11 times its floor over n in [3, 10**6]). The solve stops at
    the first iterate within the floor, the start included, with no slope
    evaluated there: a series start within it is the root at one margin
    evaluation. A bracket that closes to adjacent floats first is a
    ConvergenceError, or a BracketError if it closed onto the open end.
    """
    n = _check_sides(n)
    x0 = _inflection(n)
    flat = _flat(n)
    lo = flat - x0  # exact: x0 lies in [flat/2, flat)
    a = math.pi / n
    c0, c1, c2, c3, c4, c5, c6 = SERIES
    if n >= SERIES_FROM:
        e = a ** (1.0 / 3.0)
        # pow's rounded exponent leaves e up to 2.6 ulp off; one Newton step
        # on e**3 = a, 0.7 ulp (math.cbrt, new in Python 3.11, 2.7 ulp)
        e -= (e - a / (e * e)) / 3.0
        e2 = e * e
        t = e * (c0 + e2 * (c1 + e2 * (c2 + e2 * (c3 + e2 * (c4 + e2 * (c5 + e2 * c6))))))
    else:
        t = c0 * a ** (1.0 / 3.0) + c1 * a
        if n >= START_TERMS_FROM:
            t += a ** (5.0 / 3.0) * (c2 + c3 * a ** (2.0 / 3.0))
    hi, fhi = flat, -math.inf
    if not lo < t < hi:
        t = 0.5 * (lo + hi)
    for i in range(1, MAX_ITERATIONS + 1):
        x, h = flat - t, 0.5 * t
        outer = 2.0 * _half_side(n, x + h, -0.5 * h)
        k = _half_side(n, x, -h)
        ft = outer - k
        within = abs(ft) <= _FLOOR_EPS * (outer + k)
        if within:
            break
        if ft > 0.0:
            lo = t
        else:
            hi, fhi = t, ft
        s = _half_side_d1(n, x) - _half_side_d1(n, x + h)
        if s and lo < (target := t - ft / s) < hi:  # t is lo or hi: an inside target moves
            t = target
        else:
            t = 0.5 * (lo + hi)
            if not lo < t < hi:  # two adjacent floats
                break
    if not within:
        error = ConvergenceError if math.isfinite(fhi) else BracketError
        raise error(
            f"no root within the floor on [{lo}, {hi}] after {i} iterations: f(hi)={fhi}",
            n=n, bracket=(lo, hi), residual=abs(ft),
        )
    return ThresholdResult(n, x, x0, n * t, i, abs(ft))
