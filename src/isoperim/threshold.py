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
- (47504/426465)e**12 + (289976/5019165)e**16 - (45603556/1060224795)e**18
+ (42011744/1650124305)e**22 - (451723252/22599528525)e**24) + O(e**29), its
e**9, e**15, e**21 and e**27 terms zero: the margin's series in e inverted
order by order (de Bruijn, Asymptotic Methods in Analysis, ch. 2;
tests/test_threshold.py derives it in fractions). From n = SERIES_FROM the
start is that series; from START_TERMS_FROM below it, the tabulated root
itself (ROOTS); below that the series' first two terms, or the midpoint
where those are outside (n = 3).
Each step is a Newton step on the margin's closed-form slope where that
lands strictly inside the sign bracket, and a bisection step otherwise, so
the iteration converges unconditionally and, near the root, quadratically;
it stops at the first iterate, the start included, whose margin is within
its own rounding floor. The loop in critical_angle is the one root finder;
it calls the scalar kernels _half_side and _half_side_d1 itself.
Over every n in [3, 10**6] a solve takes 1 iteration for each n from 8 on
(the start within the floor; CI checks every such n), and 6 or 7 for
n = 3 to 7; over n in [3, 2000] a mean of 1.015. The result keeps x0, so
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
# From this n on the start is the root itself: ROOTS below SERIES_FROM, the
# series from it. Below it the two-term start is kept: the series start saves
# 2 to 4 of the 6 or 7 iterations of the solves at n = 3 to 7, but at n = 4, 5
# and 7 they then end further from mpmath's root (3.3, 4.2 and 3.8 ulp,
# against 0.7, 0.2 and 0.2).
START_TERMS_FROM = 8
# From this n on the series start is within the floor at every n to 10**6
# (CI checks each); below it the series is 6.0e-7 (n = 8) to 9.7e-15 (n = 54)
# relative off the root, and a solve from it takes a second iteration.
SERIES_FROM = 55
# The root t of n = START_TERMS_FROM, ..., SERIES_FROM - 1: mpmath's root of
# the margin at 50 digits, rounded to the nearest float (tests/test_threshold.py
# recomputes each), so each is within its floor at the first evaluation.
ROOTS = (
    1.5707963267948966, 1.5974391321139214, 1.6132701537284795, 1.621779684693578,
    1.625208658943248, 1.6250471216018054, 1.6223145777641192, 1.6177252801695494,
    1.6117895976078898, 1.6048782963713457, 1.5972644906063422, 1.5891517095098933,
    1.580693089482469, 1.5720047520310265, 1.5631752890516881, 1.5542725910992685,
    1.545348830298073, 1.5364441414073224, 1.5275893713790043, 1.5188081537638052,
    1.5101184879939484, 1.5015339516480863, 1.4930646379660104, 1.4847178858145063,
    1.4764988515560014, 1.4684109595589863, 1.4604562588873409, 1.4526357069791884,
    1.4449493961635185, 1.4373967351703578, 1.4299765950205874, 1.422687426588287,
    1.4155273555353096, 1.4084942590970746, 1.4015858282574152, 1.3947996181203577,
    1.3881330887174406, 1.3815836380428543, 1.375148628757032, 1.3688254097209387,
    1.362611333301968, 1.3565037692156166, 1.3505001155254182, 1.3445978073096225,
    1.3387943234110347, 1.3330871916118365, 1.3274739925145853,
)
# t/e = c0 + c1*e**2 + ... + c12*e**24 for e = (pi/n)**(1/3): the e**1 to e**25
# terms of t, whose e**9, e**15 and e**21 terms are zero.
SERIES = (4.0, -4.0, 56.0 / 45.0, -268.0 / 567.0, 0.0, 1352.0 / 8019.0, -47504.0 / 426465.0,
          0.0, 289976.0 / 5019165.0, -45603556.0 / 1060224795.0, 0.0,
          42011744.0 / 1650124305.0, -451723252.0 / 22599528525.0)


@_record
class ThresholdResult:
    """Critical angle for one side count, with solver diagnostics.

    Splitting helps if and only if the interior angle is below
    `critical_angle`; equivalently the total area exceeds `max_area`.
    For every n in [8, 10**6] the start is accepted: from n = 100,
    `critical_angle` is within 4e-16 relative error of the exact root and
    `max_area` within 4e-16, from 55 within 7e-15 and 1e-14, and on [8, 55),
    from ROOTS, within 6e-16 and 2e-16 (measured against mpmath over every
    such n: at worst 3.8e-16 at n = 166 and 3.9e-16 at n = 796927 from 100,
    6.3e-15 and 8.1e-15 at n = 55, where the series' left-out e**29 term is
    8e-15 of t, and 5.7e-16 at n = 13 and 1.5e-16 at n = 48 on [8, 55)).
    Below 8 the solve's bounds hold: 1e-13 and 2.5e-12 (measured over every
    n in [3, 10**6] when the solve ran at each: at worst 4.7e-14 and
    2.26e-12, at n = 765935). A start outside the floor would go on through
    the solve; no n in [8, 10**6] does, and that path was checked only at
    n = 8, 54, 55, 10**4 and 765935 with a perturbed start.
    `iterations` counts the iterates evaluated, the start included: 1 for an
    accepted start, whose `residual` is the margin there.
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
    evaluated there: a start within it is the root at one margin
    evaluation. A bracket that closes to adjacent floats first is a
    ConvergenceError, or a BracketError if it closed onto the open end.
    """
    n = _check_sides(n)
    x0 = _inflection(n)
    flat = _flat(n)
    lo = flat - x0  # exact: x0 lies in [flat/2, flat)
    a = math.pi / n
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12 = SERIES
    if n >= SERIES_FROM:
        e = a ** (1.0 / 3.0)
        # pow's rounded exponent leaves e up to 2.6 ulp off; one Newton step
        # on e**3 = a, 0.7 ulp (math.cbrt, new in Python 3.11, 2.7 ulp)
        e -= (e - a / (e * e)) / 3.0
        e2 = e * e
        t = c6 + e2 * (c7 + e2 * (c8 + e2 * (c9 + e2 * (c10 + e2 * (c11 + e2 * c12)))))
        t = e * (c0 + e2 * (c1 + e2 * (c2 + e2 * (c3 + e2 * (c4 + e2 * (c5 + e2 * t))))))
    elif n >= START_TERMS_FROM:
        t = ROOTS[n - START_TERMS_FROM]
    else:
        t = c0 * a ** (1.0 / 3.0) + c1 * a
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
