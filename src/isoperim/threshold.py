"""Critical angle and inflection point of the half-side kernel.

For each side count n the second derivative of the half-side kernel has a
single zero, the inflection point x0, in closed form: with
d = cos(2*pi/n) + cos(x), the zero condition csc^2(x/2)*d = sin(x)*cot(x/2)
becomes cos^2(x0/2) = sin(pi/n). The equal-split margin has a single root
below x0, the critical angle, solved for in the deficit t = flat - x =
area/n on [flat - x0, flat), where the margin falls from positive to -inf;
its half sides take their deficits from t, and max_area is n*t. The start
is the asymptote t0 = 4*(pi/n)**(1/3) - 4*pi/n (observed, not derived), or
the midpoint where t0 is outside (n = 3). A Newton step on the margin's
closed-form slope is taken only when it lands strictly inside the current
sign bracket, and a bisection step otherwise, so the iteration converges
unconditionally and, near the root, quadratically. It stops once the
margin is within its own rounding floor.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from .analysis import _margin_terms
from .errors import BracketError, ConvergenceError
from .geometry import _check_sides, _flat

MAX_ITERATIONS = 200
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class ThresholdResult:
    """Critical angle for one side count, with solver diagnostics.

    Splitting helps if and only if the interior angle is below
    `critical_angle`; equivalently the total area exceeds `max_area`.
    For every n in [3, 10**6], `critical_angle` is within 1e-13 relative
    error of the exact root and `max_area` within 2.5e-12 (measured against
    mpmath over every such n: at worst 4.8e-14 and 2.2e-12, at n = 680172).
    """

    n: int
    critical_angle: float
    inflection: float
    max_area: float
    iterations: int
    residual: float


def _bisect(
    f: Callable[[float], tuple[float, float, float]], lo: float, hi: float,
    flo: float | None = None, fhi: float | None = None, first: float | None = None, n=None,
) -> tuple[float, int, float]:
    """Bracketed root finder; returns (root, iterations, |f(root)|).

    f(x) returns (value, slope, floor): the function value, its derivative
    (0.0 for none) and the magnitude at or below which the value counts as
    zero. flo and fhi are the values at lo and hi when the caller has them;
    for an open end it passes f's infinite limit there, as no iterate lands
    on an end. Every iterate shrinks the sign bracket [lo, hi]. The first
    iterate is `first` when it lies strictly inside the bracket, and the
    midpoint otherwise; after that, when the slope at the latest iterate is
    nonzero and its Newton step lands strictly inside the bracket, its
    target is the next iterate, and otherwise the midpoint is. Stops once
    |value| <= floor. A bracket that closes to adjacent floats first is a
    ConvergenceError, or a BracketError if it closed onto an open end (no
    sign change). With slope 0.0 this is plain bisection. Errors carry n.
    """
    flo = f(lo)[0] if flo is None else flo
    if flo == 0.0:
        return lo, 0, 0.0
    fhi = f(hi)[0] if fhi is None else fhi
    if fhi == 0.0:
        return hi, 0, 0.0
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f={flo} and {fhi}", n=n, bracket=(lo, hi)
        )
    x = first if first is not None and lo < first < hi else 0.5 * (lo + hi)
    for i in range(1, MAX_ITERATIONS + 1):
        fx, slope, floor = f(x)
        if abs(fx) <= floor:
            return x, i, abs(fx)
        if math.copysign(1.0, fx) == math.copysign(1.0, flo):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        x_next = 0.5 * (lo + hi)
        if slope != 0.0 and math.isfinite(slope) and lo < (target := x - fx / slope) < hi:
            x_next = target
        if not lo < x_next < hi:  # two adjacent floats
            break
        x = x_next
    error = ConvergenceError if math.isfinite(flo) and math.isfinite(fhi) else BracketError
    raise error(
        f"no root within the floor on [{lo}, {hi}] after {i} iterations: f={flo} and {fhi}",
        n=n, bracket=(lo, hi), residual=abs(fx),
    )


# typed: a float n equal to a cached int must still reach _check_sides
@lru_cache(maxsize=None, typed=True)
def inflection_point(n: int) -> float:
    """Unique zero of the kernel's second derivative on its angle domain.

    The zero satisfies cos^2(x0/2) = sin(pi/n), so x0 = 2*acos(sqrt(sin(pi/n))).
    """
    n = _check_sides(n)
    return 2.0 * math.acos(math.sqrt(math.sin(math.pi / n)))


@lru_cache(maxsize=None, typed=True)
def critical_angle(n: int) -> ThresholdResult:
    """Critical interior angle: the unique root of the equal-split margin.

    Solved for the deficit t = flat - x on [flat - x0, flat) from the
    asymptote's t0 (see the module docstring); the margin must be positive
    at the inflection point x0.
    """
    n = _check_sides(n)
    x0 = inflection_point(n)
    flat = _flat(n)
    lo = flat - x0  # exact: x0 lies in [flat/2, flat)
    flo = _margin_terms(n, x0, False, lo)[0]
    if not flo > 0.0:
        raise BracketError(f"margin not positive at the inflection point for n={n}", n=n)
    t0 = 4.0 * (math.pi / n) ** (1.0 / 3.0) - 4.0 * math.pi / n
    t, iterations, residual = _bisect(
        lambda t: _margin_terms(n, flat - t, True, t), lo, flat, flo, -math.inf, t0, n
    )
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(
            f"critical-angle residual {residual} exceeds {RESIDUAL_TOL} for n={n}",
            n=n, bracket=(lo, flat), residual=residual,
        )
    return ThresholdResult(n=n, critical_angle=flat - t, inflection=x0, max_area=n * t,
                           iterations=iterations, residual=residual)
