"""Critical angle and inflection point of the half-side kernel.

For each side count n the second derivative of the half-side kernel has a
single zero, the inflection point x0, in closed form: with
d = cos(2*pi/n) + cos(x), the zero condition csc^2(x/2)*d = sin(x)*cot(x/2)
becomes cos^2(x0/2) = sin(pi/n). The equal-split margin has a single root
below x0 (the critical angle), located by a bracketed Newton iteration on
the margin's closed-form slope: a Newton step is taken only when it lands
strictly inside the current sign bracket, and a bisection step otherwise,
so the iteration converges unconditionally and, near the root,
quadratically. It stops once the margin is within its own rounding floor.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from .analysis import _margin_terms
from .errors import BracketError, ConvergenceError
from .geometry import Geometry, _area, _check_sides

MAX_ITERATIONS = 200
WIDTH_TOL = 1e-15
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class ThresholdResult:
    """Critical angle for one side count, with solver diagnostics.

    Splitting helps if and only if the interior angle is below
    `critical_angle`; equivalently the total area exceeds `max_area`.
    """

    n: int
    critical_angle: float
    inflection: float
    max_area: float
    iterations: int
    residual: float


def _bisect(
    f: Callable[[float], tuple[float, float, float]], lo: float, hi: float,
    flo: float | None = None, fhi: float | None = None,
) -> tuple[float, int, float]:
    """Bracketed root finder; returns (root, iterations, |f(root)|).

    f(x) returns (value, slope, floor): the function value, its derivative
    (0.0 for none) and the magnitude at or below which the value counts as
    zero. flo and fhi are the values at lo and hi when the caller has them.
    Every iterate shrinks the sign bracket [lo, hi]. The first iterate is
    the midpoint; after that, when the slope at the latest iterate is
    nonzero and its Newton step lands strictly inside the bracket, its
    target is the next iterate, and otherwise the midpoint is. Stops once
    |value| <= floor or the bracket is at most WIDTH_TOL wide. With slope
    0.0 this is plain bisection.
    """
    flo = f(lo)[0] if flo is None else flo
    if flo == 0.0:
        return lo, 0, 0.0
    fhi = f(hi)[0] if fhi is None else fhi
    if fhi == 0.0:
        return hi, 0, 0.0
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f={flo} and {fhi}", bracket=(lo, hi)
        )
    x = 0.5 * (lo + hi)
    for i in range(1, MAX_ITERATIONS + 1):
        fx, slope, floor = f(x)
        if abs(fx) <= floor or (hi - lo) <= WIDTH_TOL:
            return x, i, abs(fx)
        if math.copysign(1.0, fx) == math.copysign(1.0, flo):
            lo, flo = x, fx
        else:
            hi = x
        x_next = 0.5 * (lo + hi)
        if slope != 0.0 and math.isfinite(slope) and lo < (target := x - fx / slope) < hi:
            x_next = target
        x = x_next
    raise ConvergenceError(
        f"bisection did not converge in {MAX_ITERATIONS} iterations",
        bracket=(lo, hi), residual=abs(fx),
    )


# typed: a float n equal to a cached int must still reach _check_sides
@lru_cache(maxsize=None, typed=True)
def inflection_point(n: int) -> float:
    """Unique zero of the kernel's second derivative on its angle domain.

    The zero satisfies cos^2(x0/2) = sin(pi/n), so x0 = 2*acos(sqrt(sin(pi/n))).
    """
    _check_sides(n)
    return 2.0 * math.acos(math.sqrt(math.sin(math.pi / n)))


@lru_cache(maxsize=None, typed=True)
def critical_angle(n: int) -> ThresholdResult:
    """Critical interior angle: the unique root of the equal-split margin.

    Bracket construction: the margin is positive at the inflection point,
    and halving down from there must reach a negative value.
    """
    x0 = inflection_point(n)
    fhi = _margin_terms(n, x0, with_slope=False)[0]
    if not fhi > 0.0:
        raise BracketError(f"margin not positive at the inflection point for n={n}", n=n)
    lo = x0 / 2.0
    while not (flo := _margin_terms(n, lo, with_slope=False)[0]) < 0.0:
        lo /= 2.0
        if lo < 1e-15:
            raise BracketError(
                f"margin never negative above 1e-15 for n={n}", n=n, bracket=(lo, x0)
            )

    root, iterations, residual = _bisect(lambda x: _margin_terms(n, x), lo, x0, flo, fhi)
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(
            f"critical-angle residual {residual} exceeds {RESIDUAL_TOL} for n={n}",
            n=n, bracket=(lo, x0), residual=residual,
        )
    return ThresholdResult(
        n=n,
        critical_angle=root,
        inflection=x0,
        max_area=_area(Geometry.HYPERBOLIC, n, root),
        iterations=iterations,
        residual=residual,
    )
