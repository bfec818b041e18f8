"""Critical angle and inflection point of the half-side kernel.

For each side count n the second derivative of the half-side kernel has a
single zero (the inflection point), and the equal-split margin has a single
root below it (the critical angle). Both are located by a bracketed Newton
iteration on the closed-form derivatives: a Newton step is taken only when
it lands strictly inside the current sign bracket, and a bisection step
otherwise, so the iteration converges unconditionally and, near the root,
quadratically.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from .analysis import (
    AnalysisDomain,
    equal_split_margin,
    half_side_d1,
    half_side_d2,
    half_side_d3,
)
from .errors import BracketError, ConvergenceError

MAX_ITERATIONS = 200
WIDTH_TOL = 1e-15
RESIDUAL_TOL = 1e-10
# A Newton step at most this many ulps long means the iterate is converged.
STEP_ULPS = 4


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
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    df: Callable[[float], float] | None = None,
) -> tuple[float, int, float]:
    """Bracketed root finder; returns (root, iterations, |f(root)|).

    Every iterate shrinks the sign bracket [lo, hi]. The first iterate is
    the midpoint; after that, when the derivative df is given and the Newton
    step from the latest iterate lands strictly inside the bracket, its
    target is the next iterate, and otherwise the midpoint is. Stops once
    |f| <= tol, the bracket is at most WIDTH_TOL wide, or the Newton step is
    at most STEP_ULPS ulps long. Without df this is plain bisection.
    """
    flo = f(lo)
    if flo == 0.0:
        return lo, 0, 0.0
    fhi = f(hi)
    if fhi == 0.0:
        return hi, 0, 0.0
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={flo} and {fhi}")
    x = 0.5 * (lo + hi)
    for i in range(1, MAX_ITERATIONS + 1):
        fx = f(x)
        if abs(fx) <= tol or (hi - lo) <= WIDTH_TOL:
            return x, i, abs(fx)
        if math.copysign(1.0, fx) == math.copysign(1.0, flo):
            lo, flo = x, fx
        else:
            hi = x
        x_next = 0.5 * (lo + hi)
        if df is not None:
            slope = df(x)
            if slope != 0.0 and math.isfinite(slope):
                step = fx / slope
                if abs(step) <= STEP_ULPS * math.ulp(x):
                    return x, i, abs(fx)
                if lo < x - step < hi:
                    x_next = x - step
        x = x_next
    raise ConvergenceError(f"bisection did not converge in {MAX_ITERATIONS} iterations")


@lru_cache(maxsize=None)
def inflection_point(n: int) -> float:
    """Unique zero of the kernel's second derivative on its angle domain."""
    dom = AnalysisDomain(n)
    hi = dom.hi

    x_pos = hi / 2.0
    while not half_side_d2(n, x_pos) > 0.0:
        x_pos /= 2.0
        if x_pos < 1e-15:
            raise BracketError(f"no positive value of the second derivative for n={n}")
    offset = hi / 4.0
    while not half_side_d2(n, hi - offset) < 0.0:
        offset /= 2.0
        if offset < 1e-15:
            raise BracketError(f"no negative value of the second derivative for n={n}")

    root, _, residual = _bisect(
        lambda x: half_side_d2(n, x), x_pos, hi - offset, 0.0, lambda x: half_side_d3(n, x)
    )
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(
            f"inflection residual {residual} exceeds {RESIDUAL_TOL} for n={n}"
        )
    return root


@lru_cache(maxsize=None)
def critical_angle(n: int) -> ThresholdResult:
    """Critical interior angle: the unique root of the equal-split margin.

    Bracket construction: the margin is positive at the inflection point,
    and halving down from there must reach a negative value.
    """
    x0 = inflection_point(n)
    if not equal_split_margin(n, x0) > 0.0:
        raise BracketError(f"margin not positive at the inflection point for n={n}")
    lo = x0 / 2.0
    while not equal_split_margin(n, lo) < 0.0:
        lo /= 2.0
        if lo < 1e-15:
            raise BracketError(f"margin never negative above 1e-15 for n={n}")

    root, iterations, residual = _bisect(
        lambda x: equal_split_margin(n, x),
        lo,
        x0,
        0.0,
        lambda x: half_side_d1(n, x / 2.0 + math.pi / 2.0 - math.pi / n) - half_side_d1(n, x),
    )
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(
            f"critical-angle residual {residual} exceeds {RESIDUAL_TOL} for n={n}"
        )
    max_area = (n - 2) * math.pi - n * root
    return ThresholdResult(
        n=n,
        critical_angle=root,
        inflection=x0,
        max_area=max_area,
        iterations=iterations,
        residual=residual,
    )
