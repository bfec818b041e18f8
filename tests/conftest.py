"""Shared frozen oracle values and scan helpers.

The numeric constants were computed independently with mpmath at 60
significant digits and rounded to the nearest double; tests compare
library output against them at stated tolerances.
"""

from collections.abc import Callable

import numpy as np

# arccosh(3 + 2*sqrt(3)): side of the hyperbolic triangle with area pi/2
SIDE_AREA_HALF_PI = 2.5533737367606908

# half-side kernel spot values
HALF_SIDE_3_PI6 = 1.2766868683803454
HALF_SIDE_4_PI4 = 1.2242262238390379

# critical angles and inflection points
THETA_3 = 0.26065833380384899
THETA_4 = 0.42114373176378579
THETA_5 = 0.54038535795545941
X0_3 = 0.74946886541748015
MAX_AREA_3 = 2.3596176521782463

# two-triangle counterexample at epsilon = 0.1
CE_SINGLE = 17.961849875425716
CE_SPLIT = 14.083302703049043
CE_MARGIN = 3.8785471723766736

# equal two-way split of the area with interior angle 0.1 (n = 3)
EQ_SPLIT_PERIM_THETA_01 = 14.050960266937173


def sign_changes(values) -> list[int]:
    """Indices i where values[i] and values[i+1] have opposite signs."""
    flips = []
    for i in range(len(values) - 1):
        if values[i] < 0.0 <= values[i + 1] or values[i] > 0.0 >= values[i + 1]:
            flips.append(i)
    return flips


def staged_scan_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    target_resolution: float = 1e-9,
    points_per_stage: int = 2000,
) -> float:
    """Locate the unique sign change of f by nested exhaustive grid scans.

    Each stage scans the active bracket uniformly and must see exactly one
    sign change; the bracketing cell becomes the next bracket. Stops once
    the cell width is at most target_resolution and returns its midpoint.
    """
    while True:
        xs = np.linspace(lo, hi, points_per_stage + 1)
        values = [f(float(x)) for x in xs]
        flips = sign_changes(values)
        assert len(flips) == 1, f"expected one sign change, found {len(flips)}"
        lo, hi = float(xs[flips[0]]), float(xs[flips[0] + 1])
        if hi - lo <= target_resolution:
            return 0.5 * (lo + hi)


# Largest difference of two endpoint sums that still counts as one conserved sum.
SUM_TOL = 1e-12


def check_concave_split(
    f: Callable[[float], float], a: float, b: float, c: float, d: float
) -> bool:
    """Whether f(c) + f(d) strictly exceeds f(a) + f(b) for a conserved sum.

    Requires a + b = c + d (within SUM_TOL); for strictly concave f with
    c, d interior to [a, b] the answer is always True.
    """
    if abs((a + b) - (c + d)) > SUM_TOL:
        # imported here: bench/test_reference.py loads this file without the package
        from isoperim import ArgumentError

        raise ArgumentError(f"endpoint sums differ: {a + b} vs {c + d}")
    return f(c) + f(d) > f(a) + f(b)


def central_difference(f: Callable[[float], float], x: float, h: float = 1e-6) -> float:
    """Symmetric finite-difference estimate of f'(x) with step h."""
    return (f(x + h) - f(x - h)) / (2.0 * h)
