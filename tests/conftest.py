"""Shared frozen oracle values and scan helpers.

The numeric constants were computed independently with mpmath at 60
significant digits and rounded to the nearest double; tests compare
library output against them at stated tolerances.
"""

import math
import os
import re
from collections.abc import Callable
from pathlib import Path

import numpy as np
import pytest

import isoperim

# absolute, so a fresh interpreter (a demo, a subprocess check) finds the
# package the tests import from any directory
PYTHONPATH = os.pathsep.join(
    filter(None, (str(Path(isoperim.__file__).parents[1]), os.environ.get("PYTHONPATH")))
)

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


def full_text(message: str) -> str:
    """A pytest.raises match pattern that admits `message` and nothing else."""
    return "^" + re.escape(message) + "$"


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


@pytest.fixture
def scored_rows(monkeypatch):
    """Row counts of the blocks brute_force_min scores, one entry per block.

    Counted in the blocks' running minima, the search's only 2-D
    np.minimum.accumulate; clear() the list between calls.
    """
    rows, minimum = [], np.minimum

    class CountingMinimum:
        def __getattr__(self, name):
            return getattr(minimum, name)

        def accumulate(self, array, axis=0):
            if array.ndim == 2:
                rows.append(array.shape[0])
            return minimum.accumulate(array, axis=axis)

    monkeypatch.setattr(np, "minimum", CountingMinimum())
    return rows


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


# ------------------------------------------------- shape-only derivatives
#
# The library needs only the kernel and its first derivative; the paper's
# shape claims (one inflection point, a concave first derivative, a concave
# spherical kernel) are checked with these closed forms. No domain check:
# callers pass angles inside (0, (n-2)*pi/n), or [(n-2)*pi/n, pi] for the
# spherical one.


def half_side_d2(n: int, x: float) -> float:
    """Second derivative of the hyperbolic half side; crosses zero once, at the inflection point."""
    # imported here: bench/test_reference.py loads this file without the package
    from isoperim.analysis import _denominator

    d = _denominator(n, x)
    if d <= 0.0:
        return -math.inf
    half = x / 2.0
    csc2 = 1.0 / (math.sin(half) ** 2)
    cot = 1.0 / math.tan(half)
    bracket = csc2 / math.sqrt(d) - math.sin(x) * cot / d**1.5
    return (math.cos(math.pi / n) / (2.0 * math.sqrt(2.0))) * bracket


def half_side_d3(n: int, x: float) -> float:
    """Third derivative; strictly negative, so the first derivative is concave."""
    # imported here: bench/test_reference.py loads this file without the package
    from isoperim.analysis import _denominator

    q = math.cos(2.0 * math.pi / n)
    cx = math.cos(x)
    d = _denominator(n, x)
    if d <= 0.0:
        return -math.inf
    half = x / 2.0
    csc2 = 1.0 / (math.sin(half) ** 2)
    cot = 1.0 / math.tan(half)
    # cx + 3 - 2q as 2*cos(x/2)^2 + 4*sin(pi/n)^2: a sum of positive terms,
    # where the plain form cancels as x approaches the flat angle
    tail = 2.0 * math.cos(half) ** 2 + 4.0 * math.sin(math.pi / n) ** 2
    bracket = (
        -cot * csc2 * (2.0 * q + 3.0 * cx - 1.0) / d**1.5
        - math.sin(x) * tail / d**2.5
    )
    return (math.cos(math.pi / n) / (4.0 * math.sqrt(2.0))) * bracket


def spherical_half_side_d2(n: int, x: float) -> float:
    """Second derivative of the spherical half side; negative (the kernel is concave)."""
    cpn = math.cos(math.pi / n)
    half = x / 2.0
    csc = 1.0 / math.sin(half)
    cot = 1.0 / math.tan(half)
    t = 1.0 - (cpn * csc) ** 2
    if t <= 0.0:
        # the kernel has a square-root singularity at the degenerate angle
        return -math.inf
    root = math.sqrt(t)
    return (
        -cpn * csc**3 / (4.0 * root)
        - cpn * cot**2 * csc / (4.0 * root)
        - cpn**3 * cot**2 * csc**3 / (4.0 * t * root)
    )
