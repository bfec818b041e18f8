"""Scalar kernels behind the split-versus-single perimeter comparisons.

The hyperbolic half-side kernel maps an interior angle x to the half side
length of the regular n-gon with that angle, so a polygon's perimeter is
2*n times the kernel value. The equal-split margin and its slope, built
from the kernel and its first derivative, drive the threshold computation;
the second and third derivatives and the two-split objective describe the
kernel's shape, and the spherical analogue supplies the concavity argument
for the spherical case.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError
from .geometry import _check_sides, _half_side

_SQRT2 = math.sqrt(2.0)
_FLOOR_EPS = 4.0 * sys.float_info.epsilon


def _require_angle(n: int, x: float) -> None:
    """Raise DomainError unless x lies in (0, (n-2)*pi/n), the hyperbolic angles."""
    _check_sides(n)
    hi = (n - 2) * math.pi / n
    if not 0.0 < x < hi:
        raise DomainError(f"angle must lie in the open interval (0.0, {hi}), got {x}")


@dataclass(frozen=True)
class SplitFunctionParams:
    """Conserved angle sum c of a two-polygon split at fixed side count n.

    Splitting a polygon of interior angle t into two pieces with angles
    t1 + t2 = c conserves total area exactly when c = t + (n-2)*pi/n.
    """

    n: int
    c: float

    def __post_init__(self) -> None:
        _check_sides(self.n)
        flat = (self.n - 2) * math.pi / self.n
        if not flat < self.c < 2.0 * flat:
            raise DomainError(
                f"angle sum must lie in ({flat}, {2.0 * flat}), got {self.c}"
            )

    @property
    def lo(self) -> float:
        return self.c - (self.n - 2) * math.pi / self.n

    @property
    def hi(self) -> float:
        return (self.n - 2) * math.pi / self.n

    def require(self, x: float) -> None:
        if not self.lo < x < self.hi:
            raise DomainError(
                f"split angle must lie in the open interval ({self.lo}, {self.hi}), got {x}"
            )


def half_side(n: int, x: float) -> float:
    """Hyperbolic half side length arccosh(cos(pi/n)/sin(x/2)) at interior angle x.

    The kernel is geometry._half_side: it forms cos(pi/n)/sin(x/2) - 1 as a
    product of sines, which keeps its relative accuracy as x approaches the
    flat angle, and takes arccosh(1 + delta) as log1p(delta + sqrt(delta*(delta+2))).
    """
    _require_angle(n, x)
    return _half_side(n, x)


def _denominator(n: int, x: float) -> float:
    """cos(2*pi/n) + cos(x) as 2*cos(x/2 + pi/n)*cos(x/2 - pi/n), free of cancellation."""
    a = math.pi / n
    return 2.0 * math.cos(0.5 * x + a) * math.cos(0.5 * x - a)


def half_side_d1(n: int, x: float) -> float:
    """First derivative of the half-side kernel; negative on the whole domain."""
    _require_angle(n, x)
    return _half_side_d1(n, x)


def _half_side_d1(n: int, x: float) -> float:
    """half_side_d1 without the domain check."""
    d = _denominator(n, x)
    if d <= 0.0:
        return -math.inf
    return -(math.cos(math.pi / n) / _SQRT2) * (1.0 / math.tan(x / 2.0)) / math.sqrt(d)


def half_side_d2(n: int, x: float) -> float:
    """Second derivative; crosses zero exactly once, at the inflection point."""
    _require_angle(n, x)
    d = _denominator(n, x)
    if d <= 0.0:
        return -math.inf
    half = x / 2.0
    csc2 = 1.0 / (math.sin(half) ** 2)
    cot = 1.0 / math.tan(half)
    bracket = csc2 / math.sqrt(d) - math.sin(x) * cot / d**1.5
    return (math.cos(math.pi / n) / (2.0 * _SQRT2)) * bracket


def half_side_d3(n: int, x: float) -> float:
    """Third derivative; strictly negative, so the first derivative is concave."""
    _require_angle(n, x)
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
    return (math.cos(math.pi / n) / (4.0 * _SQRT2)) * bracket


def _require_spherical_angle(n: int, x: float) -> None:
    """Raise DomainError unless x lies in [(n-2)*pi/n, pi], the spherical kernel's domain."""
    _check_sides(n)
    flat = (n - 2) * math.pi / n
    if not flat <= x <= math.pi:
        raise DomainError(f"angle must lie in [{flat}, {math.pi}], got {x}")


def spherical_half_side(n: int, x: float) -> float:
    """Spherical half side arccos(cos(pi/n)/sin(x/2)); the degenerate angle is allowed.

    Its error grows like ulp(x)/(x - flat) next to the flat angle, where the
    rounding of the flat angle itself dominates.
    """
    _require_spherical_angle(n, x)
    return _half_side(n, x, 0.5 * (x - (n - 2) * math.pi / n), 1)


def spherical_half_side_d2(n: int, x: float) -> float:
    """Second derivative of the spherical half side; negative (the kernel is concave)."""
    _require_spherical_angle(n, x)
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


def split_objective(params: SplitFunctionParams, x: float) -> float:
    """Combined half sides of a two-polygon split with angle sum params.c.

    Symmetric about c/2; total split perimeter is 2*n times this value.
    """
    params.require(x)
    return half_side(params.n, x) + half_side(params.n, params.c - x)


def equal_split_margin(n: int, x: float) -> float:
    """Equal-split half-perimeter excess 2*K((x + flat)/2) - K(x) at angle x.

    Positive means the single polygon beats the equal two-way split; the
    unique root of this margin is the critical angle.
    """
    _require_angle(n, x)
    # next to the flat angle the inner angle can round onto it, where the margin's sign is lost
    flat = (n - 2) * math.pi / n
    if not _inner_angle(n, x) < flat:
        raise DomainError(
            f"angle {x} is too close to the flat angle {flat}: "
            "the equal split's inner angle rounds onto it"
        )
    return _margin_terms(n, x, with_slope=False)[0]


def _inner_angle(n: int, x: float) -> float:
    """Angle (x + flat)/2 of each half of the equal split, as x/2 + pi/2 - pi/n."""
    return x / 2.0 + math.pi / 2.0 - math.pi / n


def _margin_terms(n: int, x: float, with_slope: bool = True) -> tuple[float, float, float]:
    """Equal-split margin at x, its slope (0.0 unless with_slope) and its rounding floor.

    No domain check. The floor 4*eps*(2K(inner) + K(x)) bounds the rounding
    error of the margin's two terms (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 1-3), so a margin within it is zero.
    """
    inner = _inner_angle(n, x)
    outer = 2.0 * _half_side(n, inner)
    k = _half_side(n, x)
    slope = _half_side_d1(n, inner) - _half_side_d1(n, x) if with_slope else 0.0
    return outer - k, slope, _FLOOR_EPS * (outer + k)

