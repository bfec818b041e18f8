"""Area, interior angle, side length and perimeter of regular n-gons.

All three constant-curvature planes are supported. Curvature is normalized
to |K| = 1, so lengths and areas are dimensionless for the spherical and
hyperbolic planes; Euclidean quantities carry ordinary length units. Angles
are radians throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError

# Above this side count the trigonometric factors are too close to their
# limits for double precision to keep the closed forms well conditioned.
MAX_SIDES = 10**6

# Below this area a curved polygon's side is the flat one to within 1.3e-19
# relative: the curvature term is at most 0.145*area (n = 3).
_TINY_AREA = 2.0**-60


class Geometry(Enum):
    """Ambient plane of constant sectional curvature 0, +1 or -1."""

    EUCLIDEAN = "euclidean"
    SPHERICAL = "spherical"
    HYPERBOLIC = "hyperbolic"

    def __init__(self, kind: str) -> None:
        # a plain attribute, not a property: the side kernel reads it per call
        self.curvature: int = {"euclidean": 0, "spherical": 1, "hyperbolic": -1}[kind]

    @property
    def kind(self) -> str:
        return self.value


def _check_sides(n: int) -> None:
    if n < 3:
        raise DomainError(f"side count must be >= 3, got {n}")
    if n > MAX_SIDES:
        raise DomainError(f"side count must be <= {MAX_SIDES}, got {n}")


def area_bounds(geometry: Geometry, n: int) -> tuple[float, float]:
    """Open interval of admissible areas for a regular n-gon in `geometry`."""
    _check_sides(n)
    if geometry is Geometry.EUCLIDEAN:
        return 0.0, math.inf
    if geometry is Geometry.SPHERICAL:
        return 0.0, 2.0 * math.pi
    return 0.0, (n - 2) * math.pi


def validate_area(geometry: Geometry, n: int, area: float) -> None:
    """Raise DomainError unless `area` lies strictly inside its admissible interval."""
    lo, hi = area_bounds(geometry, n)
    if not area > lo:
        raise DomainError(f"area must be > {lo}, got {area}")
    if not area < hi:
        raise DomainError(f"area must be < {hi} for {geometry.kind} n={n}, got {area}")


def angle_from_area(geometry: Geometry, n: int, area: float) -> float:
    """Interior angle of the regular n-gon with the given area.

    Spherical: (area + (n-2)*pi)/n. Hyperbolic: ((n-2)*pi - area)/n.
    Euclidean polygons have the fixed angle (n-2)*pi/n for any area.
    """
    validate_area(geometry, n, area)
    return _angle(geometry, n, area)


def _angle(geometry: Geometry, n: int, area):
    # Gauss-Bonnet: n * angle = (n-2)*pi + K * area
    return ((n - 2) * math.pi + geometry.curvature * area) / n


def area_from_angle(geometry: Geometry, n: int, angle: float) -> float:
    """Area of the regular n-gon with the given interior angle (curved planes only)."""
    _check_sides(n)
    flat = (n - 2) * math.pi / n
    if geometry is Geometry.EUCLIDEAN:
        raise DomainError("euclidean interior angle does not determine the area")
    if geometry is Geometry.SPHERICAL:
        if not flat < angle < math.pi:
            raise DomainError(
                f"spherical interior angle must lie in ({flat}, {math.pi}), got {angle}"
            )
        return n * angle - (n - 2) * math.pi
    if not 0.0 < angle < flat:
        raise DomainError(
            f"hyperbolic interior angle must lie in (0, {flat}), got {angle}"
        )
    return (n - 2) * math.pi - n * angle


@dataclass(frozen=True)
class RegularPolygon:
    """Regular n-gon identified by its ambient geometry, side count and area."""

    geometry: Geometry
    n: int
    area: float

    def __post_init__(self) -> None:
        validate_area(self.geometry, self.n, self.area)

    @property
    def angle(self) -> float:
        return angle_from_area(self.geometry, self.n, self.area)

    @property
    def side(self) -> float:
        return side_length(self)

    @property
    def perimeter(self) -> float:
        return perimeter(self)


def side_length(polygon: RegularPolygon) -> float:
    """Length of one side.

    For the curved planes the half side s/2 satisfies cos(s/2) resp.
    cosh(s/2) = cos(pi/n)/sin(angle/2) = 1 - D, with D formed from the area
    as a product of sines (see _half_side), so that no digits cancel;
    below an area of 2**-60 the flat side is exact to rounding. Euclidean
    polygons use s = sqrt(4*tan(pi/n)/n)*sqrt(area), which stays finite for
    every finite area (the product 4*tan(pi/n)*area overflows near the
    largest double).
    """
    return _side(polygon.geometry, polygon.n, polygon.area)


def _half_side(n: int, x, d=None, curvature: int = -1, m=math):
    """Half side of the regular n-gon with interior angle x in a curved plane.

    With a = pi/n, h = (pi - x)/2 and d = a - h = (x - flat)/2, the ratio
    cos(a)/sin(x/2) is 1 - D for D = 2*sin((h + a)/2)*sin(d/2)/sin(x/2), a
    product that keeps its relative accuracy as x approaches the flat angle.
    The hyperbolic half side (curvature -1) is arccosh(1 + delta) =
    log1p(delta + sqrt(delta*(delta + 2))) with delta = -D; the spherical one
    (curvature 1) is arccos(1 - D) = 2*asin(sqrt(D/2)).

    A caller that knows the deficit passes d (K*area/(2n) for an area), so
    the numerator is never taken from a rounded x; without d, x is a
    hyperbolic angle. With a hyperbolic d (< 0), sin((h + a)/2) = sin(a - d/2)
    is expanded as sin(a)*cos(d/2) - cos(a)*sin(d/2), a sum of two positive
    terms, so that one sine serves both factors: an array then takes three
    elementwise passes, not four. In the spherical plane (d >= 0) the
    expansion would subtract, so it keeps the sine of a - d/2. `m`
    supplies sin, asin, log1p and sqrt: math for floats, or a namespace that
    maps them over a 1-D numpy array with math's bits (see brute_force_min).
    No domain check.
    """
    a = math.pi / n
    if d is None:
        if x < 1e-150:  # sin(x/2) = x/2 and arccosh(r) = log(2r), where delta**2 overflows
            return math.log(4.0 * math.cos(a)) - math.log(x)
        h = 0.5 * (math.pi - x)
        d = a - h
        if d >= 0.0:  # only within roundoff of the flat angle: a half side of +0.0
            d = -0.0
        s = m.sin(0.5 * d)
        mid = m.sin(0.5 * (h + a))
    else:
        s = m.sin(0.5 * d)
        if curvature < 0:
            mid = math.sin(a) * m.sqrt(1.0 - s * s) - math.cos(a) * s
        else:
            mid = m.sin(a - 0.5 * d)
    D = 2.0 * mid * s / m.sin(0.5 * x)
    if curvature > 0:
        return 2.0 * m.asin(m.sqrt(0.5 * D))
    delta = -D
    return m.log1p(delta + m.sqrt(delta * (delta + 2.0)))


def _side(geometry: Geometry, n: int, area, m=math):
    """side_length for an (n, area) the caller has already checked against area_bounds.

    `area` is a float, or a 1-D numpy array of areas when `m` maps math's
    functions over arrays (see _half_side); every element then has the bits
    of the float call.
    """
    k = geometry.curvature
    if k == 0 or m is math and area < _TINY_AREA:
        return math.sqrt(4.0 * math.tan(math.pi / n) / n) * m.sqrt(area)
    side = 2.0 * _half_side(n, _angle(geometry, n, area), k * area / (2 * n), k, m)
    if m is math:
        return side
    # an array: each element takes the branch of its float call
    return m.where(area < _TINY_AREA, _side(Geometry.EUCLIDEAN, n, area, m), side)


def perimeter(polygon: RegularPolygon) -> float:
    """Total boundary length, n times the side length."""
    return polygon.n * side_length(polygon)
