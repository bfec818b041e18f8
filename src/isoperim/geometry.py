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

# Inverse-trig arguments are clamped onto their domain only when they miss
# it by at most this much; anything larger signals a logic error upstream.
CLAMP_TOL = 1e-12


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


def _each(fn, x):
    """math's `fn` of a float, or of each element of a 1-D numpy array.

    numpy's own transcendentals differ from math's in the last bit on some
    inputs, so arrays go through math too and keep the bits of floats.
    """
    if not getattr(x, "ndim", 0):
        return fn(x)
    import numpy as np

    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _clamped_acos(u):
    if getattr(u, "ndim", 0):  # an array: its first element out of range raises
        bad = (u > 1.0 + CLAMP_TOL) | (u < -1.0 - CLAMP_TOL)
        if bad.any():
            _clamped_acos(float(u[bad.argmax()]))
        return _each(math.acos, u.clip(-1.0, 1.0))
    if u > 1.0:
        if u > 1.0 + CLAMP_TOL:
            raise DomainError(f"arccos argument {u} exceeds 1 beyond roundoff")
        u = 1.0
    elif u < -1.0:
        if u < -1.0 - CLAMP_TOL:
            raise DomainError(f"arccos argument {u} below -1 beyond roundoff")
        u = -1.0
    return math.acos(u)


def _clamped_acosh(u):
    if getattr(u, "ndim", 0):  # an array: its first element out of range raises
        bad = u < 1.0 - CLAMP_TOL
        if bad.any():
            _clamped_acosh(float(u[bad.argmax()]))
        return _each(math.acosh, u.clip(1.0))
    if u < 1.0:
        if u < 1.0 - CLAMP_TOL:
            raise DomainError(f"arccosh argument {u} below 1 beyond roundoff")
        u = 1.0
    return math.acosh(u)


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

    For the curved planes the half side satisfies
    cos(s/2) resp. cosh(s/2) = cos(pi/n)/sin(angle/2); Euclidean polygons
    use s = sqrt(4*tan(pi/n)/n)*sqrt(area), which stays finite for every
    finite area (the product 4*tan(pi/n)*area overflows near the largest
    double).
    """
    return _side(polygon.geometry, polygon.n, polygon.area)


def _side(geometry: Geometry, n: int, area):
    """side_length for an (n, area) the caller has already checked against area_bounds.

    `area` is a float or a 1-D numpy array of areas. An array gives every
    element the same bits as the float call: numpy does only the IEEE
    arithmetic, and each transcendental step goes through math (`_each`).
    """
    if geometry is Geometry.EUCLIDEAN:
        return math.sqrt(4.0 * math.tan(math.pi / n) / n) * _each(math.sqrt, area)
    ratio = math.cos(math.pi / n) / _each(math.sin, _angle(geometry, n, area) / 2.0)
    if geometry is Geometry.SPHERICAL:
        return 2.0 * _clamped_acos(ratio)
    return 2.0 * _clamped_acosh(ratio)


def perimeter(polygon: RegularPolygon) -> float:
    """Total boundary length, n times the side length."""
    return polygon.n * side_length(polygon)
