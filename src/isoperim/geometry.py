"""Area, interior angle, side length and perimeter of regular n-gons.

All three constant-curvature planes are supported. Curvature is normalized
to |K| = 1, so lengths and areas are dimensionless for the spherical and
hyperbolic planes; Euclidean quantities carry ordinary length units. Angles
are radians throughout.
"""

from __future__ import annotations

import math
import operator
from dataclasses import MISSING, dataclass, fields
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


def _check_sides(n: int) -> int:
    try:
        index = operator.index(n)  # an int or a numpy integer; no float, not even 3.0
    except TypeError:
        raise DomainError(f"side count must be an integer, got {n!r}") from None
    if n < 3:
        raise DomainError(f"side count must be >= 3, got {n}")
    if n > MAX_SIDES:
        raise DomainError(f"side count must be <= {MAX_SIDES}, got {n}")
    return index  # a builtin int, so that no numpy scalar reaches a result


def area_bounds(geometry: Geometry, n: int) -> tuple[float, float]:
    """Open interval of admissible areas for a regular n-gon in `geometry`."""
    n = _check_sides(n)
    # the plane by its curvature, an instance attribute: reading a member off
    # the Enum class (Geometry.EUCLIDEAN) costs about ten times as much
    if not isinstance(geometry, Geometry):
        raise DomainError(f"geometry must be a Geometry, got {geometry!r}")
    if geometry.curvature == 0:
        return 0.0, math.inf
    if geometry.curvature > 0:
        return 0.0, 2.0 * math.pi
    return 0.0, (n - 2) * math.pi


def validate_area(geometry: Geometry, n: int, area: float) -> None:
    """Raise DomainError unless `area` lies strictly inside its admissible interval."""
    lo, hi = area_bounds(geometry, n)
    # judged as given (a str is a TypeError), then as the float the kernels take
    if not (area > lo and (x := _float(area)) > lo):
        raise DomainError(f"area must be > {lo}, got {area}")
    if not x < hi:
        raise DomainError(f"area must be < {hi} for {geometry.kind} n={n}, got {area}")


def _float(number) -> float:
    """float(number) for a number > 0, or inf where that raises (10**400 compares below inf)."""
    try:
        return float(number)
    except OverflowError:
        return math.inf


def angle_from_area(geometry: Geometry, n: int, area: float) -> float:
    """Interior angle of the regular n-gon with the given area.

    Spherical: (area + (n-2)*pi)/n. Hyperbolic: ((n-2)*pi - area)/n.
    Euclidean polygons have the fixed angle (n-2)*pi/n for any area.
    """
    validate_area(geometry, n, area)
    # builtin numbers, after the check whose text prints the caller's values
    return _angle(geometry, operator.index(n), float(area))


# Gauss-Bonnet, n * angle = (n-2)*pi + K * area: the only module that forms it
def _flat(n: int) -> float:
    return (n - 2) * math.pi / n  # the interior angle of the flat n-gon


def _angle(geometry: Geometry, n: int, area):
    return ((n - 2) * math.pi + geometry.curvature * area) / n


def area_from_angle(geometry: Geometry, n: int, angle: float) -> float:
    """Area of the regular n-gon with the given interior angle (curved planes only).

    An angle inside its open interval whose area rounds onto or past an end
    of area_bounds is a DomainError too.
    """
    lo, hi = area_bounds(geometry, n)
    n, k = operator.index(n), geometry.curvature
    if k == 0:
        raise DomainError("euclidean interior angle does not determine the area")
    low, high = (_flat(n), math.pi) if k > 0 else (0, _flat(n))
    if not low < angle < high:
        raise DomainError(
            f"{geometry.kind} interior angle must lie in ({low}, {high}), got {angle}"
        )
    # builtin numbers, after the check whose text prints the caller's angle
    angle, top = float(angle), (n - 2) * math.pi
    area = n * angle - top if k > 0 else top - n * angle
    if not lo < area < hi:
        raise DomainError(
            f"{geometry.kind} interior angle {angle} for n={n} rounds to area {area},"
            f" outside ({lo}, {hi})"
        )
    return area


# The records built on every decision call write their fields into __dict__
# in their own __init__: the generated one of a frozen dataclass sets each
# field through object.__setattr__, about three times as slow. init=False
# keeps the rest of the generated class: eq, hash, repr, match args and the
# frozen setattr. RegularPolygon and Configuration check their arguments;
# the other records only copy them, in an __init__ made by _record.
def _record(cls):
    """A frozen dataclass of cls with an __init__ that only copies its arguments.

    The __init__ is generated from the fields, as dataclasses generates its
    own, with the same parameters, defaults and annotations.
    """
    cls = dataclass(frozen=True, init=False)(cls)
    specs = fields(cls)
    params = ", ".join(f.name for f in specs)
    body = "".join(f"\n    d[{f.name!r}] = {f.name}" for f in specs)
    scope = {"__name__": cls.__module__}
    exec(f"def __init__(self, {params}):\n    d = self.__dict__{body}", scope)
    init = cls.__init__ = scope["__init__"]
    init.__defaults__ = tuple(f.default for f in specs if f.default is not MISSING) or None
    init.__annotations__ = {f.name: f.type for f in specs}
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


@dataclass(frozen=True, init=False)
class RegularPolygon:
    """Regular n-gon identified by its ambient geometry, side count and area."""

    geometry: Geometry
    n: int
    area: float

    def __init__(self, geometry: Geometry, n: int, area: float) -> None:
        validate_area(geometry, n, area)
        d = self.__dict__
        d["geometry"] = geometry
        d["n"] = operator.index(n)  # a builtin int, so that no numpy scalar leaks into results
        d["area"] = area

    @property
    def angle(self) -> float:
        return _angle(self.geometry, self.n, float(self.area))  # __init__ checked the area

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
    # the record keeps the caller's number; the kernel takes its float
    return _side(polygon.geometry, polygon.n, float(polygon.area))


def _half_side(n: int, x, d, curvature: int = -1, m=math):
    """Half side of the regular n-gon with interior angle x in a curved plane.

    With a = pi/n, h = (pi - x)/2 and d = a - h = (x - flat)/2, the ratio
    cos(a)/sin(x/2) is 1 - D for D = 2*sin((h + a)/2)*sin(d/2)/sin(x/2), a
    product that keeps d's relative accuracy as x approaches the flat angle.
    The hyperbolic half side (curvature -1) is arccosh(1 + delta) =
    log1p(delta + sqrt(delta*(delta + 2))) with delta = -D; the spherical one
    (curvature 1) is arccos(1 - D) = 2*asin(sqrt(D/2)).

    The deficit path: the caller passes d (K*area/(2n) for an area), so the
    numerator is never taken from a rounded x (_half_sides takes an angle).
    With a hyperbolic d (< 0), sin((h + a)/2) = sin(a - d/2) is expanded as
    sin(a)*cos(d/2) - cos(a)*sin(d/2), a sum of two positive terms: these
    are the operations that set the float call's bits, which an array
    element must repeat. In the spherical plane (d >= 0) the expansion would
    subtract, so it keeps the sine of a - d/2. `m` supplies sin, asin,
    log1p and sqrt, and to _side also where: math for floats, or a namespace
    that applies them to a 1-D numpy array with math's bits (see
    configurations._elementwise). No domain check.
    """
    a = math.pi / n
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


def _half_sides(n: int, xs) -> list:
    """Hyperbolic half sides at the angles xs: _half_side's D with d = a - h from x's terms.

    The angle path: one loop over any iterable of floats, with pi/n and math's
    functions bound once per call; no numpy caller takes it. No domain check.
    """
    pi, sin, sqrt, log1p = math.pi, math.sin, math.sqrt, math.log1p
    a = pi / n
    out = []
    for x in xs:
        if x < 1e-150:  # sin(x/2) = x/2 and arccosh(r) = log(2r), where delta**2 overflows
            out.append(math.log(4.0 * math.cos(a)) - math.log(x))
            continue
        h = 0.5 * (pi - x)
        d = a - h
        if d >= 0.0:  # only within roundoff of the flat angle: a half side of +0.0
            d = -0.0
        delta = -2.0 * sin(0.5 * (h + a)) * sin(0.5 * d) / sin(0.5 * x)
        out.append(log1p(delta + sqrt(delta * (delta + 2.0))))
    return out


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
    flat = math.sqrt(4.0 * math.tan(math.pi / n) / n) * m.sqrt(area)
    return m.where(area < _TINY_AREA, flat, side)


def perimeter(polygon: RegularPolygon) -> float:
    """Total boundary length, n times the side length."""
    return polygon.n * side_length(polygon)
