"""Scalar kernels behind the split-versus-single perimeter comparisons.

The hyperbolic half-side kernel maps an interior angle x to the half side
length of the regular n-gon with that angle, so a polygon's perimeter is
2*n times the kernel value; it is one loop over a sequence of angles
(geometry._half_sides). The equal-split margin, built from the kernel, has
the critical angle as its root, which threshold solves for with the
kernel's first derivative; the two-split objective adds the half sides of
a split, and the spherical analogue supplies the concavity argument for
the spherical case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .geometry import _check_sides, _flat, _half_side, _half_sides

_SQRT2 = math.sqrt(2.0)


def _require_angle(n: int, x: float) -> None:
    """Raise DomainError unless x lies in (0, (n-2)*pi/n), the hyperbolic angles."""
    _check_sides(n)
    hi = _flat(n)
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
        n = _check_sides(self.n)
        flat = _flat(n)
        if not flat < self.c < 2.0 * flat:
            raise DomainError(
                f"angle sum must lie in ({flat}, {2.0 * flat}), got {self.c}"
            )
        # after the checks, whose texts print the caller's values: builtin
        # numbers, so that no numpy scalar leaks into lo and hi (frozen fields)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", float(self.c))

    @property
    def lo(self) -> float:
        return self.c - _flat(self.n)

    @property
    def hi(self) -> float:
        return _flat(self.n)

    def require(self, x: float) -> None:
        hi = _flat(self.n)  # lo and hi from one flat angle
        if not (lo := self.c - hi) < x < hi:
            raise DomainError(f"split angle must lie in the open interval ({lo}, {hi}), got {x}")


def half_side(n: int, x: float) -> float:
    """Hyperbolic half side length arccosh(cos(pi/n)/sin(x/2)) at interior angle x.

    The kernel is geometry._half_sides: it forms cos(pi/n)/sin(x/2) - 1 as a
    product of sines and takes arccosh(1 + delta) as
    log1p(delta + sqrt(delta*(delta+2))). Its error grows like
    ulp(x)/(flat - x) next to the flat angle, where the rounding of the
    terms of the deficit pi/n - (pi - x)/2 dominates; an ulp below the
    flat angle that deficit can cancel to 0, and the half side with it.
    """
    _require_angle(n, x)
    return _half_sides(n, (x,))[0]


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
    if x < 1e-150:  # K' = -1/x to rounding: below this, tan(x/2) can round to 0
        return -1.0 / x
    d = _denominator(n, x)
    if d <= 0.0:
        return -math.inf
    return -(math.cos(math.pi / n) / _SQRT2) * (1.0 / math.tan(x / 2.0)) / math.sqrt(d)


def spherical_half_side(n: int, x: float) -> float:
    """Spherical half side arccos(cos(pi/n)/sin(x/2)); the degenerate angle is allowed.

    Its error grows like ulp(x)/(x - flat) next to the flat angle, where the
    rounding of the flat angle itself dominates. Its domain is [flat, pi].
    """
    _check_sides(n)
    flat = _flat(n)
    if not flat <= x <= math.pi:
        raise DomainError(f"angle must lie in [{flat}, {math.pi}], got {x}")
    return _half_side(n, x, 0.5 * (x - flat), 1)


def split_objective(params: SplitFunctionParams, x: float) -> float:
    """Combined half sides of a two-polygon split with angle sum params.c.

    Symmetric about c/2; total split perimeter is 2*n times this value.
    """
    params.require(x)  # then x and c - x lie in (c - flat, flat), inside (0, flat)
    k1, k2 = _half_sides(params.n, (x, params.c - x))
    return k1 + k2


def equal_split_margin(n: int, x: float) -> float:
    """Equal-split half-perimeter excess 2*K((x + flat)/2) - K(x) at angle x.

    Positive means the single polygon beats the equal two-way split; the
    unique root of this margin is the critical angle.
    """
    _require_angle(n, x)
    # next to the flat angle the inner angle can round onto it, where the margin's sign is lost
    flat, inner = _flat(n), _inner_angle(n, x)
    if not inner < flat:
        raise DomainError(
            f"angle {x} is too close to the flat angle {flat}: "
            "the equal split's inner angle rounds onto it"
        )
    k_inner, k = _half_sides(n, (inner, x))
    return 2.0 * k_inner - k


def _inner_angle(n: int, x: float) -> float:
    """Angle (x + flat)/2 of each half of the equal split, as x/2 + pi/2 - pi/n."""
    return x / 2.0 + math.pi / 2.0 - math.pi / n


def _margins(n: int, xs: list) -> list:
    """equal_split_margin at each angle in xs, without the domain checks."""
    inner = _half_sides(n, (_inner_angle(n, x) for x in xs))
    return [2.0 * k_inner - k for k_inner, k in zip(inner, _half_sides(n, xs))]
