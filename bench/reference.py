"""Independent references for the benchmark's correctness checks.

Everything here is computed with mpmath (or exact enumeration) from the
defining formulas, never by calling isoperim, so a fault in the program
cannot hide in its own reference.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp

DPS = 30
mp.mp.dps = DPS

EUCLIDEAN, SPHERICAL, HYPERBOLIC = "euclidean", "spherical", "hyperbolic"


def _flat(n: int) -> mp.mpf:
    return (n - 2) * mp.pi / n


def half_side(n: int, x) -> mp.mpf:
    """Hyperbolic half side arccosh(cos(pi/n)/sin(x/2)) at interior angle x."""
    return mp.acosh(mp.cos(mp.pi / n) / mp.sin(mp.mpf(x) / 2))


def margin_terms(n: int, x) -> tuple[mp.mpf, mp.mpf]:
    """The two terms of the equal-split margin 2K((x + flat)/2) - K(x)."""
    x = mp.mpf(x)
    return 2 * half_side(n, x / 2 + mp.pi / 2 - mp.pi / n), half_side(n, x)


def margin(n: int, x) -> mp.mpf:
    a, b = margin_terms(n, x)
    return a - b


def _first_positive(f, n: int) -> tuple[mp.mpf, mp.mpf]:
    """Bracket (lo, hi) with f(lo) <= 0 < f(hi), scanning x = flat*(1 - 2^-k) upwards.

    f is negative near 0 and positive just below the flat angle, with one
    sign change in between, so the first positive point closes the bracket.
    """
    flat = _flat(n)
    lo = flat * mp.mpf(2) ** -60
    for k in range(1, 200):
        x = flat * (1 - mp.mpf(2) ** -k)
        if f(x) > 0:
            return lo, x
        lo = x
    raise ArithmeticError(f"no sign change for n={n}")


@lru_cache(maxsize=None)
def theta(n: int) -> mp.mpf:
    """Critical angle: the root of the equal-split margin below the flat angle."""
    lo, hi = _first_positive(lambda x: margin(n, x), n)
    return mp.findroot(lambda x: margin(n, x), (lo, hi), solver="anderson")


def inflection(n: int) -> mp.mpf:
    """Zero of the half-side kernel's second derivative, by numerical differentiation."""
    d2 = lambda x: -mp.diff(lambda t: half_side(n, t), x, 2)  # noqa: E731
    lo, hi = _first_positive(d2, n)
    return mp.findroot(d2, (lo, hi), solver="anderson")


def max_area(n: int) -> mp.mpf:
    return (n - 2) * mp.pi - n * theta(n)


def angle(geometry: str, n: int, area) -> mp.mpf:
    area = mp.mpf(area)
    if geometry == EUCLIDEAN:
        return _flat(n)
    if geometry == SPHERICAL:
        return (area + (n - 2) * mp.pi) / n
    return ((n - 2) * mp.pi - area) / n


def side(geometry: str, n: int, area) -> mp.mpf:
    """Side length of the regular n-gon of the given area, from the closed forms."""
    area = mp.mpf(area)
    if geometry == EUCLIDEAN:
        return mp.sqrt(4 * mp.tan(mp.pi / n) * area / n)
    # the ratio differs from 1 by about the area: keep DPS digits beyond that
    with mp.workdps(DPS + max(0, int(-mp.log10(area)))):
        ratio = mp.cos(mp.pi / n) / mp.sin(angle(geometry, n, area) / 2)
        s = 2 * (mp.acos(ratio) if geometry == SPHERICAL else mp.acosh(ratio))
    return +s


def perimeter(geometry: str, n: int, area) -> mp.mpf:
    return n * side(geometry, n, area)


def rel_err(value: float, ref, scale=None) -> float:
    """|value - ref| relative to |ref|, or to `scale` for quantities that cross zero."""
    denom = abs(ref) if scale is None else abs(scale)
    return float(abs(mp.mpf(value) - ref) / denom)


def exhaustive_min(perims: list[float], resolution: int, k_max: int) -> tuple[tuple[int, ...], float]:
    """Least total perimeter over all multisets of at most k_max unit counts summing to resolution.

    perims[u] is the perimeter of the polygon with u units of area (inf when
    inadmissible). Parts are enumerated in nondecreasing order; ties prefer
    fewer parts, then the lexicographically smallest count vector.
    """
    R = resolution
    best = (perims[R], 1, (R,))

    def offer(parts: tuple[int, ...]) -> None:
        nonlocal best
        key = (math.fsum(perims[u] for u in parts), len(parts), parts)
        if key < best:
            best = key

    if k_max >= 2:
        for a in range(1, R // 2 + 1):
            offer((a, R - a))
    if k_max >= 3:
        for a in range(1, R // 3 + 1):
            for b in range(a, (R - a) // 2 + 1):
                offer((a, b, R - a - b))
    if k_max >= 4:
        for a in range(1, R // 4 + 1):
            for b in range(a, (R - a) // 3 + 1):
                for c in range(b, (R - a - b) // 2 + 1):
                    offer((a, b, c, R - a - b - c))
    return best[2], best[0]
