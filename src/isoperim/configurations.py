"""Configurations of disjoint regular n-gons and split-versus-single verdicts.

A configuration tracks only the list of areas; positions never enter any
perimeter formula. In the flat and spherical planes a single polygon always
minimizes total perimeter at fixed total area. In the hyperbolic plane that
holds exactly when the single polygon's interior angle reaches the critical
angle; below it, the equal two-way split wins.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import accumulate
from operator import add
from types import SimpleNamespace

from .errors import DomainError
from .geometry import (
    Geometry, RegularPolygon, _angle, _float, _record, _side, area_bounds, validate_area,
)
from .threshold import critical_angle

# Perimeter differences smaller than this are reported as ties rather than
# as strict wins; separates the genuine threshold-angle equality from roundoff.
# Only _verdict compares against it: every tie in the package goes through it.
TIE_TOL = 1e-9

MAX_PARTS = 4
MAX_RESOLUTION = 2000
# Cells brute_force_min scores per numpy block, which bounds its working
# memory; above MAX_RESOLUTION // 2 + 1, so a block holds at least a whole row.
_CHUNK = 8192


class Verdict(str, Enum):
    SINGLE_OPTIMAL_STRICT = "single_optimal_strict"
    TIE = "tie"
    SPLIT_BEATS_SINGLE = "split_beats_single"


# bound once: an Enum member read off the class costs about 0.2 us per call
_STRICT, _TIE, _SPLIT = Verdict.SINGLE_OPTIMAL_STRICT, Verdict.TIE, Verdict.SPLIT_BEATS_SINGLE


# Configuration checks its arguments in its own __init__, as RegularPolygon
# does; the other records here copy theirs in one from geometry._record.
@dataclass(frozen=True, init=False)
class Configuration:
    """Disjoint regular n-gons in one geometry, tracked by their areas."""

    geometry: Geometry
    n: int
    areas: tuple[float, ...]

    def __init__(self, geometry: Geometry, n: int, areas: tuple[float, ...]) -> None:
        areas = tuple(areas)
        if len(areas) < 1:
            raise DomainError("configuration needs at least one polygon")
        lo, hi = area_bounds(geometry, n)  # once, not per part
        for area in areas:
            if area.__class__ is not float or not lo < area < hi:  # validate_area judges the rest
                validate_area(geometry, n, area)
        d = self.__dict__
        d["geometry"] = geometry
        d["n"] = operator.index(n)  # a builtin int, so that no numpy scalar leaks into results
        d["areas"] = areas

    @property
    def k(self) -> int:
        return len(self.areas)


# reduce, not sum: from Python 3.12 on, sum() of floats is compensated
def total_area(config: Configuration) -> float:
    """Sum of the polygon areas, accumulated left to right."""
    return reduce(add, config.areas)


def _part_perimeters(config: Configuration) -> list[float]:
    """Perimeter of each part, with no area check: the Configuration made them."""
    return [config.n * _side(config.geometry, config.n, float(a)) for a in config.areas]


def total_perimeter(config: Configuration) -> float:
    """Sum of the polygon perimeters, accumulated left to right."""
    return reduce(add, _part_perimeters(config))


@_record
class MergeStep:
    """One pairwise comparison in a prefix-merge pass."""

    pair_perimeter: float
    merged_area: float
    merged_perimeter: float


@_record
class SplitAssessment:
    """Outcome of comparing a configuration against the single polygon.

    `verdict` reflects the sign of config_perimeter - single_perimeter at
    tolerance TIE_TOL. In the hyperbolic plane `witness` is the equal two-way
    split whenever that split's own verdict is split_beats_single, and None
    otherwise; the other planes have none. `critical_angle` is None for the
    geometries without a threshold; `part_perimeters` is empty for a two-split.
    """

    single_perimeter: float
    config_perimeter: float
    verdict: Verdict
    angle: float
    critical_angle: float | None = None
    witness: Configuration | None = None
    merge_steps: tuple[MergeStep, ...] = ()
    part_perimeters: tuple[float, ...] = ()


def _verdict(config_perimeter: float, single_perimeter: float) -> Verdict:
    """A tie within TIE_TOL, else the sign of the difference; NaN is never a tie."""
    diff = config_perimeter - single_perimeter
    if abs(diff) <= TIE_TOL:
        return _TIE
    return _STRICT if diff > 0 else _SPLIT


def euclidean_pythagoras_check(a1: float, a2: float, n: int) -> tuple[float, float, float]:
    """Perimeters (p1, p2, p) of two flat n-gons and their merged polygon.

    Since a = p^2 / (4 n tan(pi/n)), the three perimeters always satisfy
    p^2 = p1^2 + p2^2, hence p < p1 + p2 for two non-degenerate parts.
    """
    p1, p2, p = (RegularPolygon(Geometry.EUCLIDEAN, n, a).perimeter for a in (a1, a2, a1 + a2))
    return p1, p2, p


def assess_two_split(geometry: Geometry, n: int, total: float) -> SplitAssessment:
    """Compare the equal two-way split of `total` area against the single polygon.

    Its halves have perimeter n*side(total/2) each; in the hyperbolic plane
    the equal split is the only interior candidate for a minimum of the
    split objective. Flat and spherical splits always lose. An unequal split
    is a Configuration of its part areas, for assess_configuration. The one
    admitted total too small to halve, in every plane, is 5e-324: its half
    rounds to 0, a DomainError.
    """
    validate_area(geometry, n, total)
    # after the check, whose text prints the caller's values: builtin numbers,
    # so that no numpy scalar leaks into the perimeters and the angle
    n, total = operator.index(n), float(total)
    single_p = n * _side(geometry, n, total)
    half = total / 2.0
    if not half > 0.0:
        raise DomainError(f"total area {total} is too small to split for {geometry.kind} n={n}")
    p = n * _side(geometry, n, half)
    return _assessment(geometry, n, total, _angle(geometry, n, total), p, single_p, p + p)


def merge_chain(config: Configuration) -> SplitAssessment:
    """Fold a hyperbolic configuration into one polygon, two pieces at a time.

    Each step replaces the running prefix polygon and the next polygon with
    a single polygon of their summed area, recording the pairwise
    comparison. The verdict compares the configuration's total perimeter
    against the polygon holding the full area.
    """
    if config.geometry.curvature >= 0:
        raise DomainError("merge chains are defined for hyperbolic configurations")
    return assess_configuration(config)


def assess_configuration(config: Configuration) -> SplitAssessment:
    """Compare a configuration against the single polygon of its total area.

    Hyperbolic configurations get the full merge chain (see merge_chain),
    the critical angle and the equal split's witness; in the flat and
    spherical planes the verdict alone decides, and no threshold or
    witness exists.
    """
    geometry, n = config.geometry, config.n
    merged_areas = list(accumulate(config.areas))  # left to right: the last is total_area
    validate_area(geometry, n, merged_areas[-1])  # the merged areas rise to it: checks them all
    total = float(merged_areas[-1])  # the areas and merge steps keep the caller's numbers
    parts = _part_perimeters(config)
    steps, half_p = (), None
    if geometry.curvature < 0:
        merged = parts[:1] + [n * _side(geometry, n, float(a)) for a in merged_areas[1:]]
        steps = tuple([
            MergeStep(pair_perimeter=p + q, merged_area=a, merged_perimeter=m)
            for p, q, a, m in zip(merged, parts[1:], merged_areas[1:], merged[1:])
        ])
        single_p, half_p = merged[-1], n * _side(geometry, n, total / 2.0)
    else:
        single_p = n * _side(geometry, n, total)
    return _assessment(
        geometry, n, total, _angle(geometry, n, total), half_p, single_p, reduce(add, parts),
        steps, tuple(parts),
    )


def _assessment(
    geometry: Geometry, n: int, total: float, angle: float, p: float | None,
    single_p: float, config_p: float, steps: tuple[MergeStep, ...] = (),
    parts: tuple[float, ...] = (),
) -> SplitAssessment:
    """The verdict of config_p against single_p, the single polygon of area `total`.

    A hyperbolic one carries the critical angle, and the equal two-way split
    (halves of perimeter p) as its witness exactly when _verdict has it win.
    """
    verdict = _verdict(config_p, single_p)
    threshold = witness = None
    if geometry.curvature < 0:
        threshold = critical_angle(n).critical_angle
        # the equal split's own verdict; a half that rounds to 0 has p = 0,
        # next to a single polygon far shorter than TIE_TOL
        if _verdict(p + p, single_p) is _SPLIT:
            half = total / 2.0
            witness = Configuration(geometry, n, (half, half))
    return SplitAssessment(single_p, config_p, verdict, angle, threshold, witness, steps, parts)


@_record
class CounterexampleResult:
    """Two hyperbolic triangles against the thin triangle of their total area."""

    config: Configuration
    single: RegularPolygon
    split_perimeter: float
    single_perimeter: float
    margin: float


def counterexample_triangles(epsilon: float) -> CounterexampleResult:
    """Pair of triangles with areas pi/2 and pi/2 - 3*epsilon versus one of area pi - 3*epsilon.

    The single triangle has interior angle epsilon; its perimeter diverges
    as epsilon shrinks while the pair total stays bounded, so the margin
    single - pair turns positive for small epsilon. Each triangle has area at most pi/2, and
    the perimeter rises with area, so the pair is at most 2*P(pi/2) = 6*acosh(3 + 2*sqrt(3)).
    """
    if not 0.0 < epsilon < math.pi / 6.0:
        raise DomainError(f"epsilon must lie in (0, {math.pi / 6.0}), got {epsilon}")
    if not math.pi - 3.0 * epsilon < math.pi:
        raise DomainError(f"epsilon {epsilon} is too small: pi - 3*epsilon rounds to pi")
    epsilon = float(epsilon)  # after the checks, whose text prints the caller's value
    config = Configuration(
        Geometry.HYPERBOLIC, 3, (math.pi / 2.0, math.pi / 2.0 - 3.0 * epsilon)
    )
    single = RegularPolygon(Geometry.HYPERBOLIC, 3, math.pi - 3.0 * epsilon)
    split_p = total_perimeter(config)
    single_p = single.perimeter
    return CounterexampleResult(
        config=config,
        single=single,
        split_perimeter=split_p,
        single_perimeter=single_p,
        margin=single_p - split_p,
    )


def _elementwise(np) -> SimpleNamespace:
    """The math namespace of geometry._side for 1-D numpy arrays.

    Every element keeps the bits of the float call. sqrt is numpy's,
    correctly rounded like math's. sin is numpy's: its float64 loop calls
    the C library's sin (numpy 2.4's _multiarray_umath imports
    sin@GLIBC), as math.sin does, and the two matched on every one of
    2.8e7 draws (|y| <= 1.6, 0 to 100, down to subnormals, strided and
    reversed views) at each of numpy's dispatch levels; test_geometry
    repeats the check at every level the CPU offers. numpy's log1p and
    arcsin go to SIMD kernels where AVX512 is on, and then differ from
    math's in the last bit on 3-8% of uniform draws, so asin and log1p run
    math's function on each element, read through a memoryview (the same
    Python floats as tolist, without building a list): one such pass per
    curved table.
    """

    def each(fn):
        return lambda x: np.fromiter(map(fn, memoryview(x)), float, x.size)

    return SimpleNamespace(
        sin=np.sin, asin=each(math.asin), log1p=each(math.log1p),
        sqrt=np.sqrt, where=np.where,
    )


def _first_tie(perims, R, value, u, lo, c):
    """Lexicographically smallest (a, b, c, d) scoring `value` in the cells (u, c).

    The cell (u, c) holds a = u - b, lo <= b <= min(c, u), d = R - u - c;
    each of its vectors is scored again with the reference's additions, in
    Python floats read one entry at a time: a tie holds few vectors.
    """
    P = perims.item
    return min(
        (u - b, b, c, R - u - c)
        for u, lo, c in zip(u.tolist(), lo.tolist(), c.tolist())
        for b in range(lo, min(c, u) + 1)
        if ((P(u - b) + P(b)) + P(c)) + P(R - u - c) == value
    )


def brute_force_min(
    geometry: Geometry,
    n: int,
    total: float,
    k_max: int,
    resolution: int,
) -> tuple[Configuration, float]:
    """Grid search over area partitions for the least total perimeter.

    The total area is quantized into `resolution` equal units; every
    multiset of at most k_max positive unit counts summing to the full
    amount is a candidate. Ties prefer fewer polygons, then the
    lexicographically smallest area vector. Intended as an independent
    oracle for the analytic verdicts. k_max <= MAX_PARTS and resolution <=
    MAX_RESOLUTION bound the grid: it holds at most 501001 cells (prefix
    total, third part), at k_max = 4 and R = 2000.
    """
    import numpy as np  # here, so that importing the package does not load numpy

    limits = (
        ("k_max", k_max, 1, MAX_PARTS),
        ("resolution", resolution, 1, MAX_RESOLUTION),
    )
    for name, value, low, top in limits:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        if not low <= value <= top:
            raise DomainError(f"{name} must lie in [{low}, {top}], got {value}")
    k_max, R = operator.index(k_max), operator.index(resolution)  # numpy integers to int
    if not total > 0.0:
        raise DomainError(f"total area must be positive, got {total}")
    lo, hi = area_bounds(geometry, n)  # checks n and the geometry
    unit = _float(total) / R  # a builtin float; the errors print the caller's total
    if k_max == 1:  # the single polygon alone: the scalar kernel, no table
        area = R * unit
        p = float(n * _side(geometry, n, area)) if lo < area < hi else math.inf
        return _grid_result(geometry, n, total, R, p, (area,))

    # Every candidate is a sorted vector 0 <= a <= b <= c <= d summing to R,
    # at least 4 - k_max of its parts absent (0), scored like the reference
    # as ((P[a] + P[b]) + P[c]) + P[d]. Fewer parts, then the
    # lexicographically smallest vector, is then the smallest padded vector.
    # Row u = a + b of a block holds the prefix sums P[u - b] + P[b] in the
    # columns b <= u, and their running minimum G[u, c] the least one with
    # b <= c. Round-to-nearest addition is monotone, so
    # (G[u, c] + P[c]) + P[R - u - c] is the least score in the cell (u, c),
    # and the least cell the least candidate: at k_max = 4, about R^2/8
    # cells stand for R^3/144 vectors. A prefix above its cell's minimum
    # can still tie after rounding, so each tied cell's prefixes are scored
    # again (_first_tie).

    # 0 < u * unit < hi holds for an initial run of the unit counts u, so
    # perims is finite exactly on 1..finite.
    areas = np.arange(1, R + 1) * unit
    finite = int(np.count_nonzero((lo < areas) & (areas < hi)))
    perims = np.full(R + 1, np.inf)
    perims[0] = 0.0  # an absent part: 0 + p is p, so no sum changes
    perims[1 : finite + 1] = n * _side(geometry, n, areas[:finite], _elementwise(np))

    # Row u = 0 holds the single polygon and every two-part split
    # (0, 0, c, R - c), c <= R // 2, scored (0 + P[c]) + P[R - c]: exactly
    # P[c] + P[R - c], one sum of the table's head and its reversed tail. Its
    # vectors are the smallest of all, and have the fewest parts, so argmin's
    # first index is the row's winner, and a later row replaces it only by
    # scoring strictly less. One row (k_max = 2) needs no more.
    row0 = perims[: R // 2 + 1] + perims[R - R // 2 :][::-1]
    c0 = int(row0.argmin())
    best = (float(row0[c0]), (0, 0, c0, R - c0))  # (least score, first vector)
    if k_max > 2:
        u = np.arange((R // 3, R // 2)[k_max - 3] + 1)
        b_lo = (u + 1) // 2 if k_max == 4 else u  # below four parts, a = 0
        c_hi = (R - u) // 2  # c <= d
        # No cell of row u scores below lb[u], the larger of two bounds; both need
        # only P >= 0 (and sums far from overflow: perimeters stay below 1e155).
        # With S the suffix minima of perims and b0 = b_lo[u]:
        # (1) (S[b0] + S[b0]) + S[ceil((R - u)/2)]: P[a] + P[b] >= P[b] >= S[b0],
        #     P[c] >= S[b0] as c >= b, P[d] >= S[ceil((R - u)/2)] as d >= c, and
        #     rounded addition is monotone.
        # (2) A line under the table: with m = min P[i]/i over i >= 1,
        #     P[c] + P[d] >= m*(R - u), and the rounded prefix fl(P[a] + P[b]) is
        #     at least h = S[b0] (P[u] itself below four parts, where a = 0). The
        #     score's last two roundings leave it >= (h + m*(R - u))*(1 - eps)^2,
        #     eps = 2^-53. The computed m may round up, by eps relative (below
        #     2^-1000, where P[i]/i may be subnormal, m is taken as 0), and forming
        #     the bound rounds three times more: it is at most
        #     (h + m*(R - u))*(1 + eps)^4*(1 - 2^-45), below the score as 2^-45
        #     is far above 6*eps.
        # A row with lb above the best score so far can neither win nor tie, and
        # the best only falls, so it is skipped: a block holds only rows past
        # u = 0 whose bound reaches row 0's least, or the best found since.
        # lb ends at the last row with cells: c_hi >= b_lo holds on a prefix of u.
        S = np.minimum.accumulate(perims[::-1])[::-1]
        m = float((perims[1:] / np.arange(1, R + 1)).min())
        m = m if m >= 2.0**-1000 else 0.0
        h = S[b_lo] if k_max == 4 else perims[u]
        lb = np.maximum(
            (S[b_lo] + S[b_lo]) + S[(R - u + 1) // 2], (h + m * (R - u)) * (1.0 - 2.0**-45)
        )[: np.count_nonzero(c_hi >= b_lo)]
        r0 = 1
        # a block of about _CHUNK cells is as wide as its first row; the row
        # widths c_hi - b_lo + 1 never rise, so later rows' extra columns are masked
        while (rows := r0 + np.flatnonzero(lb[r0:] <= best[0])).size:
            width = int(c_hi[rows[0]] - b_lo[rows[0]]) + 1
            rows = rows[: _CHUNK // width]
            c = b_lo[rows, None] + np.arange(width)
            ur, score = u[rows, None], np.empty(c.shape)
            # the prefix columns b = c <= u come first, most of them in the last row
            w = min(c.shape[1], int(u[rows[-1]] - b_lo[rows[-1]]) + 1)
            g = perims[ur - c[:, :w]] + perims[c[:, :w]]
            g[c[:, :w] > ur] = np.inf  # no prefix there (and u - c wraps)
            score[:, :w] = np.minimum.accumulate(g, axis=1)
            score[:, w:] = score[:, w - 1 : w]
            score += perims[c]
            score += perims[R - ur - c]
            score[c > c_hi[rows, None]] = np.inf  # past the row's last cell
            value = float(score.min())
            if value <= best[0] and value < math.inf:
                row, col = np.nonzero(score == value)
                tie = _first_tie(perims, R, value, ur[row, 0], b_lo[rows[row]], c[row, col])
                best = min(best, (value, tie))
            del score, g, c  # before the next block is built
            r0 = rows[-1] + 1

    areas = tuple(units * unit for units in best[1] if units)
    return _grid_result(geometry, n, total, R, best[0], areas)


def _grid_result(geometry, n, total, R, perimeter, areas):
    """brute_force_min's result, or its error when no candidate has a finite perimeter."""
    if perimeter == math.inf:
        raise DomainError(
            f"no valid partition of area {total} at resolution {R} in {geometry.kind}"
        )
    return Configuration(geometry, n, areas), perimeter

