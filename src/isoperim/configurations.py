"""Configurations of disjoint regular n-gons and split-versus-single verdicts.

A configuration tracks only the list of areas; positions never enter any
perimeter formula. In the flat and spherical planes a single polygon always
minimizes total perimeter at fixed total area. In the hyperbolic plane that
holds exactly when the single polygon's interior angle reaches the critical
angle; below it, the equal two-way split wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from itertools import accumulate
from operator import add
from types import SimpleNamespace

from .analysis import SplitFunctionParams, split_objective
from .errors import ConvergenceError, DomainError, ResourceError
from .geometry import Geometry, RegularPolygon, _angle, _side, area_bounds, validate_area
from .threshold import critical_angle

# Perimeter differences smaller than this are reported as ties rather than
# as strict wins; separates the genuine threshold-angle equality from roundoff.
TIE_TOL = 1e-9

MAX_PARTS = 4
MAX_RESOLUTION = 2000
MAX_EVALUATIONS = 10**8
# Cells brute_force_min scores per numpy block, which bounds its working
# memory; above MAX_RESOLUTION // 2 + 1, so a block holds at least a whole row.
_CHUNK = 8192


class Verdict(str, Enum):
    SINGLE_OPTIMAL_STRICT = "single_optimal_strict"
    TIE = "tie"
    SPLIT_BEATS_SINGLE = "split_beats_single"


@dataclass(frozen=True)
class Configuration:
    """Disjoint regular n-gons in one geometry, tracked by their areas."""

    geometry: Geometry
    n: int
    areas: tuple[float, ...]

    def __post_init__(self) -> None:
        areas = tuple(self.areas)
        object.__setattr__(self, "areas", areas)
        if len(areas) < 1:
            raise DomainError("configuration needs at least one polygon")
        for area in areas:
            validate_area(self.geometry, self.n, area)

    @property
    def k(self) -> int:
        return len(self.areas)


# reduce, not sum: from Python 3.12 on, sum() of floats is compensated
def total_area(config: Configuration) -> float:
    """Sum of the polygon areas, accumulated left to right."""
    return reduce(add, config.areas)


def _part_perimeters(config: Configuration) -> list[float]:
    """Perimeter of each part, with no area check: the Configuration made them."""
    return [config.n * _side(config.geometry, config.n, a) for a in config.areas]


def total_perimeter(config: Configuration) -> float:
    """Sum of the polygon perimeters, accumulated left to right."""
    return reduce(add, _part_perimeters(config))


@dataclass(frozen=True)
class MergeStep:
    """One pairwise comparison in a prefix-merge pass."""

    pair_perimeter: float
    merged_area: float
    merged_perimeter: float


@dataclass(frozen=True)
class SplitAssessment:
    """Outcome of comparing a configuration against the single polygon.

    `verdict` reflects the sign of config_perimeter - single_perimeter at
    tolerance TIE_TOL. `witness` carries a configuration that strictly beats
    the single polygon whenever one is known (the equal two-way split, in
    the hyperbolic sub-threshold regime). `critical_angle` is None for the
    geometries without a threshold; `part_perimeters` is empty for a two-split.
    """

    single_perimeter: float
    config_perimeter: float
    verdict: Verdict
    angle: float
    critical_angle: float | None = None
    witness: Configuration | None = None
    merge_steps: tuple[MergeStep, ...] = field(default=())
    part_perimeters: tuple[float, ...] = ()


def _verdict(config_perimeter: float, single_perimeter: float) -> Verdict:
    diff = config_perimeter - single_perimeter
    if abs(diff) <= TIE_TOL:
        return Verdict.TIE
    return Verdict.SINGLE_OPTIMAL_STRICT if diff > 0 else Verdict.SPLIT_BEATS_SINGLE


def euclidean_pythagoras_check(a1: float, a2: float, n: int) -> tuple[float, float, float]:
    """Perimeters (p1, p2, p) of two flat n-gons and their merged polygon.

    Since a = p^2 / (4 n tan(pi/n)), the three perimeters always satisfy
    p^2 = p1^2 + p2^2, hence p < p1 + p2 for two non-degenerate parts.
    """
    p1, p2, p = (RegularPolygon(Geometry.EUCLIDEAN, n, a).perimeter for a in (a1, a2, a1 + a2))
    return p1, p2, p


def _equal_split_witness(
    geometry: Geometry, n: int, half: float, p: float, single_perimeter: float
) -> Configuration | None:
    # the half goes unchecked: one that rounds to 0 has perimeter p = 0 and never wins
    if p + p < single_perimeter - TIE_TOL:
        return Configuration(geometry, n, (half, half))
    return None


def assess_two_split(
    geometry: Geometry,
    n: int,
    total: float,
    theta1: float | None = None,
) -> SplitAssessment:
    """Compare a two-way split of `total` area against the single polygon.

    The default split is the equal one, whose halves have perimeter
    n*side(total/2) each; in the hyperbolic plane it is the only interior
    candidate for a minimum of the split objective. A hyperbolic split may
    instead be parametrized by the first piece's interior angle theta1.
    Flat and spherical splits always lose; theta1 is rejected there.
    """
    validate_area(geometry, n, total)
    hyperbolic = geometry is Geometry.HYPERBOLIC
    if theta1 is not None and not hyperbolic:
        raise DomainError("theta1 applies only to hyperbolic splits")
    single_p = n * _side(geometry, n, total)
    angle = _angle(geometry, n, total)
    flat = (n - 2) * math.pi / n
    half = total / 2.0
    # a hyperbolic angle sum that rounds onto 2*flat leaves no split angle
    if not (angle + flat < 2.0 * flat if hyperbolic else half > 0.0):
        raise DomainError(f"total area {total} is too small to split for {geometry.kind} n={n}")
    p = n * _side(geometry, n, half)
    config_p, threshold, witness = p + p, None, None
    if hyperbolic:
        if theta1 is not None:
            config_p = 2.0 * n * split_objective(SplitFunctionParams(n, angle + flat), theta1)
        threshold = critical_angle(n).critical_angle
        witness = _equal_split_witness(geometry, n, half, p, single_p)
    return SplitAssessment(
        single_perimeter=single_p,
        config_perimeter=config_p,
        verdict=_verdict(config_p, single_p),
        angle=angle,
        critical_angle=threshold,
        witness=witness,
    )


def merge_chain(config: Configuration) -> SplitAssessment:
    """Fold a hyperbolic configuration into one polygon, two pieces at a time.

    Each step replaces the running prefix polygon and the next polygon with
    a single polygon of their summed area, recording the pairwise
    comparison. The verdict compares the configuration's total perimeter
    against the polygon holding the full area.
    """
    if config.geometry is not Geometry.HYPERBOLIC:
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
    total = merged_areas[-1]
    validate_area(geometry, n, total)  # the merged areas rise to it: this checks them all
    parts = _part_perimeters(config)
    config_p = reduce(add, parts)
    steps, threshold, witness = (), None, None
    if geometry is Geometry.HYPERBOLIC:
        merged = parts[:1] + [n * _side(geometry, n, a) for a in merged_areas[1:]]
        steps = tuple([
            MergeStep(pair_perimeter=p + q, merged_area=a, merged_perimeter=m)
            for p, q, a, m in zip(merged, parts[1:], merged_areas[1:], merged[1:])
        ])
        single_p, half = merged[-1], total / 2.0
        threshold = critical_angle(n).critical_angle
        witness = _equal_split_witness(geometry, n, half, n * _side(geometry, n, half), single_p)
    else:
        single_p = n * _side(geometry, n, total)
    return SplitAssessment(
        single_perimeter=single_p,
        config_perimeter=config_p,
        verdict=_verdict(config_p, single_p),
        angle=_angle(geometry, n, total),
        critical_angle=threshold,
        witness=witness,
        merge_steps=steps,
        part_perimeters=tuple(parts),
    )


@dataclass(frozen=True)
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
    single - pair turns positive for small epsilon.
    """
    if not 0.0 < epsilon < math.pi / 6.0:
        raise DomainError(f"epsilon must lie in (0, {math.pi / 6.0}), got {epsilon}")
    if not math.pi - 3.0 * epsilon < math.pi:
        raise DomainError(f"epsilon {epsilon} is too small: pi - 3*epsilon rounds to pi")
    config = Configuration(
        Geometry.HYPERBOLIC, 3, (math.pi / 2.0, math.pi / 2.0 - 3.0 * epsilon)
    )
    single = RegularPolygon(Geometry.HYPERBOLIC, 3, math.pi - 3.0 * epsilon)
    split_p = total_perimeter(config)
    single_p = single.perimeter
    pair_bound = 6.0 * math.acosh(3.0 + 2.0 * math.sqrt(3.0))
    if not split_p <= pair_bound + TIE_TOL:
        raise ConvergenceError(f"pair perimeter {split_p} exceeds its bound {pair_bound}")
    return CounterexampleResult(
        config=config,
        single=single,
        split_perimeter=split_p,
        single_perimeter=single_p,
        margin=single_p - split_p,
    )


def _elementwise(np) -> SimpleNamespace:
    """The math namespace of geometry._side for 1-D numpy arrays.

    sin, asin and log1p run math's function on each element, since numpy's
    own log1p and arcsin differ from math's in the last bit on some inputs;
    sqrt is numpy's, correctly rounded like math's. Every element so keeps
    the bits of the float call.
    """

    def each(fn):
        return lambda x: np.fromiter(map(fn, x.tolist()), float, x.size)

    return SimpleNamespace(
        sin=each(math.sin), asin=each(math.asin), log1p=each(math.log1p),
        sqrt=np.sqrt, where=np.where,
    )


def _first_tie(perims, R, value, u, lo, c):
    """Lexicographically smallest (a, b, c, d) scoring `value` in the cells (u, c).

    The cell (u, c) holds a = u - b, lo <= b <= min(c, u), d = R - u - c;
    each of its vectors is scored again with the reference's additions.
    """
    P = perims.tolist()
    return min(
        (u - b, b, c, R - u - c)
        for u, lo, c in zip(u.tolist(), lo.tolist(), c.tolist())
        for b in range(lo, min(c, u) + 1)
        if ((P[u - b] + P[b]) + P[c]) + P[R - u - c] == value
    )


def brute_force_min(
    geometry: Geometry,
    n: int,
    total: float,
    k_max: int,
    resolution: int,
    max_evaluations: int = MAX_EVALUATIONS,
) -> tuple[Configuration, float]:
    """Grid search over area partitions for the least total perimeter.

    The total area is quantized into `resolution` equal units; every
    multiset of at most k_max positive unit counts summing to the full
    amount is a candidate. Ties prefer fewer polygons, then the
    lexicographically smallest area vector. Intended as an independent
    oracle for the analytic verdicts. `max_evaluations` (an integer >= 0)
    bounds the cells (prefix total, third part) the search scores; a
    larger count raises ResourceError before any perimeter is computed.
    """
    import numpy as np  # here, so that importing the package does not load numpy

    limits = (
        ("k_max", k_max, 1, MAX_PARTS),
        ("resolution", resolution, 1, MAX_RESOLUTION),
        ("max_evaluations", max_evaluations, 0, math.inf),
    )
    for name, value, low, top in limits:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        if not low <= value <= top:
            raise DomainError(f"{name} must lie in [{low}, {top}], got {value}")
    if not total > 0.0:
        raise DomainError(f"total area must be positive, got {total}")

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
    R = resolution
    u = np.arange((0, 0, R // 3, R // 2)[k_max - 1] + 1)
    b_lo = (u + 1) // 2 if k_max == 4 else u  # below four parts, a = 0
    c_hi = (R - u) // 2 if k_max > 1 else u  # c <= d; k_max = 1: c = 0, d = R
    cells = int(np.maximum(c_hi - b_lo + 1, 0).sum())
    if cells > max_evaluations:
        raise ResourceError(f"{cells} cells exceed the budget of {max_evaluations}")

    unit = total / R
    lo, hi = area_bounds(geometry, n)
    # k_max = 1 needs only u = R. 0 < u * unit < hi holds for an initial run
    # of the unit counts u, so perims is finite exactly on first..finite.
    first = R if k_max == 1 else 1
    areas = np.arange(first, R + 1) * unit
    finite = first - 1 + int(np.count_nonzero((lo < areas) & (areas < hi)))
    perims = np.full(R + 1, np.inf)
    perims[0] = 0.0  # an absent part: 0 + p is p, so no sum changes
    table = _side(geometry, n, areas[: finite + 1 - first], _elementwise(np))
    perims[first : finite + 1] = n * table

    best = (math.inf, ())  # (least score, first vector)
    r0 = 0
    # a block of about _CHUNK cells is as wide as its first row; the row
    # widths c_hi - b_lo + 1 never rise, so later rows' extra columns are masked
    while r0 < u.size and c_hi[r0] >= b_lo[r0]:
        width = int(c_hi[r0] - b_lo[r0]) + 1
        r1 = min(r0 + _CHUNK // width, u.size)
        c = b_lo[r0:r1, None] + np.arange(width)
        ur, score = u[r0:r1, None], np.empty(c.shape)
        # the prefix columns b = c <= u come first, most of them in the last row
        w = min(c.shape[1], int(u[r1 - 1] - b_lo[r1 - 1]) + 1)
        g = perims[ur - c[:, :w]] + perims[c[:, :w]]
        g[c[:, :w] > ur] = np.inf  # no prefix there (and u - c wraps)
        score[:, :w] = np.minimum.accumulate(g, axis=1)
        score[:, w:] = score[:, w - 1 : w]
        score += perims[c]
        score += perims[R - ur - c]
        score[c > c_hi[r0:r1, None]] = np.inf  # past the row's last cell
        value = float(score.min())
        if value <= best[0] and value < math.inf:
            row, col = np.nonzero(score == value)
            tie = _first_tie(perims, R, value, ur[row, 0], b_lo[r0 + row], c[row, col])
            best = min(best, (value, tie))
        del score, g, c  # before the next block is built
        r0 = r1

    best_perimeter, best_units = best[0], tuple(p for p in best[1] if p)
    if not best_units:
        raise DomainError(
            f"no valid partition of area {total} at resolution {resolution} in {geometry.kind}"
        )
    best = Configuration(geometry, n, tuple(units * unit for units in best_units))
    return best, best_perimeter


__all__ = [
    "Configuration",
    "CounterexampleResult",
    "MergeStep",
    "SplitAssessment",
    "Verdict",
    "assess_configuration",
    "assess_two_split",
    "brute_force_min",
    "counterexample_triangles",
    "euclidean_pythagoras_check",
    "merge_chain",
    "total_area",
    "total_perimeter",
]
