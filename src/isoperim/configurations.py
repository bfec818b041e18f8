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

from .analysis import SplitFunctionParams, split_objective
from .errors import DomainError, ResourceError
from .geometry import Geometry, RegularPolygon, area_bounds, perimeter, validate_area
from .threshold import critical_angle

# Perimeter differences smaller than this are reported as ties rather than
# as strict wins; separates the genuine threshold-angle equality from roundoff.
TIE_TOL = 1e-9

MAX_PARTS = 4
MAX_RESOLUTION = 2000
MAX_EVALUATIONS = 10**8


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

    def polygons(self) -> tuple[RegularPolygon, ...]:
        return tuple(RegularPolygon(self.geometry, self.n, a) for a in self.areas)


def total_area(config: Configuration) -> float:
    """Sum of the polygon areas, accumulated left to right."""
    return sum(config.areas)


def total_perimeter(config: Configuration) -> float:
    """Sum of the polygon perimeters, accumulated left to right."""
    return sum(perimeter(p) for p in config.polygons())


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
    geometries without a threshold.
    """

    single_perimeter: float
    config_perimeter: float
    verdict: Verdict
    angle: float
    critical_angle: float | None = None
    witness: Configuration | None = None
    merge_steps: tuple[MergeStep, ...] = field(default=())


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
    p1, p2, p = (
        perimeter(RegularPolygon(Geometry.EUCLIDEAN, n, a)) for a in (a1, a2, a1 + a2)
    )
    return p1, p2, p


def _equal_split_witness(
    geometry: Geometry, n: int, area: float, single_perimeter: float
) -> Configuration | None:
    half = area / 2.0
    halves = Configuration(geometry, n, (half, half))
    if total_perimeter(halves) < single_perimeter - TIE_TOL:
        return halves
    return None


def assess_two_split(
    geometry: Geometry,
    n: int,
    total: float,
    theta1: float | None = None,
) -> SplitAssessment:
    """Compare a two-way split of `total` area against the single polygon.

    For the hyperbolic plane the split is parametrized by the first piece's
    interior angle theta1, defaulting to the balanced value c/2, which is
    the only interior candidate for a minimum of the split objective. Flat
    and spherical splits always lose; they are assessed at equal areas and
    theta1 is rejected there.
    """
    single = RegularPolygon(geometry, n, total)
    single_p = perimeter(single)
    angle = single.angle

    if geometry is not Geometry.HYPERBOLIC:
        if theta1 is not None:
            raise DomainError("theta1 applies only to hyperbolic splits")
        half = RegularPolygon(geometry, n, total / 2.0)
        config_p = 2.0 * perimeter(half)
        return SplitAssessment(
            single_perimeter=single_p,
            config_perimeter=config_p,
            verdict=_verdict(config_p, single_p),
            angle=angle,
        )

    params = SplitFunctionParams(n, angle + (n - 2) * math.pi / n)
    if theta1 is None:
        theta1 = params.c / 2.0
    config_p = 2.0 * n * split_objective(params, theta1)
    threshold = critical_angle(n)
    return SplitAssessment(
        single_perimeter=single_p,
        config_perimeter=config_p,
        verdict=_verdict(config_p, single_p),
        angle=angle,
        critical_angle=threshold.critical_angle,
        witness=_equal_split_witness(geometry, n, total, single_p),
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
    total = total_area(config)
    single = RegularPolygon(config.geometry, config.n, total)
    single_p = perimeter(single)
    config_p = total_perimeter(config)

    steps: list[MergeStep] = []
    prefix_area = config.areas[0]
    prefix_p = perimeter(RegularPolygon(config.geometry, config.n, prefix_area))
    for area in config.areas[1:]:
        merged_area = prefix_area + area
        piece_p = perimeter(RegularPolygon(config.geometry, config.n, area))
        merged_p = perimeter(RegularPolygon(config.geometry, config.n, merged_area))
        steps.append(
            MergeStep(
                pair_perimeter=prefix_p + piece_p,
                merged_area=merged_area,
                merged_perimeter=merged_p,
            )
        )
        prefix_area, prefix_p = merged_area, merged_p

    threshold = critical_angle(config.n)
    return SplitAssessment(
        single_perimeter=single_p,
        config_perimeter=config_p,
        verdict=_verdict(config_p, single_p),
        angle=single.angle,
        critical_angle=threshold.critical_angle,
        witness=_equal_split_witness(config.geometry, config.n, total, single_p),
        merge_steps=tuple(steps),
    )


def assess_configuration(config: Configuration) -> SplitAssessment:
    """Compare a configuration against the single polygon of its total area.

    Hyperbolic configurations get the full merge chain (see merge_chain);
    in the flat and spherical planes the verdict alone decides, and no
    threshold or witness exists.
    """
    if config.geometry is Geometry.HYPERBOLIC:
        return merge_chain(config)
    single = RegularPolygon(config.geometry, config.n, total_area(config))
    single_p = perimeter(single)
    config_p = total_perimeter(config)
    return SplitAssessment(
        single_perimeter=single_p,
        config_perimeter=config_p,
        verdict=_verdict(config_p, single_p),
        angle=single.angle,
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
    config = Configuration(
        Geometry.HYPERBOLIC, 3, (math.pi / 2.0, math.pi / 2.0 - 3.0 * epsilon)
    )
    single = RegularPolygon(Geometry.HYPERBOLIC, 3, math.pi - 3.0 * epsilon)
    split_p = total_perimeter(config)
    single_p = perimeter(single)
    pair_bound = 6.0 * math.acosh(3.0 + 2.0 * math.sqrt(3.0))
    assert split_p <= pair_bound + TIE_TOL
    return CounterexampleResult(
        config=config,
        single=single,
        split_perimeter=split_p,
        single_perimeter=single_p,
        margin=single_p - split_p,
    )


def _partition_count(total: int, parts: int) -> int:
    """Number of partitions of `total` into exactly `parts` parts of size >= 1."""
    if parts > total:
        return 0
    # partitions of total into exactly k parts == partitions of total-k into at most k parts
    m = total - parts
    at_most = [1] + [0] * m
    for size in range(1, parts + 1):
        for value in range(size, m + 1):
            at_most[value] += at_most[value - size]
    return at_most[m]


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
    oracle for the analytic verdicts.
    """
    import numpy as np  # here, so that importing the package does not load numpy

    if not 1 <= k_max <= MAX_PARTS:
        raise DomainError(f"k_max must lie in [1, {MAX_PARTS}], got {k_max}")
    if not 1 <= resolution <= MAX_RESOLUTION:
        raise DomainError(f"resolution must lie in [1, {MAX_RESOLUTION}], got {resolution}")
    if not total > 0.0:
        raise DomainError(f"total area must be positive, got {total}")

    evaluations = sum(_partition_count(resolution, k) for k in range(1, k_max + 1))
    if evaluations > max_evaluations:
        raise ResourceError(
            f"{evaluations} candidate partitions exceed the budget of {max_evaluations}"
        )

    unit = total / resolution
    lo, hi = area_bounds(geometry, n)
    perims = np.full(resolution + 1, np.inf)
    for units in range(1, resolution + 1):
        area = units * unit
        if lo < area < hi:
            perims[units] = perimeter(RegularPolygon(geometry, n, area))

    best_perimeter = math.inf
    best_units: tuple[int, ...] | None = None

    def consider(prefix_perim: float, prefix: tuple[int, ...], start: int, rem: int) -> None:
        nonlocal best_perimeter, best_units
        # vectorized innermost pair: start <= a <= rem - a
        top = rem // 2
        if top < start:
            return
        a = np.arange(start, top + 1)
        cand = prefix_perim + perims[a] + perims[rem - a]
        idx = int(np.argmin(cand))
        value = float(cand[idx])
        if value < best_perimeter:
            best_perimeter = value
            best_units = prefix + (int(a[idx]), rem - int(a[idx]))

    R = resolution
    if np.isfinite(perims[R]) and perims[R] < best_perimeter:
        best_perimeter = float(perims[R])
        best_units = (R,)
    if k_max >= 2:
        consider(0.0, (), 1, R)
    if k_max >= 3:
        for a1 in range(1, R // 3 + 1):
            if np.isfinite(perims[a1]):
                consider(float(perims[a1]), (a1,), a1, R - a1)
    if k_max >= 4:
        for a1 in range(1, R // 4 + 1):
            if not np.isfinite(perims[a1]):
                continue
            for a2 in range(a1, (R - a1) // 3 + 1):
                if np.isfinite(perims[a2]):
                    consider(float(perims[a1] + perims[a2]), (a1, a2), a2, R - a1 - a2)

    if best_units is None or not math.isfinite(best_perimeter):
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
