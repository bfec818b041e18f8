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

from .analysis import SplitFunctionParams, _half_side, split_objective
from .errors import ConvergenceError, DomainError, ResourceError
from .geometry import Geometry, RegularPolygon, _angle, _side, area_bounds, validate_area
from .threshold import critical_angle

# Perimeter differences smaller than this are reported as ties rather than
# as strict wins; separates the genuine threshold-angle equality from roundoff.
TIE_TOL = 1e-9

MAX_PARTS = 4
MAX_RESOLUTION = 2000
MAX_EVALUATIONS = 10**8
# Candidates brute_force_min scores per numpy pass, which bounds its working
# memory; above MAX_RESOLUTION // 2 + 1, so any prefix's pairs fit in one pass.
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

    def polygons(self) -> tuple[RegularPolygon, ...]:
        return tuple(RegularPolygon(self.geometry, self.n, a) for a in self.areas)


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
    geometry: Geometry, n: int, total: float, single_perimeter: float
) -> Configuration | None:
    # the half goes unchecked: one that rounds to 0 has perimeter 0 and never wins
    half = total / 2.0
    p = n * _side(geometry, n, half)
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

    For the hyperbolic plane the split is parametrized by the first piece's
    interior angle theta1, defaulting to the balanced value c/2, which is
    the only interior candidate for a minimum of the split objective. Flat
    and spherical splits always lose; they are assessed at equal areas and
    theta1 is rejected there.
    """
    validate_area(geometry, n, total)
    single_p = n * _side(geometry, n, total)
    angle = _angle(geometry, n, total)

    if geometry is not Geometry.HYPERBOLIC:
        if theta1 is not None:
            raise DomainError("theta1 applies only to hyperbolic splits")
        half = total / 2.0
        if not half > 0.0:
            raise DomainError(f"total area {total} is too small to split for {geometry.kind} n={n}")
        config_p = 2.0 * (n * _side(geometry, n, half))
        return SplitAssessment(
            single_perimeter=single_p,
            config_perimeter=config_p,
            verdict=_verdict(config_p, single_p),
            angle=angle,
        )

    flat = (n - 2) * math.pi / n
    if not angle + flat < 2.0 * flat:
        raise DomainError(f"total area {total} is too small to split for hyperbolic n={n}")
    params = SplitFunctionParams(n, angle + flat)
    if theta1 is None:  # c - c/2 is c/2 exactly, inside the checked split domain
        k = _half_side(n, params.c / 2.0)
        config_p = 2.0 * n * (k + k)
    else:
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
    geometry, n = config.geometry, config.n
    merged_areas = list(accumulate(config.areas))  # left to right: the last is total_area
    total = merged_areas[-1]
    validate_area(geometry, n, total)  # the merged areas rise to it: this checks them all
    parts = _part_perimeters(config)
    merged = parts[:1] + [n * _side(geometry, n, a) for a in merged_areas[1:]]
    steps = tuple([
        MergeStep(pair_perimeter=p + q, merged_area=a, merged_perimeter=m)
        for p, q, a, m in zip(merged, parts[1:], merged_areas[1:], merged[1:])
    ])
    single_p, config_p = merged[-1], reduce(add, parts)

    threshold = critical_angle(n)
    return SplitAssessment(
        single_perimeter=single_p,
        config_perimeter=config_p,
        verdict=_verdict(config_p, single_p),
        angle=_angle(geometry, n, total),
        critical_angle=threshold.critical_angle,
        witness=_equal_split_witness(geometry, n, total, single_p),
        merge_steps=steps,
        part_perimeters=tuple(parts),
    )


def assess_configuration(config: Configuration) -> SplitAssessment:
    """Compare a configuration against the single polygon of its total area.

    Hyperbolic configurations get the full merge chain (see merge_chain);
    in the flat and spherical planes the verdict alone decides, and no
    threshold or witness exists.
    """
    if config.geometry is Geometry.HYPERBOLIC:
        return merge_chain(config)
    total = total_area(config)
    validate_area(config.geometry, config.n, total)
    single_p = config.n * _side(config.geometry, config.n, total)
    parts = _part_perimeters(config)
    config_p = reduce(add, parts)
    return SplitAssessment(
        single_perimeter=single_p,
        config_perimeter=config_p,
        verdict=_verdict(config_p, single_p),
        angle=_angle(config.geometry, config.n, total),
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


def _partitions_at_most(total: int, parts: int) -> int:
    """Number of partitions of `total` into at most `parts` parts."""
    at_most = [1] + [0] * total
    for size in range(1, parts + 1):
        # at_most[v] += at_most[v - size] for rising v, one residue class at a time
        for r in range(size):
            at_most[r::size] = accumulate(at_most[r::size])
    return at_most[total]


def _partition_count(total: int, parts: int) -> int:
    """Number of partitions of `total` into exactly `parts` parts of size >= 1."""
    return _partitions_at_most(total - parts, parts) if parts <= total else 0


def _ranges(np, start, stop):
    """Flatten the ranges start[i] <= a <= stop[i] in row order: (row of each a, a)."""
    counts = np.maximum(stop - start + 1, 0)
    row = np.repeat(np.arange(counts.size), counts)
    a = np.arange(row.size)
    a += (start + counts - np.cumsum(counts))[row]
    return row, a


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

    limits = (("k_max", k_max, MAX_PARTS), ("resolution", resolution, MAX_RESOLUTION))
    for name, value, top in limits:
        if not isinstance(value, (int, np.integer)):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        if not 1 <= value <= top:
            raise DomainError(f"{name} must lie in [1, {top}], got {value}")
    if not total > 0.0:
        raise DomainError(f"total area must be positive, got {total}")

    evaluations = _partitions_at_most(resolution, k_max)
    if evaluations > max_evaluations:
        raise ResourceError(
            f"{evaluations} candidate partitions exceed the budget of {max_evaluations}"
        )

    R = resolution
    unit = total / R
    lo, hi = area_bounds(geometry, n)
    # k_max = 1 needs only u = R. 0 < u * unit < hi holds for an initial run
    # of the unit counts u, so perims is finite exactly on first..finite.
    first = R if k_max == 1 else 1
    areas = np.arange(first, R + 1) * unit
    finite = first - 1 + int(np.count_nonzero((lo < areas) & (areas < hi)))
    perims = np.full(R + 1, np.inf)
    perims[first : finite + 1] = n * _side(geometry, n, areas[: finite + 1 - first])
    best_perimeter = float(perims[R])
    best_units: tuple[int, ...] | None = (R,) if best_perimeter < math.inf else None
    for k in range(2, k_max + 1):
        # Sorted (k-2)-part prefixes in lexicographic order with their
        # left-to-right perimeter sums; part j of k is at most rem // (k - j),
        # and at most `finite`, which drops the prefixes with an infinite sum.
        links = []  # per prefix part: (index of the shorter prefix, part)
        sums, rem, start = np.zeros(1), np.full(1, R), np.ones(1, np.int64)
        for j in range(k - 2):
            row, part = _ranges(np, start, np.minimum(rem // (k - j), finite))
            links.append((row, part))
            sums, rem, start = sums[row] + perims[part], rem[row] - part, part
        # Innermost pair start <= a <= rem - a, scored flat in row-major order
        # in chunks; a chunk's first minimum wins only if strictly better, so
        # ties keep fewer parts, then the lexicographically smallest vector.
        ends = np.cumsum(np.maximum(rem // 2 - start + 1, 0))
        r0 = done = 0
        while r0 < ends.size and done < ends[-1]:  # each chunk then holds a pair
            r1 = int(np.searchsorted(ends, done + _CHUNK, "right"))
            row, a = _ranges(np, start[r0:r1], rem[r0:r1] // 2)
            row += r0
            cand = (sums[row] + perims[a]) + perims[rem[row] - a]
            i = int(np.argmin(cand))
            if cand[i] < best_perimeter:
                best_perimeter, r = float(cand[i]), row[i]
                parts = [int(a[i]), int(rem[r] - a[i])]
                for owner, part in reversed(links):  # trace the prefix back
                    parts.insert(0, int(part[r]))
                    r = owner[r]
                best_units = tuple(parts)
            r0, done = r1, int(ends[r1 - 1])

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
