"""Seeded inputs for the four workloads.

The same seed always gives the same inputs. Inputs that set a workload's
worst numerical error (the side counts of the theta sweep, the small
hyperbolic total of the oracle grid, the smallest areas of the decision
mix, the side counts of the margin and kernel scans) are fixed, so
`min_correct_digits` does not depend on the seed; the seed draws
everything else.
"""

from __future__ import annotations

import math
import random

import reference as ref

G = (ref.EUCLIDEAN, ref.SPHERICAL, ref.HYPERBOLIC)

# theta_sweep: every n of `theta --range 3 2000`, log-spaced n up to 1.5e5,
# and three n whose inflection solve fails its residual limit today.
LOG_NS = sorted({round(2000 * 75 ** (j / 24)) for j in range(1, 25)})
FAILING_NS = (158489, 501187, 10**6)

# oracle_grid resolutions per k_max; R <= EXHAUSTIVE_MAX is also searched exhaustively.
ORACLE_RES = {1: (200, 499, 1000, 2000), 2: (200, 499, 1000, 2000),
              3: (200, 499, 1000, 2000), 4: (250, 300, 350)}
EXHAUSTIVE_MAX = 250
ORACLE_SMALL_TOTAL = 1e-4

# decide_mix: operations per timed batch and batches per kind.
BATCH = 25
DECIDE_BATCHES = {
    ("assess", ref.EUCLIDEAN): 4,
    ("assess", ref.SPHERICAL): 4,
    ("assess", ref.HYPERBOLIC): 8,
    ("merge", ref.HYPERBOLIC): 8,
    ("perimeter", ref.EUCLIDEAN): 4,
    ("perimeter", ref.SPHERICAL): 6,
    ("perimeter", ref.HYPERBOLIC): 6,
    ("counterexample", ref.HYPERBOLIC): 4,
}
SIDES = (3, 4, 5, 6, 8, 12)
SCAN_SIDES = (4, 6, 12)
# Smallest areas, always present for n = 3: they carry the small-area error.
FIXED_SMALL_AREAS = (1e-8, 1e-7)
# Hyperbolic angles stay this far (radians) from the critical angle, so no
# verdict rests on the tie tolerance.
CLEARANCE = 0.05


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _area(rng: random.Random, geometry: str, n: int, lo: float = 1e-6) -> float:
    """Area log-spread over the admissible interval, clear of the critical angle."""
    if geometry == ref.EUCLIDEAN:
        return _log_uniform(rng, lo, 1e4)
    if geometry == ref.SPHERICAL:
        return _log_uniform(rng, lo, 2 * math.pi * (1 - 1e-3))
    theta = float(ref.theta(n))
    while True:
        area = _log_uniform(rng, lo, (n - 2) * math.pi * (1 - 1e-3))
        if abs(((n - 2) * math.pi - area) / n - theta) > CLEARANCE:
            return area


def _area_at_angle(n: int, angle: float) -> float:
    return (n - 2) * math.pi - n * angle


def _split_area(rng: random.Random, n: int) -> float:
    """Hyperbolic area whose single polygon loses to the equal split: angle below the threshold."""
    return _area_at_angle(n, rng.uniform(0.01, float(ref.theta(n)) - CLEARANCE))


def theta_sweep(rng: random.Random) -> list[dict]:
    ns = list(range(3, 2001)) + LOG_NS + list(FAILING_NS)
    rng.shuffle(ns)
    return [{"n": n} for n in ns]


def oracle_grid(rng: random.Random) -> list[dict]:
    # The fixed small hyperbolic total lies on the single-polygon side of the
    # threshold; it carries the small-area error of the perimeter, so it, not
    # the seed, sets the workload's worst relative error.
    n = rng.choice(SIDES[:4])
    cases = [
        (ref.EUCLIDEAN, rng.choice(SIDES[:4]), _log_uniform(rng, 0.1, 100.0)),
        (ref.SPHERICAL, rng.choice(SIDES[:4]), rng.uniform(0.3, 6.0)),
        (ref.HYPERBOLIC, 3, ORACLE_SMALL_TOTAL),
        (ref.HYPERBOLIC, n, _area_at_angle(n, float(ref.theta(n)) * rng.uniform(0.2, 0.8))),
    ]
    return [
        {"geometry": g, "n": n, "total": total, "k_max": k, "resolution": r}
        for g, n, total in cases
        for k, res in ORACLE_RES.items()
        for r in res
    ]


def _clear_split(geometry: str, n: int, parts: list[float]) -> bool:
    """Whether the parts' perimeter differs from the single polygon's far beyond the tie tolerance."""
    single = ref.perimeter(geometry, n, math.fsum(parts))
    split = sum(ref.perimeter(geometry, n, a) for a in parts)
    return abs(split - single) > 1e-6 * single


def _merge_config(rng: random.Random) -> tuple[int, list[float]]:
    while True:
        n = rng.choice(SIDES)
        total = _split_area(rng, n) if rng.random() < 0.5 else _area(rng, ref.HYPERBOLIC, n, lo=1e-3)
        weights = [rng.expovariate(1.0) for _ in range(rng.randint(2, 6))]
        parts = [total * w / sum(weights) for w in weights]
        if min(parts) >= 1e-6 and _clear_split(ref.HYPERBOLIC, n, parts):
            return n, parts


def _decide_args(rng: random.Random, kind: str, geometry: str, index: int) -> list:
    if kind == "counterexample":
        return [rng.uniform(1e-3, math.pi / 6 - 1e-3)]
    if kind == "merge":
        n, parts = _merge_config(rng)
        return [n, parts]
    if geometry != ref.EUCLIDEAN and index < len(FIXED_SMALL_AREAS):
        return [geometry, 3, FIXED_SMALL_AREAS[index]]
    n = rng.choice(SIDES)
    if geometry == ref.HYPERBOLIC and index % 2:
        return [geometry, n, _split_area(rng, n)]
    return [geometry, n, _area(rng, geometry, n)]


def decide_mix(rng: random.Random) -> list[dict]:
    batches = []
    for (kind, geometry), count in DECIDE_BATCHES.items():
        for b in range(count):
            args = [_decide_args(rng, kind, geometry, b * BATCH + i) for i in range(BATCH)]
            batches.append({"kind": kind, "args": args})
    return batches


def _num(x: float) -> str:
    return repr(float(x))


def cli_session(rng: random.Random) -> list[dict]:
    """The README's commands, then seeded variants of each."""
    argvs = [
        ["perim", "hyperbolic", "3", "--area", "1.5707963267948966"],
        ["perim", "spherical", "3", "--angle", "90", "--degrees"],
        ["theta", "3"],
        ["theta", "--range", "3", "50"],
        ["split", "euclidean", "4", "--total-area", "25", "--areas", "9,16"],
        ["split", "hyperbolic", "3", "--total-area", "2.8415926"],
        ["scan", "--phi", "3"],
        ["scan", "--g", "3", "--format", "json"],
        ["scan", "--h", "3", "1.5471975511965977"],
        ["counterexample", "--epsilon", "0.1"],
    ]
    for geometry in G:
        for _ in range(3):
            n = rng.choice(SIDES)
            argvs.append(["perim", geometry, str(n), "--area", _num(_area(rng, geometry, n, lo=1e-3))])
    for _ in range(3):
        argvs.append(["theta", str(rng.randint(3, 2000))])
    lo = rng.randint(3, 1990)
    argvs.append(["theta", "--range", str(lo), str(lo + 9)])
    for geometry in G:
        for i in range(2):
            n = rng.choice(SIDES)
            total = _split_area(rng, n) if geometry == ref.HYPERBOLIC and i else _area(rng, geometry, n, lo=1e-3)
            argvs.append(["split", geometry, str(n), "--total-area", _num(total)])
    for geometry in G:
        while True:
            n = rng.choice(SIDES)
            total = _area(rng, geometry, n, lo=1e-2)
            first = total * rng.uniform(0.2, 0.8)
            parts = [first, total - first]
            if _clear_split(geometry, n, parts):
                break
        argvs.append(["split", geometry, str(n), "--total-area", _num(math.fsum(parts)),
                      "--areas", ",".join(_num(a) for a in parts)])
    # Scans of the margin and the kernel keep fixed side counts: their
    # samples next to the domain edge set the workload's worst relative error.
    for n in SCAN_SIDES:
        argvs.append(["scan", "--phi", str(n)])
        argvs.append(["scan", "--g", str(n)])
    for _ in range(3):
        n = rng.choice(SIDES)
        flat = (n - 2) * math.pi / n
        argvs.append(["scan", "--h", str(n), _num(flat * rng.uniform(1.1, 1.9))])
    for _ in range(3):
        argvs.append(["counterexample", "--epsilon", _num(rng.uniform(1e-3, math.pi / 6 - 1e-3))])
    return [{"argv": a} for a in argvs]


WORKLOADS = {
    "theta_sweep": theta_sweep,
    "oracle_grid": oracle_grid,
    "decide_mix": decide_mix,
    "cli_session": cli_session,
}


def make(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
