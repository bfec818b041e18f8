"""Acceptance battery: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines and timings.
"""

import math
import random
import time

import numpy as np

from isoperim import (
    Configuration,
    Geometry,
    RegularPolygon,
    Verdict,
    assess_two_split,
    brute_force_min,
    counterexample_triangles,
    critical_angle,
    equal_split_margin,
    euclidean_pythagoras_check,
    half_side,
    half_side_d1,
    half_side_d2,
    half_side_d3,
    inflection_point,
    merge_chain,
    perimeter,
)

from conftest import central_difference, sign_changes, staged_scan_root

HYP = Geometry.HYPERBOLIC
SPH = Geometry.SPHERICAL

PAIR_SIDE = math.acosh(3.0 + 2.0 * math.sqrt(3.0))


def _report(index: int, elapsed: float, limit: float, message: str) -> None:
    print(f"ACCEPTANCE {index}: PASS ({elapsed * 1e3:.2f} ms < {limit * 1e3:.0f} ms) {message}")


def hyp_area(n: int, theta: float) -> float:
    return (n - 2) * math.pi - n * theta


def test_criterion_1_counterexample_reproduction():
    counterexample_triangles(0.1)  # warmup
    elapsed = math.inf
    for _ in range(5):
        start = time.perf_counter()
        res = counterexample_triangles(0.1)
        elapsed = min(elapsed, time.perf_counter() - start)

    t1 = perimeter(RegularPolygon(HYP, 3, res.config.areas[0]))
    assert res.split_perimeter < res.single_perimeter
    assert abs(t1 - 3.0 * PAIR_SIDE) <= 1e-10
    assert res.split_perimeter <= 6.0 * PAIR_SIDE + 1e-9
    assert elapsed < 1e-3
    _report(1, elapsed, 1e-3, "two-triangle pair beats the thin triangle")


def test_criterion_2_euclidean_pythagorean_identity():
    rng = random.Random(20110)
    start = time.perf_counter()
    for _ in range(500):
        n = rng.randint(3, 12)
        a1 = rng.uniform(1e-9, 100.0)
        a2 = rng.uniform(1e-9, 100.0)
        p1, p2, p = euclidean_pythagoras_check(a1, a2, n)
        assert abs(p * p - (p1 * p1 + p2 * p2)) <= 1e-11 * p * p
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, elapsed, 1.0, "500 random splits satisfy p^2 = p1^2 + p2^2")


def test_criterion_3_spherical_strict_inequality():
    rng = random.Random(30111)
    start = time.perf_counter()
    for _ in range(500):
        n = rng.randint(3, 12)
        total = rng.uniform(1e-3, 2.0 * math.pi - 1e-3)
        a1 = rng.uniform(1e-4, 1.0 - 1e-4) * total
        a2 = total - a1
        p1 = perimeter(RegularPolygon(SPH, n, a1))
        p2 = perimeter(RegularPolygon(SPH, n, a2))
        p = perimeter(RegularPolygon(SPH, n, total))
        assert p1 + p2 - p > 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(3, elapsed, 1.0, "500 random spherical splits lose strictly")


def test_criterion_4_kernel_derivatives():
    start = time.perf_counter()
    for n in range(3, 13):
        hi = (n - 2) * math.pi / n
        for x in np.linspace(1e-6, hi - 1e-6, 1000):
            assert half_side_d3(n, float(x)) < 0.0

    rng = random.Random(40112)
    h = 1e-6
    checked = 0
    for n in (3, 4, 5, 7, 12):
        hi = (n - 2) * math.pi / n
        for _ in range(40):
            x = rng.uniform(1e-3, hi - 1e-3)
            d1 = half_side_d1(n, x)
            fd1 = central_difference(lambda t: half_side(n, t), x, h)
            assert abs(d1 - fd1) <= 1e-5 * abs(d1)
            d2 = half_side_d2(n, x)
            fd2 = central_difference(lambda t: half_side_d1(n, t), x, h)
            # absolute floor covers the inflection neighborhood where the
            # relative scale of the second derivative vanishes
            assert abs(d2 - fd2) <= max(1e-5 * abs(d2), 1e-8)
            d3 = half_side_d3(n, x)
            fd3 = central_difference(lambda t: half_side_d2(n, t), x, h)
            assert abs(d3 - fd3) <= 1e-5 * abs(d3)
            checked += 1
    assert checked == 200
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(4, elapsed, 5.0, "third derivative negative; closed forms match FD")


def test_criterion_5_threshold_structure():
    start = time.perf_counter()
    for n in range(3, 51):
        res = critical_angle(n)
        hi = (n - 2) * math.pi / n
        assert abs(equal_split_margin(n, res.critical_angle)) <= 1e-10
        assert 0.0 < res.critical_angle < res.inflection < hi

        xs = np.linspace(1e-6, hi - 1e-6, 10**4)
        values = [equal_split_margin(n, float(x)) for x in xs]
        flips = sign_changes(values)
        assert len(flips) == 1
        assert values[0] < 0.0 < values[-1]
        cell_lo, cell_hi = float(xs[flips[0]]), float(xs[flips[0] + 1])
        step = cell_hi - cell_lo
        assert cell_lo - step <= res.critical_angle <= cell_hi + step

    for n in (3, 4, 5):
        x0 = inflection_point(n)
        lo = x0 / 2.0
        while not equal_split_margin(n, lo) < 0.0:
            lo /= 2.0
        scan_root = staged_scan_root(lambda x: equal_split_margin(n, x), lo, x0)
        assert abs(critical_angle(n).critical_angle - scan_root) <= 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(5, elapsed, 30.0, "critical angles for n=3..50 verified by sign scans")


def _random_partition(rng: random.Random, total: float, k: int) -> tuple[float, ...]:
    cuts = sorted(rng.uniform(0.02, 0.98) for _ in range(k - 1))
    bounds = [0.0, *cuts, 1.0]
    return tuple((hi - lo) * total for lo, hi in zip(bounds, bounds[1:]))


def test_criterion_6_hyperbolic_dichotomy():
    rng = random.Random(60115)
    start = time.perf_counter()

    for _ in range(200):
        n = rng.randint(3, 12)
        res = critical_angle(n)
        hi = (n - 2) * math.pi / n
        theta = rng.uniform(res.critical_angle + 1e-3, hi - 1e-3)
        area = hyp_area(n, theta)

        c = theta + hi
        width = 2.0 * hi - c
        theta1 = (c - hi) + rng.uniform(1e-6, 1.0 - 1e-6) * width
        split = assess_two_split(HYP, n, area, theta1=theta1)
        assert split.verdict is Verdict.SINGLE_OPTIMAL_STRICT

        for k in (2, 3, 4):
            config = Configuration(HYP, n, _random_partition(rng, area, k))
            chain = merge_chain(config)
            assert chain.verdict is Verdict.SINGLE_OPTIMAL_STRICT

    for _ in range(200):
        n = rng.randint(3, 12)
        res = critical_angle(n)
        theta = rng.uniform(res.critical_angle * 0.05, res.critical_angle - 1e-3)
        area = hyp_area(n, theta)
        split = assess_two_split(HYP, n, area)
        assert split.verdict is Verdict.SPLIT_BEATS_SINGLE
        assert split.witness is not None
        assert split.config_perimeter < split.single_perimeter - 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(6, elapsed, 10.0, "400 random cases follow the threshold dichotomy")


def test_criterion_7_brute_force_oracle_agreement():
    start = time.perf_counter()
    resolution = 500
    shifts = (-0.2, -0.1, -0.05, -0.01, -0.002, 0.002, 0.01, 0.05, 0.1, 0.2)
    cases = [(n, shift) for n in (3, 4) for shift in shifts]
    assert len(cases) == 20

    for n, shift in cases:
        theta = critical_angle(n).critical_angle + shift
        area = hyp_area(n, theta)
        best, _ = brute_force_min(HYP, n, area, 3, resolution)
        analytic = assess_two_split(HYP, n, area)
        unit = area / resolution
        if analytic.verdict is Verdict.SINGLE_OPTIMAL_STRICT:
            assert best.k == 1
        else:
            assert analytic.verdict is Verdict.SPLIT_BEATS_SINGLE
            assert best.k == 2
            for part in best.areas:
                assert abs(part - area / 2.0) <= unit

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(7, elapsed, 60.0, "20-case panel matches the grid-search oracle")


def test_criterion_8_closed_form_values():
    start = time.perf_counter()
    res = counterexample_triangles(0.1)
    t1 = perimeter(RegularPolygon(HYP, 3, res.config.areas[0]))
    assert abs(t1 - 3.0 * PAIR_SIDE) <= 1e-9
    assert abs(2.0 * t1 - 6.0 * PAIR_SIDE) <= 1e-9
    assert res.split_perimeter <= 6.0 * PAIR_SIDE + 1e-9

    for eps in (0.01, 0.1, 0.3):
        single = RegularPolygon(HYP, 3, math.pi - 3.0 * eps)
        assert abs(single.angle - eps) <= 1e-9
        assert abs(single.area - (math.pi - 3.0 * eps)) <= 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(8, elapsed, 1.0, "closed-form pair values reproduced within 1e-9")
