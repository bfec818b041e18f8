import dataclasses
import functools
import itertools
import math
import operator
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isoperim import (
    Configuration,
    DomainError,
    Geometry,
    MergeStep,
    RegularPolygon,
    SplitAssessment,
    SplitFunctionParams,
    Verdict,
    assess_configuration,
    assess_two_split,
    brute_force_min,
    counterexample_triangles,
    critical_angle,
    euclidean_pythagoras_check,
    merge_chain,
    perimeter,
    split_objective,
    total_area,
    total_perimeter,
)
from isoperim import analysis as analysis_module
from isoperim import configurations
from isoperim import geometry as geometry_module
from isoperim.geometry import area_bounds

from conftest import (
    CE_MARGIN,
    CE_SINGLE,
    CE_SPLIT,
    EQ_SPLIT_PERIM_THETA_01,
    SIDE_AREA_HALF_PI,
)

EUC = Geometry.EUCLIDEAN
SPH = Geometry.SPHERICAL
HYP = Geometry.HYPERBOLIC


def hyp_area(n: int, theta: float) -> float:
    return (n - 2) * math.pi - n * theta


# ------------------------------------------------------------------ totals


def test_totals_basic():
    cfg = Configuration(EUC, 4, (1.0,))
    assert total_perimeter(cfg) == pytest.approx(4.0, rel=1e-12)

    pair = Configuration(HYP, 3, (math.pi / 2, math.pi / 2))
    assert total_perimeter(pair) == pytest.approx(6 * SIDE_AREA_HALF_PI, rel=1e-12)


def test_total_area_left_to_right_addition():
    a1, a2, a3 = 0.1, 0.2, 0.3
    cfg = Configuration(HYP, 3, (a1, a2, a3))
    assert total_area(cfg) == (a1 + a2) + a3  # exact float identity


def test_totals_additive_over_concatenation():
    left = Configuration(HYP, 3, (0.2, 0.4))
    right = Configuration(HYP, 3, (0.5,))
    joined = Configuration(HYP, 3, left.areas + right.areas)
    assert total_area(joined) == pytest.approx(total_area(left) + total_area(right), rel=1e-12)
    assert total_perimeter(joined) == pytest.approx(
        total_perimeter(left) + total_perimeter(right), rel=1e-12
    )


def test_configuration_validation():
    with pytest.raises(DomainError):
        Configuration(HYP, 3, ())
    with pytest.raises(DomainError):
        Configuration(HYP, 3, (0.5, math.pi))
    with pytest.raises(DomainError):
        Configuration(SPH, 3, (2 * math.pi,))
    # per-polygon bound only; a joint spherical bound is not enforced even
    # past the sphere's total area of 4*pi
    cfg = Configuration(SPH, 3, (5.0, 5.0, 5.0))
    assert cfg.k == 3 and total_area(cfg) > 4 * math.pi


# ------------------------------------------------------------- pythagoras


def test_pythagoras_3_4_5():
    p1, p2, p = euclidean_pythagoras_check(9.0, 16.0, 4)
    assert p1 == pytest.approx(12.0, rel=1e-12)
    assert p2 == pytest.approx(16.0, rel=1e-12)
    assert p == pytest.approx(20.0, rel=1e-12)
    assert p * p == pytest.approx(p1 * p1 + p2 * p2, rel=1e-12)


def test_pythagoras_equal_areas():
    p1, p2, p = euclidean_pythagoras_check(1.0, 1.0, 3)
    assert p1 == p2
    assert p == pytest.approx(p1 * math.sqrt(2.0), rel=1e-12)


def test_pythagoras_degenerate_limit():
    p1, p2, p = euclidean_pythagoras_check(1e-12, 2.0, 5)
    assert p == pytest.approx(p2, rel=1e-6)


def test_pythagoras_rejects_nonpositive():
    with pytest.raises(DomainError):
        euclidean_pythagoras_check(0.0, 1.0, 4)
    with pytest.raises(DomainError):
        euclidean_pythagoras_check(1.0, -2.0, 4)


def test_pythagoras_huge_areas_stay_finite():
    p1, p2, p = euclidean_pythagoras_check(1e307, 1e307, 3)
    assert p1 == p2 and math.isfinite(p)
    assert p == pytest.approx(math.sqrt(2.0) * p1, rel=1e-15)


def test_pythagoras_rejects_nan_and_overflowed_sum():
    with pytest.raises(DomainError):
        euclidean_pythagoras_check(math.nan, 1.0, 3)
    with pytest.raises(DomainError, match="area must be < inf"):
        euclidean_pythagoras_check(1e308, 1e308, 3)


@given(
    n=st.integers(min_value=3, max_value=12),
    a1=st.floats(min_value=1e-6, max_value=100.0),
    a2=st.floats(min_value=1e-6, max_value=100.0),
)
@settings(deadline=None, max_examples=150)
def test_pythagoras_identity_property(n, a1, a2):
    p1, p2, p = euclidean_pythagoras_check(a1, a2, n)
    assert p * p - p1 * p1 - p2 * p2 == pytest.approx(0.0, abs=1e-11 * p * p)
    assert p < p1 + p2


# ------------------------------------------------------------ two splits


def test_assess_below_threshold():
    res = assess_two_split(HYP, 3, hyp_area(3, 0.1))
    assert res.verdict is Verdict.SPLIT_BEATS_SINGLE
    assert res.single_perimeter == pytest.approx(CE_SINGLE, rel=1e-12)
    assert res.config_perimeter == pytest.approx(EQ_SPLIT_PERIM_THETA_01, rel=1e-12)
    assert res.angle == pytest.approx(0.1, rel=1e-12)
    assert res.witness is not None
    assert total_perimeter(res.witness) < res.single_perimeter - 1e-9
    assert sum(res.witness.areas) == pytest.approx(hyp_area(3, 0.1), rel=1e-12)


def test_assess_above_threshold():
    theta = critical_angle(3).critical_angle + 0.3
    res = assess_two_split(HYP, 3, hyp_area(3, theta))
    assert res.verdict is Verdict.SINGLE_OPTIMAL_STRICT
    assert res.witness is None
    assert res.critical_angle == pytest.approx(critical_angle(3).critical_angle)


def test_assess_tie_at_threshold():
    theta = critical_angle(3).critical_angle
    res = assess_two_split(HYP, 3, hyp_area(3, theta))
    assert res.verdict is Verdict.TIE
    assert abs(res.config_perimeter - res.single_perimeter) <= 1e-9


def test_assess_spherical():
    res = assess_two_split(SPH, 3, math.pi / 2)
    assert res.verdict is Verdict.SINGLE_OPTIMAL_STRICT
    assert res.critical_angle is None
    assert res.witness is None


def test_assess_euclidean():
    res = assess_two_split(EUC, 4, 25.0)
    assert res.verdict is Verdict.SINGLE_OPTIMAL_STRICT
    assert res.config_perimeter == pytest.approx(res.single_perimeter * math.sqrt(2), rel=1e-12)


def test_assess_explicit_split_angle():
    theta = critical_angle(3).critical_angle + 0.2
    area = hyp_area(3, theta)
    c = theta + math.pi / 3
    hi = math.pi / 3
    for frac in (0.1, 0.5, 0.9):
        theta1 = (c - hi) + frac * (2 * hi - c)
        a1 = hyp_area(3, theta1)  # the other piece has angle c - theta1
        res = assess_configuration(Configuration(HYP, 3, (a1, area - a1)))
        assert res.verdict is Verdict.SINGLE_OPTIMAL_STRICT


@pytest.mark.parametrize("n", [3, 4, 6, 1000])
@pytest.mark.parametrize("total", [1e-300, 5e-16])
def test_assess_a_total_whose_angle_rounds_to_flat(n, total):
    # the angle sum of any split of the total rounds to 2*(n-2)*pi/n, but the
    # halves are areas: the equal split is assessed as a configuration of them
    res = assess_two_split(HYP, n, total)
    ref = assess_configuration(Configuration(HYP, n, (total / 2.0, total / 2.0)))
    flat = geometry_module._flat(n)
    assert res.angle + flat == 2.0 * flat
    assert res.verdict is not Verdict.SPLIT_BEATS_SINGLE  # below TIE_TOL a tie, else strict
    fields = ("single_perimeter", "config_perimeter", "verdict", "angle", "critical_angle",
              "witness")
    assert [getattr(res, f) for f in fields] == [getattr(ref, f) for f in fields]


def test_witness_follows_the_verdict_rule(monkeypatch):
    # a single polygon of perimeter 3.0 and an equal split of 2p = fl(3.0 - TIE_TOL),
    # which rounds down: 2p - 3.0 = -1.0000000827e-09 is a win for the split
    halves = float.fromhex("0x1.7ffffffdda3e8p+1")
    assert halves == 3.0 - configurations.TIE_TOL
    assert 3.0 - halves > configurations.TIE_TOL
    sides = {2.5: 3.0 / 4, 1.25: halves / 8, 1.0: 1.0, 1.5: 1.0}
    monkeypatch.setattr(configurations, "_side", lambda g, n, area, m=None: sides[area])
    witness = Configuration(HYP, 4, (1.25, 1.25))
    res = assess_two_split(HYP, 4, 2.5)
    assert (res.verdict, res.witness) == (Verdict.SPLIT_BEATS_SINGLE, witness)
    res = assess_configuration(witness)
    assert (res.verdict, res.witness) == (Verdict.SPLIT_BEATS_SINGLE, witness)
    # a configuration that loses still names the equal split that wins
    res = assess_configuration(Configuration(HYP, 4, (1.0, 1.5)))
    assert (res.verdict, res.witness) == (Verdict.SINGLE_OPTIMAL_STRICT, witness)


@pytest.mark.parametrize("number", [Decimal, Fraction])
@pytest.mark.parametrize("geometry, n", [(EUC, 4), (SPH, 3), (HYP, 3)])
def test_decimal_and_fraction_parts_give_the_float_results(geometry, n, number):
    # the parts and merge steps keep the caller's numbers (here sums that are
    # exact in binary too), and the side kernel takes their floats
    parts = ("0.5", "0.75", "1.25")
    config = Configuration(geometry, n, tuple(map(number, parts)))
    floated = Configuration(geometry, n, tuple(map(float, parts)))
    res = assess_configuration(config)
    assert res == assess_configuration(floated)
    assert total_perimeter(config) == total_perimeter(floated)
    assert [type(s.merged_area) for s in res.merge_steps] == [number] * len(res.merge_steps)
    if geometry is HYP:
        assert merge_chain(config) == res and len(res.merge_steps) == 2


@pytest.mark.parametrize("geometry, n, total", [(EUC, 4, 2.0), (SPH, 3, 1.0), (HYP, 3, 2.9)])
def test_a_numpy_float_total_gives_float_fields(geometry, n, total):
    # the total becomes a float after the area check; Configuration.areas and
    # MergeStep.merged_area keep the caller's numbers
    parts = (0.4 * total, 0.6 * total)
    two_split = assess_two_split(geometry, n, np.float64(total))
    assert repr(two_split) == repr(assess_two_split(geometry, n, total))
    config = assess_configuration(Configuration(geometry, n, tuple(map(np.float64, parts))))
    assert config == assess_configuration(Configuration(geometry, n, parts))
    for res in (two_split, config):
        floats = [res.single_perimeter, res.config_perimeter, res.angle, *res.part_perimeters]
        floats += [x for s in res.merge_steps for x in (s.pair_perimeter, s.merged_perimeter)]
        if geometry is HYP:
            floats += [res.critical_angle, *res.witness.areas]
        assert all(type(x) is float for x in floats)
    assert len(floats) == (10 if geometry is HYP else 5)


def test_verdict_consistent_with_sign():
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randint(3, 12)
        hi = (n - 2) * math.pi / n
        theta = rng.uniform(1e-3, hi - 1e-3)
        res = assess_two_split(HYP, n, hyp_area(n, theta))
        diff = res.config_perimeter - res.single_perimeter
        if res.verdict is Verdict.TIE:
            assert abs(diff) <= 1e-9
        elif res.verdict is Verdict.SINGLE_OPTIMAL_STRICT:
            assert diff > 1e-9
        else:
            assert diff < -1e-9


def test_split_objective_tends_to_single_at_boundary():
    # near the boundary of the split domain the per-side split objective
    # approaches the single polygon's kernel value from above
    for n in (3, 5, 7):
        hi = (n - 2) * math.pi / n
        theta = 0.5 * hi
        area = hyp_area(n, theta)
        single = perimeter(RegularPolygon(HYP, n, area))
        split = 2 * n * split_objective(SplitFunctionParams(n, theta + hi), hi - 1e-7)
        assert split / (2 * n) == pytest.approx(single / (2 * n), abs=1e-3)
        assert split > single


# ------------------------------------------------------------ merge chain


def test_merge_chain_single_polygon_ties():
    res = merge_chain(Configuration(HYP, 3, (1.0,)))
    assert res.verdict is Verdict.TIE
    assert res.merge_steps == ()
    assert res.config_perimeter == res.single_perimeter


def test_merge_chain_small_total_single_wins():
    res = merge_chain(Configuration(HYP, 3, (0.3, 0.4, 0.5)))
    assert res.verdict is Verdict.SINGLE_OPTIMAL_STRICT
    assert len(res.merge_steps) == 2
    # inside the safe regime every pairwise merge is strictly shorter
    for step in res.merge_steps:
        assert step.merged_perimeter < step.pair_perimeter
    assert total_area(Configuration(HYP, 3, (0.3, 0.4, 0.5))) < critical_angle(3).max_area


def test_merge_chain_counterexample_pair():
    eps = 0.1
    cfg = Configuration(HYP, 3, (math.pi / 2, math.pi / 2 - 3 * eps))
    res = merge_chain(cfg)
    assert res.verdict is Verdict.SPLIT_BEATS_SINGLE
    assert res.witness is not None


def test_merge_chain_validation():
    with pytest.raises(DomainError):
        merge_chain(Configuration(EUC, 3, (1.0, 2.0)))
    with pytest.raises(DomainError):
        merge_chain(Configuration(HYP, 3, (2.0, 2.0)))  # total 4.0 > pi


# ---------------------------------------------------- any configuration


@pytest.mark.parametrize(
    "areas", [(1.0,), (0.3, 0.4, 0.5), (math.pi / 2, math.pi / 2 - 0.3), (1.0, 1.2, 0.5)]
)
def test_assess_configuration_hyperbolic_is_merge_chain(areas):
    cfg = Configuration(HYP, 3, areas)
    assert assess_configuration(cfg) == merge_chain(cfg)


@pytest.mark.parametrize(
    "geometry, n, areas, verdict",
    [
        (EUC, 4, (9.0, 16.0), Verdict.SINGLE_OPTIMAL_STRICT),
        (SPH, 3, (0.7853981, 0.7853982), Verdict.SINGLE_OPTIMAL_STRICT),
        (EUC, 3, (1.0,), Verdict.TIE),
    ],
)
def test_assess_configuration_flat_and_spherical(geometry, n, areas, verdict):
    cfg = Configuration(geometry, n, areas)
    res = assess_configuration(cfg)
    assert res.verdict is verdict
    assert res.critical_angle is None and res.witness is None
    assert res.merge_steps == ()
    single = RegularPolygon(geometry, n, total_area(cfg))
    assert res.single_perimeter == perimeter(single)
    assert res.config_perimeter == total_perimeter(cfg)
    assert res.angle == single.angle


@pytest.mark.parametrize(
    "geometry, n, areas",
    [(SPH, 3, (math.pi, math.pi)), (SPH, 4, (4.0, 4.0)), (HYP, 3, (2.0, 2.0)), (HYP, 5, (5.0, 4.5))],
)
def test_assess_configuration_total_out_of_range(geometry, n, areas):
    cfg = Configuration(geometry, n, areas)
    with pytest.raises(DomainError, match=f"area must be < .* for {geometry.kind} n={n}"):
        assess_configuration(cfg)


# --------------------------------------------------------- counterexample


def test_counterexample_frozen_values():
    res = counterexample_triangles(0.1)
    assert res.single_perimeter == pytest.approx(CE_SINGLE, rel=1e-12)
    assert res.split_perimeter == pytest.approx(CE_SPLIT, rel=1e-12)
    assert res.margin == pytest.approx(CE_MARGIN, rel=1e-12)
    assert res.margin > 0.0
    assert res.config.areas == (math.pi / 2, math.pi / 2 - 3 * 0.1)
    assert res.single.area == pytest.approx(math.pi - 0.3, rel=1e-12)


def test_counterexample_t1_closed_form():
    res = counterexample_triangles(0.05)
    t1 = perimeter(RegularPolygon(HYP, 3, res.config.areas[0]))
    assert abs(t1 - 3 * math.acosh(3 + 2 * math.sqrt(3))) <= 1e-10
    assert res.split_perimeter <= 6 * math.acosh(3 + 2 * math.sqrt(3)) + 1e-9


def test_counterexample_large_epsilon_margin_negative():
    res = counterexample_triangles(0.5)
    assert res.margin < 0.0


def test_counterexample_epsilon_range():
    with pytest.raises(DomainError):
        counterexample_triangles(0.0)
    with pytest.raises(DomainError):
        counterexample_triangles(math.pi / 6)
    with pytest.raises(DomainError):
        counterexample_triangles(0.6)


def test_counterexample_epsilon_lost_to_rounding():
    # pi - 3*epsilon rounds to pi: the error names epsilon, not an area
    with pytest.raises(DomainError, match="epsilon 1e-300 is too small"):
        counterexample_triangles(1e-300)


def test_counterexample_pair_within_its_bound():
    # both triangles have area at most pi/2, and at fixed n the perimeter
    # rises with the area: the pair is at most 2*P3(pi/2) = 6*acosh(3 +
    # 2*sqrt(3)), also in floating point, on a log sweep of epsilon from the
    # least admitted value (about 7.4e-17) to pi/6
    bound = 6.0 * math.acosh(3.0 + 2.0 * math.sqrt(3.0))
    least = 2.0**-52 / 3.0
    while not math.pi - 3.0 * least < math.pi:
        least = math.nextafter(least, 1.0)
    with pytest.raises(DomainError, match="too small"):
        counterexample_triangles(math.nextafter(least, 0.0))
    top = math.nextafter(math.pi / 6.0, 0.0)
    ratio, count = top / least, 20001
    worst = -math.inf
    for i in range(count):
        epsilon = min(max(least * ratio ** (i / (count - 1)), least), top)
        worst = max(worst, counterexample_triangles(epsilon).split_perimeter - bound)
    assert worst <= 0.0


# ------------------------------------------------------------ brute force


@pytest.mark.parametrize(
    "k_max,resolution,message",
    [
        (2.5, 100, "k_max must be an integer, got 2.5"),
        (2.0, 100, "k_max must be an integer, got 2.0"),
        ("2", 100, "k_max must be an integer, got '2'"),
        (2, 100.0, "resolution must be an integer, got 100.0"),
        (True, 100, "k_max must be an integer, got True"),
        (2, True, "resolution must be an integer, got True"),
    ],
)
def test_brute_force_rejects_non_integer_arguments(k_max, resolution, message):
    with pytest.raises(DomainError) as info:
        brute_force_min(EUC, 4, 1.0, k_max, resolution)
    assert str(info.value) == message


def test_brute_force_accepts_numpy_integers():
    # the unit total / R stays a Python float, so no np.float64 reaches the result
    for geometry, total in ((EUC, 1.0), (SPH, 1.0), (HYP, math.pi - 0.3)):
        for k_max in range(1, 5):
            expected = brute_force_min(geometry, 3, total, k_max, 10)
            result = brute_force_min(geometry, 3, total, np.int64(k_max), np.int32(10))
            assert result == expected
            assert all(type(a) is float for a in result[0].areas)
            assert type(result[1]) is float
            assert repr(result) == repr(expected)
            assert type(brute_force_min(geometry, np.int64(3), total, k_max, 10)[1]) is float


def test_brute_force_accepts_a_numpy_float_total():
    # the total becomes a Python float, so every area and the perimeter are floats
    for geometry, total in ((EUC, 1.0), (SPH, 1.0), (HYP, math.pi - 0.3)):
        for k_max in range(1, 5):
            expected = brute_force_min(geometry, 3, total, k_max, 10)
            result = brute_force_min(geometry, 3, np.float64(total), k_max, 10)
            assert all(type(a) is float for a in result[0].areas)
            assert type(result[1]) is float
            assert repr(result) == repr(expected)
    # the errors still print the caller's value, whose str is the float's
    with pytest.raises(DomainError, match=r"^no valid partition of area 20\.0 at resolution 2 in spherical$"):
        brute_force_min(SPH, 3, np.float64(20.0), 1, 2)
    with pytest.raises(DomainError, match=r"^total area must be positive, got -1\.0$"):
        brute_force_min(SPH, 3, np.float64(-1.0), 1, 2)


def test_brute_force_euclidean_single_wins():
    best, p = brute_force_min(EUC, 4, 1.0, 3, 500)
    assert best.k == 1
    assert p == pytest.approx(4.0, rel=1e-9)


def test_brute_force_spherical_single_wins():
    best, _ = brute_force_min(SPH, 3, math.pi / 2, 3, 300)
    assert best.k == 1


def test_brute_force_below_threshold_equal_split():
    area = hyp_area(3, 0.1)
    best, p = brute_force_min(HYP, 3, area, 2, 1000)
    assert best.k == 2
    unit = area / 1000
    assert abs(best.areas[0] - area / 2) <= unit
    assert abs(best.areas[1] - area / 2) <= unit
    assert p == pytest.approx(EQ_SPLIT_PERIM_THETA_01, abs=1e-6)


def test_brute_force_small_total_single_wins():
    best, _ = brute_force_min(HYP, 3, 1.0, 3, 500)
    assert best.k == 1


def test_brute_force_k4_path():
    best, _ = brute_force_min(HYP, 3, hyp_area(3, 0.1), 4, 60)
    assert best.k == 2  # equal split still optimal with four parts allowed


def test_brute_force_deterministic():
    first = brute_force_min(HYP, 3, hyp_area(3, 0.15), 3, 400)
    second = brute_force_min(HYP, 3, hyp_area(3, 0.15), 3, 400)
    assert first[0].areas == second[0].areas
    assert first[1] == second[1]


def test_brute_force_validation():
    with pytest.raises(DomainError):
        brute_force_min(EUC, 4, 1.0, 5, 100)
    with pytest.raises(DomainError):
        brute_force_min(EUC, 4, 1.0, 3, 5000)
    with pytest.raises(DomainError):
        brute_force_min(EUC, 4, -1.0, 3, 100)


def test_brute_force_agrees_with_analytic():
    for n, theta_shift in ((3, -0.08), (3, 0.08), (4, -0.1), (4, 0.1)):
        theta = critical_angle(n).critical_angle + theta_shift
        area = hyp_area(n, theta)
        best, _ = brute_force_min(HYP, n, area, 3, 500)
        analytic = assess_two_split(HYP, n, area)
        if analytic.verdict is Verdict.SINGLE_OPTIMAL_STRICT:
            assert best.k == 1
        else:
            assert best.k == 2


@pytest.mark.parametrize("geometry, n, total", [(EUC, 4, 37.5), (SPH, 3, 6.0), (HYP, 5, 9.0)])
@pytest.mark.parametrize("resolution", [1, 7, 2000])
def test_brute_force_single_part_is_the_scalar_perimeter(geometry, n, total, resolution):
    # k_max = 1 is the polygon of all R units, bit for bit the scalar call's
    # (== on positive finite floats compares every bit)
    area = resolution * (total / resolution)
    best, p = brute_force_min(geometry, n, total, 1, resolution)
    assert (best.areas, p) == ((area,), RegularPolygon(geometry, n, area).perimeter)


@pytest.mark.parametrize("geometry, n", [(EUC, 4), (SPH, 3), (HYP, 3), (HYP, 7)])
@pytest.mark.parametrize("resolution", [1, 7, 2000])
def test_brute_force_single_part_past_the_domain(geometry, n, resolution):
    # at the top of the area interval (inf for the flat plane) and past it
    hi = area_bounds(geometry, n)[1]
    for total in (hi, math.nextafter(hi, math.inf), 2 * hi):
        with pytest.raises(DomainError) as info:
            brute_force_min(geometry, n, total, 1, resolution)
        assert str(info.value) == (
            f"no valid partition of area {total} at resolution {resolution} in {geometry.kind}"
        )


def test_brute_force_single_part_with_an_infinite_perimeter(monkeypatch):
    # an area inside the interval whose perimeter is inf is no candidate either
    for module in (configurations, geometry_module):
        monkeypatch.setattr(module, "_side", lambda g, n, area, m=None: math.inf)
    with pytest.raises(DomainError, match="no valid partition of area 1.0 at resolution 7"):
        brute_force_min(EUC, 4, 1.0, 1, 7)


def _left_to_right(values):
    # sum() of floats is compensated from Python 3.12 on; the oracle is not
    acc = 0.0
    for v in values:
        acc += v
    return acc


def reference_min(geometry, n, total, k_max, resolution):
    """Scalar grid search: every sorted part vector in lexicographic order,
    fewer parts first, each summed left to right; the first strict minimum wins.
    Returns None when no candidate is finite."""
    unit = total / resolution
    lo, hi = area_bounds(geometry, n)
    perims = [math.inf] * (resolution + 1)
    for u in range(1, resolution + 1):
        if lo < u * unit < hi:
            perims[u] = perimeter(RegularPolygon(geometry, n, u * unit))
    best, best_units = math.inf, None
    for k in range(1, k_max + 1):
        for head in itertools.combinations_with_replacement(range(1, resolution + 1), k - 1):
            last = resolution - sum(head)
            if head and last < head[-1]:
                continue
            units = head + (last,)
            value = _left_to_right(perims[u] for u in units)
            if value < best:
                best, best_units = value, units
    if best_units is None:
        return None
    return tuple(u * unit for u in best_units), best


def assert_matches_reference(geometry, n, total, k_max, resolution):
    expected = reference_min(geometry, n, total, k_max, resolution)
    if expected is None:
        with pytest.raises(DomainError, match="no valid partition"):
            brute_force_min(geometry, n, total, k_max, resolution)
        return
    best, p = brute_force_min(geometry, n, total, k_max, resolution)
    assert (best.areas, p) == expected


# totals inside the domain, near its top, and past it (table entries inf)
ORACLE_TOTALS = {
    EUC: (1.0, 37.5),
    SPH: (1.0, 6.0, 9.0, 40.0),
    HYP: (1.0, hyp_area(3, 0.1), 5.0, 300.0),
}


@pytest.mark.parametrize("geometry", [EUC, SPH, HYP])
@pytest.mark.parametrize("k_max", [1, 2, 3, 4])
def test_brute_force_matches_scalar_reference(geometry, k_max):
    for total in ORACLE_TOTALS[geometry]:
        for resolution in (1, 2, 3, 5, 12, 29, 40):
            assert_matches_reference(geometry, 3, total, k_max, resolution)
    assert_matches_reference(geometry, 5, ORACLE_TOTALS[geometry][1], k_max, 37)


@pytest.mark.parametrize("k_max", [2, 3, 4])
def test_brute_force_exact_ties_match_reference(monkeypatch, k_max):
    # A side linear in the area with unit 1 makes every candidate of a total
    # tie exactly; the tie rule alone picks the winner.
    for module in (configurations, geometry_module):
        monkeypatch.setattr(module, "_side", lambda g, n, area, m=None: area)
    for g, n in ((EUC, 4), (SPH, 3), (HYP, 3), (HYP, 4), (HYP, 6)):
        for resolution in range(1, 41):
            assert_matches_reference(g, n, float(resolution), k_max, resolution)
    best, p = brute_force_min(HYP, 3, 4.0, k_max, 4)
    assert (best.areas, p) == ((1.0, 3.0), 12.0)


@given(
    k_max=st.integers(2, 4),
    place=st.sampled_from([(EUC, 4), (SPH, 3), (HYP, 3), (HYP, 6)]),
    scale=st.floats(1e-3, 1e3),
    cap=st.integers(2, 6),
    extras=st.lists(st.sampled_from([0, 0, 1]), min_size=24, max_size=24),
    nudges=st.lists(st.sampled_from([0, 1, -1]), min_size=24, max_size=24),
)
@settings(deadline=None, max_examples=200)
def test_brute_force_near_ties_match_reference(k_max, place, scale, cap, extras, nudges):
    # Sides u*scale (plus scale at random) up to a cap and 4u*scale past it,
    # each moved by a relative 0 or +-2**-50: vectors of four parts near the
    # cap tie exactly or only after a rounding, so a cell's least prefix sum
    # is not always the winning vector's.
    multiples = [u + e if u <= cap else 4 * u for u, e in zip(range(1, 25), extras)]
    sides = np.array([0.0] + [m * scale * (1.0 + e * 2.0**-50) for m, e in zip(multiples, nudges)])

    def side(g, n, area, m=None):
        return float(sides[int(area)]) if m is None else sides[area.astype(int)]

    with pytest.MonkeyPatch.context() as patch:
        for module in (configurations, geometry_module):
            patch.setattr(module, "_side", side)
        for resolution in range(1, 25):
            assert_matches_reference(*place, float(resolution), k_max, resolution)


# Side tables for the row bound: each draws its values from one of these sets
# (zeros, exact ties, 0.1 + 0.2 != 0.3), in any order, so few are monotone.
BOUND_TABLE_VALUES = (
    [0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.5, 3.0],
    [0.0, 1.0, 1.0, 2.0],
    [0.1, 0.3, 1.0, 3.0, 10.0],
)


@given(
    k_max=st.integers(1, 4),
    place=st.sampled_from([(EUC, 4), (SPH, 3), (HYP, 3), (HYP, 6)]),
    sides=st.sampled_from(BOUND_TABLE_VALUES).flatmap(
        lambda values: st.lists(st.sampled_from(values), min_size=24, max_size=24)
    ),
    cut=st.integers(1, 25),
    chunk=st.integers(13, 30),
)
@settings(deadline=None, max_examples=100)
def test_brute_force_row_bound_matches_reference(k_max, place, sides, cut, chunk):
    # The row bound needs only P >= 0: these sides rise and fall, hold zeros
    # and ties, and are inf past a cut, so suffix minima lie far below most
    # entries. Blocks of `chunk` >= 13 cells hold one to a few rows at
    # R <= 24, so the bound is tested after nearly every row.
    table = np.array([0.0] + [s if u <= cut else math.inf for u, s in enumerate(sides, 1)])

    def side(g, n, area, m=None):
        return float(table[int(area)]) if m is None else table[area.astype(int)]

    with pytest.MonkeyPatch.context() as patch:
        for module in (configurations, geometry_module):
            patch.setattr(module, "_side", side)
        patch.setattr(configurations, "_CHUNK", chunk)
        for resolution in range(1, 25):
            assert_matches_reference(*place, float(resolution), k_max, resolution)


def test_brute_force_row_bound_keeps_rows_that_tie(monkeypatch):
    # P = 4 * (0, 0, 2, 1, 1, 2) then inf, R = 11, k_max = 4, one row per
    # block: row u = 2 finds (1, 1, 4, 5) with score 12, and row u = 3 holds
    # (0, 3, 4, 4), also 12 and with fewer parts, where its bound
    # 4 * ((1 + 1) + 1) is 12 too. A row whose bound equals the best is scored.
    table = np.array([0.0, 0.0, 2.0, 1.0, 1.0, 2.0] + [math.inf] * 6)
    for module in (configurations, geometry_module):
        monkeypatch.setattr(module, "_side", lambda g, n, area, m=None: table[area.astype(int)])
    monkeypatch.setattr(configurations, "_CHUNK", 6)
    best, p = brute_force_min(EUC, 4, 11.0, 4, 11)
    assert (best.areas, p) == ((3.0, 4.0, 4.0), 12.0)


@given(
    k_max=st.integers(3, 4),
    scale=st.sampled_from([0.1, 0.3, 1 / 3, 0.7, 1.1, math.pi, math.e, 1e-3 / 7, 123.456]),
    nudges=st.lists(st.sampled_from([0, 1, -1]), min_size=24, max_size=24),
    chunk=st.integers(13, 30),
)
@example(k_max=3, scale=1e-3 / 7, nudges=[0] * 5 + [-1] + [0] * 6 + [-1] + [0] * 11, chunk=13)
@example(k_max=4, scale=1e-3 / 7, nudges=[0] * 5 + [-1] + [0] * 6 + [-1] + [0] * 11, chunk=13)
@settings(deadline=None, max_examples=100)
def test_brute_force_row_bound_margin(k_max, scale, nudges, chunk):
    # Near-linear sides fl(s*u)*(1 + e*2**-52), e in {-1, 0, 1}, s not a power
    # of two: every vector scores about s*R, so the line bound h + m*(R - u)
    # lies within a few roundings of the scores, and only its margin keeps
    # it below the ones that win. Small blocks bound nearly every row. The
    # line without its margin drops a winning row only on rare tables; the
    # examples hold one: at R = 13, (1, 6, 6) beats the single polygon by an
    # ulp, and row u = 1's line, unshrunk, lies above both.
    sides = np.array([0.0] + [(scale * u) * (1.0 + e * 2.0**-52) for u, e in enumerate(nudges, 1)])

    def side(g, n, area, m=None):
        return float(sides[int(area)]) if m is None else sides[area.astype(int)]

    with pytest.MonkeyPatch.context() as patch:
        for module in (configurations, geometry_module):
            patch.setattr(module, "_side", side)
        patch.setattr(configurations, "_CHUNK", chunk)
        for resolution in range(1, 25):
            assert_matches_reference(EUC, 4, float(resolution), k_max, resolution)


def test_brute_force_row_bound_ignores_a_subnormal_slope(monkeypatch):
    # Triangles of sides k * 5e-324, R = 9: P[i]/i is subnormal and rounds up
    # by up to half the unit 5e-324, far more than the relative margin, so
    # the line under the table is dropped there; only the bound (1) remains.
    # Row u = 1 holds the winner (1, 4, 4) at 7.4e-323 (P[9] is 9e-323).
    sides = np.array([0, 1, 6, 7, 2, 9, 9, 5, 25, 6]) * 5e-324
    for module in (configurations, geometry_module):
        monkeypatch.setattr(module, "_side", lambda g, n, area, m=None: sides[area.astype(int)])
    best, p = brute_force_min(EUC, 3, 9.0, 3, 9)
    assert (best.areas, p) == ((1.0, 4.0, 4.0), 7.4e-323)


def row_bounds(P, k_max):
    """The oracle's row bounds lb[u] for a perimeter table P, in floats (k_max 3 or 4)."""
    R = len(P) - 1
    S = list(itertools.accumulate(reversed(P), min))[::-1]
    m = min(P[i] / i for i in range(1, R + 1))
    bounds = []
    for u in range((R // 3 if k_max == 3 else R // 2) + 1):
        b0 = (u + 1) // 2 if k_max == 4 else u
        if b0 > (R - u) // 2:
            break
        h = S[b0] if k_max == 4 else P[u]
        line = (h + m * (R - u)) * (1.0 - 2.0**-45)
        bounds.append(max((S[b0] + S[b0]) + S[(R - u + 1) // 2], line))
    return bounds


def rows_scored(P, k_max, best):
    """Rows the oracle scores in blocks when `best` lies in row u = 0.

    Row 0, the single polygon and every two-part split, is scored on its own
    and seeds the best; the blocks then hold only the rows u >= 1 whose bound
    does not exceed it.
    """
    return sum(x <= best for x in row_bounds(P, k_max)[1:])


def test_brute_force_skips_rows_that_cannot_win(scored_rows):
    # Flat squares, R = 2000: the single square P[R] wins in row u = 0, and
    # the line m*(R - u) under the table (P[i] >= m*i, m = P[R]/R as P is
    # concave) puts every later row's bound above P[R]: no block is scored.
    R = 2000
    P = [0.0] + [perimeter(RegularPolygon(EUC, 4, u * (1.0 / R))) for u in range(1, R + 1)]
    for k_max in (2, 3, 4):
        scored_rows.clear()
        best, p = brute_force_min(EUC, 4, 1.0, k_max, R)
        assert (best.areas, p) == ((1.0,), P[R])
        assert scored_rows == []
        assert k_max == 2 or rows_scored(P, k_max, P[R]) == 0
    # Hyperbolic hexagons of total 3.0, below max_area(6) = 8.75: the single
    # hexagon wins, and at k_max = 4 the suffix-minimum bound (1) skips every
    # row past u = 0, which the line alone does not (245 rows without it).
    P = [0.0] + [perimeter(RegularPolygon(HYP, 6, u * (3.0 / R))) for u in range(1, R + 1)]
    scored_rows.clear()
    best, p = brute_force_min(HYP, 6, 3.0, 4, R)
    assert (best.areas, p) == ((R * (3.0 / R),), P[R])
    assert scored_rows == []
    assert rows_scored(P, 4, P[R]) == 0


@pytest.mark.parametrize("k_max, expected", [(2, 0), (3, 3), (4, 770)])
def test_brute_force_skips_rows_where_the_halves_win(scored_rows, k_max, expected):
    # Hyperbolic triangles at interior angle 0.1, R = 2000: the equal halves
    # win in row u = 0, which seeds the best; k_max = 2 has no other row. At
    # k_max = 3 only rows u = 1..3 have a bound P[u] + m*(R - u) at or below
    # the halves' score (476 with the first bound alone); at k_max = 4
    # (prefix bound S[b0]) 770 of the 1000 rows past u = 0 do.
    R, total = 2000, math.pi - 0.3
    P = [0.0] + [perimeter(RegularPolygon(HYP, 3, u * (total / R))) for u in range(1, R + 1)]
    best, p = brute_force_min(HYP, 3, total, k_max, R)
    assert (best.areas, p) == ((1000 * (total / R),) * 2, P[1000] + P[1000])
    assert sum(scored_rows) == expected
    assert k_max == 2 or rows_scored(P, k_max, p) == expected


# brute_force_min at R = 2000, the same at k_max = 2, 3 and 4 (one or two
# parts win each), as float.hex of the areas and the perimeter: the scalar
# reference reaches only R <= 40.
FROZEN_FULL_RESOLUTION = [
    (HYP, 3, math.pi - 0.3, ["0x1.6bb94edddc6b2p+0"] * 2, "0x1.c1a1776cfc7fbp+3"),
    (EUC, 4, 1.0, ["0x1.0000000000000p+0"], "0x1.fffffffffffffp+1"),
    (SPH, 3, math.pi / 2, ["0x1.921fb54442d18p+0"], "0x1.2d97c7f3321d1p+2"),
    (HYP, 6, 4 * math.pi - 6 * 0.3, ["0x1.58861baaa937ep+2"] * 2, "0x1.7df9e544cbdc7p+4"),
]


@pytest.mark.parametrize("k_max", [2, 3, 4])
@pytest.mark.parametrize("geometry, n, total, areas, perimeter_hex", FROZEN_FULL_RESOLUTION)
def test_brute_force_frozen_at_full_resolution(geometry, n, total, areas, perimeter_hex, k_max):
    best, p = brute_force_min(geometry, n, total, k_max, 2000)
    assert [a.hex() for a in best.areas] == areas
    assert p.hex() == perimeter_hex


def test_brute_force_working_memory():
    # Cells are scored in blocks of about 8192: all of them at R = 2000 would
    # be R**2/8 doubles (4 MB), and the prefix enumeration they replaced
    # peaked at 8.1 MB.
    area = hyp_area(3, 0.1)
    brute_force_min(HYP, 3, area, 4, 350)  # numpy loaded
    tracemalloc.start()
    try:
        for resolution, limit in ((2000, 4e6), (350, 1e6)):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            brute_force_min(HYP, 3, area, 4, resolution)
            assert tracemalloc.get_traced_memory()[1] - before < limit
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "geometry, n, total, k_max",
    [
        (HYP, 3, math.pi - 0.3, 2),
        (HYP, 3, 3 * math.pi, 4),  # the table is finite on its first 666 entries
        (SPH, 3, math.pi / 2, 2),
        (SPH, 3, 3 * math.pi, 4),  # on its first 1333
        (EUC, 4, 1.0, 4),
    ],
)
def test_brute_force_table_maps_one_math_function(monkeypatch, geometry, n, total, k_max):
    # The table at R = 2000 takes its sines from np.sin, which keeps math's
    # bits, and maps math's own function over its finite entries only where
    # numpy's may differ: log1p (hyperbolic) or asin (spherical). math.sin
    # then gives only the hyperbolic sin(pi/n); the flat table maps nothing.
    calls = {}

    def counted(name):
        fn = getattr(math, name)

        def call(x):
            calls[name] = calls.get(name, 0) + 1
            return fn(x)

        return call

    for name in ("sin", "log1p", "asin"):
        monkeypatch.setattr(math, name, counted(name))
    R, hi = 2000, area_bounds(geometry, n)[1]
    finite = sum(u * (total / R) < hi for u in range(1, R + 1))
    brute_force_min(geometry, n, total, k_max, R)
    expected = {HYP: {"sin": 1, "log1p": finite}, SPH: {"asin": finite}, EUC: {}}
    assert calls == expected[geometry]


# ------------------------------------- decision bits against a public reference
#
# The references below rebuild every decision from public
# perimeter(RegularPolygon(...)) calls, one polygon per perimeter, in the
# order the decisions add them; the library computes each distinct perimeter
# once, and must give the same bits.


def _polygon_perimeter(geometry, n, area):
    return perimeter(RegularPolygon(geometry, n, area))


def _reference_witness(geometry, n, total, single_p):
    half = total / 2.0
    if half > 0.0:  # a half that rounds to 0 never wins
        p = _polygon_perimeter(geometry, n, half)
        if configurations._verdict(p + p, single_p) is Verdict.SPLIT_BEATS_SINGLE:
            return Configuration(geometry, n, (half, half))
    return None


def _reference_assessment(single, config_p, **extra):
    single_p = perimeter(single)
    verdict = configurations._verdict(config_p, single_p)
    return SplitAssessment(single_p, config_p, verdict, single.angle, **extra)


def _reference_merge_chain(config):
    geometry, n = config.geometry, config.n
    single = RegularPolygon(geometry, n, total_area(config))
    perims = [_polygon_perimeter(geometry, n, a) for a in config.areas]
    config_p = functools.reduce(operator.add, perims)
    steps, prefix_area, prefix_p = [], config.areas[0], perims[0]
    for area, piece_p in zip(config.areas[1:], perims[1:]):
        merged_area = prefix_area + area
        merged_p = _polygon_perimeter(geometry, n, merged_area)
        steps.append(MergeStep(prefix_p + piece_p, merged_area, merged_p))
        prefix_area, prefix_p = merged_area, merged_p
    witness = _reference_witness(geometry, n, single.area, perimeter(single))
    return _reference_assessment(
        single, config_p, critical_angle=critical_angle(n).critical_angle,
        witness=witness, merge_steps=tuple(steps), part_perimeters=tuple(perims),
    )


def _reference_assess_configuration(config):
    if config.geometry is HYP:
        return _reference_merge_chain(config)
    single = RegularPolygon(config.geometry, config.n, total_area(config))
    perims = [_polygon_perimeter(config.geometry, config.n, a) for a in config.areas]
    config_p = functools.reduce(operator.add, perims)
    return _reference_assessment(single, config_p, part_perimeters=tuple(perims))


def _reference_two_split(geometry, n, total):
    # the equal split from the area: each half has perimeter perimeter(total / 2)
    single = RegularPolygon(geometry, n, total)
    half_p = _polygon_perimeter(geometry, n, total / 2.0)
    if geometry is not HYP:
        return _reference_assessment(single, half_p + half_p)
    witness = _reference_witness(geometry, n, total, perimeter(single))
    return _reference_assessment(
        single, half_p + half_p, critical_angle=critical_angle(n).critical_angle, witness=witness
    )


def _bits(value):
    """Every float of a (nested) result as float.hex, every dataclass as its fields."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (f.name, _bits(getattr(value, f.name))) for f in dataclasses.fields(value)
        )
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return value


def _outcome(fn, *args):
    try:
        return "ok", _bits(fn(*args))
    except DomainError as exc:
        return "DomainError", str(exc)


_SIDE_COUNTS = st.one_of(st.sampled_from([3, 4, 5, 6, 8, 12]), st.integers(3, 10**6))
# log10 of a fraction of the area bound: from tiny areas up to just below the top
_LOG_FRACTIONS = st.floats(-14.0, -1e-9)


def _area_top(geometry, n):
    return 1e4 if geometry is EUC else area_bounds(geometry, n)[1]


@given(
    geometry=st.sampled_from([EUC, SPH, HYP]),
    n=_SIDE_COUNTS,
    log_fraction=_LOG_FRACTIONS,
    weights=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=6),
    overshoot=st.booleans(),
)
@settings(deadline=None, max_examples=300)
def test_configuration_decisions_keep_the_reference_bits(
    geometry, n, log_fraction, weights, overshoot
):
    top = _area_top(geometry, n)
    total = top * 10.0**log_fraction
    parts = tuple(total * w / sum(weights) for w in weights)
    if overshoot and geometry is not EUC:
        parts = (0.75 * top,) * (len(weights) + 1)  # every part admitted, the sum past the top
    config = Configuration(geometry, n, parts)
    assert _bits(total_perimeter(config)) == _bits(
        functools.reduce(operator.add, (_polygon_perimeter(geometry, n, a) for a in parts))
    )
    assert _outcome(assess_configuration, config) == _outcome(
        _reference_assess_configuration, config
    )
    if geometry is HYP:
        assert _outcome(merge_chain, config) == _outcome(_reference_merge_chain, config)


@given(geometry=st.sampled_from([EUC, SPH, HYP]), n=_SIDE_COUNTS, log_fraction=_LOG_FRACTIONS)
@settings(deadline=None, max_examples=300)
def test_two_split_keeps_the_reference_bits(geometry, n, log_fraction):
    total = _area_top(geometry, n) * 10.0**log_fraction
    assert _outcome(assess_two_split, geometry, n, total) == _outcome(
        _reference_two_split, geometry, n, total
    )


@given(epsilon=st.floats(1e-12, math.pi / 6.0, exclude_max=True))
@settings(deadline=None, max_examples=100)
def test_counterexample_keeps_the_reference_bits(epsilon):
    res = counterexample_triangles(epsilon)
    areas = (math.pi / 2.0, math.pi / 2.0 - 3.0 * epsilon)
    split_p = _polygon_perimeter(HYP, 3, areas[0]) + _polygon_perimeter(HYP, 3, areas[1])
    single_p = _polygon_perimeter(HYP, 3, math.pi - 3.0 * epsilon)
    assert _bits(res) == _bits(
        configurations.CounterexampleResult(
            Configuration(HYP, 3, areas),
            RegularPolygon(HYP, 3, math.pi - 3.0 * epsilon),
            split_p,
            single_p,
            single_p - split_p,
        )
    )


@pytest.mark.parametrize("k", range(1, 7))
def test_merge_chain_evaluates_each_distinct_perimeter_once(monkeypatch, k):
    # k parts, k - 1 merged prefixes (the last is the single polygon) and the
    # equal split's half: 2k side-kernel calls
    calls = []
    side = geometry_module._side

    def counting_side(*args):
        calls.append(args)
        return side(*args)

    for module in (configurations, geometry_module):
        monkeypatch.setattr(module, "_side", counting_side)
    merge_chain(Configuration(HYP, 5, tuple(0.3 + 0.1 * i for i in range(k))))
    assert len(calls) == 2 * k


@pytest.mark.parametrize("geometry", [EUC, SPH, HYP])
def test_two_split_evaluates_the_single_and_the_half_once(monkeypatch, geometry):
    # the single polygon and the equal split's half, both from their areas;
    # no half side from an angle alone (the threshold is cached beforehand)
    critical_angle(5)
    calls = {"side": 0, "angle": 0}
    side, half_sides = geometry_module._side, geometry_module._half_sides

    def counting_side(*args):
        calls["side"] += 1
        return side(*args)

    def counting_half_sides(n, xs):
        calls["angle"] += 1
        return half_sides(n, xs)

    for module in (configurations, analysis_module, geometry_module):
        if hasattr(module, "_side"):
            monkeypatch.setattr(module, "_side", counting_side)
        if hasattr(module, "_half_sides"):
            monkeypatch.setattr(module, "_half_sides", counting_half_sides)
    assess_two_split(geometry, 5, 1.5)
    assert calls == {"side": 2, "angle": 0}


# ------------------------------------------------- totals whose half underflows


@pytest.mark.parametrize("geometry", [EUC, SPH, HYP])
@pytest.mark.parametrize("n", [3, 1000])
def test_two_split_rejects_a_total_whose_half_underflows(geometry, n):
    # 5e-324 / 2 rounds to 0: the error names the total, not an area of 0
    message = f"total area 5e-324 is too small to split for {geometry.kind} n={n}"
    with pytest.raises(DomainError, match=message):
        assess_two_split(geometry, n, 5e-324)


@pytest.mark.parametrize("n", [3, 4, 1000])
def test_merge_chain_half_underflow_has_no_witness(n):
    res = merge_chain(Configuration(HYP, n, (5e-324,)))
    assert res.witness is None
    assert res.verdict is Verdict.TIE
    assert res.config_perimeter == res.single_perimeter


def test_numpy_side_count_gives_builtin_numbers_in_decisions():
    five = np.int64(5)
    a1 = hyp_area(5, 0.3)  # pieces of angles 0.3 and c - 0.3 in a total of 8.0
    decisions = (
        lambda n: assess_two_split(HYP, n, 1.0),  # single wins
        lambda n: assess_two_split(HYP, n, 8.0),  # halves win
        lambda n: assess_configuration(Configuration(HYP, n, (a1, 8.0 - a1))),
    )
    for decide in decisions:
        res = decide(five)
        numbers = (res.single_perimeter, res.config_perimeter, res.angle, res.critical_angle)
        assert all(type(v) is float for v in numbers)
        assert res.witness is None or type(res.witness.n) is int
        assert res == decide(5)
    config = Configuration(HYP, five, (0.5, 0.7))
    assert type(config.n) is int and config == Configuration(HYP, 5, (0.5, 0.7))
    chain = merge_chain(config)
    steps = [v for step in chain.merge_steps for v in dataclasses.astuple(step)]
    assert all(type(v) is float for v in (chain.single_perimeter, *chain.part_perimeters, *steps))
    assert type(assess_configuration(Configuration(EUC, five, (9.0, 16.0))).angle) is float
    best, p = brute_force_min(HYP, five, 1.0, 2, 10)
    assert type(best.n) is int and type(p) is float

    def numbers(r):
        return (*r.config.areas, r.single.area, r.split_perimeter, r.single_perimeter, r.margin)

    # a numpy epsilon: the areas and perimeters are those of the float epsilon
    res = counterexample_triangles(np.float64(0.1))
    assert all(type(v) is float for v in numbers(res))
    assert numbers(res) == numbers(counterexample_triangles(0.1))
