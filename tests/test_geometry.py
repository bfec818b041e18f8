import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoperim import (
    DomainError,
    Geometry,
    RegularPolygon,
    angle_from_area,
    area_bounds,
    area_from_angle,
    half_side,
    perimeter,
    side_length,
)
from isoperim.configurations import _elementwise
from isoperim.geometry import _side

from conftest import SIDE_AREA_HALF_PI

EUC = Geometry.EUCLIDEAN
SPH = Geometry.SPHERICAL
HYP = Geometry.HYPERBOLIC


def test_kind_curvature_mapping():
    assert EUC.curvature == 0 and EUC.kind == "euclidean"
    assert SPH.curvature == 1 and SPH.kind == "spherical"
    assert HYP.curvature == -1 and HYP.kind == "hyperbolic"
    assert len({g.curvature for g in Geometry}) == 3


@pytest.mark.parametrize(
    "geometry,n,area,expected",
    [
        (HYP, 3, math.pi / 2, math.pi / 6),
        (SPH, 3, math.pi / 2, math.pi / 2),
        (EUC, 4, 1.0, math.pi / 2),
        (EUC, 4, 123.0, math.pi / 2),  # independent of area
    ],
)
def test_angle_from_area(geometry, n, area, expected):
    assert angle_from_area(geometry, n, area) == pytest.approx(expected, rel=1e-14)


def test_area_from_angle_inverse():
    assert area_from_angle(HYP, 3, math.pi / 6) == pytest.approx(math.pi / 2, rel=1e-14)


def test_area_from_angle_rejects_boundary():
    # for n=4 the flat angle pi/2 is the excluded spherical lower boundary
    with pytest.raises(DomainError):
        area_from_angle(SPH, 4, math.pi / 2)


def test_area_from_angle_rejects_euclidean():
    with pytest.raises(DomainError):
        area_from_angle(EUC, 4, 1.5)


def test_small_hyperbolic_angle_area_near_pi():
    eps = 1e-9
    assert area_from_angle(HYP, 3, eps) == pytest.approx(math.pi - 3 * eps, rel=1e-14)


@pytest.mark.parametrize(
    "geometry,n,area,expected",
    [
        (HYP, 3, math.pi / 2, SIDE_AREA_HALF_PI),
        (SPH, 3, math.pi / 2, math.pi / 2),  # octant triangle
        (EUC, 4, 1.0, 1.0),
    ],
)
def test_side_length(geometry, n, area, expected):
    assert side_length(RegularPolygon(geometry, n, area)) == pytest.approx(expected, rel=1e-12)


def test_hyperbolic_side_full_angle_identity():
    # cosh(s) computed from the half-side form must equal the full-side form
    s = side_length(RegularPolygon(HYP, 3, math.pi / 2))
    assert math.cosh(s) == pytest.approx(3.0 + 2.0 * math.sqrt(3.0), rel=1e-13)
    assert math.cosh(s) == pytest.approx(2.0 * math.cosh(s / 2.0) ** 2 - 1.0, rel=1e-13)


@pytest.mark.parametrize(
    "geometry,n,area,expected",
    [
        (EUC, 4, 1.0, 4.0),
        (HYP, 3, math.pi / 2, 3 * SIDE_AREA_HALF_PI),
        (SPH, 3, math.pi / 2, 3 * math.pi / 2),
    ],
)
def test_perimeter(geometry, n, area, expected):
    assert perimeter(RegularPolygon(geometry, n, area)) == pytest.approx(expected, rel=1e-12)


@given(
    geometry=st.sampled_from([SPH, HYP]),
    n=st.integers(min_value=3, max_value=50),
    frac=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
@settings(deadline=None)
def test_area_angle_round_trip(geometry, n, frac):
    lo, hi = area_bounds(geometry, n)
    area = frac * hi
    angle = angle_from_area(geometry, n, area)
    assert area_from_angle(geometry, n, angle) == pytest.approx(area, rel=1e-12)


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
@pytest.mark.parametrize("area", [0.1, 1.0, 7.5])
@pytest.mark.parametrize("n", [3, 4, 7, 12])
def test_euclidean_scaling(lam, area, n):
    base = perimeter(RegularPolygon(EUC, n, area))
    scaled = perimeter(RegularPolygon(EUC, n, lam**2 * area))
    assert scaled == pytest.approx(lam * base, rel=1e-12)


@pytest.mark.parametrize("n", range(3, 13))
def test_hyperbolic_perimeter_matches_kernel(n):
    hi = (n - 2) * math.pi / n
    for theta in (0.1 * hi, 0.4 * hi, 0.8 * hi):
        area = area_from_angle(HYP, n, theta)
        p = perimeter(RegularPolygon(HYP, n, area))
        assert p == pytest.approx(2 * n * half_side(n, theta), rel=1e-12)


def test_hyperbolic_perimeter_grows_toward_full_area():
    perims = []
    for theta in (1e-2, 1e-3, 1e-4):
        area = area_from_angle(HYP, 3, theta)
        perims.append(perimeter(RegularPolygon(HYP, 3, area)))
    assert perims[0] < perims[1] < perims[2]


def test_perimeter_monotone_in_area():
    # hyperbolic: decreasing in angle means increasing in area
    hyp = [perimeter(RegularPolygon(HYP, 3, a)) for a in (0.5, 1.0, 2.0, 3.0)]
    assert all(a < b for a, b in zip(hyp, hyp[1:]))
    euc = [perimeter(RegularPolygon(EUC, 3, a)) for a in (0.5, 1.0, 2.0, 3.0)]
    assert all(a < b for a, b in zip(euc, euc[1:]))


def test_euclidean_perimeter_decreases_with_sides():
    perims = [perimeter(RegularPolygon(EUC, n, 1.0)) for n in range(3, 13)]
    assert all(a > b for a, b in zip(perims, perims[1:]))


@pytest.mark.parametrize("geometry", [SPH, HYP])
def test_curved_perimeter_decreases_with_sides_empirical(geometry):
    perims = [perimeter(RegularPolygon(geometry, n, 1.0)) for n in range(3, 13)]
    assert all(a > b for a, b in zip(perims, perims[1:]))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_side_count_too_small(n):
    with pytest.raises(DomainError, match=">= 3"):
        RegularPolygon(EUC, n, 1.0)


def test_side_count_too_large():
    with pytest.raises(DomainError, match="<="):
        RegularPolygon(EUC, 10**6 + 1, 1.0)


@pytest.mark.parametrize(
    "geometry,n,area",
    [
        (EUC, 3, 0.0),
        (EUC, 3, -1.0),
        (SPH, 3, 2 * math.pi),
        (SPH, 3, 0.0),
        (HYP, 3, math.pi),
        (HYP, 5, 3 * math.pi),
        (HYP, 5, -0.5),
    ],
)
def test_boundary_areas_rejected(geometry, n, area):
    with pytest.raises(DomainError):
        RegularPolygon(geometry, n, area)


def test_domain_error_names_bound():
    with pytest.raises(DomainError, match="> 0"):
        RegularPolygon(EUC, 3, -2.0)
    with pytest.raises(DomainError, match="6.28"):
        RegularPolygon(SPH, 3, 7.0)


LOG_TINY = math.log(5e-324)


@given(
    geometry=st.sampled_from(list(Geometry)),
    log_n=st.floats(min_value=math.log(3), max_value=math.log(10**6)),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
)
@settings(deadline=None, max_examples=300)
def test_side_of_an_array_keeps_the_bits_of_floats(geometry, log_n, fractions):
    # areas log-uniform from 5e-324 to just below the top of the domain, as
    # the oracle's table takes them: one call with its elementwise namespace
    n = round(math.exp(log_n))
    hi = area_bounds(geometry, n)[1]
    below_top = math.nextafter(min(hi, 1e308), 0.0)
    log_top = math.log(below_top)
    areas = [min(math.exp(LOG_TINY + f * (log_top - LOG_TINY)), below_top) for f in fractions]
    areas = [max(a, 5e-324) for a in areas]
    expected = [_side(geometry, n, a).hex() for a in areas]
    table = _side(geometry, n, np.array(areas), _elementwise(np))
    assert [v.hex() for v in table.tolist()] == expected


def test_area_bounds():
    assert area_bounds(EUC, 3) == (0.0, math.inf)
    assert area_bounds(SPH, 3) == (0.0, 2 * math.pi)
    assert area_bounds(HYP, 5) == (0.0, 3 * math.pi)
