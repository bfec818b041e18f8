import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoperim import (
    Configuration,
    DomainError,
    Geometry,
    RegularPolygon,
    angle_from_area,
    area_bounds,
    area_from_angle,
    assess_configuration,
    assess_two_split,
    brute_force_min,
    critical_angle,
    half_side,
    inflection_point,
    perimeter,
    side_length,
    validate_area,
)
from isoperim.configurations import _elementwise
from isoperim.geometry import _side

from conftest import PYTHONPATH, SIDE_AREA_HALF_PI, full_text

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
    with pytest.raises(DomainError, match=full_text(
        "spherical interior angle must lie in (1.5707963267948966, 3.141592653589793),"
        " got 1.5707963267948966"
    )):
        area_from_angle(SPH, 4, math.pi / 2)
    # and the excluded hyperbolic upper boundary
    with pytest.raises(DomainError, match=full_text(
        "hyperbolic interior angle must lie in (0, 1.5707963267948966), got 1.5707963267948966"
    )):
        area_from_angle(HYP, 4, math.pi / 2)


def test_area_from_angle_rejects_euclidean():
    with pytest.raises(
        DomainError, match=full_text("euclidean interior angle does not determine the area")
    ):
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


# public entry points that take a side count, each returning something comparable
SIDE_COUNT_ENTRIES = {
    "RegularPolygon": lambda n: RegularPolygon(HYP, n, 1.0).perimeter,
    "half_side": lambda n: half_side(n, 0.5),
    "critical_angle": critical_angle,
    "brute_force_min": lambda n: brute_force_min(EUC, n, 1.0, 2, 10),
}


@pytest.mark.parametrize("entry", SIDE_COUNT_ENTRIES)
@pytest.mark.parametrize("n", [4.5, 3.0, 5.0, math.nan, math.inf, np.float64(5.0)])
def test_side_count_must_be_an_integer(entry, n):
    critical_angle(3), critical_angle(5)  # a cached int must not answer for an equal float
    with pytest.raises(DomainError) as info:
        SIDE_COUNT_ENTRIES[entry](n)
    assert str(info.value) == f"side count must be an integer, got {n!r}"


@pytest.mark.parametrize("entry", SIDE_COUNT_ENTRIES)
def test_side_count_accepts_numpy_integers(entry):
    assert SIDE_COUNT_ENTRIES[entry](np.int64(5)) == SIDE_COUNT_ENTRIES[entry](5)


def test_numpy_side_count_gives_builtin_numbers():
    polygon = RegularPolygon(HYP, np.int64(5), 1.0)
    assert type(polygon.n) is int and type(polygon.perimeter) is float
    assert type(inflection_point(np.int64(5))) is float
    res = critical_angle(np.int64(5))
    assert type(res.n) is int
    assert all(type(v) is float for v in (res.critical_angle, res.inflection, res.max_area))
    # the typed cache still keeps np.int64(5) apart from 5, with equal results
    assert res is not critical_angle(5) and res == critical_angle(5)
    # a numpy side count, area or angle: builtin results equal to the builtin call's
    five = np.int64(5)
    bounds = area_bounds(HYP, five)
    assert bounds == area_bounds(HYP, 5) and all(type(v) is float for v in bounds)
    for n, area in ((five, 1.0), (5, np.float64(1.0)), (five, np.float64(1.0))):
        for g in (EUC, SPH, HYP):
            angle = angle_from_area(g, n, area)
            assert type(angle) is float and angle == angle_from_area(g, 5, 1.0)
            polygon = RegularPolygon(g, n, area)
            assert type(polygon.angle) is float and polygon.angle == angle
            assert polygon.area is area  # the caller's number, as Configuration.areas
    for g, x in ((SPH, 2.0), (HYP, 1.0)):
        for n, angle in ((five, x), (5, np.float64(x)), (five, np.float64(x))):
            area = area_from_angle(g, n, angle)
            assert type(area) is float and area == area_from_angle(g, 5, x)


@pytest.mark.parametrize(
    "area", [Decimal("1"), Decimal("0.1"), Fraction(3, 2), Fraction(1, 3)], ids=str
)
@pytest.mark.parametrize("geometry", list(Geometry))
def test_decimal_and_fraction_areas_give_the_float_results(geometry, area):
    # the record keeps the caller's number, and the side kernel takes its float
    polygon, floated = RegularPolygon(geometry, 3, area), RegularPolygon(geometry, 3, float(area))
    assert polygon.area is area
    assert (polygon.angle, polygon.side, polygon.perimeter) == (
        floated.angle, floated.side, floated.perimeter
    )
    assert polygon.perimeter == perimeter(floated) and type(polygon.side) is float


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


# Python compares an int, a Fraction or a Decimal with a float exactly, so
# these are below inf; their floats are not (float raises OverflowError, or
# gives inf for the Decimal), or round to 0 (the last)
BEYOND_DOUBLE = [10**400, Fraction(10**400), Decimal("1e400"), Decimal("1e-400")]
AREA_ENTRIES = {
    "validate_area": validate_area,
    "angle": lambda g, n, a: RegularPolygon(g, n, a).angle,
    "perimeter": lambda g, n, a: RegularPolygon(g, n, a).perimeter,
    "angle_from_area": angle_from_area,
    "assess_two_split": assess_two_split,
    "assess_configuration": lambda g, n, a: assess_configuration(Configuration(g, n, (1.0, a))),
}


@pytest.mark.parametrize("area", BEYOND_DOUBLE, ids=str)
@pytest.mark.parametrize("entry", AREA_ENTRIES)
def test_an_area_beyond_the_double_range_is_a_domain_error(entry, area):
    # judged as the float the kernels take; the error names the caller's value
    with pytest.raises(DomainError) as info:
        AREA_ENTRIES[entry](EUC, 4, area)
    assert str(info.value).endswith(f", got {area}")


@pytest.mark.parametrize("area", BEYOND_DOUBLE, ids=str)
@pytest.mark.parametrize("geometry", list(Geometry))
@pytest.mark.parametrize("k_max", [1, 4])
def test_brute_force_total_beyond_the_double_range_is_a_domain_error(geometry, k_max, area):
    message = f"no valid partition of area {area} at resolution 10 in {geometry.kind}"
    with pytest.raises(DomainError) as info:
        brute_force_min(geometry, 3, area, k_max, 10)
    assert str(info.value) == message


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


def _oracle_areas(geometry, n, R):
    # the admissible unit multiples of a total just below the top, as brute_force_min forms them
    hi = area_bounds(geometry, n)[1]
    areas = np.arange(1, R + 1) * (min(math.nextafter(hi, 0.0), 50.0) / R)
    return areas[(0.0 < areas) & (areas < hi)]


@pytest.mark.parametrize("geometry", list(Geometry))
@pytest.mark.parametrize("n", [3, 7, 1000])
@pytest.mark.parametrize(
    "view",
    [
        pytest.param(lambda a: a[:0], id="empty"),
        pytest.param(lambda a: a[::3], id="strided"),
        pytest.param(lambda a: a, id="R=2000"),
    ],
)
def test_side_of_an_array_keeps_the_bits_of_floats_on_every_shape(geometry, n, view):
    # the elementwise passes read their array through a memoryview: an
    # empty array, a strided view and a full oracle table give the float calls' bits
    table_areas = _oracle_areas(geometry, n, 2000)
    assert table_areas.size == 2000
    areas = view(table_areas)
    expected = [_side(geometry, n, a).hex() for a in areas.tolist()]
    table = _side(geometry, n, areas, _elementwise(np))
    assert [v.hex() for v in table.tolist()] == expected
    # and each pass on such a view itself, not only on the arrays _side derives from it
    ns, unit_range = _elementwise(np), view(np.linspace(-1.0, 1.0, 2000))
    for fn, x in ((math.sin, areas), (math.log1p, areas), (math.asin, unit_range)):
        values = getattr(ns, fn.__name__)(x).tolist()
        assert [v.hex() for v in values] == [fn(v).hex() for v in x.tolist()]


# Run in a fresh interpreter with the dispatch targets named in argv turned
# off: np.sin against math.sin, bit for bit, over the sines' arguments in a
# curved table (|y| < pi/2, log-spread down to 5e-324), then full R = 2000
# tables against the scalar _side.
DISPATCH_LEVEL_CHECK = """
import math, sys
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1
    from numpy.core._multiarray_umath import __cpu_features__
from isoperim import Geometry
from isoperim.configurations import _elementwise
from isoperim.geometry import _side, area_bounds

off = sys.argv[1:]
assert not any(__cpu_features__[t] for t in off), f"{off} stayed on"
rng = np.random.default_rng(0)
half_pi = math.nextafter(math.pi / 2, 0.0)
y = np.concatenate([
    rng.uniform(-half_pi, half_pi, 200_000),
    np.exp(rng.uniform(math.log(5e-324), math.log(half_pi), 200_000)),
    -np.exp(rng.uniform(math.log(5e-324), math.log(half_pi), 200_000)),
    [0.0, -0.0, 5e-324, -5e-324, half_pi, -half_pi],
])
for view in (y, y[::3], y[::-1]):
    expected = np.fromiter(map(math.sin, view.tolist()), float, view.size)
    diff = np.count_nonzero(np.sin(view).view(np.int64) != expected.view(np.int64))
    assert diff == 0, f"np.sin differs from math.sin on {diff} of {view.size}"
for geometry in (Geometry.SPHERICAL, Geometry.HYPERBOLIC):
    for n in (3, 6, 1000, 10**6):
        hi = area_bounds(geometry, n)[1]
        areas = np.arange(1, 2001) * (min(math.nextafter(hi, 0.0), 50.0) / 2000)
        table = _side(geometry, n, areas, _elementwise(np)).tolist()
        expected = [_side(geometry, n, a) for a in areas.tolist()]
        assert list(map(float.hex, table)) == list(map(float.hex, expected)), (geometry, n)
"""


def test_side_of_an_array_keeps_the_bits_of_floats_at_every_dispatch_level():
    # numpy picks a kernel for each ufunc by the CPU: the oracle's table takes
    # np.sin, so its bits must not move at any dispatch level. Each level
    # turns off one available target and those above it (the full level is
    # this process's, which the tests above check).
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as umath
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    for i in range(len(targets)):
        off = targets[i:]
        env = {**os.environ, "PYTHONPATH": PYTHONPATH, "NPY_DISABLE_CPU_FEATURES": " ".join(off)}
        result = subprocess.run(
            [sys.executable, "-c", DISPATCH_LEVEL_CHECK, *off],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, (off, result.stderr)


def test_area_bounds():
    assert area_bounds(EUC, 3) == (0.0, math.inf)
    assert area_bounds(SPH, 3) == (0.0, 2 * math.pi)
    assert area_bounds(HYP, 5) == (0.0, 3 * math.pi)


# public entry points that take a geometry; each checks it through area_bounds
GEOMETRY_ENTRIES = {
    "RegularPolygon": lambda g: RegularPolygon(g, 4, 1.0).perimeter,
    "assess_two_split": lambda g: assess_two_split(g, 4, 1.0),
    "area_from_angle": lambda g: area_from_angle(g, 4, 1.0),
    "brute_force_min": lambda g: brute_force_min(g, 3, 1.0, 2, 10),
    "brute_force_min past the top": lambda g: brute_force_min(g, 3, 1e9, 2, 10),
}


@pytest.mark.parametrize("entry", GEOMETRY_ENTRIES)
@pytest.mark.parametrize("geometry", ["euclidean", "hyperbolic", None, 0])
def test_geometry_must_be_a_geometry(entry, geometry):
    # a plane given by its name, or by nothing, is not the hyperbolic plane
    with pytest.raises(DomainError) as info:
        GEOMETRY_ENTRIES[entry](geometry)
    assert str(info.value) == f"geometry must be a Geometry, got {geometry!r}"
