"""Accuracy of the curved half-side kernel against mpmath, and the bits it keeps.

The references use the deficit form at 60 digits: with a = pi/n and
d = (x - flat)/2 (K*area/(2n) for an area), h = a - d and
D = 2*sin((h + a)/2)*sin(d/2)/cos(h), the hyperbolic half side is
2*asinh(sqrt(-D/2)) and the spherical one 2*asin(sqrt(D/2)). The plain
acosh(cos(a)/sin(x/2)) form needs far more digits once 1 - ratio is tiny.
"""

import math
import sys

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isoperim import (
    Geometry,
    RegularPolygon,
    angle_from_area,
    area_bounds,
    critical_angle,
    equal_split_margin,
    half_side,
    perimeter,
    spherical_half_side,
)

SPH = Geometry.SPHERICAL
HYP = Geometry.HYPERBOLIC
EPS = sys.float_info.epsilon
LOG_SMALLEST = math.log(5e-324)

mp.mp.dps = 60


def _mp_half_side(curvature, n, d, x):
    a = mp.pi / n
    h = a - d
    D = 2 * mp.sin((h + a) / 2) * mp.sin(d / 2) / mp.sin(mp.mpf(x) / 2)
    if curvature > 0:
        return 2 * mp.asin(mp.sqrt(D / 2))
    return 2 * mp.asinh(mp.sqrt(-D / 2))


def mp_side(geometry, n, area):
    """Side from the exact area: d = K*area/(2n), x = pi - 2h with exact pi."""
    k = geometry.curvature
    d = k * mp.mpf(area) / (2 * n)
    x = mp.pi - 2 * (mp.pi / n - d)
    return 2 * _mp_half_side(k, n, d, x)


def _rel(got, ref):
    return float(abs(mp.mpf(got) - ref) / ref)


# Measured worst over 1.2e5 log-uniform draws (a third of them within 1e-3
# of the top in log scale): 1.9 times the bound's unit; frozen at 3.
SIDE_ERROR_UNITS = 3.0


@given(
    geometry=st.sampled_from([SPH, HYP]),
    log_n=st.floats(math.log(3), math.log(10**6)),
    fraction=st.floats(0.0, 1.0),
)
@settings(deadline=None, max_examples=300)
def test_curved_perimeter_matches_mpmath(geometry, log_n, fraction):
    # areas log-uniform from 5e-324 to just below the top. The angle carries
    # an absolute rounding error of about ulp(top)/n from (n-2)*pi; next to
    # the hyperbolic top the angle x is small and that error is relative.
    n = round(math.exp(log_n))
    top = area_bounds(geometry, n)[1]
    below_top = math.nextafter(top, 0.0)
    area = math.exp(LOG_SMALLEST + fraction * (math.log(below_top) - LOG_SMALLEST))
    area = min(max(area, 5e-324), below_top)
    got = perimeter(RegularPolygon(geometry, n, area))
    x = angle_from_area(geometry, n, area)
    bound = SIDE_ERROR_UNITS * (EPS + math.ulp(top) / (n * x))
    assert _rel(got, n * mp_side(geometry, n, area)) <= bound


@pytest.mark.parametrize("geometry", [SPH, HYP])
@pytest.mark.parametrize("n", [3, 4, 1000, 10**6])
@pytest.mark.parametrize("step", [-2, -1, 0, 1, 2])
def test_side_is_accurate_on_both_sides_of_the_tiny_area_rule(geometry, n, step):
    # below 2**-60 the side is the flat one; the rule must not show
    area = 2.0**-60
    for _ in range(abs(step)):
        area = math.nextafter(area, math.copysign(math.inf, step))
    got = RegularPolygon(geometry, n, area).side
    assert _rel(got, mp_side(geometry, n, area)) <= 2 * EPS


def test_hyperbolic_perimeter_at_a_million_sides():
    got = RegularPolygon(HYP, 10**6, 1.0).perimeter
    assert abs(got - 3.6832554370310976) <= 4 * math.ulp(3.6832554370310976)


@pytest.mark.parametrize("geometry", [SPH, HYP])
@pytest.mark.parametrize("n, area", [(10**6, 1e-6), (3, 1e-320), (1000, 1e-320), (3, 5e-324)])
def test_small_areas_have_a_nonzero_accurate_side(geometry, n, area):
    got = RegularPolygon(geometry, n, area).side
    assert got > 0.0
    assert _rel(got, mp_side(geometry, n, area)) <= 4 * EPS


def _exact_flat(n):
    return (n - 2) * mp.pi / n


@given(log_n=st.floats(math.log(3), math.log(10**6)), log_t=st.floats(-17.0, 0.0))
@settings(deadline=None, max_examples=300)
def test_spherical_half_side_matches_mpmath(log_n, log_t):
    # x from just above the flat angle to pi. The rounded flat angle is off
    # by up to about an ulp, so the error grows like ulp(x)/(x - flat);
    # measured worst 0.76 times the bound over 1e5 draws (the old clamped
    # acos was off by up to 1e5 times it).
    n = round(math.exp(log_n))
    flat = (n - 2) * math.pi / n
    x = min(flat + (math.pi - flat) * 10.0**log_t, math.pi)
    assume(mp.mpf(x) > _exact_flat(n))
    d = (mp.mpf(x) - _exact_flat(n)) / 2
    ref = _mp_half_side(1, n, d, x)
    bound = EPS + math.ulp(x) / float(mp.mpf(x) - _exact_flat(n))
    assert _rel(spherical_half_side(n, x), ref) <= bound


def test_spherical_half_side_next_to_the_flat_angle():
    # x - flat about 6e-10 at a million sides: the clamped acos was off by 3.7e-2
    n = 10**6
    x = (n - 2) * math.pi / n + 6e-10
    d = (mp.mpf(x) - _exact_flat(n)) / 2
    assert _rel(spherical_half_side(n, x), _mp_half_side(1, n, d, x)) <= 1e-7


@pytest.mark.parametrize("n", [3, 1000, 10**6])
@pytest.mark.parametrize("x", [1e-150, 1e-160, 1e-300, 1e-310, 5e-324])
def test_half_side_at_tiny_angles(n, x):
    ref = mp.acosh(mp.cos(mp.pi / n) / mp.sin(mp.mpf(x) / 2))
    assert _rel(half_side(n, x), ref) <= 2 * EPS


def test_margin_at_a_tiny_angle_is_finite():
    assert math.isfinite(equal_split_margin(3, 1e-160))
    assert equal_split_margin(3, 1e-160) < 0.0


# Bits of the angle path, frozen before the kernel moved into geometry.
THETA_BITS = {
    3: "0x1.0aea04ac78337p-2",
    4: "0x1.af404d6b5d09ap-2",
    5: "0x1.14ad63bf4fd7bp-1",
    7: "0x1.6ec2fc1002515p-1",
    1000: "0x1.47ee2bcf999adp+1",
    158489: "0x1.8445be18dbf42p+1",
    10**6: "0x1.8aa03e7a511dcp+1",
}
HALF_SIDE_BITS = [
    (3, "0x1.0c152382d7365p-1", "0x1.46d4f35aed1e3p+0"),
    (3, "0x1.0624dd2f1a9fcp-10", "0x1.e6752eb7422dcp+2"),
    (4, "0x1.0000000000000p+0", "0x1.e1174a68bb0f3p-1"),
    (7, "0x1.0000000000000p+1", "0x1.7ed794e057681p-2"),
    (1000, "0x1.bff2ee48e0530p-333", "0x1.cf4a230efee3bp+7"),
    (1000, "0x1.8cccccccccccdp+1", "0x1.50d75055623c1p-6"),
    (10**6, "0x1.921f808f392a7p+1", "0x1.3f1162219283cp-35"),
    (3, "0x1.0c152382d7364p+0", "0x1.dc783d76af35bp-26"),
    (5, "0x1.a2fe76a3f9475p-499", "0x1.5a8fe74a3ae18p+8"),
]


@pytest.mark.parametrize("n", sorted(THETA_BITS))
def test_critical_angle_keeps_its_bits(n):
    critical_angle.cache_clear()
    assert critical_angle(n).critical_angle.hex() == THETA_BITS[n]


@pytest.mark.parametrize("n, x, expected", HALF_SIDE_BITS)
def test_half_side_keeps_its_bits(n, x, expected):
    assert half_side(n, float.fromhex(x)).hex() == expected
