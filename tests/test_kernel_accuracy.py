"""Accuracy of the curved half-side kernel against mpmath, and the bits it keeps.

The references use the deficit form at 60 digits: with a = pi/n and
d = (x - flat)/2 (K*area/(2n) for an area), h = a - d and
D = 2*sin((h + a)/2)*sin(d/2)/cos(h), the hyperbolic half side is
2*asinh(sqrt(-D/2)) and the spherical one 2*asin(sqrt(D/2)). The plain
acosh(cos(a)/sin(x/2)) form needs far more digits once 1 - ratio is tiny.
"""

import hashlib
import math
import sys

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isoperim import (
    Geometry,
    RegularPolygon,
    SplitFunctionParams,
    angle_from_area,
    area_bounds,
    critical_angle,
    equal_split_margin,
    half_side,
    half_side_d1,
    perimeter,
    spherical_half_side,
    split_objective,
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


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 1(a): the angle path forms d = pi/n - (pi - x)/2 in rounded terms, "
    "which cancel to 0 one ulp below the flat angle; it needs the exact-pi flat angle",
)
@pytest.mark.parametrize("n", [28, 655, 1418])
def test_half_side_one_ulp_below_the_flat_angle(n):
    # x lies below both the rounded and the exact flat angle (d < 0), yet
    # half_side returns 0.0 (mpmath at n = 28: 3.5795e-9). With x - flat
    # formed from exact-pi parts d, and so the half side, keeps a few ulps.
    x = math.nextafter((n - 2) * math.pi / n, 0.0)
    d = (mp.mpf(x) - _exact_flat(n)) / 2
    assert _rel(half_side(n, x), _mp_half_side(-1, n, d, x)) <= 16 * EPS


@pytest.mark.parametrize("n", [3, 1000, 10**6])
@pytest.mark.parametrize("x", [1e-150, 1e-160, 1e-300, 1e-310, 5e-324])
def test_half_side_at_tiny_angles(n, x):
    ref = mp.acosh(mp.cos(mp.pi / n) / mp.sin(mp.mpf(x) / 2))
    assert _rel(half_side(n, x), ref) <= 2 * EPS


@pytest.mark.parametrize("n", [3, 1000, 10**6])
@pytest.mark.parametrize("x", [1e-150, 1e-160, 1e-300, 1e-310, 5e-324])
def test_half_side_d1_at_tiny_angles(n, x):
    # d/dx acosh(r) = r'/sqrt(r^2 - 1) for r = cos(pi/n)/sin(x/2); from
    # 1e-310 down the true slope overflows, and so must the library's
    a, half = mp.pi / n, mp.mpf(x) / 2
    r = mp.cos(a) / mp.sin(half)
    ref = -mp.cos(a) * mp.cos(half) / (2 * mp.sin(half) ** 2) / mp.sqrt(r * r - 1)
    got = half_side_d1(n, x)
    if -ref > sys.float_info.max:
        assert got == -math.inf
    else:
        assert abs(mp.mpf(got) - ref) <= 2 * EPS * abs(ref)


def test_margin_at_a_tiny_angle_is_finite():
    assert math.isfinite(equal_split_margin(3, 1e-160))
    assert equal_split_margin(3, 1e-160) < 0.0


# Bits of the solve in the deficit variable t = flat - x, from the
# two-term start below n = 8, the tabulated root on [8, 55) and the series
# start from 55, each accepted at its first margin evaluation from n = 8.
# Each is within 1.4 ulp of mpmath's root for n <= 7 except 6 (10.6), 0.28
# ulp at 8 and 0.62 at 12 (re-pinned from the series start's solves, 5.7 and
# 3.4: pi/4 itself at 8, not 6 ulp above it), and within 0.5 ulp from 1000
# on: 0.05 at 1000, 0.48 at 158489 and 0.11 at 10**6.
THETA_BITS = {
    3: "0x1.0aea04ac78334p-2",
    4: "0x1.af404d6b5d098p-2",
    5: "0x1.14ad63bf4fd8ep-1",
    6: "0x1.45b1846fdd77ap-1",
    7: "0x1.6ec2fc1002518p-1",
    8: "0x1.921fb54442d18p-1",
    12: "0x1.fc4e581f87616p-1",
    1000: "0x1.47ee2bcf9998ep+1",
    158489: "0x1.8445be18dbe2dp+1",
    10**6: "0x1.8aa03e7a5112cp+1",
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


# One SHA-256 over every field of the cold solves of the benchmark's theta
# traffic: n = 3..2000, the 24 log-spaced n up to 1.5e5, and 158489, 501187
# and 10**6, in increasing n, one line per n. Re-pinned when the tabulated
# roots became the start of every n in [8, 55): the 47 lines of those n
# changed (iterations in 47, theta and max_area in 41, residual in 23, x0 in
# none), and no other line.
THETA_TRAFFIC = sorted(
    set(range(3, 2001)) | {round(2000 * 75 ** (j / 24)) for j in range(1, 25)}
    | {158489, 501187, 10**6}
)
THETA_TRAFFIC_DIGEST = "952a205c6daa02a9486cdd1dd13cc50e23ec151d7d23aeaeec5daac744ebcdbe"


def test_critical_angle_keeps_its_bits_over_the_theta_traffic():
    digest = hashlib.sha256()
    for n in THETA_TRAFFIC:
        r = critical_angle.__wrapped__(n)
        fields = (r.critical_angle, r.inflection, r.max_area, r.residual)
        digest.update(f"{n} {' '.join(map(float.hex, fields))} {r.iterations}\n".encode())
    assert len(THETA_TRAFFIC) == 2025
    assert digest.hexdigest() == THETA_TRAFFIC_DIGEST


@pytest.mark.parametrize("n, x, expected", HALF_SIDE_BITS)
def test_half_side_keeps_its_bits(n, x, expected):
    assert half_side(n, float.fromhex(x)).hex() == expected


# The angle path's bits, taken before it became one sequence kernel: per
# (n, x), half_side and equal_split_margin at x = 1e-160 (the log form), one
# ulp below the flat angle at n = 28 (the clamp: 0.0 until the flat angle is
# formed from exact-pi parts, ROADMAP 1(a)) and at half and 0.99 of the flat
# angle. SPLIT_BITS: split_objective at c = 1.5*flat, x = 0.75*flat and one
# ulp below flat; its x cannot reach the log form (x > c - flat >= ulp).
ANGLE_PATH_BITS = [
    (3, "0x1.67e9c127b6e74p-532", "0x1.711b54c222778p+8", "-0x1.6e8daadb6c9d4p+8"),
    (10**6, "0x1.67e9c127b6e74p-532", "0x1.71ccc6da1a43ep+8", "-0x1.7009832978a8bp+8"),
    (28, "0x1.7566960887304p+1", "0x0.0p+0", "0x0.0p+0"),
    (3, "0x1.0c152382d7365p-1", "0x1.46d4f35aed1e3p+0", "0x1.01ede48771f78p-2"),
    (3, "0x1.0966d8ea7e052p+0", "0x1.1513e8327e986p-3", "0x1.c781bc22e7aa4p-5"),
    (4, "0x1.921fb54442d18p-1", "0x1.3966e3ca4b538p+0", "0x1.c5327b70f06e8p-3"),
    (4, "0x1.8e1a455fbd07cp+0", "0x1.0207b7f2364e6p-3", "0x1.a7af7619cc75cp-5"),
    (6, "0x1.0c152382d7365p+0", "0x1.256e66a48a3b8p+0", "0x1.5dae03a7b03e8p-3"),
    (6, "0x1.0966d8ea7e052p+1", "0x1.c59968f254b1cp-4", "0x1.7341c8be67eb4p-5"),
    (12, "0x1.4f1a6c638d03fp+0", "0x1.0947c5594881ap+0", "0x1.61b1901d7e5e0p-4"),
    (12, "0x1.4bc08f251d867p+1", "0x1.5bbdb263f514ap-4", "0x1.1977427f2711ep-5"),
    (1000, "0x1.9151d2168e75fp+0", "0x1.c465e220d17a6p-1", "-0x1.275fd228326d0p-4"),
    (1000, "0x1.8d4e714469323p+1", "0x1.3001ebe8770f5p-6", "0x1.45f7c095199e8p-9"),
    (10**6, "0x1.921f808f392a8p+0", "0x1.c343b0a19b336p-1", "-0x1.331512ea7a760p-4"),
    (10**6, "0x1.8e1a1131a18dfp+1", "0x1.016bba5fb0a00p-6", "0x1.6479b8ccb4000p-19"),
]
SPLIT_BITS = [
    (3, "0x1.921fb54442d18p+0", "0x1.921fb54442d18p-1", "0x1.87506c7cc99c1p+0"),
    (3, "0x1.921fb54442d18p+0", "0x1.0c152382d7364p+0", "0x1.46d4f3d20b2d4p+0"),
    (4, "0x1.2d97c7f3321d2p+1", "0x1.2d97c7f3321d2p+0", "0x1.720d333869615p+0"),
    (4, "0x1.2d97c7f3321d2p+1", "0x1.921fb54442d17p+0", "0x1.3966e40a4b538p+0"),
    (6, "0x1.921fb54442d18p+1", "0x1.921fb54442d18p+0", "0x1.5124271980435p+0"),
    (6, "0x1.921fb54442d18p+1", "0x1.0c152382d7364p+1", "0x1.256e66f8c4c9bp+0"),
    (12, "0x1.f6a7a2955385ep+1", "0x1.f6a7a2955385ep+0", "0x1.1f62de5b20679p+0"),
    (12, "0x1.f6a7a2955385ep+1", "0x1.4f1a6c638d03ep+1", "0x1.0947c581db8bdp+0"),
    (28, "0x1.180cf08665644p+2", "0x1.180cf08665644p+1", "0x1.edae7ae8f3313p-1"),
    (28, "0x1.180cf08665644p+2", "0x1.7566960887304p+1", "0x1.e8bfa098f0bf4p-1"),
    (1000, "0x1.2cfd5d90ead87p+2", "0x1.2cfd5d90ead87p+1", "0x1.9f79e7dbcb2d0p-1"),
    (1000, "0x1.2cfd5d90ead87p+2", "0x1.9151d2168e75ep+1", "0x1.c465e22b8d43ap-1"),
    (10**6, "0x1.2d97a06b6adfep+2", "0x1.2d97a06b6adfep+1", "0x1.9ce10e444be4ap-1"),
    (10**6, "0x1.2d97a06b6adfep+2", "0x1.921f808f392a7p+1", "0x1.c343b0a1eaf7ap-1"),
]


@pytest.mark.parametrize("n, x, k, margin", ANGLE_PATH_BITS)
def test_angle_path_keeps_its_bits(n, x, k, margin):
    x = float.fromhex(x)
    assert (half_side(n, x).hex(), equal_split_margin(n, x).hex()) == (k, margin)


@pytest.mark.parametrize("n, c, x, expected", SPLIT_BITS)
def test_split_objective_keeps_its_bits(n, c, x, expected):
    params = SplitFunctionParams(n, float.fromhex(c))
    assert split_objective(params, float.fromhex(x)).hex() == expected
