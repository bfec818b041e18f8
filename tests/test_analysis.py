import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoperim import (
    ArgumentError,
    DomainError,
    Geometry,
    RegularPolygon,
    SplitFunctionParams,
    equal_split_margin,
    half_side,
    half_side_d1,
    inflection_point,
    perimeter,
    spherical_half_side,
    split_objective,
)

from conftest import (
    HALF_SIDE_3_PI6,
    HALF_SIDE_4_PI4,
    central_difference,
    check_concave_split,
    full_text,
    half_side_d2,
    half_side_d3,
    sign_changes,
    spherical_half_side_d2,
)

mp.mp.dps = 50


def mp_half_side(n: int, x: float) -> float:
    """Independent high-precision evaluation of the kernel at a float point."""
    return float(mp.acosh(mp.cos(mp.pi / n) / mp.sin(mp.mpf(x) / 2)))


def domain_hi(n: int) -> float:
    return (n - 2) * math.pi / n


# ---------------------------------------------------------------- kernel


def test_half_side_spot_values():
    assert half_side(3, math.pi / 6) == pytest.approx(HALF_SIDE_3_PI6, rel=1e-13)
    assert half_side(4, math.pi / 4) == pytest.approx(HALF_SIDE_4_PI4, rel=1e-13)


def test_half_side_matches_high_precision_oracle():
    rng = random.Random(1105)
    for n in (3, 4, 5, 7, 12, 100):
        hi = domain_hi(n)
        for _ in range(20):
            x = rng.uniform(1e-3, hi - 1e-3)
            assert half_side(n, x) == pytest.approx(mp_half_side(n, x), rel=1e-13)


def test_half_side_is_sixth_of_triangle_perimeter():
    p = perimeter(RegularPolygon(Geometry.HYPERBOLIC, 3, math.pi / 2))
    assert half_side(3, math.pi / 6) == pytest.approx(p / 6.0, rel=1e-13)


def test_half_side_vanishes_at_upper_boundary():
    for n in (3, 4, 12):
        value = half_side(n, domain_hi(n) - 1e-12)
        assert 0.0 <= value < 1e-5


def test_half_side_strictly_decreasing():
    for n in (3, 7):
        xs = np.linspace(1e-6, domain_hi(n) - 1e-6, 500)
        values = [half_side(n, float(x)) for x in xs]
        assert all(a > b for a, b in zip(values, values[1:]))


HALF_SIDE_DOMAIN_3 = "angle must lie in the open interval (0.0, 1.0471975511965976), got "


@pytest.mark.parametrize("bad_x", [0.0, -0.1])
def test_half_side_domain_lower(bad_x):
    with pytest.raises(DomainError, match=full_text(HALF_SIDE_DOMAIN_3 + str(bad_x))):
        half_side(3, bad_x)


def test_half_side_domain_upper():
    with pytest.raises(DomainError, match=full_text(HALF_SIDE_DOMAIN_3 + "1.0471975511965976")):
        half_side(3, domain_hi(3))
    with pytest.raises(DomainError, match=full_text(HALF_SIDE_DOMAIN_3 + "10.0")):
        half_side(3, 10.0)


# ------------------------------------------------------------ derivatives


def _fd_tols(closed: float, fd: float) -> None:
    # relative agreement, with a small absolute floor where the derivative
    # itself crosses zero and a relative scale does not exist
    err = abs(closed - fd)
    assert err <= max(1e-5 * abs(closed), 1e-8), (closed, fd)


def test_derivatives_match_finite_differences():
    rng = random.Random(701)
    h = 1e-6
    for n in (3, 4, 5, 7, 12):
        hi = domain_hi(n)
        for _ in range(40):
            x = rng.uniform(1e-3, hi - 1e-3)
            _fd_tols(half_side_d1(n, x), central_difference(lambda t: half_side(n, t), x, h))
            _fd_tols(half_side_d2(n, x), central_difference(lambda t: half_side_d1(n, t), x, h))
            _fd_tols(half_side_d3(n, x), central_difference(lambda t: half_side_d2(n, t), x, h))


def test_first_derivative_spot_check():
    x, h = 0.5, 1e-6
    fd = (half_side(3, x + h) - half_side(3, x - h)) / (2 * h)
    assert half_side_d1(3, x) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("n", range(3, 13))
def test_derivative_signs_on_grid(n):
    xs = np.linspace(1e-6, domain_hi(n) - 1e-6, 1000)
    for x in xs:
        assert half_side_d1(n, float(x)) < 0.0
        assert half_side_d3(n, float(x)) < 0.0


@pytest.mark.parametrize("n", range(3, 13))
def test_second_derivative_single_sign_change(n):
    xs = np.linspace(1e-6, domain_hi(n) - 1e-6, 1000)
    values = [half_side_d2(n, float(x)) for x in xs]
    flips = sign_changes(values)
    assert len(flips) == 1
    assert values[0] > 0.0 and values[-1] < 0.0


def test_first_derivative_diverges_at_both_ends():
    for n in (3, 5, 12):
        assert half_side_d1(n, 1e-9) < -1e3
        assert half_side_d1(n, domain_hi(n) - 1e-9) < -1e3


@pytest.mark.parametrize("denominator", [0.0, -1e-300])
def test_first_derivative_is_minus_inf_where_its_denominator_is_not_positive(
    monkeypatch, denominator
):
    # cos(2*pi/n) + cos(x) stays positive on the whole domain in this libm
    # (one ulp below the flat angle it is at least 7.7e-22, at n = 999992);
    # the guard answers a libm whose cosines round the other way
    from isoperim import analysis

    monkeypatch.setattr(analysis, "_denominator", lambda n, x: denominator)
    assert half_side_d1(3, 1.0) == -math.inf


# ------------------------------------------------------- spherical kernel


def test_spherical_kernel_values():
    assert spherical_half_side(3, math.pi) == pytest.approx(math.pi / 3, rel=1e-13)
    for n in range(3, 9):
        assert spherical_half_side(n, (n - 2) * math.pi / n) == 0.0


def test_spherical_kernel_domain_is_closed():
    flat = math.pi / 3
    assert spherical_half_side(3, flat) == 0.0
    domain = "angle must lie in [1.0471975511965976, 3.141592653589793], got "
    with pytest.raises(DomainError, match=full_text(domain + "1.0471975501965975")):
        spherical_half_side(3, flat - 1e-9)
    with pytest.raises(DomainError, match=full_text(domain + "3.141592654589793")):
        spherical_half_side(3, math.pi + 1e-9)


def test_spherical_second_derivative_negative():
    assert spherical_half_side_d2(3, 2.5) < 0.0
    for n in (3, 4, 7):
        flat = (n - 2) * math.pi / n
        for x in np.linspace(flat + 1e-6, math.pi - 1e-6, 200):
            assert spherical_half_side_d2(n, float(x)) < 0.0


def _mp_spherical_half_side(n, x):
    """The spherical half side in deficit form, d = (x - flat)/2 with exact pi."""
    a = mp.pi / n
    d = (x - (n - 2) * mp.pi / n) / 2
    D = 2 * mp.sin((2 * a - d) / 2) * mp.sin(d / 2) / mp.sin(x / 2)
    return 2 * mp.asin(mp.sqrt(D / 2))


def test_spherical_second_derivative_matches_mpmath():
    # mpmath differentiates the deficit form at 50 digits; the closed form's
    # worst relative error over 3000 draws like these measured 8.8e-14
    rng = random.Random(119)
    for n in (3, 5, 9):
        flat = (n - 2) * math.pi / n
        for _ in range(25):
            x = rng.uniform(flat + 1e-2, math.pi - 1e-2)
            ref = mp.diff(lambda t: _mp_spherical_half_side(n, t), mp.mpf(x), 2)
            assert abs(spherical_half_side_d2(n, x) - ref) <= 2e-13 * abs(ref)


# --------------------------------------------------------- split objective


def params_for(n: int, theta: float) -> SplitFunctionParams:
    return SplitFunctionParams(n, theta + (n - 2) * math.pi / n)


@given(
    n=st.integers(min_value=3, max_value=12),
    tf=st.floats(min_value=0.05, max_value=0.95),
    xf=st.floats(min_value=1e-4, max_value=1.0 - 1e-4),
)
@settings(deadline=None, max_examples=100)
def test_split_objective_symmetry(n, tf, xf):
    theta = tf * domain_hi(n)
    p = params_for(n, theta)
    x = p.lo + xf * (p.hi - p.lo)
    assert split_objective(p, x) == pytest.approx(split_objective(p, p.c - x), rel=1e-12)


def test_split_objective_midpoint():
    p = params_for(3, math.pi / 6)
    mid = p.c / 2.0
    assert split_objective(p, mid) == pytest.approx(2.0 * half_side(3, mid), rel=1e-14)


def test_split_objective_boundary_limit():
    # approaching the upper end, the objective tends to the single-polygon value
    p = params_for(3, math.pi / 6)
    boundary_constant = half_side(3, p.c - p.hi)
    assert split_objective(p, p.hi - 1e-9) == pytest.approx(boundary_constant, abs=1e-4)


def test_split_objective_domain():
    p = params_for(3, 0.5)
    split = "split angle must lie in the open interval (0.5, 1.0471975511965976), got "
    with pytest.raises(DomainError, match=full_text(split + "0.5")):
        split_objective(p, p.lo)
    with pytest.raises(DomainError, match=full_text(split + "1.0471975511965976")):
        split_objective(p, p.hi)
    with pytest.raises(DomainError, match=full_text(
        "angle sum must lie in (1.0471975511965976, 2.0943951023931953), got 1.0471975511965976"
    )):
        SplitFunctionParams(3, math.pi / 3)  # angle sum at the excluded boundary


def test_split_params_hold_builtin_numbers():
    # numpy arguments are checked as given, then stored as int and float,
    # so that lo, hi and the objective come out as builtin floats
    p = SplitFunctionParams(np.int64(5), np.float64(3.0))
    assert (type(p.n), type(p.c), type(p.lo), type(p.hi)) == (int, float, float, float)
    assert p == SplitFunctionParams(5, 3.0)
    assert repr(p) == "SplitFunctionParams(n=5, c=3.0)"
    assert type(split_objective(p, p.c / 2.0)) is float
    with pytest.raises(DomainError, match=full_text(
        "angle sum must lie in (1.0471975511965976, 2.0943951023931953), got 3.0"
    )):
        SplitFunctionParams(np.int32(3), np.float64(3.0))


def test_split_objective_grid_minimum_location():
    # below the critical angle the interior minimum sits at the midpoint;
    # above it the grid minimum moves to the domain boundary
    for theta, interior in ((0.1, True), (0.9, False)):
        p = params_for(3, theta)
        xs = np.linspace(p.lo + 1e-6, p.hi - 1e-6, 10**4)
        values = [split_objective(p, float(x)) for x in xs]
        idx = int(np.argmin(values))
        step = float(xs[1] - xs[0])
        if interior:
            assert abs(float(xs[idx]) - p.c / 2.0) <= step
        else:
            assert idx in (0, len(xs) - 1)


# ------------------------------------------------------ equal-split margin


def test_margin_brackets_critical_angle():
    assert equal_split_margin(3, 0.2) < 0.0
    assert equal_split_margin(3, 0.26) < 0.0
    assert equal_split_margin(3, 0.261) > 0.0
    assert equal_split_margin(3, 0.3) > 0.0


@pytest.mark.parametrize("n", range(3, 13))
def test_margin_positive_above_inflection(n):
    x0 = inflection_point(n)
    for x in np.linspace(x0 + 1e-6, domain_hi(n) - 1e-6, 50):
        assert equal_split_margin(n, float(x)) > 0.0


@pytest.mark.parametrize("n", range(3, 13))
def test_margin_single_sign_change_below_inflection(n):
    xs = np.linspace(1e-6, domain_hi(n) - 1e-6, 2000)
    values = [equal_split_margin(n, float(x)) for x in xs]
    flips = sign_changes(values)
    assert len(flips) == 1
    assert float(xs[flips[0]]) < inflection_point(n)


def test_margin_boundary_behavior():
    for n in (3, 4, 12):
        hi = domain_hi(n)
        # the margin vanishes like sqrt of the distance to the boundary
        near = equal_split_margin(n, hi - 1e-8)
        assert 0.0 < near <= 1e-4
        nearer = equal_split_margin(n, hi - 1e-10)
        assert 0.0 < nearer < near
        # and diverges to minus infinity at the lower end
        assert equal_split_margin(n, 1e-6) < -5.0


def test_margin_domain():
    with pytest.raises(DomainError):
        equal_split_margin(3, 0.0)
    with pytest.raises(DomainError):
        equal_split_margin(3, domain_hi(3))


@pytest.mark.parametrize("n", [3, 7, 1000])
def test_margin_next_to_the_flat_angle_names_the_angle(n):
    # within about an ulp below the flat angle the equal split's inner angle
    # rounds onto it; the margin there would come out with the wrong sign
    hi, x, raised = domain_hi(n), domain_hi(n), 0
    for _ in range(4):
        x = math.nextafter(x, 0.0)
        try:
            margin = equal_split_margin(n, x)
        except DomainError as exc:
            assert str(exc) == (
                f"angle {x} is too close to the flat angle {hi}: "
                "the equal split's inner angle rounds onto it"
            )
            raised += 1
        else:
            assert margin > 0.0
    assert raised >= 1


# ------------------------------------------------------ concave-split check


def test_concave_split_analytic():
    assert check_concave_split(lambda x: -x * x, -1.0, 1.0, 0.0, 0.0) is True


def test_concave_split_spherical():
    flat = math.pi / 3
    mid = (flat + math.pi) / 2.0
    f = lambda x: spherical_half_side(3, x)
    assert check_concave_split(f, flat, math.pi, mid, mid) is True


def test_concave_split_equality_case():
    f = lambda x: -x * x
    assert check_concave_split(f, -1.0, 1.0, -1.0, 1.0) is False


def test_concave_split_sum_mismatch():
    with pytest.raises(ArgumentError):
        check_concave_split(lambda x: -x * x, -1.0, 1.0, 0.1, 0.0)


@given(
    a=st.floats(min_value=-5.0, max_value=-0.1),
    b=st.floats(min_value=0.1, max_value=5.0),
    frac=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
)
@settings(deadline=None, max_examples=100)
def test_concave_split_property_quadratic(a, b, frac):
    c = a + frac * (b - a)
    d = (a + b) - c
    assert check_concave_split(lambda x: -x * x, a, b, c, d) is True


def test_central_difference():
    assert central_difference(math.sin, 0.0) == pytest.approx(1.0, rel=1e-9)
    assert central_difference(lambda x: x**3, 2.0, 1e-5) == pytest.approx(12.0, rel=1e-8)
