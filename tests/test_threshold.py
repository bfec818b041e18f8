import math
import re
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isoperim import (
    BracketError,
    ConvergenceError,
    Geometry,
    area_from_angle,
    critical_angle,
    equal_split_margin,
    inflection_point,
)
from isoperim import threshold
from isoperim.threshold import _bisect

from conftest import (
    MAX_AREA_3,
    THETA_3,
    THETA_4,
    THETA_5,
    X0_3,
    half_side_d2,
    staged_scan_root,
)


def domain_hi(n: int) -> float:
    return (n - 2) * math.pi / n


# ------------------------------------------------------------- bisection


def bisection(f, lo, hi, n=None):
    """Plain bisection through _bisect: a zero slope takes the midpoint each step."""
    return _bisect(f, lo, hi, f(lo)[0], f(hi)[0], 0.5 * (lo + hi), n, lambda x: 0.0)


def test_bisect_linear():
    assert bisection(lambda x: (x - 1.0, 1e-12), 0.0, 2.0)[0] == pytest.approx(1.0, abs=1e-12)


def test_bisect_cosine():
    root = bisection(lambda x: (math.cos(x), 1e-13), 0.0, 3.0)[0]
    assert root == pytest.approx(math.pi / 2, abs=1e-12)


def test_bisect_margin_bracket():
    root = bisection(lambda x: (equal_split_margin(3, x), 1e-12), 0.2, 0.3)[0]
    assert root == pytest.approx(THETA_3, abs=1e-10)


def test_bisect_exhausts_iterations():
    # a sign step on an interval too wide to collapse within the budget
    step = lambda x: 1.0 if x >= 1.0 else -1.0
    with pytest.raises(ConvergenceError):
        bisection(lambda x: (step(x), 1e-3), 0.0, 1e60)


def test_newton_falls_back_to_bisection_outside_bracket():
    # Newton on atan from the first midpoint overshoots far past the
    # bracket; the safeguarded iteration must still close in on 0, and
    # faster than the 56 steps of plain bisection
    root, iterations, residual = _bisect(
        lambda x: (math.atan(x), 0.0), -1.0, 20.0, math.atan(-1.0), math.atan(20.0), 9.5, None,
        lambda x: 1.0 / (1.0 + x * x),
    )
    assert abs(root) <= 1e-15
    assert residual == abs(math.atan(root))
    assert iterations <= 15


def test_solver_errors_carry_n_bracket_and_residual(monkeypatch):
    with pytest.raises(ConvergenceError) as info:
        bisection(lambda x: (1.0 if x >= 1.0 else -1.0, 1e-3), 0.0, 1e60)
    lo, hi = info.value.bracket
    assert info.value.n is None and lo < 1.0 <= hi and info.value.residual == 1.0

    x0 = inflection_point(3)
    flat = domain_hi(3)
    critical_angle.cache_clear()
    monkeypatch.setattr(threshold, "RESIDUAL_TOL", -1.0)
    with pytest.raises(ConvergenceError) as info:
        critical_angle(3)
    err = info.value
    # the bracket is in the deficit t = flat - x: [flat - x0, flat)
    assert err.n == 3 and err.bracket == (flat - x0, flat)
    assert err.bracket[0] < flat - THETA_3 < err.bracket[1]
    assert err.residual >= 0.0
    assert str(err) == f"critical-angle residual {err.residual} exceeds -1.0 for n=3"
    monkeypatch.undo()

    # a margin that never turns negative closes the bracket onto its open
    # end, which is never evaluated (the true margin is -inf there)
    flat4 = domain_hi(4)

    def never_negative(n, x, t=None):
        assert t < flat4
        return 1.0, 0.0

    monkeypatch.setattr(threshold, "_margin_terms", never_negative)
    monkeypatch.setattr(threshold, "_margin_slope", lambda n, x, t: 0.0)  # bisection
    with pytest.raises(BracketError) as info:
        critical_angle(4)
    err = info.value
    lo = math.nextafter(flat4, 0.0)
    assert (err.n, err.bracket, err.residual) == (4, (lo, flat4), 1.0)
    assert str(err).startswith(f"no root within the floor on [{lo}, {flat4}] after ")
    assert str(err).endswith(" iterations: f=1.0 and -inf")

    monkeypatch.setattr(
        threshold, "_margin_terms", lambda n, x, t=None: (-1.0, 0.0)
    )
    with pytest.raises(BracketError) as info:
        critical_angle(5)
    assert (info.value.n, info.value.bracket, info.value.residual) == (5, None, None)
    assert str(info.value) == "margin not positive at the inflection point for n=5"


def test_bisect_raises_when_the_bracket_closes():
    # a sign step at 1.0 with no value within the floor: the bracket closes to
    # two adjacent floats, and no iterate lands on an end
    step = lambda x: (1.0 if x >= 1.0 else -1.0, 0.0)  # noqa: E731
    with pytest.raises(ConvergenceError) as info:
        bisection(step, 0.0, 2.0, n=7)
    err = info.value
    assert (err.n, err.bracket, err.residual) == (7, (math.nextafter(1.0, 0.0), 1.0), 1.0)
    assert str(err) == (
        "no root within the floor on [0.9999999999999999, 1.0] after 54 iterations:"
        " f=-1.0 and 1.0"
    )


def test_bisect_first_iterate_inside_the_bracket_only():
    seen = []

    def f(x):
        seen.append(x)
        return x - 1.0, 0.0

    assert _bisect(f, 0.0, 4.0, -1.0, 3.0, 1.0, None, lambda x: 1.0) == (1.0, 1, 0.0)
    seen.clear()
    _bisect(f, 0.0, 4.0, -1.0, 3.0, 5.0, None, lambda x: 1.0)  # outside: the midpoint instead
    assert seen[0] == 2.0


# ------------------------------------------------------- inflection point


def test_inflection_sign_probes():
    x0 = inflection_point(3)
    assert x0 == pytest.approx(X0_3, rel=1e-12)
    assert half_side_d2(3, x0 * (1 - 1e-3)) > 0.0
    assert half_side_d2(3, x0 * (1 + 1e-3)) < 0.0


@pytest.mark.parametrize("n", range(3, 101))
def test_inflection_inside_domain(n):
    x0 = inflection_point(n)
    assert 0.0 < x0 < domain_hi(n)
    assert abs(half_side_d2(n, x0)) <= 1e-10


def test_inflection_deterministic():
    first = inflection_point(7)
    assert inflection_point(7) == first


def mp_half_side(n: int, x: mp.mpf) -> mp.mpf:
    """Half-side kernel K(x) = arccosh(cos(pi/n)/sin(x/2))."""
    return mp.acosh(mp.cos(mp.pi / n) / mp.sin(x / 2))


# Measured worst case 2.9e-16 (at n = 3) over n = 3..3000 and 8800 more
# log-uniform n up to 10^6.
X0_REL_TOL = 3e-16


@given(log_n=st.floats(min_value=math.log(3), max_value=math.log(10**6)))
@example(log_n=math.log(3))
@example(log_n=math.log(10**6))
@settings(deadline=None, max_examples=60)
def test_inflection_point_matches_high_precision(log_n):
    n = min(max(round(math.exp(log_n)), 3), 10**6)
    x0 = inflection_point(n)
    with mp.workdps(40):
        exact = 2 * mp.acos(mp.sqrt(mp.sin(mp.pi / n)))
        assert abs((x0 - exact) / exact) <= X0_REL_TOL
        # independently of the closed form: the kernel's numerical second
        # derivative changes sign from positive to negative across x0
        k = lambda t: mp_half_side(n, t)  # noqa: E731
        lo, hi = mp.mpf(x0) * (1 - mp.mpf(1e-9)), mp.mpf(x0) * (1 + mp.mpf(1e-9))
        assert mp.diff(k, lo, 2) > 0 > mp.diff(k, hi, 2)


# --------------------------------------------------------- critical angle


def test_known_critical_angles():
    assert critical_angle(3).critical_angle == pytest.approx(THETA_3, rel=1e-12)
    assert critical_angle(4).critical_angle == pytest.approx(THETA_4, rel=1e-12)
    assert critical_angle(5).critical_angle == pytest.approx(THETA_5, rel=1e-12)
    assert critical_angle(3).max_area == pytest.approx(MAX_AREA_3, rel=1e-12)


def test_octagon_critical_angle_closed_form():
    # exact identity: doubling arccosh(cos(pi/8)/sin(pi/4)) gives
    # 4*cos(pi/8)^2 - 1 = 1 + sqrt(2) = cot(pi/8), so the margin vanishes
    # at exactly pi/4 for the octagon
    assert critical_angle(8).critical_angle == pytest.approx(math.pi / 4, rel=1e-14)


@pytest.mark.parametrize("n", range(3, 51))
def test_threshold_result_invariants(n):
    res = critical_angle(n)
    assert res.n == n
    assert 0.0 < res.critical_angle < res.inflection < domain_hi(n)
    assert res.residual <= 1e-10
    assert abs(equal_split_margin(n, res.critical_angle)) <= 1e-10
    # max_area is n*t, not formed from the angle: the two agree within
    # max_area's stated bound
    own = (n - 2) * math.pi - n * res.critical_angle
    assert res.max_area == pytest.approx(own, rel=AREA_REL_TOL, abs=0.0)
    own = area_from_angle(Geometry.HYPERBOLIC, n, res.critical_angle)
    assert res.max_area == pytest.approx(own, rel=AREA_REL_TOL, abs=0.0)
    assert res.max_area < (n - 2) * math.pi
    assert res.iterations <= 200


@pytest.mark.parametrize("n", range(3, 13))
def test_margin_sign_flips_at_critical_angle(n):
    theta = critical_angle(n).critical_angle
    assert equal_split_margin(n, theta - 1e-4) < 0.0
    assert equal_split_margin(n, theta + 1e-4) > 0.0


def test_readme_quotes_theta_3():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    quoted = re.search(r"res\.critical_angle +# (\S+)", readme).group(1)
    assert quoted == repr(critical_angle(3).critical_angle)


def test_memoized_results_are_identical():
    assert critical_angle(9) is critical_angle(9)
    first = critical_angle(11).critical_angle
    critical_angle.cache_clear()
    assert critical_angle(11).critical_angle == first


@pytest.mark.parametrize("n", [3, 4, 5])
def test_scan_oracle_agreement(n):
    # independent staged exhaustive scan down to 1e-9 cells, in x, over a
    # bracket found by halving down from the inflection point
    x0 = inflection_point(n)
    lo = x0 / 2.0
    while not equal_split_margin(n, lo) < 0.0:
        lo /= 2.0
    scan_root = staged_scan_root(lambda x: equal_split_margin(n, x), lo, x0)
    assert abs(critical_angle(n).critical_angle - scan_root) <= 1e-8


def test_large_side_count():
    for n in (1000, 158489, 501187, 10**6):
        res = critical_angle(n)
        assert 0.0 < res.critical_angle < res.inflection < domain_hi(n)
        assert res.residual <= 1e-10
        assert abs(half_side_d2(n, res.inflection)) <= 1e-10


def test_iteration_count_bound():
    # started from the asymptote, the Newton steps in t took at most 7
    # iterations for n in [3, 10**6] (at n = 3, 4, 6 and 7); bisection needs
    # about 51
    worst = max(critical_angle(n).iterations for n in range(3, 2001))
    assert worst <= 7


def test_cold_solves_evaluate_the_slope_only_where_a_step_is_taken(monkeypatch):
    # over the side counts of `theta --range 3 2000`: the margin counted with
    # the positivity check at x0, the slope never at the accepted iterate
    margins, slopes = [], []
    margin_terms, margin_slope = threshold._margin_terms, threshold._margin_slope

    def counted_margin(n, x, t=None):
        margins.append(t)
        return margin_terms(n, x, t)

    def counted_slope(n, x, t):
        slopes.append(t)
        return margin_slope(n, x, t)

    monkeypatch.setattr(threshold, "_margin_terms", counted_margin)
    monkeypatch.setattr(threshold, "_margin_slope", counted_slope)
    ns = range(3, 2001)
    margin_count = slope_count = 0
    for n in ns:
        critical_angle.cache_clear()
        margins.clear(), slopes.clear()
        res = critical_angle(n)
        assert margins[-1] not in slopes  # the last margin is at the accepted t
        assert (len(margins), len(slopes)) == (res.iterations + 1, res.iterations - 1)
        margin_count, slope_count = margin_count + len(margins), slope_count + len(slopes)
    critical_angle.cache_clear()
    # measured 3.09 and 1.09 (4.26 and 3.26 from the two-term start)
    assert margin_count / len(ns) <= 3.2 and slope_count / len(ns) <= 1.2


def test_start_coefficients_from_high_precision_roots():
    # the start's third and fourth terms, (56/45)*a**(5/3) and
    # -(268/567)*a**(7/3) for a = pi/n, as observed in 80-digit roots of the
    # margin in t: r(n) = t - 4*a**(1/3) + 4*a divided by a**(5/3) is
    # 56/45 + c*a**(2/3) + O(a**(4/3)), so two side counts give both numbers
    quotients = []
    with mp.workdps(80):
        for n in (10**8, 10**10):
            a = mp.pi / n
            flat, c = mp.pi - 2 * a, mp.cos(a)
            margin = lambda t: (  # noqa: E731
                2 * mp.acosh(c / mp.sin((flat - t / 2) / 2)) - mp.acosh(c / mp.sin((flat - t) / 2))
            )
            t = mp.findroot(margin, 4 * mp.cbrt(a) - 4 * a, tol=mp.mpf(10) ** -70)
            quotients.append(((t - 4 * mp.cbrt(a) + 4 * a) / a ** (mp.mpf(5) / 3), mp.cbrt(a**2)))
        (q1, a1), (q2, a2) = quotients
        third = (q2 * a1 - q1 * a2) / (a1 - a2)
        fourth = ((q2 - third) / a2 * a1 - (q1 - third) / a1 * a2) / (a1 - a2)
        assert abs(third - mp.mpf(56) / 45) <= 1e-8
        assert abs(fourth + mp.mpf(268) / 567) <= 1e-8


# Iterations with the stop at the t-form margin's rounding floor, from the
# four-term start: at 10**6 the start is within the floor and its Newton step
# does not move it.
@pytest.mark.parametrize("n, bound", [(1000, 2), (158489, 2), (501187, 2), (10**6, 1)])
def test_solve_stops_at_rounding_floor(n, bound):
    res = critical_angle(n)
    assert res.iterations <= bound
    t = res.max_area / n  # within an ulp of the solve's t; the floor is smooth in t
    flat = domain_hi(n)
    assert res.residual <= threshold._margin_terms(n, flat - t, t)[1]


def test_bisect_polishes_a_start_within_the_floor():
    seen, slopes = [], []

    def f(x):  # the start 0.5 is within its floor, no other point off the root
        seen.append(x)
        return x - 1.0, 0.6 if x == 0.5 else 0.0

    def newton(steps):
        def slope(x):
            slopes.append(x)
            return steps.get(x, 1.0)
        return slope

    def polish(steps):
        return _bisect(f, 0.0, 4.0, -1.0, 3.0, 0.5, None, newton(steps))

    # the start's Newton target, 1.0, is the root: one slope, at the start
    assert polish({}) == (1.0, 2, 0.0)
    assert (seen, slopes) == ([0.5, 1.0], [0.5])

    # a target outside the floor: the start did not narrow the bracket (0, 4),
    # so the next Newton target, below the start, still lies inside it
    seen.clear(), slopes.clear()
    root, iterations, _ = polish({0.5: 0.25, 2.5: 0.7})
    assert seen[:2] == [0.5, 2.5] and 0.0 < seen[2] < 0.5
    assert (root, iterations) == (1.0, len(seen))
    assert slopes == seen[:-1]  # never at the accepted iterate

    # a target equal to the start, or outside the bracket: the start is the root
    for step in (math.inf, 0.0, 0.1, -1.0):
        seen.clear(), slopes.clear()
        assert polish({0.5: step}) == (0.5, 1, 0.5)
        assert slopes == [0.5]



def mp_margin(n: int, x: mp.mpf) -> mp.mpf:
    """Equal-split margin 2K(x/2 + pi/2 - pi/n) - K(x) from the arccosh form."""
    return 2 * mp_half_side(n, x / 2 + mp.pi / 2 - mp.pi / n) - mp_half_side(n, x)


# Measured worst cases over every n in [3, 10^6], against mpmath: 4.8e-14
# for theta (at n = 680172) and 2.2e-12 for max_area (at n = 680172). Both
# are the margin's rounding noise over its slope in t; max_area = n*t keeps
# t's relative error, which no cancellation against (n - 2)*pi inflates.
THETA_REL_TOL = 1e-13
AREA_REL_TOL = 2.5e-12


def mp_root(n: int, theta: float) -> mp.mpf:
    """The exact margin's root next to theta, at the working precision."""
    # a sign change of the exact margin 1e-9 around theta proves a root
    # there; the margin has no other root below the inflection point
    lo, hi = mp.mpf(theta) * (1 - mp.mpf(1e-9)), mp.mpf(theta) * (1 + mp.mpf(1e-9))
    assert mp_margin(n, lo) < 0 < mp_margin(n, hi)
    return mp.findroot(lambda x: mp_margin(n, x), (lo, hi), solver="anderson")


@given(log_n=st.floats(min_value=math.log(3), max_value=math.log(10**6)))
@example(log_n=math.log(125304))
@example(log_n=math.log(501187))
@example(log_n=math.log(680172))
@example(log_n=math.log(10**6))
@settings(deadline=None, max_examples=60)
def test_critical_angle_matches_high_precision_root(log_n):
    n = min(max(round(math.exp(log_n)), 3), 10**6)
    theta = critical_angle(n).critical_angle
    with mp.workdps(40):
        root = mp_root(n, theta)
        assert abs((theta - root) / root) <= THETA_REL_TOL


@given(log_n=st.floats(min_value=math.log(3), max_value=math.log(10**6)))
@example(log_n=math.log(599885))
@example(log_n=math.log(667986))
@example(log_n=math.log(680172))
@example(log_n=math.log(10**6))
@settings(deadline=None, max_examples=60)
def test_max_area_matches_high_precision_root(log_n):
    n = min(max(round(math.exp(log_n)), 3), 10**6)
    res = critical_angle(n)
    with mp.workdps(40):
        area = (n - 2) * mp.pi - n * mp_root(n, res.critical_angle)
        assert abs((res.max_area - area) / area) <= AREA_REL_TOL
