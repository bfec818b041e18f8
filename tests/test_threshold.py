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
from isoperim import analysis, geometry, threshold

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


# ------------------------------------------------------------- the solver
#
# critical_angle's loop is the root finder and calls the scalar kernels
# itself, so its tests replace threshold._half_side and _half_side_d1, and
# solve past the cache.


def solve(n):
    return critical_angle.__wrapped__(n)


def start_of(n):
    """The solver's start t0 for n."""
    a = math.pi / n
    t0 = 4.0 * a ** (1.0 / 3.0) - 4.0 * a
    if n >= threshold.START_TERMS_FROM:
        t0 += a ** (5.0 / 3.0) * (56.0 / 45.0 - 268.0 / 567.0 * a ** (2.0 / 3.0))
    return t0


def fake_kernels(monkeypatch, psi):
    """Give the solver the half side psi(s) of the angle deficit s = flat - x.

    The solver passes the kernel d = -s/2, so its margin at t is
    2*psi(t/2) - psi(t), with the floor 4*eps*(2*psi(t/2) + psi(t)). The
    slope is 0, so every step bisects.
    """
    monkeypatch.setattr(threshold, "_half_side", lambda n, x, d: psi(-2.0 * d))
    monkeypatch.setattr(threshold, "_half_side_d1", lambda n, x: 0.0)


class Spy:
    """The solver's kernel calls, with the first slope scaled by first_slope.

    A margin evaluation at t calls _half_side at x = flat - t and at x + t/2,
    a slope evaluation _half_side_d1 at the same two angles; each is listed
    by its angle x.
    """

    def __init__(self, monkeypatch, first_slope=1.0):
        self.k, self.k1 = [], []
        half_side, half_side_d1 = geometry._half_side, analysis._half_side_d1

        def k(n, x, d):
            self.k.append((x, half_side(n, x, d)))
            return self.k[-1][1]

        def k1(n, x):
            self.k1.append(x)
            return (first_slope if len(self.k1) <= 2 else 1.0) * half_side_d1(n, x)

        monkeypatch.setattr(threshold, "_half_side", k)
        monkeypatch.setattr(threshold, "_half_side_d1", k1)

    @property
    def margins(self):
        """(x, margin, floor) of each margin evaluation, the first at x0."""
        found = []
        for pair in zip(self.k[::2], self.k[1::2]):
            (x, k), (_, outer) = sorted(pair)
            found.append((x, 2.0 * outer - k, threshold._FLOOR_EPS * (2.0 * outer + k)))
        return found

    @property
    def slopes(self):
        return [min(pair) for pair in zip(self.k1[::2], self.k1[1::2])]


@pytest.mark.parametrize("psi, root", [
    # psi = 1 + s*log2(s): the margin is 1 - t
    (lambda s: 1.0 + s * math.log2(s), 1.0),
    # psi = 2 + cos(4s): the margin 3 + 2c - 2c**2 in c = cos(2t)
    (lambda s: 2.0 + math.cos(4.0 * s), 0.5 * math.acos(0.5 * (1.0 - math.sqrt(7.0)))),
], ids=["linear", "cosine"])
def test_bisection_on_fake_margins(monkeypatch, psi, root):
    # on n = 4's bracket [0.427..., pi/2)
    fake_kernels(monkeypatch, psi)
    res = solve(4)
    assert res.max_area / 4 == pytest.approx(root, abs=1e-12)
    assert res.critical_angle == pytest.approx(domain_hi(4) - root, abs=1e-12)
    assert res.iterations > 30  # no Newton step


def test_bisection_on_the_margin_bracket(monkeypatch):
    monkeypatch.setattr(threshold, "_half_side_d1", lambda n, x: 0.0)
    res = solve(3)
    assert res.critical_angle == pytest.approx(THETA_3, abs=1e-10)
    assert res.iterations > 30


def test_solve_exhausts_its_iterations(monkeypatch):
    monkeypatch.setattr(threshold, "_half_side_d1", lambda n, x: 0.0)  # bisection
    monkeypatch.setattr(threshold, "MAX_ITERATIONS", 10)
    with pytest.raises(ConvergenceError) as info:
        solve(3)
    err = info.value
    lo, hi = err.bracket
    assert err.n == 3 and lo < domain_hi(3) - THETA_3 < hi
    # [flat - x0, flat), halved 10 times
    assert hi - lo == pytest.approx(inflection_point(3) / 2**10, rel=1e-12)
    assert " after 10 iterations: " in str(err)


def test_newton_falls_back_to_bisection_outside_bracket(monkeypatch):
    # at n = 4 the start lies below the root, and a first slope 1e-3 of the
    # true one sends its Newton target far past the open end: the next
    # iterate is the midpoint of [t0, flat), and Newton closes in from there
    spy = Spy(monkeypatch, first_slope=1e-3)
    res = solve(4)
    flat, t0 = domain_hi(4), start_of(4)
    _, start, second = (x for x, _, _ in spy.margins[:3])
    assert (start, second) == (flat - t0, flat - 0.5 * (t0 + flat))
    assert res.critical_angle == pytest.approx(THETA_4, rel=1e-12)
    assert res.iterations <= 10  # plain bisection takes about 50


def test_solver_errors_carry_n_bracket_and_residual(monkeypatch):
    x0 = inflection_point(3)
    flat = domain_hi(3)
    monkeypatch.setattr(threshold, "RESIDUAL_TOL", -1.0)
    with pytest.raises(ConvergenceError) as info:
        solve(3)
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

    def never_negative(s):
        assert s < flat4
        return 1.0  # the margin is 2 - 1

    fake_kernels(monkeypatch, never_negative)
    with pytest.raises(BracketError) as info:
        solve(4)
    err = info.value
    lo = math.nextafter(flat4, 0.0)
    assert (err.n, err.bracket, err.residual) == (4, (lo, flat4), 1.0)
    assert str(err).startswith(f"no root within the floor on [{lo}, {flat4}] after ")
    assert str(err).endswith(" iterations: f=1.0 and -inf")

    fake_kernels(monkeypatch, lambda s: -1.0)  # the margin is -1
    with pytest.raises(BracketError) as info:
        solve(5)
    assert (info.value.n, info.value.bracket, info.value.residual) == (5, None, None)
    assert str(info.value) == "margin not positive at the inflection point for n=5"


def test_solve_raises_when_the_bracket_closes(monkeypatch):
    # a margin stepping from 1 to -1 at t = 1.5 with no value within the
    # floor: the bracket closes to two adjacent floats, no iterate on an end
    fake_kernels(monkeypatch, lambda s: 1.0 if s < 1.5 else 3.0)
    with pytest.raises(ConvergenceError) as info:
        solve(7)
    err = info.value
    assert (err.n, err.bracket, err.residual) == (7, (math.nextafter(1.5, 0.0), 1.5), 1.0)
    assert str(err) == (
        "no root within the floor on [1.4999999999999998, 1.5] after 53 iterations:"
        " f=1.0 and -1.0"
    )


def test_first_iterate_inside_the_bracket_only(monkeypatch):
    # n = 4's start lies inside its bracket; n = 3's lies below it (t0 < 0),
    # so the first iterate is the midpoint of [flat - x0, flat)
    flat3 = domain_hi(3)
    assert start_of(3) < 0.0
    for n, first in ((4, start_of(4)), (3, 0.5 * (flat3 - inflection_point(3) + flat3))):
        spy = Spy(monkeypatch)
        solve(n)
        assert [x for x, _, _ in spy.margins[:2]] == [inflection_point(n), domain_hi(n) - first]


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
    ns = range(3, 2001)
    margin_count = slope_count = 0
    for n in ns:
        spy = Spy(monkeypatch)
        res = solve(n)
        margins, slopes = spy.margins, spy.slopes
        assert margins[-1][0] not in slopes  # the last margin is at the accepted t
        assert (len(margins), len(slopes)) == (res.iterations + 1, res.iterations - 1)
        margin_count, slope_count = margin_count + len(margins), slope_count + len(slopes)
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
def test_solve_stops_at_rounding_floor(monkeypatch, n, bound):
    spy = Spy(monkeypatch)
    res = solve(n)
    assert res.iterations <= bound
    x, margin, floor = spy.margins[-1]
    assert x == res.critical_angle and abs(margin) == res.residual <= floor


def test_solve_polishes_a_start_within_the_floor(monkeypatch):
    # at n = 158489 the start t0 is within the floor, 3.8e-14 above the root
    n = 158489
    flat, t0 = domain_hi(n), start_of(n)
    plain = solve(n)

    # its Newton target is the root: one slope, at the start
    spy = Spy(monkeypatch)
    assert solve(n) == plain and plain.iterations == 2
    (_, _, _), (start, margin, floor), (root, _, _) = spy.margins
    assert start == flat - t0 and abs(margin) <= floor and root == plain.critical_angle
    assert spy.slopes == [start]

    # a target outside the floor: a first slope of the wrong sign and 1e6
    # times too shallow sends it further above the root than the start; the
    # start did not narrow the bracket to below itself, so that target is
    # evaluated and the solve goes on from it
    spy = Spy(monkeypatch, first_slope=-1e-6)
    res = solve(n)
    angles = [x for x, _, _ in spy.margins]
    assert angles[1] == start and angles[2] < start
    assert abs(spy.margins[2][1]) > spy.margins[2][2]
    assert res.iterations == len(angles) - 1 and res.critical_angle == angles[-1]
    assert res.critical_angle == pytest.approx(plain.critical_angle, rel=THETA_REL_TOL)
    assert spy.slopes == angles[1:-1]  # never at the accepted iterate

    # a target that rounds onto the start (a slope 1e30 times too steep),
    # no slope, or a target outside the bracket: the start is the root
    for first_slope in (1e30, 0.0, 1e-300):
        spy = Spy(monkeypatch, first_slope=first_slope)
        res = solve(n)
        assert [x for x, _, _ in spy.margins] == [inflection_point(n), start]
        assert spy.slopes == [start]
        assert (res.critical_angle, res.max_area, res.iterations) == (start, n * t0, 1)


def mp_margin(n: int, x: mp.mpf) -> mp.mpf:
    """Equal-split margin 2K(x/2 + pi/2 - pi/n) - K(x) from the arccosh form."""
    return 2 * mp_half_side(n, x / 2 + mp.pi / 2 - mp.pi / n) - mp_half_side(n, x)


# Measured worst cases over every n in [3, 10^6], against mpmath at 40
# digits: 4.71e-14 for theta and 2.256e-12 for max_area, both at n = 765935
# (680172 reads 1.08e-14 and 5.0e-13). Both
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
@example(log_n=math.log(765935))
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
@example(log_n=math.log(765935))
@example(log_n=math.log(10**6))
@settings(deadline=None, max_examples=60)
def test_max_area_matches_high_precision_root(log_n):
    n = min(max(round(math.exp(log_n)), 3), 10**6)
    res = critical_angle(n)
    with mp.workdps(40):
        area = (n - 2) * mp.pi - n * mp_root(n, res.critical_angle)
        assert abs((res.max_area - area) / area) <= AREA_REL_TOL
