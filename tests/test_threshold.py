import math
import re
from fractions import Fraction
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
    """The solver's start t0 for n: threshold.ROOTS, or threshold.SERIES whatever its length."""
    a, series = math.pi / n, threshold.SERIES
    if n < threshold.START_TERMS_FROM:
        return series[0] * a ** (1.0 / 3.0) + series[1] * a
    if n < threshold.SERIES_FROM:
        return threshold.ROOTS[n - threshold.START_TERMS_FROM]
    e = a ** (1.0 / 3.0)
    e -= (e - a / (e * e)) / 3.0
    t = 0.0
    for c in reversed(series):  # Horner in e**2, as the solver's inline form
        t = t * (e * e) + c
    return e * t


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
        """(x, margin, floor) of each margin evaluation."""
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
    start, second = (x for x, _, _ in spy.margins[:2])
    assert (start, second) == (flat - t0, flat - 0.5 * (t0 + flat))
    assert res.critical_angle == pytest.approx(THETA_4, rel=1e-12)
    assert res.iterations <= 10  # plain bisection takes about 50


def test_solver_errors_carry_n_bracket_and_residual(monkeypatch):
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
    assert str(err).endswith(" iterations: f(hi)=-inf")

    # a margin that is never positive: x0's end is never evaluated either
    # (concavity makes the true margin positive there), so the bracket
    # closes onto it, at a finite margin
    fake_kernels(monkeypatch, lambda s: -1.0)  # the margin is -1
    with pytest.raises(ConvergenceError) as info:
        solve(5)
    err = info.value
    lo = domain_hi(5) - inflection_point(5)
    hi = math.nextafter(lo, math.inf)
    assert (err.n, err.bracket, err.residual) == (5, (lo, hi), 1.0)
    assert str(err).startswith(f"no root within the floor on [{lo}, {hi}] after ")
    assert str(err).endswith(" iterations: f(hi)=-1.0")


def test_margin_at_x0_is_far_above_its_floor():
    # the solve takes its bracket's end t = flat - x0 as positive with no
    # evaluation: K is concave on [x0, flat) and K(flat) = 0, so Jensen's
    # inequality gives 2K((x0 + flat)/2) - K(x0) >= 0. Formed as the solve
    # forms a margin, it clears its floor 4*eps*(2K(inner) + K(x0)) by far:
    # measured at least 9.9e11 times, at n = 10**6, over every n in [3, 10**6]
    for n in [*range(3, 51), *range(3, 10**6 + 1, 997), 10**6]:
        x0 = inflection_point(n)
        h = 0.5 * (geometry._flat(n) - x0)
        outer = 2.0 * geometry._half_side(n, x0 + h, -0.5 * h)
        k = geometry._half_side(n, x0, -h)
        assert outer - k >= 1e9 * threshold._FLOOR_EPS * (outer + k), n


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
        " f(hi)=-1.0"
    )


def test_first_iterate_inside_the_bracket_only(monkeypatch):
    # n = 4's start lies inside its bracket; n = 3's lies below it (t0 < 0),
    # so the first iterate is the midpoint of [flat - x0, flat)
    flat3 = domain_hi(3)
    assert start_of(3) < 0.0
    for n, first in ((4, start_of(4)), (3, 0.5 * (flat3 - inflection_point(3) + flat3))):
        spy = Spy(monkeypatch)
        solve(n)
        assert spy.margins[0][0] == domain_hi(n) - first


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
    # The README's "Library quick tour" runs as written, and each value its
    # comments quote is what that line computes: Theta(3) by its repr, the
    # other numbers to the digits quoted.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"## Library quick tour\s+```python\n(.*?)```", readme, re.S).group(1)
    quoted = dict(re.findall(r"^([^#\n]+?) +# (.+)$", tour, re.M))  # expression: comment
    assert len(quoted) == 7  # each is checked below
    ns: dict = {}
    exec(tour, ns)

    def value(expression):
        return eval(expression, ns)

    def digits(text):  # the number after "~", and its last decimal place
        number = text.split("~")[1].strip()
        return float(number), len(number.split(".")[1])

    side = math.acosh(3.0 + 2.0 * math.sqrt(3.0))
    assert quoted["tri.angle, tri.side, tri.perimeter"] == "pi/6, arccosh(3+2*sqrt(3)), 3*that"
    assert value("tri.angle, tri.side, tri.perimeter") == pytest.approx(
        (math.pi / 6.0, side, 3.0 * side), rel=1e-14
    )
    theta = value("res.critical_angle")
    assert quoted["res.critical_angle"] == repr(theta) == repr(critical_angle(3).critical_angle)
    assert quoted["res.max_area"].startswith("pi - 3*Theta ~")
    assert value("res.max_area") == pytest.approx(math.pi - 3.0 * theta, rel=1e-14)
    number, places = digits(quoted["res.max_area"])
    assert round(value("res.max_area"), places) == number
    assert quoted["verdict.verdict.value"] == repr(value("verdict.verdict.value"))
    half = (math.pi - 0.3) / 2.0
    assert quoted["verdict.witness.areas"] == "the equal split"
    assert value("verdict.witness.areas") == (half, half)
    number, places = digits(quoted["counterexample_triangles(0.1).margin"])
    assert round(value("counterexample_triangles(0.1).margin"), places) == number
    assert value("best.k") == int(quoted["best.k"])


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
    # over the side counts of `theta --range 3 2000`: the margin once per
    # iterate, the slope never at the accepted one
    ns = range(3, 2001)
    margin_count = slope_count = 0
    for n in ns:
        spy = Spy(monkeypatch)
        res = solve(n)
        margins, slopes = spy.margins, spy.slopes
        assert margins[-1][0] not in slopes  # the last margin is at the accepted t
        assert (len(margins), len(slopes)) == (res.iterations, res.iterations - 1)
        margin_count, slope_count = margin_count + len(margins), slope_count + len(slopes)
    # measured 1.0145 and 0.0145, the 1993 n from START_TERMS_FROM on at 1 and 0
    assert margin_count / len(ns) <= 1.015 and slope_count / len(ns) <= 0.015


# ------------------------------------------------ the series of the root
#
# Truncated power series in e = (pi/n)**(1/3), as lists of Fractions: the
# coefficient of e**k at index k, through e**degree.

# t/e's coefficients of e**0, e**2, ..., e**24, as threshold.SERIES rounds
# them, and the first one it leaves out: t's e**27 coefficient is zero, its
# e**29 coefficient this
SERIES_TERMS = [4, -4, Fraction(56, 45), Fraction(-268, 567), 0, Fraction(1352, 8019),
                Fraction(-47504, 426465), 0, Fraction(289976, 5019165),
                Fraction(-45603556, 1060224795), 0, Fraction(42011744, 1650124305),
                Fraction(-451723252, 22599528525)]
SERIES_REMAINDER = Fraction(75229194016, 5898476945025)


def _mul(p, q, degree):
    r = [Fraction(0)] * (degree + 1)
    for i, pi in enumerate(p[: degree + 1]):
        if pi:
            for j, qj in enumerate(q[: degree + 1 - i]):
                r[i + j] += pi * qj
    return r


def _compose(coefficients, p, degree):
    """sum_k coefficients[k]*p**k, for p with no constant term."""
    r, power = [Fraction(0)] * (degree + 1), [Fraction(1)] + [Fraction(0)] * degree
    for c in coefficients[: degree + 1]:
        r = [x + c * y for x, y in zip(r, power)]
        power = _mul(power, p, degree)
    return r


def _sqrt(p):
    """The square root of p, whose constant term is the square of a fraction."""
    r0 = Fraction(math.isqrt(p[0].numerator), math.isqrt(p[0].denominator))
    assert r0 * r0 == p[0]
    r = [r0]
    for k in range(1, len(p)):
        r.append((p[k] - sum(r[i] * r[k - i] for i in range(1, k))) / (2 * r0))
    return r


def series_margin(t, degree):
    """The margin 2K(t/2) - K(t) for a deficit series t, with a = e**3.

    K(s) = acosh(cos(a)/cos(a + s/2)) = sqrt(2w)*F(w), where 1 + w is the
    quotient and F(w) = 2F1(1/2, 1/2; 3/2; -w/2); w starts at e**2, so
    sqrt(2w) = e*sqrt(2w/e**2).
    """
    top = degree + 2  # sqrt(2w) loses two degrees to the shift
    fact = [Fraction(1, math.factorial(k)) for k in range(top + 1)]
    cos = [(-1) ** (k // 2) * f if k % 2 == 0 else 0 for k, f in enumerate(fact)]
    hyp = [Fraction(1)]
    for k in range(top):
        hyp.append(hyp[-1] * Fraction(-1, 2) * Fraction(2 * k + 1, 2) ** 2 / (Fraction(2 * k + 3, 2) * (k + 1)))
    a = [Fraction(int(k == 3)) for k in range(top + 1)]
    cos_a = _compose(cos, a, top)

    def k(s):
        cos_u = _compose(cos, [x + y / 2 for x, y in zip(a, s)], top)
        inverse = [Fraction(1)]  # 1/cos(u), cos_u starting at 1
        for j in range(1, top + 1):
            inverse.append(-sum(cos_u[i] * inverse[j - i] for i in range(1, j + 1)))
        w = _mul(cos_a, inverse, top)
        w[0] -= 1
        assert w[0] == w[1] == 0
        root = [Fraction(0)] + _sqrt([2 * x for x in w[2:]])  # sqrt(2w), through e**(top - 1)
        return _mul(root, _compose(hyp, w, top), degree)

    return [2 * x - y for x, y in zip(k([x / 2 for x in t]), k(t))]


def derived_series(terms):
    """The first `terms` coefficients c of t = e*(c[0] + c[1]*e**2 + ...).

    The margin of t = c0*e is (1 - c0**3/64)*e**3 + ..., so c0 = 4; a change
    d*e**(2k + 1) in t changes the margin first at e**(2k + 3), by -3d/4, so
    c[k] is 4/3 of the margin's e**(2k + 3) coefficient with c[k] = 0.
    """
    degree = 2 * terms + 1
    c = [Fraction(4)]
    for k in range(1, terms):
        t = [Fraction(0)] * (degree + 1)
        for j, cj in enumerate(c):
            t[2 * j + 1] = cj
        margin = series_margin(t, degree)
        assert not any(margin[: 2 * k + 3])  # zero through e**(2k + 2)
        c.append(Fraction(4, 3) * margin[2 * k + 3])
    return c


def test_series_coefficients_derived_exactly():
    # the margin vanishes through e**29 for the solver's ten nonzero terms and
    # zero e**9, e**15, e**21 and e**27 terms, so they are the root's series
    # through e**27 (de Bruijn, Asymptotic Methods in Analysis, ch. 2)
    assert derived_series(15) == SERIES_TERMS + [0, SERIES_REMAINDER]
    assert threshold.SERIES == tuple(map(float, SERIES_TERMS))
    t = [Fraction(0)] * 30
    for k, ck in enumerate(SERIES_TERMS):
        t[2 * k + 1] = Fraction(ck)
    assert not any(series_margin(t, 29))


def test_start_coefficients_from_high_precision_roots():
    # independently of derived_series: in 150-digit roots of the margin in t,
    # t minus its series is SERIES_REMAINDER*e**29 + O(e**31), for
    # e = (pi/n)**(1/3): so it falls like a**(29/3) in a = pi/n, which a wrong
    # coefficient of e**k, k <= 27, would turn into a**(k/3). Measured: the
    # quotient 8.1e-6, 3.7e-7 and 1.7e-8 relative below SERIES_REMAINDER, as
    # an e**31 term of -0.0103 gives. (At 120 digits the margin's cancellation
    # puts the quotient at 10**12 3.6e3 off.)
    remainders = []
    with mp.workdps(150):
        terms = [mp.mpf(ck.numerator) / ck.denominator for ck in map(Fraction, SERIES_TERMS)]
        for n in (10**8, 10**10, 10**12):
            a = mp.pi / n
            e, c = mp.cbrt(a), mp.cos(a)
            margin = lambda t: (  # noqa: E731
                2 * mp.acosh(c / mp.cos(a + t / 4)) - mp.acosh(c / mp.cos(a + t / 2))
            )
            series = e * mp.polyval(terms[::-1], e**2)
            t = mp.findroot(margin, series, tol=mp.mpf(10) ** -145)
            remainders.append((t - series, a, e))
        for r, a, e in remainders:
            assert abs(r / e**29 / SERIES_REMAINDER - 1) <= 1e-5
        for (ra, aa, _), (rb, ab, _) in zip(remainders, remainders[1:]):
            assert abs(mp.log(rb / ra) / mp.log(ab / aa) - mp.mpf(29) / 3) <= 1e-5


# From threshold.SERIES_FROM the series start is within the floor at every n
# to 10**6, so the solve stops at its first evaluation (measured over every n
# in [8, 10**6]; CI checks it on every push). Each n in [START_TERMS_FROM, 55)
# would go on to the solve from the series, from a start 6.0e-7 (n = 8) to
# 9.7e-15 (n = 54) relative off the root (8.1e-15 at n = 55): there the start
# is the tabulated root, threshold.ROOTS.
SERIES_ACCEPTED_FROM = threshold.SERIES_FROM


def test_roots_are_the_rounded_high_precision_roots():
    n0 = threshold.START_TERMS_FROM
    assert len(threshold.ROOTS) == SERIES_ACCEPTED_FROM - n0
    with mp.workdps(50):
        for n, t in enumerate(threshold.ROOTS, n0):
            flat = (n - 2) * mp.pi / n
            assert float(flat - mp_root(n, domain_hi(n) - t)) == t


def test_every_tabulated_root_is_accepted_at_one_evaluation(monkeypatch):
    spy = Spy(monkeypatch)
    ns = range(threshold.START_TERMS_FROM, SERIES_ACCEPTED_FROM)
    for n in ns:
        res = solve(n)
        assert (res.max_area, res.iterations) == (n * start_of(n), 1)
    assert len(spy.margins) == len(ns) and spy.slopes == []


@pytest.mark.parametrize(
    "n", [SERIES_ACCEPTED_FROM, 100, 1000, 10**4, 158489, 501187, 765935, 10**6]
)
def test_series_start_is_the_root_at_one_margin_evaluation(monkeypatch, n):
    spy = Spy(monkeypatch)
    res = solve(n)
    t = start_of(n)
    [(x, margin, floor)] = spy.margins
    assert x == domain_hi(n) - t
    assert spy.slopes == []
    assert (res.critical_angle, res.max_area, res.iterations) == (x, n * t, 1)
    assert res.residual == abs(margin) <= floor


def test_every_n_from_the_series_bound_takes_one_iteration(monkeypatch):
    spy = Spy(monkeypatch)
    ns = range(SERIES_ACCEPTED_FROM, 2001)
    assert all(solve(n).iterations == 1 for n in ns)
    assert len(spy.margins) == len(ns) and spy.slopes == []


@pytest.mark.parametrize("n", [
    threshold.START_TERMS_FROM, SERIES_ACCEPTED_FROM - 1, SERIES_ACCEPTED_FROM, 10**4, 765935,
])
def test_a_wrong_series_falls_back_to_the_solve(monkeypatch, n):
    # dropping the e**5 term puts the start 8e-3 (at SERIES_ACCEPTED_FROM) to
    # 2e-8 (at 765935) off the root, and scaling the tabulated roots by
    # 1 + 1e-9 puts theirs 1e-9 off, outside the floor: the loop goes on from it
    series = solve(n)
    monkeypatch.setattr(threshold, "SERIES", threshold.SERIES[:2] + (0.0,) + threshold.SERIES[3:])
    monkeypatch.setattr(threshold, "ROOTS", tuple(t * (1.0 + 1e-9) for t in threshold.ROOTS))
    t = start_of(n)
    spy = Spy(monkeypatch)
    res = solve(n)
    (x, margin, floor), *_ = spy.margins
    assert x == domain_hi(n) - t and abs(margin) > floor
    assert res.iterations > 1 and spy.slopes == [m[0] for m in spy.margins[:-1]]
    assert res.critical_angle == pytest.approx(series.critical_angle, rel=THETA_REL_TOL)
    assert res.max_area == pytest.approx(series.max_area, rel=AREA_REL_TOL)
    assert_near_the_root(res, THETA_REL_TOL, AREA_REL_TOL)


def mp_margin(n: int, x: mp.mpf) -> mp.mpf:
    """Equal-split margin 2K(x/2 + pi/2 - pi/n) - K(x) from the arccosh form."""
    return 2 * mp_half_side(n, x / 2 + mp.pi / 2 - mp.pi / n) - mp_half_side(n, x)


# The solve's bounds, below START_TERMS_FROM and for a start that falls
# back to it. Its measured worst cases over every n in [3, 10^6], against mpmath at 40
# digits: 4.71e-14 for theta and 2.256e-12 for max_area, both at n = 765935
# (680172 reads 1.08e-14 and 5.0e-13). Both
# are the margin's rounding noise over its slope in t; max_area = n*t keeps
# t's relative error, which no cancellation against (n - 2)*pi inflates.
THETA_REL_TOL = 1e-13
AREA_REL_TOL = 2.5e-12
# The series' bounds, each the series start accepted. Measured worst cases
# against mpmath at 40 digits over every n in [SERIES_ACCEPTED_FROM, 100):
# 6.33e-15 for theta and 8.09e-15 for max_area, both at n = 55, where the
# left-out e**29 term is 8e-15 of t. From n = 100 that term is below 3e-17 of
# t; over every n in [100, 10^6]: 3.78e-16 for theta (at n = 166) and 3.94e-16
# for max_area (at n = 796927).
SERIES_THETA_REL_TOL = 4e-16
SERIES_AREA_REL_TOL = 4e-16
SERIES_EDGE_THETA_REL_TOL = 7e-15
SERIES_EDGE_AREA_REL_TOL = 1e-14
# The tabulated roots' bounds, on [START_TERMS_FROM, SERIES_ACCEPTED_FROM).
# Measured worst cases against mpmath at 40 digits over every such n: 5.69e-16
# for theta (at n = 13, from rounding flat - t) and 1.49e-16 for max_area (at
# n = 48).
ROOTS_THETA_REL_TOL = 6e-16
ROOTS_AREA_REL_TOL = 2e-16


def rel_tols(n: int) -> tuple[float, float]:
    """The stated relative error bounds of theta and max_area at n."""
    if n >= 100:
        return SERIES_THETA_REL_TOL, SERIES_AREA_REL_TOL
    if n >= SERIES_ACCEPTED_FROM:
        return SERIES_EDGE_THETA_REL_TOL, SERIES_EDGE_AREA_REL_TOL
    if n >= threshold.START_TERMS_FROM:
        return ROOTS_THETA_REL_TOL, ROOTS_AREA_REL_TOL
    return THETA_REL_TOL, AREA_REL_TOL


def mp_root(n: int, theta: float) -> mp.mpf:
    """The exact margin's root next to theta, at the working precision."""
    # a sign change of the exact margin 1e-9 around theta proves a root
    # there; the margin has no other root below the inflection point
    lo, hi = mp.mpf(theta) * (1 - mp.mpf(1e-9)), mp.mpf(theta) * (1 + mp.mpf(1e-9))
    assert mp_margin(n, lo) < 0 < mp_margin(n, hi)
    return mp.findroot(lambda x: mp_margin(n, x), (lo, hi), solver="anderson")


def assert_near_the_root(res, theta_tol: float, area_tol: float) -> None:
    """res's theta and max_area within these relative errors of mpmath's root."""
    n = res.n
    with mp.workdps(40):
        root = mp_root(n, res.critical_angle)
        assert abs((res.critical_angle - root) / root) <= theta_tol
        area = (n - 2) * mp.pi - n * root
        assert abs((res.max_area - area) / area) <= area_tol


@given(log_n=st.floats(min_value=math.log(3), max_value=math.log(10**6)))
@example(log_n=math.log(13))
@example(log_n=math.log(55))
@example(log_n=math.log(166))
@example(log_n=math.log(10721))
@example(log_n=math.log(42980))
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
        assert abs((theta - root) / root) <= rel_tols(n)[0]


@given(log_n=st.floats(min_value=math.log(3), max_value=math.log(10**6)))
@example(log_n=math.log(48))
@example(log_n=math.log(55))
@example(log_n=math.log(999))
@example(log_n=math.log(1004))
@example(log_n=math.log(1017))
@example(log_n=math.log(796927))
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
        assert abs((res.max_area - area) / area) <= rel_tols(n)[1]


@pytest.mark.parametrize("n", [
    threshold.START_TERMS_FROM - 1, threshold.START_TERMS_FROM,
    SERIES_ACCEPTED_FROM - 1, SERIES_ACCEPTED_FROM, 99, 100,
])
def test_both_sides_of_the_series_threshold(monkeypatch, n):
    spy = Spy(monkeypatch)
    res = solve(n)
    assert (res.iterations == 1 and not spy.slopes) == (n >= threshold.START_TERMS_FROM)
    assert_near_the_root(res, *rel_tols(n))
