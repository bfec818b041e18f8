"""The benchmark's mpmath references reproduce the frozen values of the test suite.

    python3 -m pytest bench/test_reference.py
"""

import importlib.util
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402


def _frozen():
    path = os.path.join(os.path.dirname(HERE), "tests", "conftest.py")
    spec = importlib.util.spec_from_file_location("frozen_values", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FROZEN = _frozen()


@pytest.mark.parametrize("n, name", [(3, "THETA_3"), (4, "THETA_4"), (5, "THETA_5")])
def test_theta(n, name):
    assert float(ref.theta(n)) == pytest.approx(getattr(FROZEN, name), rel=1e-15)


def test_inflection():
    assert float(ref.inflection(3)) == pytest.approx(FROZEN.X0_3, rel=1e-15)


def test_max_area():
    assert float(ref.max_area(3)) == pytest.approx(FROZEN.MAX_AREA_3, rel=1e-15)


def test_side_and_exhaustive_search():
    assert float(ref.side(ref.HYPERBOLIC, 3, math.pi / 2)) == pytest.approx(
        FROZEN.SIDE_AREA_HALF_PI, rel=1e-15
    )
    total, R = math.pi - 0.3, 20
    perims = [math.inf] + [float(ref.perimeter(ref.HYPERBOLIC, 3, u * total / R)) for u in range(1, R + 1)]
    parts, value = ref.exhaustive_min(perims, R, 4)
    assert parts == (10, 10)
    assert value == pytest.approx(FROZEN.EQ_SPLIT_PERIM_THETA_01, rel=1e-14)
