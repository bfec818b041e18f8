"""Reference loop that turns wall times into calibrated times.

The host runs the same CPU-bound Python code at different speeds from one
moment to the next, set from outside the process, so raw wall times of
one build drift between runs. The benchmark therefore runs this fixed loop
after every timed operation (or batch of operations) and reports

    calibrated = raw / local loop time * NOMINAL_LOOP_MS

where the local loop time is the mean of the loops run just before and
just after that operation: the speed changes within a second, so only the
adjacent loops track it. The loop exercises what the library spends its
time on: frozen-dataclass construction, a closure call and `math`
functions. Work
dominated by many small numpy calls (the grid oracle) keeps its own speed
apart from plain bytecode, so its loop adds such calls ("numpy" kind).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

LOOP_REPS = 300
NUMPY_REPS = 10
# Wall time of one reference loop of each kind taken as the unit of
# calibrated time; close to the loop's median on the machine it was set on.
NOMINAL_LOOP_MS = {"python": 0.4, "numpy": 0.5}


@dataclass(frozen=True)
class _Point:
    a: float
    b: float


def reference_loop() -> float:
    """Fixed work whose duration tracks the speed the interpreter runs at."""
    acc = 0.0
    scale = 1.5

    def f(x: float) -> float:
        return math.acosh(scale + x * x) + math.cos(x)

    for i in range(LOOP_REPS):
        p = _Point(i * 1e-3, 0.5)
        acc += f(p.a) * math.sin(p.b)
    return acc


def numpy_loop() -> float:
    """The reference loop plus the small-array numpy calls of a grid search."""
    import numpy as np  # here, so that workers timed with the python loop never load numpy

    table = np.linspace(1.0, 2.0, 4 * NUMPY_REPS + 1)
    top = 4 * NUMPY_REPS
    best = reference_loop()
    for s in range(1, NUMPY_REPS + 1):
        a = np.arange(s, top // 2 - s // 2)
        cand = 0.5 + table[a] + table[top - a]
        best = min(best, float(cand[int(np.argmin(cand))]))
    return best


LOOPS = {"python": reference_loop, "numpy": numpy_loop}


def time_loop(kind: str = "python") -> float:
    """Wall seconds of one reference loop of the given kind."""
    loop = LOOPS[kind]
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


def calibrate(raw: list[float], loops: list[float], kind: str = "python") -> list[float]:
    """Calibrated milliseconds for raw seconds; loops[i] and loops[i + 1] ran around raw[i]."""
    nominal = NOMINAL_LOOP_MS[kind]
    return [r / ((loops[i] + loops[i + 1]) / 2) * nominal for i, r in enumerate(raw)]
