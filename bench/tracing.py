"""Span recording for the traced run, from outside the package.

Every public function of each layer module is replaced, in every isoperim
module that binds it, by a wrapper that records a span: its name, its
parent span, its duration and its self time (duration minus the time of
the spans it caused). Because the package calls across modules through
these bound names, the wrappers see every cross-layer call without any
change to the package. Spans are aggregated in memory by (name, parent).
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("analysis", "geometry", "threshold", "configurations", "cli")


def _public_functions(module) -> dict[int, tuple[str, object]]:
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            found[id(obj)] = (name, obj)
    return found


class Tracer:
    """Installs the span wrappers and accumulates what they record.

    `calls` and `sample_self` are per layer; `solves`, `hits` and
    `iterations` describe the calls of threshold.critical_angle: a solve
    evaluated a kernel and returned a result, a hit evaluated none.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.sample_self: dict[str, float] = defaultdict(float)
        self.spans: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.solves = 0
        self.hits = 0
        self.iterations = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"
        stack = self._stack
        pc = time.perf_counter
        is_solver = full == "threshold.critical_angle"

        def wrapper(*args, **kwargs):
            frame = [full, 0.0]
            stack.append(frame)
            kernels = self.calls["analysis"]
            t0 = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = pc() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                self_time = dt - frame[1]
                self.calls[layer] += 1
                self.sample_self[layer] += self_time
                agg = self.spans[(full, parent[0] if parent else "")]
                agg[0] += 1
                agg[1] += dt
                agg[2] += self_time
            if is_solver:
                if self.calls["analysis"] > kernels:
                    self.solves += 1
                    self.iterations += result.iterations
                else:
                    self.hits += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Bind the wrappers in every loaded isoperim module."""
        modules = [m for k, m in sys.modules.items() if k == "isoperim" or k.startswith("isoperim.")]
        targets = {}
        for layer in LAYERS:
            for key, (name, fn) in _public_functions(sys.modules[f"isoperim.{layer}"]).items():
                targets[key] = self._wrap(layer, name, fn)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = targets.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def take_sample(self) -> dict[str, float]:
        """Raw self seconds per layer since the previous call."""
        sample = dict(self.sample_self)
        self.sample_self.clear()
        return sample
