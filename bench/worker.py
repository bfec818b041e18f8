"""Run one workload's operations, timed and calibrated, in a process of their own.

Reads {"workload", "seconds", "trace", "probes", "ops"} as JSON on stdin
and writes one JSON object on stdout: the first round's outputs, whether
every later round repeated them exactly, the calibrated time of every
sample of every round, the import probes and, for a traced run, the layer
totals. Started by run.py, which checks the outputs and computes the metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from typing import NamedTuple

import calibration
from tracing import LAYERS, Tracer

from isoperim import cli, configurations, geometry, threshold

HERE = os.path.dirname(os.path.abspath(__file__))

_IMPORT_PROBE = f"""
import sys, time
before = len(sys.modules)
t0 = time.perf_counter()
import isoperim
t1 = time.perf_counter()
end = time.monotonic_ns()
after = len(sys.modules)
sys.path.insert(0, {HERE!r})
import calibration
loop = sorted(calibration.time_loop() for _ in range(3))[1]
print(end, after - before, t1 - t0, loop)
"""


def _package_modules():
    return [m for k, m in sys.modules.items() if k == "isoperim" or k.startswith("isoperim.")]


def cached_functions() -> list:
    """Every memoized function the package exposes, as a fresh process would start them."""
    found = {}
    for module in _package_modules():
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                found[id(obj)] = obj
    return list(found.values())


def _failure(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}


class Sample(NamedTuple):
    """One timed unit: a single operation, or a fixed batch of µs-scale ones."""

    run: Callable[[], tuple[object, int]]  # returns (outputs, operations failed)
    nops: int
    cold: bool  # clear the package's caches before each run


def theta_samples(ops: list[dict]) -> list[Sample]:
    def make(n: int):
        def run():
            try:
                r = threshold.critical_angle(n)
            except Exception as exc:  # a failed operation is counted, not fatal
                return _failure(exc), 1
            return [r.critical_angle, r.inflection, r.max_area, r.iterations], 0

        return run

    return [Sample(make(op["n"]), 1, True) for op in ops]


def oracle_samples(ops: list[dict]) -> list[Sample]:
    def make(op: dict):
        g = geometry.Geometry(op["geometry"])

        def run():
            try:
                best, perim = configurations.brute_force_min(
                    g, op["n"], op["total"], op["k_max"], op["resolution"]
                )
            except Exception as exc:
                return _failure(exc), 1
            return [list(best.areas), perim], 0

        return run

    return [Sample(make(op), 1, False) for op in ops]


def _assess(g, n, total):
    a = configurations.assess_two_split(g, n, total)
    witness = list(a.witness.areas) if a.witness is not None else None
    return [a.verdict.value, a.single_perimeter, a.config_perimeter, a.critical_angle, witness]


def _merge(n, parts):
    config = configurations.Configuration(geometry.Geometry.HYPERBOLIC, n, tuple(parts))
    a = configurations.merge_chain(config)
    witness = list(a.witness.areas) if a.witness is not None else None
    steps = [[s.pair_perimeter, s.merged_area, s.merged_perimeter] for s in a.merge_steps]
    return [a.verdict.value, a.single_perimeter, a.config_perimeter, a.critical_angle, witness, steps]


def _perimeter(g, n, area):
    return geometry.RegularPolygon(g, n, area).perimeter


def _counterexample(epsilon):
    r = configurations.counterexample_triangles(epsilon)
    return [r.split_perimeter, r.single_perimeter, r.margin]


_DECIDE = {"assess": _assess, "merge": _merge, "perimeter": _perimeter, "counterexample": _counterexample}


def decide_samples(ops: list[dict]) -> list[Sample]:
    def make(batch: dict):
        fn = _DECIDE[batch["kind"]]
        args = [
            [geometry.Geometry(a[0]), *a[1:]] if batch["kind"] in ("assess", "perimeter") else a
            for a in batch["args"]
        ]

        def run():
            outs, failed = [], 0
            for a in args:
                try:
                    outs.append(fn(*a))
                except Exception as exc:
                    outs.append(_failure(exc))
                    failed += 1
            return outs, failed

        return run

    return [Sample(make(b), len(b["args"]), False) for b in ops]


def cli_samples(ops: list[dict]) -> list[Sample]:
    def make(argv: list[str]):
        def run():
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except Exception as exc:
                return _failure(exc), 1
            return [code, out.getvalue(), err.getvalue()], int(code != 0)

        return run

    return [Sample(make(op["argv"]), 1, True) for op in ops]


# Reference-loop kind per workload; see calibration.py.
LOOP_KIND = {"oracle_grid": "numpy"}

SAMPLERS = {
    "theta_sweep": theta_samples,
    "oracle_grid": oracle_samples,
    "decide_mix": decide_samples,
    "cli_session": cli_samples,
}


def peak_rss_mb() -> float:
    """Peak resident set size of this process since it started.

    VmHWM counts this program's own memory only; ru_maxrss on Linux also
    keeps the parent's peak from before exec.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def import_probe() -> dict:
    """Wall time of a fresh interpreter from start until `import isoperim` returns."""
    t0 = time.monotonic_ns()
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True, check=True
    ).stdout.split()
    end, modules, import_s, loop_s = int(out[0]), int(out[1]), float(out[2]), float(out[3])
    return {
        "setup_s": (end - t0) / 1e9,
        "modules": modules,
        "import_ms": import_s / loop_s * calibration.NOMINAL_LOOP_MS["python"],
    }


def main() -> None:
    job = json.load(sys.stdin)
    samples = SAMPLERS[job["workload"]](job["ops"])
    seconds, trace = job["seconds"], bool(job["trace"])
    kind = LOOP_KIND.get(job["workload"], "python")
    caches = cached_functions()
    tracer = Tracer() if trace else None

    if job["workload"] == "decide_mix":
        for s in samples:  # warm the threshold cache: decisions run with warm caches
            s.run()

    first_outputs = None
    repeat_ok = True
    raw: list[float] = []  # raw seconds per sample, over all rounds
    loops = [calibration.time_loop(kind)]  # reference-loop seconds: one first, then one after each sample
    layer_self: list[dict] = []  # raw self seconds per layer, per traced sample
    round_kinds: list[bool] = []  # whether each round was traced
    probes: list[dict] = []
    attempted = failed = 0
    interval = seconds / job["probes"]
    pc = time.perf_counter
    start = pc()
    next_probe = start
    while True:
        traced = trace and len(round_kinds) % 2 == 1
        if traced:
            tracer.install()
        outputs = []
        for s in samples:
            if len(probes) < job["probes"] and pc() >= next_probe:
                probes.append(import_probe())
                while next_probe <= pc():  # slots missed while probing are skipped
                    next_probe += interval
                loops[-1] = calibration.time_loop(kind)  # keep the loop before the sample adjacent
            if s.cold:
                for fn in caches:
                    fn.cache_clear()
            t0 = pc()
            out, bad = s.run()
            raw.append(pc() - t0)
            if traced:
                layer_self.append(tracer.take_sample())
            loops.append(calibration.time_loop(kind))
            outputs.append(out)
            attempted += s.nops
            failed += bad
        if traced:
            tracer.remove()
        round_kinds.append(traced)
        if first_outputs is None:
            first_outputs = outputs
        elif outputs != first_outputs:
            repeat_ok = False
        if pc() - start >= seconds and (not trace or len(round_kinds) >= 2):
            break

    per = len(samples)
    nops = [s.nops for s in samples]
    ms = calibration.calibrate(raw, loops, kind)
    rounds = []
    for k, traced in enumerate(round_kinds):
        cut = slice(k * per, (k + 1) * per)
        rounds.append({
            "traced": traced,
            "op_ms": [m / n for m, n in zip(ms[cut], nops)],
            "raw_op_ms": [r * 1e3 / n for r, n in zip(raw[cut], nops)],
            "busy_ms": sum(ms[cut]),
        })
    result = {
        "outputs": first_outputs,
        "repeat_ok": repeat_ok,
        "attempted": attempted,
        "failed": failed,
        "ops_per_round": sum(nops),
        "loop_kind": kind,
        "loop_raw_ms": statistics.median(loops) * 1e3,
        "rounds": rounds,
        "probes": probes,
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        factors = [m / r for i, (m, r) in enumerate(zip(ms, raw)) if round_kinds[i // per]]
        result["trace"] = layer_totals(tracer, layer_self, factors)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


def layer_totals(tracer: Tracer, layer_self: list[dict], factors: list[float]) -> dict:
    """Counts and calibrated self times of each layer, summed over the traced rounds.

    factors[i] converts the raw seconds of traced sample i to calibrated ms.
    """
    self_ms = {layer: 0.0 for layer in LAYERS}
    for sample, factor in zip(layer_self, factors):
        for layer, seconds in sample.items():
            self_ms[layer] += seconds * factor
    return {
        "calls": dict(tracer.calls),
        "self_ms": self_ms,
        "solves": tracer.solves,
        "hits": tracer.hits,
        "iterations": tracer.iterations,
        "spans": [
            {"name": k[0], "parent": k[1], "count": v[0], "total_s": v[1], "self_s": v[2]}
            for k, v in sorted(tracer.spans.items())
        ],
    }


if __name__ == "__main__":
    main()
