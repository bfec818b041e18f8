"""Benchmark of isoperim.

    python3 bench/run.py --workload theta_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

For each workload it makes the inputs from the seed, runs them in WORKERS
fresh single-threaded worker processes (worker.py), one after the other,
for about --seconds in all, checks every output against independent
references (checks.py), writes a run record under .bench_runs/ and prints,
as its last line, one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. Run it from the root of a source tree; the
package is imported from its src/ directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

import checks
import inputs
from tracing import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RECORDS = os.path.join(ROOT, ".bench_runs")
DEFAULT_SEED = 1
# Digits reported when every checked output equals its reference exactly.
DIGITS_CAP = 17.0
# Worker processes per run, one after the other; each measures an equal
# share of --seconds. Several processes average out the few-percent speed
# differences between processes of the same code.
WORKERS = 2
# Fresh interpreters spawned over a run to sample the import time.
SETUP_SAMPLES = 16
# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
# The whole run, references included, must end well inside three minutes.
WORKER_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "min_correct_digits": "digits",
}
PER_LAYER = {
    "analysis.calls_per_op": "count/op",
    "analysis.self_ms_per_op": "ms/op",
    "threshold.solves_per_op": "count/op",
    "threshold.iterations_per_solve": "count",
    "threshold.self_ms_per_op": "ms/op",
    "threshold.hit_ratio": "ratio",
    "geometry.calls_per_op": "count/op",
    "geometry.self_ms_per_op": "ms/op",
    "configurations.calls_per_op": "count/op",
    "configurations.self_ms_per_op": "ms/op",
    "cli.self_ms_per_op": "ms/op",
    "cli.bytes_out_per_op": "B/op",
    "import.modules": "count",
    "import.self_ms": "ms",
    "trace.overhead": "ratio",
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_worker(workload: str, seconds: float, trace: int, probes: int, ops: list[dict]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    job = json.dumps({"workload": workload, "seconds": seconds, "trace": trace, "probes": probes, "ops": ops})
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=job, capture_output=True, text=True, env=env, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _position_medians(rounds: list[list[float]]) -> list[float]:
    return [statistics.median(col) for col in zip(*rounds)]


def _tail(values: list[float]) -> float:
    """Value at the highest percentile that has TAIL_BEYOND samples beyond it."""
    return sorted(values)[len(values) - TAIL_BEYOND - 1]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def end_to_end(workers: list[dict]) -> dict:
    """Timing metrics over the untraced rounds of every worker process.

    Each sample position of a round is one operation (or one fixed batch)
    that every round repeats; its time is the median over all rounds, and
    the percentiles are taken over positions, so they do not depend on how
    many rounds a run fits in.
    """
    plain = [r for w in workers for r in w["rounds"] if not r["traced"]]
    positions = _position_medians([r["op_ms"] for r in plain])
    ops = workers[0]["ops_per_round"] * len(plain)
    return {
        "setup_s": statistics.median(p["setup_s"] for w in workers for p in w["probes"]),
        "ops_per_s": ops / (sum(r["busy_ms"] for r in plain) / 1e3),
        "op_p50_ms": statistics.median(positions),
        "op_tail_ms": _tail(positions),
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
    }


def per_layer(workers: list[dict], workload: str) -> dict:
    """Per-operation layer counts and calibrated self times over the traced rounds."""
    calls, self_ms = Counter(), Counter()
    solves = hits = iterations = 0
    for w in workers:
        calls.update(w["trace"]["calls"])
        self_ms.update(w["trace"]["self_ms"])
        solves += w["trace"]["solves"]
        hits += w["trace"]["hits"]
        iterations += w["trace"]["iterations"]
    ops = sum(w["ops_per_round"] for w in workers for r in w["rounds"] if r["traced"])
    m = {}
    for layer in ("analysis", "geometry", "configurations"):
        m[f"{layer}.calls_per_op"] = calls[layer] / ops
    m["threshold.solves_per_op"] = solves / ops
    m["threshold.iterations_per_solve"] = _ratio(iterations, solves)
    m["threshold.hit_ratio"] = _ratio(hits, hits + solves)
    for layer in LAYERS:
        m[f"{layer}.self_ms_per_op"] = self_ms[layer] / ops
    m["cli.bytes_out_per_op"] = 0.0
    if workload == "cli_session":
        out = workers[0]["outputs"]
        m["cli.bytes_out_per_op"] = sum(len(o[1].encode()) + len(o[2].encode()) for o in out) / len(out)
    probes = [p for w in workers for p in w["probes"]]
    m["import.modules"] = float(statistics.median(p["modules"] for p in probes))
    m["import.self_ms"] = statistics.median(p["import_ms"] for p in probes)
    traced = _position_medians([r["op_ms"] for w in workers for r in w["rounds"] if r["traced"]])
    plain = _position_medians([r["op_ms"] for w in workers for r in w["rounds"] if not r["traced"]])
    m["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS) + ["all"],
                        help="one workload, or all four one after the other")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "isoperim", "__init__.py")):
        print(f"no isoperim package under {SRC}: run from a source tree", file=sys.stderr)
        return 2
    for workload in inputs.WORKLOADS if args.workload == "all" else [args.workload]:
        run(workload, args.seed, args.seconds, args.trace)
    return 0


def run(workload: str, seed: int, seconds: int, trace: int) -> None:
    """Measure and check one workload; print its metrics, its result line last."""
    ops = inputs.make(workload, seed)
    if len(ops) < 4 * TAIL_BEYOND:
        raise SystemExit(f"{len(ops)} samples per round leave no tail percentile")
    workers = [
        run_worker(workload, seconds / WORKERS, trace, SETUP_SAMPLES // WORKERS, ops)
        for _ in range(WORKERS)
    ]

    t0 = time.perf_counter()
    checker = checks.check(workload, ops, workers[0]["outputs"])
    check_s = time.perf_counter() - t0
    if not all(w["repeat_ok"] and w["outputs"] == workers[0]["outputs"] for w in workers):
        checker.problems.append("outputs differ between rounds or between worker processes")
    for problem in checker.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    metrics = end_to_end(workers)
    err = checker.max_err
    metrics["min_correct_digits"] = DIGITS_CAP if err == 0 else min(DIGITS_CAP, -math.log10(err))
    layers = per_layer(workers, workload) if trace else {}
    shown, units = (layers, PER_LAYER) if trace else (metrics, END_TO_END)
    out = {
        "correct": not checker.problems,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": {k: {"value": shown[k], "unit": u} for k, u in units.items()},
    }

    import numpy  # only for its version in the record; imported after the workers ran

    plain = [r for w in workers for r in w["rounds"] if not r["traced"]]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "problems": checker.problems,
        "checked": checker.checked,
        "max_rel_err": err,
        "max_rel_err_at": checker.worst,
        "check_s": check_s,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "layers": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layers.items()},
        "workers": len(workers),
        "rounds": [len(w["rounds"]) for w in workers],
        "samples_per_round": len(ops),
        "loop_kind": workers[0]["loop_kind"],
        "loop_raw_ms": [w["loop_raw_ms"] for w in workers],
        "raw_op_p50_ms": statistics.median(_position_medians([r["raw_op_ms"] for r in plain])),
        "position_ms": _position_medians([r["op_ms"] for r in plain]),
        "setup_samples_s": [p["setup_s"] for w in workers for p in w["probes"]],
        "spans": [s for w in workers for s in w.get("trace", {}).get("spans", [])],
    }
    os.makedirs(RECORDS, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    with open(os.path.join(RECORDS, name), "w") as f:
        json.dump(record, f, indent=1)

    for k, m in out["metrics"].items():
        print(f"{workload:12s} {k:32s} {m['value']:.6g} {m['unit']}")
    print(f"{workload:12s} attempted {out['attempted']} failed {out['failed']} correct {out['correct']} "
          f"loop_raw_ms {statistics.median(record['loop_raw_ms']):.4f} record .bench_runs/{name}")
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
