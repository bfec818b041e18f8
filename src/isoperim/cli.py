"""Command line interface with machine-readable JSON and CSV output.

Single-result commands print one JSON object per invocation; the scanning
commands print CSV for external plotting. All numbers are emitted with
full round-trip precision and all angles are radians (a --degrees flag
converts angular inputs on the way in). Exit codes: 0 success, 2 usage or
domain errors, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterable, Sequence
from functools import partial, reduce
from operator import add

from .analysis import (
    SplitFunctionParams,
    _margin_terms,
    equal_split_margin,
    half_side,
    split_objective,
)
from .configurations import (
    Configuration,
    assess_configuration,
    assess_two_split,
    counterexample_triangles,
)
from .errors import BracketError, ConvergenceError, DomainError
from .geometry import (
    MAX_SIDES,
    Geometry,
    RegularPolygon,
    _check_sides,
    _half_side,
    area_from_angle,
    side_length,
)
from .threshold import critical_angle

SCHEMA_VERSION = "1"

# Scans stay this far inside their open domains.
SCAN_STANDOFF = 1e-6
SCAN_SAMPLES = 1000

OUTPUT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "command", "inputs", "results"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"type": "string"},
        "inputs": {"type": "object"},
        "results": {"type": "object"},
        "diagnostics": {"type": "object"},
    },
    "additionalProperties": False,
}

ERROR_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "command", "error"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"type": "string"},
        "error": {
            "type": "object",
            "required": ["type", "message"],
            "properties": {
                "type": {"type": "string"},
                "message": {"type": "string"},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}


def _assert_finite(value: object) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise ConvergenceError(f"non-finite value {value} in output")
    if isinstance(value, dict):
        for v in value.values():
            _assert_finite(v)
    if isinstance(value, (list, tuple)):
        for v in value:
            _assert_finite(v)


def _emit_record(
    command: str,
    inputs: dict,
    results: dict,
    diagnostics: dict | None = None,
) -> None:
    record: dict = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
    }
    if diagnostics is not None:
        record["diagnostics"] = diagnostics
    try:
        text = json.dumps(record, separators=(",", ":"), allow_nan=False)
    except ValueError:
        _assert_finite(record)  # names the non-finite value
        raise
    print(text)


def _emit_error(command: str, exc: Exception) -> None:
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    print(json.dumps(record, separators=(",", ":")), file=sys.stderr)


def _emit_csv(header: Sequence[str], rows: Iterable[tuple]) -> None:
    # rows hold floats and ints only, and repr(int) is str(int)
    row = ",".join(["%r"] * len(header)) + "\n"
    sys.stdout.write(",".join(header) + "\n" + "".join(map(row.__mod__, rows)))


def _geometry(name: str) -> Geometry:
    try:
        return Geometry(name)
    except ValueError:
        raise DomainError(
            f"unknown geometry {name!r}; expected euclidean, spherical or hyperbolic"
        ) from None


def _maybe_radians(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _cmd_perim(args: argparse.Namespace) -> int:
    geometry = _geometry(args.geometry)
    if args.angle is not None:
        angle = _maybe_radians(args.angle, args.degrees)
        area = area_from_angle(geometry, args.n, angle)
        inputs = {"geometry": geometry.kind, "n": args.n, "angle": angle}
    else:
        area = args.area
        inputs = {"geometry": geometry.kind, "n": args.n, "area": area}
    polygon = RegularPolygon(geometry, args.n, area)
    side = side_length(polygon)
    _emit_record(
        "perim",
        inputs,
        {"area": polygon.area, "angle": polygon.angle, "side": side, "perimeter": args.n * side},
    )
    return 0


def _theta_row(n: int) -> tuple[int, float, float, float]:
    res = critical_angle(n)
    return n, res.critical_angle, res.inflection, res.max_area


def _cmd_theta(args: argparse.Namespace) -> int:
    if (args.n is None) == (args.range is None):
        raise DomainError("provide either a single side count or --range LO HI")
    if args.range is not None:
        lo, hi = args.range
        if lo < 3 or hi < lo or hi > MAX_SIDES:
            raise DomainError(
                f"range must satisfy 3 <= LO <= HI <= {MAX_SIDES}, got {lo}, {hi}"
            )
        rows = [_theta_row(n) for n in range(lo, hi + 1)]
        if args.format == "json":
            _emit_record("theta", {"range": [lo, hi]}, {"rows": [list(r) for r in rows]})
            return 0
    elif args.format != "csv":  # one side count defaults to JSON, a range to CSV
        res = critical_angle(args.n)
        _emit_record(
            "theta",
            {"n": args.n},
            {"theta": res.critical_angle, "x0": res.inflection, "max_area": res.max_area},
            {"iterations": res.iterations, "residual": res.residual},
        )
        return 0
    else:
        rows = [_theta_row(args.n)]
    _emit_csv(("n", "theta", "x0", "max_area"), rows)
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    geometry = _geometry(args.geometry)
    inputs: dict = {"geometry": geometry.kind, "n": args.n, "total_area": args.total_area}
    if args.areas is None:
        assessment = assess_two_split(geometry, args.n, args.total_area)
    else:
        areas = tuple(float(part) for part in args.areas.split(","))
        parts_sum = reduce(add, areas)  # left to right, as total_area adds
        if abs(parts_sum - args.total_area) > 1e-9:
            raise DomainError(
                f"areas sum to {parts_sum}, expected {args.total_area} within 1e-9"
            )
        inputs["areas"] = list(areas)
        assessment = assess_configuration(Configuration(geometry, args.n, areas))

    results: dict = {
        "verdict": assessment.verdict.value,
        "single_perimeter": assessment.single_perimeter,
        "config_perimeter": assessment.config_perimeter,
    }
    if args.areas is not None:
        results["part_perimeters"] = list(assessment.part_perimeters)
    if assessment.witness is not None:
        results["witness_areas"] = list(assessment.witness.areas)
    _emit_record("split", inputs, results)
    return 0


def _scan_grid(lo: float, hi: float) -> list[float]:
    """SCAN_SAMPLES equally spaced points from lo to hi, each end moved in by the standoff."""
    if not hi - lo > 2.0 * SCAN_STANDOFF:
        raise DomainError(f"scan domain ({lo}, {hi}) is narrower than the standoff")
    start, stop = lo + SCAN_STANDOFF, hi - SCAN_STANDOFF
    step = (stop - start) / (SCAN_SAMPLES - 1)
    return [start + i * step for i in range(SCAN_SAMPLES - 1)] + [stop]


def _cmd_scan(args: argparse.Namespace) -> int:
    modes = [m for m in ("phi", "g", "h") if getattr(args, m) is not None]
    if len(modes) != 1:
        raise DomainError("choose exactly one of --phi, --g or --h")
    mode = modes[0]

    if mode == "h":
        n = int(args.h[0])
        c = _maybe_radians(float(args.h[1]), args.degrees)
        params = SplitFunctionParams(n, c)
        lo, hi, check = params.lo, params.hi, partial(split_objective, params)
        inputs: dict = {"mode": "h", "n": n, "c": c}
    else:
        n = getattr(args, mode)
        _check_sides(n)
        lo, hi = 0.0, (n - 2) * math.pi / n
        check = partial(equal_split_margin if mode == "phi" else half_side, n)
        inputs = {"mode": mode, "n": n}
    xs = _scan_grid(lo, hi)
    # x, c - x and the margin's inner angle are monotone in x: the ends check every point
    for x in (min(xs), max(xs)):
        check(x)
    if mode == "h":
        values = [_half_side(n, x) + _half_side(n, c - x) for x in xs]
    elif mode == "phi":
        values = [_margin_terms(n, x, False)[0] for x in xs]
    else:
        values = [_half_side(n, x) for x in xs]

    if args.format == "json":
        _emit_record("scan", inputs, {"x": xs, "value": values})
    else:
        _emit_csv(("x", "value"), zip(xs, values))
    return 0


def _cmd_counterexample(args: argparse.Namespace) -> int:
    epsilon = _maybe_radians(args.epsilon, args.degrees)
    result = counterexample_triangles(epsilon)
    _emit_record(
        "counterexample",
        {"epsilon": epsilon},
        {
            "split_perimeter": result.split_perimeter,
            "single_perimeter": result.single_perimeter,
            "margin": result.margin,
            "areas": list(result.config.areas),
            "single_area": result.single.area,
        },
    )
    return 0


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Parser with every command, or with only `command`'s; the usage lists every name."""
    parser = argparse.ArgumentParser(
        prog="isoperim",
        description="Perimeter-minimal configurations of regular n-gons in the "
        "Euclidean, spherical and hyperbolic planes.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_HANDLERS) + "}" if command else None)

    if command in (None, "perim"):
        p = sub.add_parser("perim", help="area, angle, side and perimeter of one polygon")
        p.add_argument("geometry", help="euclidean, spherical or hyperbolic")
        p.add_argument("n", type=int, help="side count")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--area", type=float, help="polygon area")
        group.add_argument("--angle", type=float, help="interior angle (curved planes only)")
        p.add_argument("--degrees", action="store_true", help="angular inputs are degrees")

    if command in (None, "theta"):
        t = sub.add_parser("theta", help="critical angle, inflection point and area bound")
        t.add_argument("n", type=int, nargs="?", help="side count")
        t.add_argument("--range", type=int, nargs=2, metavar=("LO", "HI"),
                       help="emit CSV rows for every side count in [LO, HI]")
        t.add_argument("--format", choices=("json", "csv"), default=None)

    if command in (None, "split"):
        s = sub.add_parser("split", help="compare a split of an area against one polygon")
        s.add_argument("geometry", help="euclidean, spherical or hyperbolic")
        s.add_argument("n", type=int, help="side count")
        s.add_argument("--total-area", type=float, required=True, dest="total_area")
        s.add_argument("--areas", type=str, default=None,
                       help="comma-separated part areas; must sum to the total")

    if command in (None, "scan"):
        c = sub.add_parser("scan", help="sample an analysis function on a uniform grid")
        c.add_argument("--phi", type=int, metavar="N", help="equal-split margin for side count N")
        c.add_argument("--g", type=int, metavar="N", help="half-side kernel for side count N")
        c.add_argument("--h", nargs=2, metavar=("N", "C"),
                       help="two-split objective for side count N and angle sum C")
        c.add_argument("--format", choices=("json", "csv"), default="csv")
        c.add_argument("--degrees", action="store_true", help="angular inputs are degrees")

    if command in (None, "counterexample"):
        x = sub.add_parser("counterexample", help="two hyperbolic triangles against one")
        x.add_argument("--epsilon", type=float, required=True,
                       help="interior angle of the single thin triangle")
        x.add_argument("--degrees", action="store_true", help="angular inputs are degrees")

    return parser


_HANDLERS = {
    "perim": _cmd_perim,
    "theta": _cmd_theta,
    "split": _cmd_split,
    "scan": _cmd_scan,
    "counterexample": _cmd_counterexample,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in _HANDLERS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the stream; not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ValueError as exc:  # DomainError and ArgumentError among them
        _emit_error(args.command, exc)
        return 2
    except (ConvergenceError, BracketError) as exc:
        _emit_error(args.command, exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
