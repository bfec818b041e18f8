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
from functools import reduce
from operator import add

# Every command uses errors and geometry; each handler imports the other
# modules it calls, so a call loads only what its command needs.
from .errors import ArgumentError, BracketError, ConvergenceError, DomainError
from .geometry import (
    MAX_SIDES,
    Geometry,
    RegularPolygon,
    _check_sides,
    _flat,
    _half_sides,
    area_from_angle,
    side_length,
)

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


def _record(command: str, **fields) -> str:
    """One JSON record and its newline; non-finite numbers raise ConvergenceError.

    `fields` are a result's inputs, results and optional diagnostics, or an
    error's `error` object, in their schema's order.
    """
    record = {"schema_version": SCHEMA_VERSION, "command": command, **fields}
    try:
        text = json.dumps(record, separators=(",", ":"), allow_nan=False)
    except ValueError:
        _assert_finite(record)  # names the non-finite value
        raise
    return text + "\n"


def _csv(header: Sequence[str], rows: Iterable[tuple]) -> str:
    # rows hold floats and ints only, and repr(int) is str(int)
    row = ",".join(["%r"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join(map(row.__mod__, rows))


def _geometry(name: str) -> Geometry:
    try:
        return Geometry(name)
    except ValueError:
        raise DomainError(
            f"unknown geometry {name!r}; expected euclidean, spherical or hyperbolic"
        ) from None


def _maybe_radians(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _parse(kind: type, text: str, what: str):
    """kind(text), or a DomainError naming the argument `what` and the text."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise DomainError(f"{what} must be {noun}, got {text!r}") from None


def _cmd_perim(args: argparse.Namespace) -> str:
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
    return _record(
        "perim",
        inputs=inputs,
        results={"area": polygon.area, "angle": polygon.angle, "side": side,
                 "perimeter": args.n * side},
    )


def _cmd_theta(args: argparse.Namespace) -> str:
    from .threshold import critical_angle

    if (args.n is None) == (args.range is None):
        raise DomainError("provide either a single side count or --range LO HI")
    if args.range is not None:
        lo, hi = args.range
        if lo < 3 or hi < lo or hi > MAX_SIDES:
            raise DomainError(
                f"range must satisfy 3 <= LO <= HI <= {MAX_SIDES}, got {lo}, {hi}"
            )
    elif args.format != "csv":  # one side count defaults to JSON, a range to CSV
        res = critical_angle(args.n)
        return _record(
            "theta",
            inputs={"n": args.n},
            results={"theta": res.critical_angle, "x0": res.inflection, "max_area": res.max_area},
            diagnostics={"iterations": res.iterations, "residual": res.residual},
        )
    else:
        lo = hi = args.n
    rows = [(r.n, r.critical_angle, r.inflection, r.max_area)  # no n repeats: uncached
            for r in map(critical_angle.__wrapped__, range(lo, hi + 1))]
    if args.format == "json":
        return _record(
            "theta", inputs={"range": [lo, hi]}, results={"rows": [list(r) for r in rows]}
        )
    return _csv(("n", "theta", "x0", "max_area"), rows)


def _cmd_split(args: argparse.Namespace) -> str:
    from .configurations import Configuration, assess_configuration, assess_two_split

    geometry = _geometry(args.geometry)
    inputs: dict = {"geometry": geometry.kind, "n": args.n, "total_area": args.total_area}
    if args.areas is None:
        assessment = assess_two_split(geometry, args.n, args.total_area)
    else:
        areas = tuple(_parse(float, part, "each --areas part") for part in args.areas.split(","))
        parts_sum = reduce(add, areas)  # left to right, as total_area adds
        # k parts that add up to the total as decimals: k + 1 parse roundings and
        # k - 1 additions, each within 2**-53 relative, give to first order
        # |sum - total| <= (k + 1)*2**-53*max(sum |part|, |total|) <= band. NaN
        # fails the test, and so does an infinite band (an infinite total or sum).
        band = len(areas) * 2.0**-52 * max(sum(map(abs, areas)), abs(args.total_area))
        if not abs(parts_sum - args.total_area) <= band < math.inf:
            raise ArgumentError(
                f"areas sum to {parts_sum}, expected {args.total_area} within {band}"
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
    return _record("split", inputs=inputs, results=results)


def _scan_grid(lo: float, hi: float) -> list[float]:
    """SCAN_SAMPLES equally spaced points from lo to hi, each end moved in by the standoff."""
    if not hi - lo > 2.0 * SCAN_STANDOFF:
        raise DomainError(f"scan domain ({lo}, {hi}) is narrower than the standoff")
    start, stop = lo + SCAN_STANDOFF, hi - SCAN_STANDOFF
    step = (stop - start) / (SCAN_SAMPLES - 1)
    return [start + i * step for i in range(SCAN_SAMPLES - 1)] + [stop]


def _cmd_scan(args: argparse.Namespace) -> str:
    from .analysis import SplitFunctionParams, _margins

    modes = [m for m in ("phi", "g", "h") if getattr(args, m) is not None]
    if len(modes) != 1:
        raise DomainError("choose exactly one of --phi, --g or --h")
    mode = modes[0]

    if mode == "h":
        n = _parse(int, args.h[0], "side count N of --h")
        c = _maybe_radians(_parse(float, args.h[1], "angle sum C of --h"), args.degrees)
        params = SplitFunctionParams(n, c)
        lo, hi = params.lo, params.hi
        inputs: dict = {"mode": "h", "n": n, "c": c}
    else:
        n = getattr(args, mode)
        _check_sides(n)
        lo, hi = 0.0, _flat(n)
        inputs = {"mode": mode, "n": n}
    # N and C are checked, and each point lies SCAN_STANDOFF inside (lo, hi): x, c - x
    # and the margin's inner angle lie in (0, flat), so the kernels take them unchecked
    xs = _scan_grid(lo, hi)
    if mode == "h":
        values = list(map(add, _half_sides(n, xs), _half_sides(n, (c - x for x in xs))))
    elif mode == "phi":
        values = _margins(n, xs)
    else:
        values = _half_sides(n, xs)

    if args.format == "json":
        return _record("scan", inputs=inputs, results={"x": xs, "value": values})
    return _csv(("x", "value"), zip(xs, values))


def _cmd_counterexample(args: argparse.Namespace) -> str:
    from .configurations import counterexample_triangles

    epsilon = _maybe_radians(args.epsilon, args.degrees)
    result = counterexample_triangles(epsilon)
    return _record(
        "counterexample",
        inputs={"epsilon": epsilon},
        results={
            "split_perimeter": result.split_perimeter,
            "single_perimeter": result.single_perimeter,
            "margin": result.margin,
            "areas": list(result.config.areas),
            "single_area": result.single.area,
        },
    )


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or `command`'s own, which parses what follows the command name."""
    if command is None:
        parser = argparse.ArgumentParser(
            prog="isoperim",
            description="Perimeter-minimal configurations of regular n-gons in the "
            "Euclidean, spherical and hyperbolic planes.",
        )
        add = parser.add_subparsers(dest="command", required=True).add_parser
    elif command not in _HANDLERS:
        raise ValueError(f"unknown command {command!r}")
    else:
        def add(name: str, help: str) -> argparse.ArgumentParser:
            return argparse.ArgumentParser(prog=f"isoperim {name}")

    if command in (None, "perim"):
        p = add("perim", help="area, angle, side and perimeter of one polygon")
        p.add_argument("geometry", help="euclidean, spherical or hyperbolic")
        p.add_argument("n", type=int, help="side count")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--area", type=float, help="polygon area")
        group.add_argument("--angle", type=float, help="interior angle (curved planes only)")
        p.add_argument("--degrees", action="store_true", help="angular inputs are degrees")

    if command in (None, "theta"):
        p = add("theta", help="critical angle, inflection point and area bound")
        p.add_argument("n", type=int, nargs="?", help="side count")
        p.add_argument("--range", type=int, nargs=2, metavar=("LO", "HI"),
                       help="emit CSV rows for every side count in [LO, HI]")
        p.add_argument("--format", choices=("json", "csv"), default=None)

    if command in (None, "split"):
        p = add("split", help="compare a split of an area against one polygon")
        p.add_argument("geometry", help="euclidean, spherical or hyperbolic")
        p.add_argument("n", type=int, help="side count")
        p.add_argument("--total-area", type=float, required=True, dest="total_area")
        p.add_argument("--areas", type=str, default=None,
                       help="comma-separated part areas; must sum to the total")

    if command in (None, "scan"):
        p = add("scan", help="sample an analysis function on a uniform grid")
        p.add_argument("--phi", type=int, metavar="N", help="equal-split margin for side count N")
        p.add_argument("--g", type=int, metavar="N", help="half-side kernel for side count N")
        p.add_argument("--h", nargs=2, metavar=("N", "C"),
                       help="two-split objective for side count N and angle sum C")
        p.add_argument("--format", choices=("json", "csv"), default="csv")
        p.add_argument("--degrees", action="store_true", help="angular inputs are degrees")

    if command in (None, "counterexample"):
        p = add("counterexample", help="two hyperbolic triangles against one")
        p.add_argument("--epsilon", type=float, required=True,
                       help="interior angle of the single thin triangle")
        p.add_argument("--degrees", action="store_true", help="angular inputs are degrees")

    return p if command else parser


_HANDLERS = {
    "perim": _cmd_perim,
    "theta": _cmd_theta,
    "split": _cmd_split,
    "scan": _cmd_scan,
    "counterexample": _cmd_counterexample,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _HANDLERS else None
    try:  # the command's own parser; the full one for -h or a missing or unknown command
        args, extra = build_parser(command).parse_known_args(argv[1:] if command else argv)
        if extra:  # the full parser's top-level "unrecognized arguments" error
            build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.command = command or args.command
    try:
        sys.stdout.write(_HANDLERS[args.command](args))
        return 0
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the stream; not an error
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 0
    except (ValueError, ConvergenceError, BracketError) as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(_record(args.command, error=error))
        return 2 if isinstance(exc, ValueError) else 3  # DomainError, ArgumentError: 2


if __name__ == "__main__":
    sys.exit(main())
