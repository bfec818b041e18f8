import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

import jsonschema
import mpmath as mp
import pytest

from isoperim import (
    DomainError,
    Geometry,
    RegularPolygon,
    SplitFunctionParams,
    area_bounds,
    area_from_angle,
    critical_angle,
    equal_split_margin,
    half_side,
    inflection_point,
    perimeter,
    split_objective,
)
from isoperim import cli, configurations
from isoperim.cli import ERROR_SCHEMA, OUTPUT_SCHEMA, build_parser, main

from conftest import CE_MARGIN, THETA_3, X0_3, sign_changes


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_of(out: str) -> dict:
    record = json.loads(out)
    jsonschema.validate(record, OUTPUT_SCHEMA)
    return record


def walk_numbers(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from walk_numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from walk_numbers(v)


# ------------------------------------------------------------------ perim


def test_perim_hyperbolic_counterexample_value(capsys):
    code, out, _ = run_cli(capsys, "perim", "hyperbolic", "3", "--area", "1.5707963267948966")
    assert code == 0
    record = record_of(out)
    assert record["command"] == "perim"
    assert record["results"]["perimeter"] == pytest.approx(
        3 * math.acosh(3 + 2 * math.sqrt(3)), rel=1e-12
    )
    assert record["results"]["angle"] == pytest.approx(math.pi / 6, rel=1e-12)
    assert all(math.isfinite(v) for v in walk_numbers(record))


def test_perim_euclidean_square(capsys):
    code, out, _ = run_cli(capsys, "perim", "euclidean", "4", "--area", "1")
    assert code == 0
    assert record_of(out)["results"]["perimeter"] == pytest.approx(4.0, rel=1e-12)


def test_perim_from_angle(capsys):
    code, out, _ = run_cli(capsys, "perim", "spherical", "3", "--angle", str(math.pi / 2))
    assert code == 0
    record = record_of(out)
    assert record["results"]["area"] == pytest.approx(math.pi / 2, rel=1e-12)
    assert record["results"]["perimeter"] == pytest.approx(1.5 * math.pi, rel=1e-12)


@pytest.mark.parametrize("n", [13, 24, 46, 1000])
@pytest.mark.parametrize(
    "geometry,end",
    [("spherical", "flat"), ("spherical", "pi"), ("hyperbolic", "flat"), ("hyperbolic", "zero")],
)
def test_perim_angle_next_to_its_ends(capsys, geometry, end, n):
    # one ulp inside each open end of the angle interval (1e-300 for the
    # hyperbolic lower end); some of these areas round onto or past an end
    # of area_bounds, and must then be refused as the angle's, not as an area
    flat = (n - 2) * math.pi / n
    angle = {
        "flat": math.nextafter(flat, 4.0 if geometry == "spherical" else 0.0),
        "pi": math.nextafter(math.pi, 0.0),
        "zero": 1e-300,
    }[end]
    lo, hi = area_bounds(Geometry(geometry), n)
    try:
        area = area_from_angle(Geometry(geometry), n, angle)
    except DomainError as exc:
        area = None
        assert f"interior angle {angle} for n={n} rounds to area" in str(exc)
    else:
        assert lo < area < hi
    code, out, err = run_cli(capsys, "perim", geometry, str(n), "--angle", repr(angle))
    if area is None:
        assert code == 2 and out == ""
        assert f"interior angle {angle} for n={n}" in json.loads(err)["error"]["message"]
    else:
        assert code == 0
        assert record_of(out)["results"]["area"] == area


def test_perim_euclidean_angle_rejected(capsys):
    code, out, err = run_cli(capsys, "perim", "euclidean", "4", "--angle", "1.57")
    assert code == 2
    assert out == ""
    error = json.loads(err)
    jsonschema.validate(error, ERROR_SCHEMA)
    assert error["error"]["type"] == "DomainError"


def test_perim_degrees_flag(capsys):
    code1, out1, _ = run_cli(capsys, "perim", "spherical", "3", "--angle", "90", "--degrees")
    code2, out2, _ = run_cli(capsys, "perim", "spherical", "3", "--angle", str(math.pi / 2))
    assert code1 == code2 == 0
    assert out1 == out2


def test_perim_euclidean_huge_area(capsys):
    # 4*tan(pi/3)*1e308 overflows; the side must not
    code, out, _ = run_cli(capsys, "perim", "euclidean", "3", "--area", "1e308")
    assert code == 0
    expected = 3 * mp.sqrt(4 * mp.tan(mp.pi / 3) * mp.mpf("1e308") / 3)
    assert record_of(out)["results"]["perimeter"] == pytest.approx(float(expected), rel=1e-15)


def test_perim_unknown_geometry(capsys):
    code, _, err = run_cli(capsys, "perim", "elliptic", "4", "--area", "1")
    assert code == 2
    assert "geometry" in json.loads(err)["error"]["message"]


# ------------------------------------------------------------------ theta


def test_theta_single(capsys):
    code, out, _ = run_cli(capsys, "theta", "3")
    assert code == 0
    record = record_of(out)
    assert record["results"]["theta"] == pytest.approx(THETA_3, rel=1e-10)
    assert record["results"]["x0"] == pytest.approx(X0_3, rel=1e-10)
    assert record["results"]["max_area"] == pytest.approx(math.pi - 3 * THETA_3, rel=1e-10)
    assert record["diagnostics"]["residual"] <= 1e-10


def test_theta_range_csv(capsys):
    code, out, _ = run_cli(capsys, "theta", "--range", "3", "50")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,theta,x0,max_area"
    assert len(lines) == 1 + 48
    for line in lines[1:]:
        n_str, theta, x0, max_area = line.split(",")
        n = int(n_str)
        assert 0.0 < float(theta) < (n - 2) * math.pi / n
        assert float(theta) < float(x0)
        assert float(max_area) == pytest.approx((n - 2) * math.pi - n * float(theta), rel=1e-12)


def test_theta_max_sides(capsys):
    code, out, _ = run_cli(capsys, "theta", "1000000")
    assert code == 0
    record = record_of(out)
    flat = 999998 * math.pi / 1000000
    assert 0.0 < record["results"]["theta"] < record["results"]["x0"] < flat
    assert record["diagnostics"]["residual"] <= 1e-10


def test_theta_range_above_max_sides_rejected_before_solving(capsys):
    critical_angle.cache_clear()
    inflection_point.cache_clear()
    code, out, err = run_cli(capsys, "theta", "--range", "3", "1000001")
    assert code == 2
    assert out == ""
    error = json.loads(err)
    jsonschema.validate(error, ERROR_SCHEMA)
    assert error["error"]["type"] == "DomainError"
    assert critical_angle.cache_info().currsize == 0


def test_theta_rejects_small_n(capsys):
    code, _, err = run_cli(capsys, "theta", "2")
    assert code == 2
    jsonschema.validate(json.loads(err), ERROR_SCHEMA)


def test_theta_needs_exactly_one_mode(capsys):
    assert run_cli(capsys, "theta")[0] == 2
    assert run_cli(capsys, "theta", "4", "--range", "3", "5")[0] == 2


def test_theta_single_csv_format(capsys):
    code, out, _ = run_cli(capsys, "theta", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,theta,x0,max_area"
    assert len(lines) == 2


@pytest.mark.parametrize(
    "argv, ns",
    [(("theta", "--range", "3", "40"), range(3, 41)), (("theta", "5", "--format", "csv"), [5])],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else "",
)
def test_theta_csv_bytes(capsys, argv, ns):
    # the rows as the CSV emitter wrote them before it took one format per row
    rows = []
    for n in ns:
        res = critical_angle(n)
        row = (n, res.critical_angle, res.inflection, res.max_area)
        rows.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == "\n".join(["n,theta,x0,max_area"] + rows) + "\n"


def test_theta_range_json_format(capsys):
    code, out, _ = run_cli(capsys, "theta", "--range", "3", "5", "--format", "json")
    assert code == 0
    record = record_of(out)
    assert len(record["results"]["rows"]) == 3


# ------------------------------------------------------------------ split


def test_split_euclidean_pythagorean(capsys):
    code, out, _ = run_cli(
        capsys, "split", "euclidean", "4", "--total-area", "25", "--areas", "9,16"
    )
    assert code == 0
    record = record_of(out)
    assert record["results"]["verdict"] == "single_optimal_strict"
    assert record["results"]["part_perimeters"][0] == pytest.approx(12.0, rel=1e-12)
    assert record["results"]["part_perimeters"][1] == pytest.approx(16.0, rel=1e-12)
    assert record["results"]["single_perimeter"] == pytest.approx(20.0, rel=1e-12)


def test_split_euclidean_huge_area(capsys):
    code, out, _ = run_cli(capsys, "split", "euclidean", "3", "--total-area", "1e308")
    assert code == 0
    results = record_of(out)["results"]
    assert results["verdict"] == "single_optimal_strict"
    # two halves: sqrt(2) times the single perimeter
    assert results["config_perimeter"] == pytest.approx(
        math.sqrt(2.0) * results["single_perimeter"], rel=1e-14
    )


def test_split_spherical_strict(capsys):
    code, out, _ = run_cli(
        capsys,
        "split", "spherical", "3",
        "--total-area", "1.5707963",
        "--areas", "0.7853981,0.7853982",
    )
    assert code == 0
    record = record_of(out)
    assert record["results"]["verdict"] == "single_optimal_strict"


def test_split_hyperbolic_below_threshold(capsys):
    code, out, _ = run_cli(capsys, "split", "hyperbolic", "3", "--total-area", "2.8415926")
    assert code == 0
    record = record_of(out)
    assert record["results"]["verdict"] == "split_beats_single"
    assert "witness_areas" in record["results"]
    halves = record["results"]["witness_areas"]
    assert halves[0] == pytest.approx(2.8415926 / 2, rel=1e-12)


def test_split_hyperbolic_total_too_small(capsys):
    code, out, err = run_cli(capsys, "split", "hyperbolic", "3", "--total-area", "1e-300")
    assert code == 2
    assert out == ""
    error = json.loads(err)
    jsonschema.validate(error, ERROR_SCHEMA)
    assert error["error"]["message"].startswith("total area 1e-300 is too small to split")


@pytest.mark.parametrize("geometry", ["euclidean", "spherical"])
def test_split_total_whose_half_underflows(capsys, geometry):
    # 5e-324 / 2 rounds to 0: the error names the total the user gave
    code, out, err = run_cli(capsys, "split", geometry, "3", "--total-area", "5e-324")
    assert code == 2 and out == ""
    error = json.loads(err)
    jsonschema.validate(error, ERROR_SCHEMA)
    assert error["error"] == {
        "type": "DomainError",
        "message": f"total area 5e-324 is too small to split for {geometry} n=3",
    }


def test_split_hyperbolic_part_whose_half_underflows(capsys):
    code, out, err = run_cli(
        capsys, "split", "hyperbolic", "3", "--total-area", "5e-324", "--areas", "5e-324"
    )
    assert code == 0 and err == ""
    results = record_of(out)["results"]
    assert results["verdict"] == "tie"
    assert "witness_areas" not in results


def test_split_hyperbolic_multi_part(capsys):
    code, out, _ = run_cli(
        capsys,
        "split", "hyperbolic", "3",
        "--total-area", "1.2",
        "--areas", "0.3,0.4,0.5",
    )
    assert code == 0
    record = record_of(out)
    assert record["results"]["verdict"] == "single_optimal_strict"
    assert len(record["results"]["part_perimeters"]) == 3


@pytest.mark.parametrize(
    "argv, calls",
    [
        (("split", "hyperbolic", "3", "--total-area", "1.2", "--areas", "0.3,0.4,0.5"), 6),
        (("split", "euclidean", "4", "--total-area", "25", "--areas", "9,16"), 3),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v),
)
def test_split_areas_evaluates_each_perimeter_once(capsys, monkeypatch, argv, calls):
    # hyperbolic: 3 parts, 2 merged prefixes and the equal split's half;
    # flat: 2 parts and the single polygon. The parts' perimeters printed
    # are the ones the assessment computed.
    seen = []
    side = configurations._side

    def counting_side(*args):
        seen.append(args)
        return side(*args)

    monkeypatch.setattr(configurations, "_side", counting_side)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(seen) == calls
    geometry, n, areas = Geometry(argv[1]), int(argv[2]), argv[-1].split(",")
    parts = [perimeter(RegularPolygon(geometry, n, float(a))) for a in areas]
    assert record_of(out)["results"]["part_perimeters"] == parts


@pytest.mark.parametrize("geometry", ["euclidean", "spherical", "hyperbolic"])
def test_split_single_polygon_holds_the_parts_sum(capsys, geometry):
    # the part sum may miss --total-area by up to 1e-9; the single polygon
    # is built from the sum, so a one-part configuration ties in every plane
    code, out, _ = run_cli(
        capsys, "split", geometry, "3", "--total-area", "1", "--areas", "0.9999999995"
    )
    assert code == 0
    results = record_of(out)["results"]
    assert results["verdict"] == "tie"
    assert results["single_perimeter"] == results["config_perimeter"]


def test_split_sum_mismatch(capsys):
    code, _, err = run_cli(
        capsys, "split", "euclidean", "4", "--total-area", "25", "--areas", "9,15"
    )
    assert code == 2
    assert "sum" in json.loads(err)["error"]["message"]


def test_split_area_sum_is_left_to_right(capsys):
    # sum() of floats is compensated from Python 3.12 on and would print 0.6
    code, out, err = run_cli(
        capsys, "split", "hyperbolic", "3", "--total-area", "0.7", "--areas", "0.1,0.2,0.3"
    )
    assert code == 2 and out == ""
    message = json.loads(err)["error"]["message"]
    assert message == "areas sum to 0.6000000000000001, expected 0.7 within 1e-9"


# ------------------------------------------------------------------- scan


def test_scan_phi_single_sign_change(capsys):
    code, out, _ = run_cli(capsys, "scan", "--phi", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 1 + 1000
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(sign_changes(values)) == 1


def test_scan_g_strictly_decreasing(capsys):
    code, out, _ = run_cli(capsys, "scan", "--g", "3")
    assert code == 0
    values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_scan_h_symmetric(capsys):
    c = math.pi / 3 + 0.5
    code, out, _ = run_cli(capsys, "scan", "--h", "3", str(c))
    assert code == 0
    values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert len(values) == 1000
    for i in range(500):
        assert values[i] == pytest.approx(values[999 - i], abs=1e-10)


def test_scan_json_format(capsys):
    code, out, _ = run_cli(capsys, "scan", "--phi", "4", "--format", "json")
    assert code == 0
    record = record_of(out)
    assert len(record["results"]["x"]) == 1000
    assert len(record["results"]["value"]) == 1000


def test_scan_mode_required(capsys):
    code, _, err = run_cli(capsys, "scan")
    assert code == 2
    code, _, err = run_cli(capsys, "scan", "--phi", "3", "--g", "4")
    assert code == 2


def test_scan_invalid_n(capsys):
    assert run_cli(capsys, "scan", "--phi", "2")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [("--phi", "0"), ("--g", "0"), ("--phi", "2"), ("--g", "1000001")],
    ids=" ".join,
)
def test_scan_rejects_side_count(capsys, argv):
    # the side count is checked before the scan domain is formed from it
    code, out, err = run_cli(capsys, "scan", *argv)
    assert code == 2 and out == ""
    error = json.loads(err)
    jsonschema.validate(error, ERROR_SCHEMA)
    assert error["error"]["type"] == "DomainError"
    assert error["error"]["message"].startswith("side count must be")


def _scan_points(capsys, *argv):
    """(x, value) pairs of a scan, read from its CSV and from its JSON output."""
    code, out, err = run_cli(capsys, "scan", *argv)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "x,value" and out.endswith("\n")
    from_csv = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    code, out, _ = run_cli(capsys, "scan", *argv, "--format", "json")
    assert code == 0
    results = record_of(out)["results"]
    from_json = list(zip(results["x"], results["value"]))
    assert [(x.hex(), v.hex()) for x, v in from_csv] == [(x.hex(), v.hex()) for x, v in from_json]
    assert len(from_csv) == 1000
    return from_csv


@pytest.mark.parametrize("n", [3, 4, 7, 12, 1000, 10**6])
@pytest.mark.parametrize("mode, fn", [("--phi", equal_split_margin), ("--g", half_side)])
def test_scan_values_are_the_checked_functions(capsys, n, mode, fn):
    for x, value in _scan_points(capsys, mode, str(n)):
        assert value.hex() == fn(n, x).hex()


@pytest.mark.parametrize("n", [3, 7, 1000])
@pytest.mark.parametrize("where", ["next_to_flat", "middle", "next_to_twice_flat"])
@pytest.mark.parametrize("degrees", [False, True])
def test_scan_h_values_are_the_split_objective(capsys, n, where, degrees):
    flat = (n - 2) * math.pi / n
    c = {"next_to_flat": flat + 1e-5, "middle": 1.5 * flat, "next_to_twice_flat": 2 * flat - 1e-5}[where]
    arg = repr(math.degrees(c)) if degrees else repr(c)
    params = SplitFunctionParams(n, math.radians(float(arg)) if degrees else c)
    points = _scan_points(capsys, "--h", str(n), arg, *(["--degrees"] if degrees else []))
    for x, value in points:
        assert value.hex() == split_objective(params, x).hex()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--phi", "2"), "side count must be >= 3, got 2"),
        (("--g", "1000001"), "side count must be <= 1000000, got 1000001"),
        (("--h", "3", "2.5"),
         "angle sum must lie in (1.0471975511965976, 2.0943951023931953), got 2.5"),
        (("--h", "3", "1.0471975511965976"),
         "angle sum must lie in (1.0471975511965976, 2.0943951023931953), got 1.0471975511965976"),
        (("--h", "3", "2.0943941"),
         "scan domain (1.0471965488034025, 1.0471975511965976) is narrower than the standoff"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else "",
)
def test_scan_error_texts(capsys, argv, message):
    code, out, err = run_cli(capsys, "scan", *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"type": "DomainError", "message": message}


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--phi", "3"), "angle must lie in the open interval (0.0, 1.0471975511965976), got 0.0"),
        (("--g", "3"), "angle must lie in the open interval (0.0, 1.0471975511965976), got 0.0"),
        (("--h", "3", "1.5"), "split angle must lie in the open interval "
         "(0.45280244880340237, 1.0471975511965976), got 0.45280244880340237"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else "",
)
def test_scan_checks_its_grid(capsys, monkeypatch, argv, message):
    # with no standoff the grid starts on the domain's closed end, which the
    # checked functions reject
    monkeypatch.setattr(cli, "SCAN_STANDOFF", 0.0)
    code, out, err = run_cli(capsys, "scan", *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"type": "DomainError", "message": message}


# --------------------------------------------------------- counterexample


def test_counterexample(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "--epsilon", "0.1")
    assert code == 0
    record = record_of(out)
    assert record["results"]["margin"] == pytest.approx(CE_MARGIN, rel=1e-10)
    assert record["results"]["split_perimeter"] < record["results"]["single_perimeter"]


def test_counterexample_large_epsilon_reported(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "--epsilon", "0.5")
    assert code == 0
    assert record_of(out)["results"]["margin"] < 0.0


def test_counterexample_out_of_range(capsys):
    assert run_cli(capsys, "counterexample", "--epsilon", "0.6")[0] == 2
    assert run_cli(capsys, "counterexample", "--epsilon", "-0.1")[0] == 2


def test_counterexample_epsilon_lost_to_rounding(capsys):
    code, out, err = run_cli(capsys, "counterexample", "--epsilon", "1e-300")
    assert code == 2
    assert out == ""
    error = json.loads(err)
    jsonschema.validate(error, ERROR_SCHEMA)
    assert error["error"]["type"] == "DomainError"
    assert error["error"]["message"].startswith("epsilon 1e-300 is too small")


# ----------------------------------------------------------------- parser

_VALID = {
    "perim": ("hyperbolic", "3", "--area", "1"),
    "theta": ("3",),
    "split": ("hyperbolic", "3", "--total-area", "1"),
    "scan": ("--phi", "3"),
    "counterexample": ("--epsilon", "0.1"),
}
_MISSING = {
    "perim": ("hyperbolic",),
    "theta": ("--range", "3"),
    "split": ("hyperbolic", "3"),
    "scan": ("--h", "3"),
    "counterexample": (),
}
_BAD_NUMBER = {
    "perim": ("hyperbolic", "x", "--area", "1"),
    "theta": ("x",),
    "split": ("hyperbolic", "3", "--total-area", "x"),
    "scan": ("--g", "x"),
    "counterexample": ("--epsilon", "x"),
}
PARITY_ARGVS = (
    [[], ["-h"], ["bogus"], ["per"], ["--"], ["--", "theta", "3"], ["-h", "scan"]]
    + [[command, "-h"] for command in _VALID]
    + [[command, *args] for command, args in _MISSING.items()]
    + [[command, *args] for command, args in _BAD_NUMBER.items()]
    + [[command, *args, "--format", "xml"] for command, args in _VALID.items()]
    + [[command, *args, "--bogus"] for command, args in _VALID.items()]
    + [["perim", "hyperbolic", "3", "--area", "1", "--angle", "1"]]
    + [["perim", "hyperbolic", "3", "--area", "1", "extra"]]
)


@pytest.mark.parametrize("argv", PARITY_ARGVS, ids=" ".join)
def test_parser_for_one_command_reads_like_the_full_parser(capsys, monkeypatch, argv):
    # help, usage errors and results match a parser built with every command;
    # at 40 columns the top-level usage line wraps
    for columns in ("80", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        outcome = run_cli(capsys, *argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "build_parser", lambda command=None: build_parser())
            assert run_cli(capsys, *argv) == outcome


def test_parser_for_one_command_has_only_its_arguments(capsys):
    parser = build_parser("perim")
    assert parser.parse_args(["perim", "hyperbolic", "3", "--area", "1"]).area == 1.0
    with pytest.raises(SystemExit):
        parser.parse_args(["theta", "3"])
    assert "invalid choice: 'theta'" in capsys.readouterr().err
    assert build_parser().parse_args(["theta", "3"]).n == 3


@pytest.mark.parametrize(
    "argv,count",
    [([command, *args], 2) for command, args in _VALID.items()] + [(["-h"], 6), (["bogus"], 6)],
    ids=lambda value: " ".join(value) if isinstance(value, list) else str(value),
)
def test_main_builds_only_the_parsers_it_uses(capsys, monkeypatch, argv, count):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    run_cli(capsys, *argv)
    assert len(built) == count


# ----------------------------------------------------------- determinism


def test_repeat_invocations_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "theta", "7")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_subprocess_byte_identical():
    cmd = [sys.executable, "-m", "isoperim", "scan", "--phi", "5"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.returncode == 0


def test_reader_closing_the_pipe_early_is_not_an_error():
    # a 4 KiB pipe cannot hold the scan's ~40 KB of CSV, so the write is
    # still going on when the reader closes its end after the first line;
    # buffered stdout then raises BrokenPipeError (unbuffered stdout would
    # drop the rest of a partial write without an error)
    read_end, write_end = os.pipe()
    if hasattr(fcntl, "F_SETPIPE_SZ"):
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    cmd = [sys.executable, "-m", "isoperim", "scan", "--phi", "3"]
    proc = subprocess.Popen(cmd, stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as reader:
        assert reader.readline() == b"x,value\n"
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert err == b""


def test_import_leaves_numpy_unloaded():
    # numpy is loaded only by the grid oracle, on its first call
    code = (
        "import sys, isoperim, isoperim.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded on import'\n"
        "best, _ = isoperim.brute_force_min(isoperim.Geometry.EUCLIDEAN, 4, 1.0, 2, 10)\n"
        "assert best.k == 1 and 'numpy' in sys.modules\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_scalar_paths_leave_numpy_unloaded():
    # the float path of the side kernel, the decisions and four CLI commands
    # run without numpy, and so does probing every attribute of every module
    # for a cache_clear, as the benchmark does
    code = (
        "import contextlib, io, sys\n"
        "import isoperim\n"
        "from isoperim import Geometry, RegularPolygon, Configuration, cli\n"
        "for g in Geometry:\n"
        "    p = RegularPolygon(g, 5, 1.0)\n"
        "    isoperim.perimeter(p), isoperim.side_length(p)\n"
        "    isoperim.assess_two_split(g, 5, 2.0)\n"
        "isoperim.merge_chain(Configuration(Geometry.HYPERBOLIC, 3, (1.0, 1.5)))\n"
        "isoperim.counterexample_triangles(0.1)\n"
        "argvs = [['perim', 'hyperbolic', '3', '--area', '1'],\n"
        "         ['split', 'euclidean', '4', '--total-area', '25', '--areas', '9,16'],\n"
        "         ['theta', '3'], ['theta', '--range', '3', '8'], ['scan', '--phi', '3']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert all(cli.main(argv) == 0 for argv in argvs)\n"
        "for name, module in list(sys.modules.items()):\n"
        "    if name == 'isoperim' or name.startswith('isoperim.'):\n"
        "        for attr in dir(module):\n"
        "            getattr(getattr(module, attr), 'cache_clear', None)\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_numbers_round_trip_through_json(capsys):
    _, out, _ = run_cli(capsys, "theta", "3")
    record = json.loads(out)
    again = json.loads(json.dumps(record))
    assert again == record
