"""Check every output of a workload against the independent references.

Tolerances (relative error unless noted):
- critical angle Theta(n): THETA_TOL against the mpmath root;
- perimeters, sides and kernel values: VALUE_TOL against mpmath closed forms;
- oracle perimeter recomputed from the returned areas: VALUE_TOL;
- oracle areas summing to the total: SUM_TOL.
Quantities that cross zero (the equal-split margin, the counterexample
margin) are measured against the size of the terms they are formed from.
Verdicts and structural facts must hold exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath as mp

import inputs
import reference as ref

THETA_TOL = 1e-10
VALUE_TOL = 1e-6
SUM_TOL = 1e-12
# Two oracle partitions whose perimeters agree this closely are a tie.
TIE_REL = 1e-12
SCAN_STANDOFF = 1e-6
SCAN_SAMPLES = 1000
STRICT, SPLIT = "single_optimal_strict", "split_beats_single"


class Checker:
    """Collects the largest relative error and every violated check."""

    def __init__(self) -> None:
        self.max_err = 0.0
        self.worst = ""
        self.checked = 0
        self.problems: list[str] = []

    def close(self, what: str, value: float, reference, tol: float, scale=None) -> None:
        err = ref.rel_err(value, reference, scale)
        self.checked += 1
        if err > self.max_err:
            self.max_err, self.worst = err, what
        if not err <= tol:
            self.problems.append(
                f"{what}: {value!r} vs {mp.nstr(reference, 20)} (rel err {err:.3g} > {tol:g})"
            )

    def expect(self, what: str, ok: bool) -> None:
        self.checked += 1
        if not ok:
            self.problems.append(what)


def _split_side(n: int, angle) -> bool:
    """Whether the hyperbolic single polygon with this angle loses to the equal split."""
    return angle < ref.theta(n)


def _theta_row(c: Checker, where: str, n: int, theta: float, x0: float, max_area: float) -> None:
    c.close(f"{where} theta", theta, ref.theta(n), THETA_TOL)
    c.expect(f"{where}: need theta < x0 < flat", theta < x0 < (n - 2) * math.pi / n)
    own = (n - 2) * mp.pi - n * mp.mpf(theta)
    c.expect(f"{where}: max_area {max_area!r} disagrees with its theta",
             abs(mp.mpf(max_area) - own) <= 1e-12 * abs(own) + 1e-12)


def theta_sweep(c: Checker, ops: list[dict], outputs: list) -> None:
    for op, out in zip(ops, outputs):
        if isinstance(out, dict):
            continue  # a failed operation, counted in `failed`
        theta, x0, max_area, iterations = out
        _theta_row(c, f"n={op['n']}", op["n"], theta, x0, max_area)
        c.expect(f"n={op['n']}: iterations {iterations}", isinstance(iterations, int) and iterations > 0)


def oracle_grid(c: Checker, ops: list[dict], outputs: list) -> None:
    unit_perims: dict[tuple, list[float]] = {}
    for op, out in zip(ops, outputs):
        if isinstance(out, dict):
            continue
        g, n, total, k_max, R = op["geometry"], op["n"], op["total"], op["k_max"], op["resolution"]
        where = f"{g} n={n} total={total!r} k_max={k_max} R={R}"
        areas, perim = out
        unit = total / R
        units = [round(a / unit) for a in areas]
        c.expect(f"{where}: {len(areas)} parts", 1 <= len(areas) <= k_max)
        c.expect(f"{where}: areas off the grid",
                 all(abs(a / unit - u) <= 1e-6 for a, u in zip(areas, units)) and sum(units) == R)
        c.close(f"{where} area sum", math.fsum(areas), mp.mpf(total), SUM_TOL)
        # the returned partition, recomputed exactly, against the candidates it must beat
        mine = sum(ref.perimeter(g, n, a) for a in areas)
        c.close(f"{where} perimeter", perim, mine, VALUE_TOL)
        single = ref.perimeter(g, n, total) if g != ref.HYPERBOLIC or total < (n - 2) * math.pi else mp.inf
        c.expect(f"{where}: worse than the single polygon", mine <= single * (1 + TIE_REL))
        if k_max >= 2:
            equal = ref.perimeter(g, n, (R // 2) * unit) + ref.perimeter(g, n, (R - R // 2) * unit)
            c.expect(f"{where}: worse than the on-grid equal split", mine <= equal * (1 + TIE_REL))
        if g != ref.HYPERBOLIC:
            c.expect(f"{where}: {len(areas)} parts in a plane where one polygon is optimal", len(areas) == 1)
        elif k_max >= 2 and _split_side(n, ref.angle(g, n, total)):
            c.expect(f"{where}: single polygon returned past the threshold", len(areas) >= 2)
        if R <= inputs.EXHAUSTIVE_MAX:
            key = (g, n, total, R)
            if key not in unit_perims:
                unit_perims[key] = [math.inf] + [float(ref.perimeter(g, n, u * unit)) for u in range(1, R + 1)]
            best, value = ref.exhaustive_min(unit_perims[key], R, k_max)
            same = tuple(sorted(units)) == best
            c.expect(f"{where}: oracle {sorted(units)} but exhaustive search {best}",
                     same or abs(mine - value) <= TIE_REL * value)


def _assess(c: Checker, where: str, args: list, out: list, reports_theta: bool = True) -> None:
    g, n, total = args
    verdict, single_p, config_p, crit, witness = out
    c.close(f"{where} single perimeter", single_p, ref.perimeter(g, n, total), VALUE_TOL)
    c.close(f"{where} split perimeter", config_p, 2 * ref.perimeter(g, n, total / 2), VALUE_TOL)
    if g != ref.HYPERBOLIC:
        c.expect(f"{where}: verdict {verdict}", verdict == STRICT)
        c.expect(f"{where}: critical angle or witness outside the hyperbolic plane",
                 crit is None and witness is None)
        return
    split = _split_side(n, ref.angle(g, n, total))
    c.expect(f"{where}: verdict {verdict}", verdict == (SPLIT if split else STRICT))
    if reports_theta:
        c.close(f"{where} critical angle", crit, ref.theta(n), THETA_TOL)
    c.expect(f"{where}: witness {witness}", witness == ([total / 2, total / 2] if split else None))


def _merge(c: Checker, where: str, args: list, out: list) -> None:
    n, parts = args
    g = ref.HYPERBOLIC
    verdict, single_p, config_p, crit, witness, steps = out
    total = math.fsum(parts)
    single = ref.perimeter(g, n, total)
    pieces = [ref.perimeter(g, n, a) for a in parts]
    c.close(f"{where} single perimeter", single_p, single, VALUE_TOL)
    c.close(f"{where} configuration perimeter", config_p, sum(pieces), VALUE_TOL)
    c.expect(f"{where}: verdict {verdict}", verdict == (SPLIT if sum(pieces) < single else STRICT))
    c.close(f"{where} critical angle", crit, ref.theta(n), THETA_TOL)
    split = _split_side(n, ref.angle(g, n, total))
    c.expect(f"{where}: witness {witness}", (witness is not None) == split)
    c.expect(f"{where}: {len(steps)} merge steps", len(steps) == len(parts) - 1)
    prefix, prefix_p = mp.mpf(parts[0]), pieces[0]
    for i, (pair_p, merged_area, merged_p) in enumerate(steps):
        prefix += parts[i + 1]
        c.close(f"{where} step {i} merged area", merged_area, prefix, SUM_TOL)
        c.close(f"{where} step {i} pair perimeter", pair_p, prefix_p + pieces[i + 1], VALUE_TOL)
        prefix_p = ref.perimeter(g, n, prefix)
        c.close(f"{where} step {i} merged perimeter", merged_p, prefix_p, VALUE_TOL)


def _counterexample(c: Checker, where: str, epsilon: float, split_p, single_p, margin) -> None:
    g, eps = ref.HYPERBOLIC, mp.mpf(epsilon)
    split = ref.perimeter(g, 3, mp.pi / 2) + ref.perimeter(g, 3, mp.pi / 2 - 3 * eps)
    single = ref.perimeter(g, 3, mp.pi - 3 * eps)
    c.close(f"{where} split perimeter", split_p, split, VALUE_TOL)
    c.close(f"{where} single perimeter", single_p, single, VALUE_TOL)
    c.close(f"{where} margin", margin, single - split, VALUE_TOL, scale=single + split)


def decide_mix(c: Checker, ops: list[dict], outputs: list) -> None:
    for b, (batch, outs) in enumerate(zip(ops, outputs)):
        kind = batch["kind"]
        for i, (args, out) in enumerate(zip(batch["args"], outs)):
            if isinstance(out, dict):
                continue
            where = f"batch {b} {kind} {args}"
            if kind == "assess":
                _assess(c, where, args, out)
            elif kind == "merge":
                _merge(c, where, args, out)
            elif kind == "perimeter":
                c.close(where, out, ref.perimeter(*args), VALUE_TOL)
            else:
                _counterexample(c, where, args[0], *out)


def _opt(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _cli_perim(c: Checker, where: str, argv: list[str], r: dict) -> None:
    g, n = argv[1], int(argv[2])
    if _opt(argv, "--angle") is not None:
        angle = float(_opt(argv, "--angle"))
        angle = math.radians(angle) if "--degrees" in argv else angle
        sign = 1 if g == ref.SPHERICAL else -1
        area = sign * (n * mp.mpf(angle) - (n - 2) * mp.pi)
    else:
        area = mp.mpf(float(_opt(argv, "--area")))
    c.close(f"{where} area", r["area"], area, VALUE_TOL)
    c.close(f"{where} angle", r["angle"], ref.angle(g, n, area), VALUE_TOL)
    c.close(f"{where} side", r["side"], ref.side(g, n, area), VALUE_TOL)
    c.close(f"{where} perimeter", r["perimeter"], ref.perimeter(g, n, area), VALUE_TOL)


def _cli_split(c: Checker, where: str, argv: list[str], r: dict) -> None:
    g, n, total = argv[1], int(argv[2]), float(_opt(argv, "--total-area"))
    areas = _opt(argv, "--areas")
    if areas is None:
        out = [r["verdict"], r["single_perimeter"], r["config_perimeter"], None, r.get("witness_areas")]
        _assess(c, where, [g, n, total], out, reports_theta=False)
        return
    parts = [float(a) for a in areas.split(",")]
    pieces = [ref.perimeter(g, n, a) for a in parts]
    single = ref.perimeter(g, n, total)
    c.close(f"{where} single perimeter", r["single_perimeter"], single, VALUE_TOL)
    c.close(f"{where} configuration perimeter", r["config_perimeter"], sum(pieces), VALUE_TOL)
    for value, piece in zip(r["part_perimeters"], pieces):
        c.close(f"{where} part perimeter", value, piece, VALUE_TOL)
    c.expect(f"{where}: verdict {r['verdict']}", r["verdict"] == (SPLIT if sum(pieces) < single else STRICT))
    split = g == ref.HYPERBOLIC and _split_side(n, ref.angle(g, n, total))
    c.expect(f"{where}: witness", ("witness_areas" in r) == split)


def _cli_scan(c: Checker, where: str, argv: list[str], xs: list[float], values: list[float]) -> None:
    if "--h" in argv:
        n = int(argv[argv.index("--h") + 1])
        cs = mp.mpf(float(argv[argv.index("--h") + 2]))
        lo, hi = cs - (n - 2) * mp.pi / n, (n - 2) * mp.pi / n
        f = lambda x: ref.half_side(n, x) + ref.half_side(n, cs - x)  # noqa: E731
    else:
        mode = "--phi" if "--phi" in argv else "--g"
        n = int(argv[argv.index(mode) + 1])
        lo, hi = mp.mpf(0), (n - 2) * mp.pi / n
        f = (lambda x: ref.half_side(n, x)) if mode == "--g" else None
    c.expect(f"{where}: {len(xs)} samples", len(xs) == len(values) == SCAN_SAMPLES)
    a, b = lo + SCAN_STANDOFF, hi - SCAN_STANDOFF
    for i, (x, v) in enumerate(zip(xs, values)):
        c.close(f"{where} x[{i}]", x, a + (b - a) * i / (SCAN_SAMPLES - 1), SUM_TOL, scale=hi)
        if f is None:
            plus, minus = ref.margin_terms(n, x)
            c.close(f"{where} value[{i}]", v, plus - minus, VALUE_TOL, scale=plus + minus)
        else:
            c.close(f"{where} value[{i}]", v, f(x), VALUE_TOL)


def _csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def cli_session(c: Checker, ops: list[dict], outputs: list) -> None:
    for op, out in zip(ops, outputs):
        argv = op["argv"]
        where = " ".join(argv)
        if isinstance(out, dict) or out[0] != 0:
            continue  # a failed operation, counted in `failed`
        code, stdout, stderr = out
        c.expect(f"{where}: stderr {stderr!r}", stderr == "")
        cmd = argv[0]
        if cmd == "scan" and "--format" not in argv:
            rows = _csv(stdout)
            c.expect(f"{where}: header {rows[0]}", rows[0] == ["x", "value"])
            _cli_scan(c, where, argv, [float(r[0]) for r in rows[1:]], [float(r[1]) for r in rows[1:]])
            continue
        if cmd == "theta" and "--range" in argv:
            rows = _csv(stdout)
            lo, hi = int(argv[2]), int(argv[3])
            c.expect(f"{where}: header {rows[0]}", rows[0] == ["n", "theta", "x0", "max_area"])
            c.expect(f"{where}: rows", [int(r[0]) for r in rows[1:]] == list(range(lo, hi + 1)))
            for r in rows[1:]:
                _theta_row(c, f"{where} n={r[0]}", int(r[0]), float(r[1]), float(r[2]), float(r[3]))
            continue
        record = json.loads(stdout)
        c.expect(f"{where}: command {record.get('command')}", record.get("command") == cmd)
        r = record["results"]
        if cmd == "perim":
            _cli_perim(c, where, argv, r)
        elif cmd == "theta":
            _theta_row(c, where, int(argv[1]), r["theta"], r["x0"], r["max_area"])
        elif cmd == "split":
            _cli_split(c, where, argv, r)
        elif cmd == "scan":
            _cli_scan(c, where, argv, r["x"], r["value"])
        else:
            eps = float(_opt(argv, "--epsilon"))
            _counterexample(c, where, eps, r["split_perimeter"], r["single_perimeter"], r["margin"])
            c.expect(f"{where}: areas", r["areas"] == [math.pi / 2, math.pi / 2 - 3 * eps])


CHECKS = {
    "theta_sweep": theta_sweep,
    "oracle_grid": oracle_grid,
    "decide_mix": decide_mix,
    "cli_session": cli_session,
}


def check(workload: str, ops: list[dict], outputs: list) -> Checker:
    c = Checker()
    CHECKS[workload](c, ops, outputs)
    return c
