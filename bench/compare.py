"""Print per-metric deltas between two run records written by run.py.

    python3 bench/compare.py .bench_runs/BEFORE.json .bench_runs/AFTER.json
"""

from __future__ import annotations

import json
import sys


def _rows(before: dict, after: dict, section: str):
    a, b = before.get(section, {}), after.get(section, {})
    for name in list(a) + [k for k in b if k not in a]:
        old = a.get(name, {}).get("value")
        new = b.get(name, {}).get("value")
        unit = (a.get(name) or b.get(name))["unit"]
        if old is None or new is None:
            delta = "n/a"
        elif old == 0:
            delta = "same" if new == 0 else "from 0"
        else:
            delta = f"{(new - old) / abs(old):+.2%}"
        yield name, old, new, unit, delta


def _num(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path) as f:
            records.append(json.load(f))
    before, after = records
    for key in ("workload", "seed", "trace", "cpu", "python", "numpy", "loop_raw_ms", "attempted", "failed"):
        print(f"{key:34s} {before.get(key)!s:>24} {after.get(key)!s:>24}")
    for section in ("metrics", "layers"):
        for name, old, new, unit, delta in _rows(before, after, section):
            print(f"{name:34s} {_num(old):>24} {_num(new):>24} {unit:8s} {delta}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
