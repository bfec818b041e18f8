"""What `import isoperim` and each CLI command load.

The package namespace is lazy (PEP 562): importing it loads no submodule,
and each public name imports its home module on first use. Each CLI
command imports only the modules it calls. The checks that depend on what
a process has loaded run in a fresh interpreter.
"""

import hashlib
import inspect
import subprocess
import sys
import textwrap

import pytest

import isoperim

# The public names by home module, as the package exported them eagerly.
HOMES = {
    "analysis": [
        "SplitFunctionParams", "equal_split_margin", "half_side", "half_side_d1",
        "spherical_half_side", "split_objective",
    ],
    "configurations": [
        "Configuration", "CounterexampleResult", "MergeStep", "SplitAssessment", "Verdict",
        "assess_configuration", "assess_two_split", "brute_force_min",
        "counterexample_triangles", "euclidean_pythagoras_check", "merge_chain",
        "total_area", "total_perimeter",
    ],
    "errors": ["ArgumentError", "BracketError", "ConvergenceError", "DomainError"],
    "geometry": [
        "Geometry", "RegularPolygon", "angle_from_area", "area_bounds", "area_from_angle",
        "perimeter", "side_length", "validate_area",
    ],
    "threshold": ["ThresholdResult", "critical_angle", "inflection_point"],
}

ALL = [
    "ArgumentError", "BracketError", "Configuration", "ConvergenceError",
    "CounterexampleResult", "DomainError", "Geometry", "MergeStep", "RegularPolygon",
    "SplitAssessment", "SplitFunctionParams", "ThresholdResult", "Verdict",
    "angle_from_area", "area_bounds", "area_from_angle", "assess_configuration",
    "assess_two_split", "brute_force_min", "counterexample_triangles", "critical_angle",
    "equal_split_margin", "euclidean_pythagoras_check", "half_side", "half_side_d1",
    "inflection_point", "merge_chain", "perimeter", "side_length", "spherical_half_side",
    "split_objective", "total_area", "total_perimeter", "validate_area",
]

# Every command loads these.
EVERY_COMMAND = {"isoperim", "isoperim.cli", "isoperim.errors", "isoperim.geometry"}

# Each README command, the package modules it loads, and the length and
# SHA-256 of its stdout as the eagerly importing package printed it; the two
# theta commands as the solve in the deficit variable prints them, from the
# tabulated root for n in [8, 55) (38 of its 48 rows changed when that start
# replaced the series one there).
README_COMMANDS = [
    ("perim hyperbolic 3 --area 1.5707963267948966", set(), 228,
     "6f4549320d1f2b13862f7a07eb4ec49cb9d0300b09fa8c24af648df964fffc23"),
    ("perim spherical 3 --angle 90 --degrees", set(), 229,
     "263b3f59ea882b179016ce764a304301129108d5f203763a185799d3ba208f81"),
    ("theta 3", {"analysis", "threshold"}, 198,
     "3f1166c76ad8ec933349f83ba9904d7d549c99b39125b057041b61994fb4c54e"),
    ("theta --range 3 50", {"analysis", "threshold"}, 2824,
     "02c913bd2f9acb07e6f802ea3a674a356713103fe356e460f05673e8f034b96e"),
    ("split euclidean 4 --total-area 25 --areas 9,16",
     {"analysis", "configurations", "threshold"}, 298,
     "832f0db0774741e9a20987b68bbcd63f3d08f885c927e8c6c92f8303bda437df"),
    ("split hyperbolic 3 --total-area 2.8415926",
     {"analysis", "configurations", "threshold"}, 262,
     "22036ef5feea0e303f97b19b7351a0e71ce3c0d9bcee4d89c62bf4ffd9c7e5e4"),
    ("scan --phi 3", {"analysis"}, 39026,
     "93f0e747dbe1f09ea498f8ff78958ac8a5fc10b267ee8f61108579a9fcdada5b"),
    ("scan --g 3 --format json", {"analysis"}, 38131,
     "d434df1c3753839158bad8a0c09a826adcc1c40ba1938b3e450a309f78ba19d3"),
    ("scan --h 3 1.5471975511965977", {"analysis"}, 37581,
     "ffd166d8538678316d9af7636db4a5ae1b73058e020397fdfddc440a9a884bdb"),
    ("counterexample --epsilon 0.1", {"analysis", "configurations", "threshold"}, 270,
     "19978cb0a1826d0d9ee28f47e3fc41f3900504602bd69d7c41f39534fd06f463"),
]


def run_fresh(code: str) -> None:
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_all_is_pinned():
    assert isoperim.__all__ == ALL
    assert sorted(name for names in HOMES.values() for name in names) == ALL


def test_assess_two_split_takes_no_split_angle():
    # the equal split only: an unequal one is a Configuration for assess_configuration
    params = inspect.signature(isoperim.assess_two_split).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
        for name in ("geometry", "n", "total")
    ]


def test_brute_force_min_takes_no_evaluation_budget():
    # MAX_PARTS and MAX_RESOLUTION bound the grid to at most 501001 cells
    params = inspect.signature(isoperim.brute_force_min).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
        for name in ("geometry", "n", "total", "k_max", "resolution")
    ]


def test_import_loads_no_submodule():
    run_fresh(
        """
        import sys
        before = set(sys.modules)
        import isoperim
        added = set(sys.modules) - before
        assert added == {"isoperim"}, sorted(added)
        assert "dataclasses" not in sys.modules and "numpy" not in sys.modules
        """
    )


def test_each_name_is_its_home_modules_object():
    run_fresh(
        f"""
        import importlib, sys
        import isoperim
        for home, names in {HOMES!r}.items():
            for name in names:
                obj = getattr(isoperim, name)
                assert obj is getattr(importlib.import_module("isoperim." + home), name), name
                assert vars(isoperim)[name] is obj, name  # bound once read
        """
    )


def test_star_import_and_dir():
    run_fresh(
        f"""
        import isoperim
        namespace = {{}}
        exec("from isoperim import *", namespace)
        for name in {ALL!r}:
            assert namespace[name] is getattr(isoperim, name), name
        assert set({ALL!r}) <= set(dir(isoperim))
        assert "__version__" in dir(isoperim)
        """
    )


def test_dir_lists_every_public_name():
    names = dir(isoperim)
    assert names == sorted(names)
    assert {*isoperim.__all__, "__version__"} <= set(names)


def test_unknown_name_raises_attribute_error():
    try:
        isoperim.nope
    except AttributeError as exc:
        assert str(exc) == "module 'isoperim' has no attribute 'nope'"
    else:
        raise AssertionError("isoperim.nope did not raise")
    assert not hasattr(isoperim, "nope")
    assert getattr(isoperim, "nope", None) is None


def test_first_access_from_threads_returns_one_object():
    run_fresh(
        f"""
        import threading
        import isoperim
        names = {ALL!r}
        barrier = threading.Barrier(8)
        seen = [None] * 8

        def read(i):
            barrier.wait()
            seen[i] = [getattr(isoperim, name) for name in names]

        threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for objs in seen[1:]:
            assert all(a is b for a, b in zip(objs, seen[0])), "threads saw different objects"
        assert all(getattr(isoperim, n) is o for n, o in zip(names, seen[0]))
        """
    )


@pytest.mark.parametrize(
    "argv, modules, size, digest", README_COMMANDS, ids=[c[0] for c in README_COMMANDS]
)
def test_each_cli_command_loads_only_its_modules(argv, modules, size, digest):
    # -X importtime lists on stderr every module the process imports
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "isoperim", *argv.split()],
        capture_output=True, check=True,
    )
    loaded = {
        line.rsplit(b"|", 1)[1].strip().decode()
        for line in result.stderr.splitlines()
        if line.startswith(b"import time:") and b"|" in line
    }
    package = {name for name in loaded if name.split(".")[0] == "isoperim"}
    assert package == EVERY_COMMAND | {f"isoperim.{m}" for m in modules}
    assert "numpy" not in loaded
    assert (len(result.stdout), hashlib.sha256(result.stdout).hexdigest()) == (size, digest)
