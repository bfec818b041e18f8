"""Isoperimetry of disconnected regular n-gons in constant-curvature planes.

`import isoperim` loads no submodule: each public name imports its home
module when it is first read (PEP 562), and is then an ordinary global.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_HOMES = {
    **dict.fromkeys(
        ("SplitFunctionParams", "equal_split_margin", "half_side", "half_side_d1",
         "spherical_half_side", "split_objective"),
        "analysis",
    ),
    **dict.fromkeys(
        ("Configuration", "CounterexampleResult", "MergeStep", "SplitAssessment", "Verdict",
         "assess_configuration", "assess_two_split", "brute_force_min",
         "counterexample_triangles", "euclidean_pythagoras_check", "merge_chain",
         "total_area", "total_perimeter"),
        "configurations",
    ),
    **dict.fromkeys(
        ("ArgumentError", "BracketError", "ConvergenceError", "DomainError"), "errors"
    ),
    **dict.fromkeys(
        ("Geometry", "RegularPolygon", "angle_from_area", "area_bounds", "area_from_angle",
         "perimeter", "side_length", "validate_area"),
        "geometry",
    ),
    **dict.fromkeys(("ThresholdResult", "critical_angle", "inflection_point"), "threshold"),
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
