"""Isoperimetry of disconnected regular n-gons in constant-curvature planes."""

from .analysis import (
    SplitFunctionParams,
    equal_split_margin,
    half_side,
    half_side_d1,
    spherical_half_side,
    split_objective,
)
from .configurations import (
    Configuration,
    CounterexampleResult,
    MergeStep,
    SplitAssessment,
    Verdict,
    assess_configuration,
    assess_two_split,
    brute_force_min,
    counterexample_triangles,
    euclidean_pythagoras_check,
    merge_chain,
    total_area,
    total_perimeter,
)
from .errors import (
    ArgumentError,
    BracketError,
    ConvergenceError,
    DomainError,
    ResourceError,
)
from .geometry import (
    Geometry,
    RegularPolygon,
    angle_from_area,
    area_bounds,
    area_from_angle,
    perimeter,
    side_length,
    validate_area,
)
from .threshold import ThresholdResult, critical_angle, inflection_point

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "BracketError",
    "Configuration",
    "ConvergenceError",
    "CounterexampleResult",
    "DomainError",
    "Geometry",
    "MergeStep",
    "RegularPolygon",
    "ResourceError",
    "SplitAssessment",
    "SplitFunctionParams",
    "ThresholdResult",
    "Verdict",
    "angle_from_area",
    "area_bounds",
    "area_from_angle",
    "assess_configuration",
    "assess_two_split",
    "brute_force_min",
    "counterexample_triangles",
    "critical_angle",
    "equal_split_margin",
    "euclidean_pythagoras_check",
    "half_side",
    "half_side_d1",
    "inflection_point",
    "merge_chain",
    "perimeter",
    "side_length",
    "spherical_half_side",
    "split_objective",
    "total_area",
    "total_perimeter",
    "validate_area",
]
