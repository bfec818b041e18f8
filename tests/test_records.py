"""The records with their own __init__ behave as the generated dataclass would.

Configuration, RegularPolygon, MergeStep, SplitAssessment,
CounterexampleResult and ThresholdResult write their fields into __dict__
themselves (the last four in an __init__ made by geometry._record). Each is
compared here with a plain frozen dataclass made from its own fields, and
Configuration's one bounds check keeps the texts of a per-part validate_area.
"""

import copy
import dataclasses
import inspect
import math
import pickle
import re

import pytest

from isoperim import (
    Configuration,
    CounterexampleResult,
    DomainError,
    Geometry,
    MergeStep,
    RegularPolygon,
    SplitAssessment,
    ThresholdResult,
    Verdict,
)

HYP, SPH, EUC = Geometry.HYPERBOLIC, Geometry.SPHERICAL, Geometry.EUCLIDEAN


def reference(cls):
    """A frozen dataclass with cls's name and fields and the generated __init__."""
    specs = [
        (f.name, f.type)
        if f.default is dataclasses.MISSING
        else (f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


_CONFIG = Configuration(HYP, 3, (0.5, 1.0))
_POLYGON = RegularPolygon(HYP, 3, 1.5)
_STEP = MergeStep(1.25, 1.5, 2.0)

# per record: keyword arguments of two distinct valid instances
SAMPLES = {
    Configuration: (
        dict(geometry=HYP, n=3, areas=(0.5, 1.0)),
        dict(geometry=SPH, n=4, areas=(1.0,)),
    ),
    RegularPolygon: (
        dict(geometry=HYP, n=3, area=1.5),
        dict(geometry=EUC, n=6, area=2.0),
    ),
    MergeStep: (
        dict(pair_perimeter=1.25, merged_area=1.5, merged_perimeter=2.0),
        dict(pair_perimeter=1.25, merged_area=1.5, merged_perimeter=-0.0),
    ),
    SplitAssessment: (
        dict(single_perimeter=3.0, config_perimeter=4.0, verdict=Verdict.TIE, angle=0.5),
        dict(
            single_perimeter=3.0,
            config_perimeter=2.5,
            verdict=Verdict.SPLIT_BEATS_SINGLE,
            angle=0.5,
            critical_angle=0.75,
            witness=_CONFIG,
            merge_steps=(_STEP,),
            part_perimeters=(1.0, 1.5),
        ),
    ),
    CounterexampleResult: (
        dict(config=_CONFIG, single=_POLYGON, split_perimeter=5.0, single_perimeter=6.0,
             margin=1.0),
        dict(config=_CONFIG, single=_POLYGON, split_perimeter=5.0, single_perimeter=4.0,
             margin=-1.0),
    ),
    ThresholdResult: (
        dict(n=3, critical_angle=0.25, inflection=0.75, max_area=2.25, iterations=7,
             residual=0.0),
        dict(n=4, critical_angle=0.5, inflection=1.0, max_area=4.25, iterations=2,
             residual=1e-17),
    ),
}
RECORDS = list(SAMPLES)
ids = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_signature_matches_the_generated_one(cls):
    ref = reference(cls)
    assert dataclasses.is_dataclass(cls)
    assert inspect.signature(cls).parameters == inspect.signature(ref).parameters
    assert cls.__match_args__ == ref.__match_args__


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_fields_cannot_be_set_or_deleted(cls):
    obj = cls(**SAMPLES[cls][0])
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, f.name)
    assert obj == cls(**SAMPLES[cls][0])


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_eq_hash_and_repr_match_the_reference(cls):
    ref = reference(cls)
    first, second = SAMPLES[cls]
    for kwargs in (first, second):
        obj, expected = cls(**kwargs), ref(**kwargs)
        assert repr(obj) == repr(expected)
        assert hash(obj) == hash(expected)
        assert vars(obj) == vars(expected)
    assert (cls(**first) == cls(**first)) is (ref(**first) == ref(**first)) is True
    assert (cls(**first) == cls(**second)) is (ref(**first) == ref(**second)) is False
    # positional arguments fill the same fields as keywords
    assert cls(*first.values()) == cls(**first)


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_replace_copy_and_pickle_round_trip(cls):
    first, second = SAMPLES[cls]
    obj = cls(**first)
    assert dataclasses.replace(obj, **second) == cls(**second)
    assert dataclasses.replace(obj) == obj
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert clone == obj and clone is not obj
        assert type(clone) is cls and hash(clone) == hash(obj)


def test_configuration_makes_a_tuple_of_its_areas():
    config = Configuration(EUC, 4, [1.0, 2.0])
    assert config.areas == (1.0, 2.0) and type(config.areas) is tuple
    assert Configuration(EUC, 4, iter([3.0])).areas == (3.0,)


def test_replace_checks_the_new_values():
    with pytest.raises(DomainError, match=r"^area must be > 0\.0, got -1\.0$"):
        dataclasses.replace(_CONFIG, areas=(1.0, -1.0))
    with pytest.raises(DomainError, match=r"^side count must be >= 3, got 2$"):
        dataclasses.replace(_POLYGON, n=2)


PI, TWO_PI = repr(math.pi), repr(2 * math.pi)


# the texts of the per-part validate_area the single bounds check replaced
@pytest.mark.parametrize(
    "geometry, n, areas, message",
    [
        (HYP, 3, (math.pi, 1.0, 1.0), f"area must be < {PI} for hyperbolic n=3, got {PI}"),
        (HYP, 3, (1.0, -1.0, 1.0), "area must be > 0.0, got -1.0"),
        (HYP, 3, (1.0, 1.0, 0.0), "area must be > 0.0, got 0.0"),
        (SPH, 4, (1.0, 2 * math.pi), f"area must be < {TWO_PI} for spherical n=4, got {TWO_PI}"),
        (EUC, 4, (1.0, math.nan), "area must be > 0.0, got nan"),
        (EUC, 4, (math.inf,), "area must be < inf for euclidean n=4, got inf"),
        (HYP, 4, (1.0, -math.inf), "area must be > 0.0, got -inf"),
        (SPH, 3, (1.0, math.inf), f"area must be < {TWO_PI} for spherical n=3, got inf"),
        # the first bad part is named, wherever the others lie
        (HYP, 3, (1.0, -2.0, 5.0), "area must be > 0.0, got -2.0"),
        (HYP, 3, (5.0, -2.0, 1.0), f"area must be < {PI} for hyperbolic n=3, got 5.0"),
        # no part: the empty check comes before the side count and the plane
        (HYP, 2, (), "configuration needs at least one polygon"),
        (HYP, 3.0, (), "configuration needs at least one polygon"),
        ("hyperbolic", 3, (), "configuration needs at least one polygon"),
        # the side count, then the plane, then the parts
        (HYP, 2, (-1.0,), "side count must be >= 3, got 2"),
        (HYP, 3.0, (1.0,), "side count must be an integer, got 3.0"),
        ("hyperbolic", 2, (1.0,), "side count must be >= 3, got 2"),
        ("hyperbolic", 3, (1.0,), "geometry must be a Geometry, got 'hyperbolic'"),
        (None, 3, (-1.0,), "geometry must be a Geometry, got None"),
    ],
)
def test_configuration_error_texts(geometry, n, areas, message):
    with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
        Configuration(geometry, n, areas)


def test_configuration_non_number_part_fails_as_validate_area_does():
    message = "^'>' not supported between instances of 'str' and 'float'$"
    with pytest.raises(TypeError, match=message):
        Configuration(EUC, 4, (1.0, "2.0"))
    with pytest.raises(TypeError, match="^'int' object is not iterable$"):
        Configuration(EUC, 4, 5)
