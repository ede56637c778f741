"""The contract every value type keeps: that of a frozen dataclass.

Each case builds one instance from its fields given by keyword, in field
order.  The contract: equality and hash by field, ``repr`` reading
``Cls(field=value, ...)``, a pickle round trip, ``FrozenInstanceError`` on
assignment and deletion, no per-instance ``__dict__``, the declared
defaults, and validation errors that name the first offending field.
"""

import dataclasses
import math
import pickle

import pytest

from invgeo.errors import (
    DegenerateParameter,
    InvalidTolerance,
    NonFiniteEntry,
    NotUnitVector,
)
from invgeo.householder import UnitVec2
from invgeo.mat2 import Mat2, Tolerance, Vec2
from invgeo.matfun import SQRT, Cardinality, RootCardinality, ScalarFunction
from invgeo.quadric import (
    BellPoint,
    GeneratorPair,
    LocusParams,
    SurfaceClass,
    SurfacePoint,
    SurfaceTag,
)
from invgeo.roots import RootFamily, RootTag
from invgeo.splitquat import SplitQuat
from invgeo.xform import Decomposition, ElementaryTransform, TransformKind
from oracle import RootSearchGrid

M = Mat2(1.0, 2.0, 3.0, 4.0)
REFLECT = ElementaryTransform(TransformKind.REFLECT_X, Mat2(1.0, 0.0, 0.0, -1.0))
SHEAR = ElementaryTransform(TransformKind.SHEAR_X, Mat2(1.0, 5.0, 0.0, 1.0), param=5.0)

# (class, fields in order, another value of the first field)
CASES = [
    (Tolerance, {"abs_tol": 1e-6, "exact_tol": 1e-10}, 1e-5),
    (Vec2, {"x": 1.5, "y": -2.0}, 0.5),
    (Mat2, {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}, -1.0),
    (LocusParams, {"alpha": 0.0, "beta": -1.0}, 1.0),
    (BellPoint, {"x": 1.0, "y": 0.5, "z": -0.25, "alpha": 2.0}, 3.0),
    (SurfaceClass, {"tag": SurfaceTag.ONE_SHEET_HYPERBOLOID, "radius_sq": 2.0},
     SurfaceTag.RIGHT_CIRCULAR_CONE),
    (GeneratorPair, {"u": M, "v": -M}, Mat2.identity()),
    (SurfacePoint, {"bell": BellPoint(1.0, 2.0, 3.0), "matrix": M, "tag": "vertex"},
     BellPoint(0.0, 0.0, 0.0)),
    (RootFamily, {"tag": RootTag.GENERAL, "a": 0.5, "b": 2.0, "c": None},
     RootTag.LOWER_C_PLUS_MINUS),
    (ScalarFunction, {"f": SQRT.f, "divided_difference": SQRT.divided_difference,
                      "name": "sqrt"}, math.exp),
    (RootCardinality, {"tag": Cardinality.FINITE, "n": 4}, Cardinality.ZERO),
    (RootSearchGrid, {"points_per_axis": 3, "lo": -2.0, "hi": 2.0, "residual_tol": 1e-8,
                      "dedup_tol": 1e-3}, 5),
    (ElementaryTransform, {"kind": TransformKind.SHEAR_X, "matrix": SHEAR.matrix,
                           "param": 5.0, "additive": False}, TransformKind.SHEAR_Y),
    (Decomposition, {"factors": (REFLECT, SHEAR), "additive_part": SHEAR}, (SHEAR,)),
    (UnitVec2, {"v1": 0.6, "v2": 0.8}, 0.8),
    (SplitQuat, {"w": 1.0, "x": -2.0, "y": 0.5, "z": 3.0}, 0.0),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def _altered(cls, fields, first):
    name = next(iter(fields))
    if cls is RootFamily:  # another tag takes other parameters
        return cls(first, c=1.5)
    if cls is UnitVec2:
        return cls(first, 0.6)
    return cls(**{**fields, name: first})


@pytest.mark.parametrize("cls, fields, first", CASES, ids=IDS)
def test_keyword_construction_keeps_every_field(cls, fields, first):
    value = cls(**fields)
    assert {name: getattr(value, name) for name in fields} == fields
    assert cls(*fields.values()) == value


@pytest.mark.parametrize("cls, fields, first", CASES, ids=IDS)
def test_repr_lists_fields_in_order(cls, fields, first):
    value = cls(**fields)
    body = ", ".join(f"{name}={field!r}" for name, field in fields.items())
    assert repr(value) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls, fields, first", CASES, ids=IDS)
def test_equality_and_hash_go_by_field(cls, fields, first):
    value, twin = cls(**fields), cls(**fields)
    assert value is not twin
    assert value == twin and not value != twin
    assert hash(value) == hash(twin) == hash(tuple(fields.values()))
    other = _altered(cls, fields, first)
    assert value != other and not value == other
    assert len({value, twin, other}) == 2


@pytest.mark.parametrize("cls, fields, first", CASES, ids=IDS)
def test_equality_with_another_class_is_not_implemented(cls, fields, first):
    value = cls(**fields)
    assert value.__eq__(object()) is NotImplemented
    assert value.__eq__(tuple(fields.values())) is NotImplemented
    assert value != tuple(fields.values())
    # same field values in another value type are still not equal
    assert Mat2(1.0, 2.0, 3.0, 4.0) != SplitQuat(1.0, 2.0, 3.0, 4.0)
    assert LocusParams(1.0, 2.0) != Vec2(1.0, 2.0)


@pytest.mark.parametrize("cls, fields, first", CASES, ids=IDS)
def test_pickle_round_trip_is_exact(cls, fields, first):
    value = cls(**fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is cls
        assert back == value
        for name, field in fields.items():
            got = getattr(back, name)
            assert got == field and type(got) is type(field)


@pytest.mark.parametrize("cls, fields, first", CASES, ids=IDS)
def test_assignment_and_deletion_raise_frozen_instance_error(cls, fields, first):
    value = cls(**fields)
    for name in fields:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"'{name}'"):
            setattr(value, name, first)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"'{name}'"):
            delattr(value, name)
    assert {name: getattr(value, name) for name in fields} == fields


@pytest.mark.parametrize("cls, fields, first", CASES, ids=IDS)
def test_no_instance_dict(cls, fields, first):
    assert not hasattr(cls(**fields), "__dict__")


def test_defaults():
    assert Tolerance() == Tolerance(abs_tol=1e-9, exact_tol=1e-12)
    assert BellPoint(1.0, 2.0, 3.0).alpha == 0.0
    assert SurfacePoint(BellPoint(1.0, 2.0, 3.0), M).tag == "surface"
    assert RootFamily(RootTag.IDENTITY) == RootFamily(RootTag.IDENTITY, None, None, None)
    f = ScalarFunction(math.exp)
    assert (f.divided_difference, f.name) == (None, "")
    assert RootCardinality(Cardinality.INFINITE).n is None
    grid = RootSearchGrid()
    assert (grid.points_per_axis, grid.lo, grid.hi, grid.residual_tol, grid.dedup_tol) == (
        4, -3.0, 3.0, 1e-9, 1e-4)
    t = ElementaryTransform(TransformKind.REFLECT_X, M)
    assert (t.param, t.additive) == (None, False)
    assert Decomposition((REFLECT,)).additive_part is None


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, error, message", [
    (lambda: Vec2(NAN, INF), NonFiniteEntry, "^x must be finite"),
    (lambda: Vec2(1.0, INF), NonFiniteEntry, "^y must be finite"),
    (lambda: Mat2(1.0, NAN, INF, 0.0), NonFiniteEntry, "^b must be finite"),
    (lambda: Mat2(1.0, 0.0, 0.0, -INF), NonFiniteEntry, "^d must be finite"),
    (lambda: LocusParams(NAN, INF), NonFiniteEntry, "^alpha must be finite"),
    (lambda: LocusParams(0.0, INF), NonFiniteEntry, "^beta must be finite"),
    (lambda: BellPoint(0.0, 1.0, INF, NAN), NonFiniteEntry, "^z must be finite"),
    (lambda: BellPoint(0.0, 1.0, 2.0, alpha=NAN), NonFiniteEntry, "^alpha must be finite"),
    (lambda: SplitQuat(0.0, INF, NAN, 1.0), NonFiniteEntry, "^x must be finite"),
    (lambda: SplitQuat(0.0, 0.0, 0.0, NAN), NonFiniteEntry, "^z must be finite"),
    (lambda: RootFamily(RootTag.GENERAL, b=2.0), DegenerateParameter,
     "^general requires parameter a$"),
    (lambda: RootFamily(RootTag.GENERAL, a=2.0, c=1.0), DegenerateParameter,
     "^general requires parameter b$"),
    (lambda: RootFamily(RootTag.IDENTITY, b=1.0, c=2.0), DegenerateParameter,
     "^identity does not take parameter b$"),
    (lambda: RootFamily(RootTag.UPPER_B_PLUS_MINUS, a=1.0), DegenerateParameter,
     "^upper_b_plus_minus does not take parameter a$"),
    (lambda: RootFamily(RootTag.GENERAL, a=1.0, b=0.0), DegenerateParameter,
     "^general family requires b != 0$"),
    (lambda: UnitVec2(NAN, 0.0), NonFiniteEntry, "^v1 must be finite"),
    (lambda: UnitVec2(0.0, INF), NonFiniteEntry, "^v2 must be finite"),
    (lambda: UnitVec2(1.0, 1.0), NotUnitVector, r"^\|v\| = "),
    (lambda: Tolerance(abs_tol=1e-12, exact_tol=1e-9), InvalidTolerance,
     "^need 0 < exact_tol <= abs_tol, got 1e-09, 1e-12$"),
])
def test_validation_names_the_first_offending_field(build, error, message):
    with pytest.raises(error, match=message):
        build()
