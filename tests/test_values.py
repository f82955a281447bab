"""The value classes' data-model contract, one sample of each class.

Each class prints as ``Name(field=value, ...)``, compares field by field
with instances of its own class only, hashes equal values alike (a
Fraction entry and the constant RatFunc of the same value included), and
refuses assignment, and copies and pickles to an equal value.  Construction
checks raise the types and messages pinned below.
"""
from __future__ import annotations

import copy
import pickle
from fractions import Fraction
from itertools import combinations

import pytest

from gonalslope.bounds import (BlowupReport, BlowupRow, BoundResult, C2Bound, ScenarioError,
                               ScenarioSpec, SplittingType)
from gonalslope.chern import BundleData, ChernCharacter
from gonalslope.chow import ModelMismatchError, NumClass, Record, SurfaceModel
from gonalslope.ratcalc import G, RatFunc
from gonalslope.slope import FibrationInvariants, ModuliData

const = RatFunc.const
M1 = SurfaceModel(0, 1, 0)
C = NumClass(M1, Fraction(1, 2), 3, (Fraction(-1, 4),))
C_CONST = NumClass(M1, const(Fraction(1, 2)), 3, (Fraction(-1, 4),))
C_SYMBOLIC = NumClass(M1, G / 2, 3, (Fraction(-1, 4),))
SPEC = ScenarioSpec(3, 5, "general_odd")
ROW = BlowupRow(Fraction(14), Fraction(7, 2), Fraction(5), Fraction(3, 2), Fraction(10, 3), "above")
BASE = 5 - 8 / (G + 1)

_C_REPR = "NumClass(model=SurfaceModel(b=0, s=1, t=0), _c=(2, 12, -1), _den=4)"
_SPEC_REPR = "ScenarioSpec(n=3, g=5, case='general_odd', gamma=None, s=0, t=0)"
_ROW_REPR = ("BlowupRow(c1sq=Fraction(14, 1), c2_bound=Fraction(7, 2), kf2=Fraction(5, 1), "
             "chif=Fraction(3, 2), slope=Fraction(10, 3), verdict='above')")

#: class name -> (sample, an equal value built another way, the sample's repr)
SAMPLES = {
    "SurfaceModel": (SurfaceModel(1, 2), SurfaceModel(b=1, s=2, t=0),
                     "SurfaceModel(b=1, s=2, t=0)"),
    "NumClass": (C, C_CONST, _C_REPR),
    "BundleData": (BundleData(2, C, Fraction(3, 2)), BundleData(2, C_CONST, const(Fraction(3, 2))),
                   f"BundleData(rank=2, c1={_C_REPR}, c2=Fraction(3, 2))"),
    "ChernCharacter": (ChernCharacter(Fraction(2), C, Fraction(1, 2)),
                       ChernCharacter(2, C_CONST, const(Fraction(1, 2))),
                       f"ChernCharacter(rank=Fraction(2, 1), d1={_C_REPR}, d2=Fraction(1, 2))"),
    "FibrationInvariants": (FibrationInvariants(Fraction(11, 3), 3, 11),
                            FibrationInvariants(const(Fraction(11, 3)), Fraction(3), 11),
                            "FibrationInvariants(kf2=Fraction(11, 3), chif=3, slope=11)"),
    "ModuliData": (ModuliData(Fraction(25, 3), 25, 3), ModuliData(const(Fraction(25, 3)), 25, 3),
                   "ModuliData(s_b=Fraction(25, 3), delta_b=25, lambda_b=3)"),
    "SplittingType": (SplittingType(3, 5), SplittingType(const(3), 5),
                      "SplittingType(alpha=Fraction(3, 1), beta=Fraction(5, 1))"),
    "ScenarioSpec": (SPEC, ScenarioSpec(n=3, g=5, case="general_odd", gamma=None, s=0, t=0),
                     _SPEC_REPR),
    "C2Bound": (C2Bound("c2(E)", Fraction(7, 2), Fraction(1, 4), Fraction(0), True),
                C2Bound("c2(E)", const(Fraction(7, 2)), Fraction(1, 4), 0, True),
                "C2Bound(target='c2(E)', value=Fraction(7, 2), coefficient=Fraction(1, 4), "
                "correction=Fraction(0, 1), strict=True)"),
    "BoundResult": (BoundResult(SPEC, Fraction(1, 4), Fraction(0), True, BASE, None, None, ("a",),
                                (), ()),
                    BoundResult(SPEC, const(Fraction(1, 4)), 0, True, BASE, None, None, ("a",),
                                (), ()),
                    f"BoundResult(scenario={_SPEC_REPR}, c2_coefficient=Fraction(1, 4), "
                    "correction=Fraction(0, 1), strict=True, "
                    "derived_bound=RatFunc[(5g - 3)/(g + 1)], stated_bound=None, "
                    "discrepancy=None, chain=('a',), notes=(), samples=())"),
    "BlowupRow": (ROW, BlowupRow(14, Fraction(7, 2), 5, Fraction(3, 2), const(Fraction(10, 3)),
                                 "above"), _ROW_REPR),
    "BlowupReport": (BlowupReport(SPEC, (ROW,), BASE, Fraction(11, 3), Fraction(10, 3),
                                  Fraction(5), None, True, (), ()),
                     BlowupReport(SPEC, (ROW,), BASE, const(Fraction(11, 3)), Fraction(10, 3),
                                  5, None, True, (), ()),
                     f"BlowupReport(scenario={_SPEC_REPR}, rows=({_ROW_REPR},), "
                     "baseline=RatFunc[(5g - 3)/(g + 1)], baseline_at_g=Fraction(11, 3), "
                     "minimum=Fraction(10, 3), limit=Fraction(5, 1), admissible_from=None, "
                     "strict=True, chain=(), notes=())"),
}


@pytest.mark.parametrize("name", SAMPLES)
def test_repr(name):
    sample, _, text = SAMPLES[name]
    assert type(sample).__name__ == name
    assert repr(sample) == text


@pytest.mark.parametrize("name", SAMPLES)
def test_equal_values_hash_alike(name):
    sample, other, _ = SAMPLES[name]
    assert sample is not other and sample == other and other == sample
    assert not sample != other
    assert hash(sample) == hash(other)
    assert len({sample, other}) == 1


def test_no_equality_across_classes():
    same_fields = [  # the same field values in classes of the same arity
        (SurfaceModel(1, 2, 0), ChernCharacter(1, 2, 0), FibrationInvariants(1, 2, 0),
         ModuliData(1, 2, 0)),
        (BundleData(2, C, 1), ChernCharacter(2, C, 1)),
        (SPEC, BlowupRow(3, 5, "general_odd", None, 0, 0)),
    ]
    everything = [s for s, _, _ in SAMPLES.values()]
    for group in [*same_fields, everything]:
        for a, b in combinations(group, 2):
            assert a != b and b != a and not a == b
            assert a.__eq__(b) is NotImplemented and b.__eq__(a) is NotImplemented


@pytest.mark.parametrize("name", SAMPLES)
def test_no_equality_with_other_objects(name):
    sample, _, _ = SAMPLES[name]
    for other in (None, 0, "x", object()):
        assert sample != other and sample.__eq__(other) is NotImplemented


@pytest.mark.parametrize("name", SAMPLES)
def test_assignment_refused(name):
    sample, _, text = SAMPLES[name]
    field = text[len(name) + 1:].split("=")[0]
    for attr in (field, "other"):
        with pytest.raises(AttributeError):
            setattr(sample, attr, 1)
        with pytest.raises(AttributeError):
            delattr(sample, attr)
    assert repr(sample) == text


@pytest.mark.parametrize("sample", [*(s for s, _, _ in SAMPLES.values()), C_SYMBOLIC],
                         ids=[*SAMPLES, "NumClass_symbolic"])
def test_copy_and_pickle_round_trip(sample):
    for again in (copy.copy(sample), copy.deepcopy(sample), pickle.loads(pickle.dumps(sample))):
        assert again == sample and hash(again) == hash(sample) and repr(again) == repr(sample)


def test_no_record_has_an_instance_dict():
    """A subclass that leaves out __slots__ = () would give its instances a __dict__."""
    records = {cls.__name__ for cls in Record.__subclasses__()}
    assert records <= set(SAMPLES)
    for name in records:
        assert not hasattr(SAMPLES[name][0], "__dict__"), name


#: (construction, exception type, exact message)
REFUSALS = [
    (lambda: SurfaceModel(1.0), TypeError, "model data must be ints: SurfaceModel(b=1.0, s=0, t=0)"),
    (lambda: SurfaceModel(True), TypeError,
     "model data must be ints: SurfaceModel(b=True, s=0, t=0)"),
    (lambda: SurfaceModel(0, -1), ValueError, "negative model data: SurfaceModel(b=0, s=-1, t=0)"),
    (lambda: SurfaceModel(0, 0, 10_001), ValueError,
     "blow-up count beyond supported size: SurfaceModel(b=0, s=0, t=10001)"),
    (lambda: NumClass(M1, 1, 2), ModelMismatchError,
     "coefficient vectors (0, 0) do not fit SurfaceModel(b=0, s=1, t=0)"),
    (lambda: NumClass(M1, 1.5, 2, (0,)), TypeError, "not an exact rational: 1.5"),
    (lambda: BundleData(2.0, C, 0), TypeError, "rank must be an int, not 2.0"),
    (lambda: BundleData(0, C, 0), ValueError, "rank must be positive, got 0"),
    (lambda: BundleData(1, C, 1), ValueError, "a line bundle has c2 = 0"),
    (lambda: BundleData(2, C, 0.5), TypeError, "not an exact rational: 0.5"),
    (lambda: BundleData(2, 5, 0), TypeError, "c1 must be a NumClass, not 5"),
    (lambda: SplittingType(5, 3), ValueError, "need 0 < alpha <= beta, got (5, 3)"),
    (lambda: SplittingType(0, 3), ValueError, "need 0 < alpha <= beta, got (0, 3)"),
    (lambda: SplittingType(0.5, 3), TypeError, "not an exact rational: 0.5"),
    (lambda: ScenarioSpec(3, 5.0, "general_odd"), ScenarioError,
     "n, g and gamma must be integers, got n=3, g=5.0, gamma=None"),
    (lambda: ScenarioSpec(5, 5, "general_odd"), ScenarioError, "degree must be 3 or 4, got 5"),
    (lambda: ScenarioSpec(3, 5, "general_odd", s=1), ScenarioError,
     "degree 3 admits no total-ramification blow-ups"),
    (lambda: ScenarioSpec(4, 11, "general_odd", t=-1), ScenarioError,
     "blow-up counts must be nonnegative integers, got s=0, t=-1"),
    (lambda: ScenarioSpec(3, 5, "mystery"), ScenarioError,
     "unknown case 'mystery'; choose from ('index_only', 'general_odd', 'general_even', "
     "'nonfactorizing', 'factorizing')"),
    (lambda: ScenarioSpec(3, 5, "nonfactorizing"), ScenarioError,
     "case 'nonfactorizing' applies to degree 4 only"),
    (lambda: ScenarioSpec(4, 11, "factorizing"), ScenarioError, "factorizing needs gamma"),
    (lambda: ScenarioSpec(4, 11, "factorizing", 0), ScenarioError, "gamma must be >= 1, got 0"),
    (lambda: ScenarioSpec(4, 11, "general_odd", 1), ScenarioError,
     "gamma is only meaningful for factorizing, got 'general_odd'"),
]


@pytest.mark.parametrize("make, error, message", REFUSALS, ids=[m for _, _, m in REFUSALS])
def test_construction_refusals(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == message


#: class name -> a new value for each field of its sample, in field order
SWAPS = {
    "SurfaceModel": (2, 3, 1),
    "BundleData": (3, C + C, Fraction(5, 2)),
    "ChernCharacter": (Fraction(3), C + C, Fraction(3, 2)),
    "FibrationInvariants": (5, 2, Fraction(5, 2)),
    "ModuliData": (Fraction(19, 2), 20, 2),
    "SplittingType": (4, 6),
    "ScenarioSpec": (4, 7, "general_even", 1, 1, 1),
    "C2Bound": ("c2(F)", Fraction(9, 2), Fraction(1, 3), Fraction(1), False),
    "BoundResult": (SPEC.replace(g=7), Fraction(1, 3), Fraction(1), False, BASE + 1, BASE,
                    const(1), ("b",), ("n",), ((5, Fraction(11, 3), None),)),
    "BlowupRow": (Fraction(20), Fraction(5), Fraction(7), Fraction(2), None, "inadmissible"),
    "BlowupReport": (SPEC.replace(t=1), (), BASE + 1, Fraction(4), Fraction(3), Fraction(6),
                     Fraction(36, 11), False, ("c",), ("n",)),
}


def _outcome(make):
    """("made", value), or the type and message of what making it raised."""
    try:
        return "made", make()
    except Exception as exc:
        return type(exc), str(exc)


def test_swaps_cover_every_record():
    assert set(SWAPS) == {cls.__name__ for cls in Record.__subclasses__()}


@pytest.mark.parametrize("name", SWAPS)
def test_replace_is_the_positional_construction(name):
    """replace(field=v) makes, or refuses, exactly what the class given the sample's
    values with v in that field's place does."""
    sample, _, _ = SAMPLES[name]
    cls, fields = type(sample), type(sample)._fields
    values = [getattr(sample, field) for field in fields]
    assert len(SWAPS[name]) == len(fields)
    for i, (field, new) in enumerate(zip(fields, SWAPS[name])):
        assert new != values[i], field
        outcome = _outcome(lambda: sample.replace(**{field: new}))
        assert outcome == _outcome(lambda: cls(*values[:i], new, *values[i + 1:])), field
        if outcome[0] == "made":
            assert getattr(outcome[1], field) == new and outcome[1] != sample, field
    assert sample.replace() == sample


@pytest.mark.parametrize("name", SWAPS)
def test_replace_refuses_an_unknown_field(name):
    sample, _, _ = SAMPLES[name]
    with pytest.raises(TypeError) as info:
        sample.replace(bogus=1)
    assert str(info.value) == f"{name} has no field 'bogus'"


def test_replace_checks_again():
    with pytest.raises(ValueError, match=r"^negative model data: SurfaceModel\(b=1, s=-1, t=0\)$"):
        SurfaceModel(1).replace(s=-1)
    with pytest.raises(ScenarioError, match=r"^unknown case 'mystery'"):
        SPEC.replace(case="mystery")


#: the records Record.__init__ builds, with their field counts
PASS_THROUGH = {"ChernCharacter": 3, "FibrationInvariants": 3, "ModuliData": 3, "C2Bound": 5,
                "BoundResult": 10, "BlowupRow": 6, "BlowupReport": 10}


@pytest.mark.parametrize("name", PASS_THROUGH)
def test_record_counts_its_values(name):
    sample, _, _ = SAMPLES[name]
    cls, count = type(sample), PASS_THROUGH[name]
    assert "__init__" not in vars(cls) and len(cls._fields) == count
    values = [getattr(sample, field) for field in cls._fields]
    for given in (values[:-1], [*values, None]):
        with pytest.raises(TypeError) as info:
            cls(*given)
        assert str(info.value) == f"{name} takes {count} values, got {len(given)}"
    assert cls(*values) == sample
