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
from gonalslope.chow import ModelMismatchError, NumClass, SurfaceModel
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
    "BoundResult": (BoundResult(SPEC, Fraction(1, 4), Fraction(0), True, BASE, None, None, ("a",)),
                    BoundResult(SPEC, const(Fraction(1, 4)), 0, True, BASE, None, None, ("a",),
                                (), ()),
                    f"BoundResult(scenario={_SPEC_REPR}, c2_coefficient=Fraction(1, 4), "
                    "correction=Fraction(0, 1), strict=True, "
                    "derived_bound=RatFunc[(5g - 3)/(g + 1)], stated_bound=None, "
                    "discrepancy=None, chain=('a',), notes=(), samples=())"),
    "BlowupRow": (ROW, BlowupRow(14, Fraction(7, 2), 5, Fraction(3, 2), const(Fraction(10, 3)),
                                 "above"), _ROW_REPR),
    "BlowupReport": (BlowupReport(SPEC, (ROW,), BASE, Fraction(11, 3), Fraction(10, 3),
                                  Fraction(5), None, True),
                     BlowupReport(SPEC, (ROW,), BASE, const(Fraction(11, 3)), Fraction(10, 3),
                                  5, None, True, ()),
                     f"BlowupReport(scenario={_SPEC_REPR}, rows=({_ROW_REPR},), "
                     "baseline=RatFunc[(5g - 3)/(g + 1)], baseline_at_g=Fraction(11, 3), "
                     "minimum=Fraction(10, 3), limit=Fraction(5, 1), admissible_from=None, "
                     "strict=True, chain=())"),
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
