"""Chern class calculus: Sym^2, Whitney sums, characters."""
from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest

from gonalslope import chern
from gonalslope.chern import (BundleData, ChernCharacter, UnsupportedRankError,
                              chern_character, sym2, sym2_roots_oracle, whitney,
                              whitney_quotient)
from gonalslope.chow import NumClass, SurfaceModel, intersect, self_intersection
from gonalslope.ratcalc import G


def rand_class(rng: random.Random, m: SurfaceModel) -> NumClass:
    q = lambda: Fraction(rng.randint(-12, 12), rng.randint(1, 4))
    return NumClass(m, q(), q(), tuple(q() for _ in range(m.s)),
                    tuple(q() for _ in range(m.t)))


def test_bundle_validation():
    m = SurfaceModel()
    with pytest.raises(ValueError):
        BundleData(0, m.t0(), 0)
    with pytest.raises(ValueError):
        BundleData(1, m.t0(), 3)
    line = BundleData(1, NumClass(m, 2, 5), 0)
    assert line.c1sq == 20


@pytest.fixture
def self_intersection_calls(monkeypatch) -> list:
    """The classes chern passes to self_intersection while the test runs."""
    calls = []

    def counting(a):
        calls.append(a)
        return self_intersection(a)

    monkeypatch.setattr(chern, "self_intersection", counting)
    return calls


def test_c1sq_computed_once_per_bundle(self_intersection_calls):
    m = SurfaceModel(1, 2, 1)
    e = BundleData(2, NumClass(m, 3, Fraction(1, 2), (1, -2), (5,)), 4)
    assert e.c1sq == e.c1sq == intersect(e.c1, e.c1) == -27
    assert self_intersection_calls == [e.c1]


@pytest.mark.parametrize("rank", [2, 3])
def test_sym2_built_once_per_bundle(rank, monkeypatch):
    m = SurfaceModel(1, 2, 1)
    e = BundleData(rank, NumClass(m, 3, Fraction(1, 2), (1, -2), (5,)), 4)
    built = []
    monkeypatch.setattr(chern, "BundleData", lambda *values: built.append(values)
                        or BundleData(*values))
    first = sym2(e)
    assert sym2(e) is first and len(built) == 1
    assert first == BundleData(*built[0]) and first.rank == {2: 3, 3: 6}[rank]
    other = BundleData(rank, e.c1, e.c2)  # equal, so its Sym^2 is equal, and its own
    assert sym2(other) == first and sym2(other) is not first and len(built) == 2


def test_c1sq_cache_leaves_equality_hash_and_repr():
    m = SurfaceModel(0, 1, 2)
    c1 = NumClass(m, Fraction(-3, 2), 7, (2,), (1, Fraction(1, 3)))
    read, fresh = BundleData(3, c1, Fraction(5, 4)), BundleData(3, c1, Fraction(5, 4))
    read.c1sq
    assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
    assert {read, fresh} == {fresh}


def test_sym2_cache_leaves_equality_hash_repr_and_copies():
    m = SurfaceModel(0, 1, 2)
    c1 = NumClass(m, Fraction(-3, 2), 7, (2,), (1, Fraction(1, 3)))
    used, fresh = BundleData(3, c1, Fraction(5, 4)), BundleData(3, c1, Fraction(5, 4))
    sym2(used)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert {used, fresh} == {fresh}
    for twin in (copy.copy(used), pickle.loads(pickle.dumps(used)), used.replace()):
        assert twin == fresh and twin._c1sq is twin._sym2 is None


def test_c1sq_of_a_symbolic_class(self_intersection_calls):
    m = SurfaceModel(0, 1, 1)
    c1 = NumClass(m, G, 2, (G + 1,), (Fraction(1, 3),))
    e = BundleData(2, c1, G - 1)
    assert e.c1sq == self_intersection(c1) == 4 * G - (G + 1) ** 2 - Fraction(1, 9)
    assert e.c1sq is e.c1sq and len(self_intersection_calls) == 1


@pytest.mark.parametrize("rank", [2.0, True, False, Fraction(2), "2"], ids=repr)
def test_bundle_refuses_non_int_rank(rank):
    with pytest.raises(TypeError, match="rank must be an int"):
        BundleData(rank, SurfaceModel().t0(), 0)


def test_sym2_rank2_pin():
    m = SurfaceModel()
    e = BundleData(2, NumClass(m, 3, 2), Fraction(7, 2))
    s = sym2(e)
    assert s.rank == 3
    assert s.c1 == 3 * e.c1
    assert s.c2 == 2 * e.c1sq + 4 * e.c2 == 38


def test_sym2_rank3_pin():
    m = SurfaceModel()
    e = BundleData(3, NumClass(m, 3, 2), Fraction(7, 2))
    s = sym2(e)
    assert s.rank == 6
    assert s.c1 == 4 * e.c1
    assert s.c2 == 5 * e.c1sq + 5 * e.c2 == Fraction(155, 2)


def test_sym2_unsupported_rank():
    m = SurfaceModel()
    with pytest.raises(UnsupportedRankError):
        sym2(BundleData(4, m.t0(), 1))


def test_sym2_matches_split_roots():
    rng = random.Random(53)
    for _ in range(300):
        m = SurfaceModel(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
        a, b = rand_class(rng, m), rand_class(rng, m)
        split = BundleData(2, a + b, intersect(a, b))
        assert sym2(split) == sym2_roots_oracle(a, b)


def test_whitney_and_quotient_roundtrip():
    rng = random.Random(59)
    for _ in range(100):
        m = SurfaceModel(rng.randint(0, 2), 0, rng.randint(0, 2))
        sub = BundleData(2, rand_class(rng, m), Fraction(rng.randint(-9, 9), 2))
        quot = BundleData(3, rand_class(rng, m), Fraction(rng.randint(-9, 9), 3))
        total = whitney(sub, quot)
        assert total.rank == 5
        assert total.c1 == sub.c1 + quot.c1
        assert whitney_quotient(total, sub) == quot


def test_whitney_quotient_rank_guard():
    m = SurfaceModel()
    e = BundleData(2, m.t0(), 1)
    with pytest.raises(UnsupportedRankError):
        whitney_quotient(e, e)


def test_chern_character_sum_with_non_character_raises_type_error():
    e = BundleData(2, NumClass(SurfaceModel(), 1, 3), Fraction(5, 4))
    ch = chern_character(e)
    assert ch.__add__(1) is NotImplemented and ch.__add__(e) is NotImplemented
    for op in (lambda: ch + 1, lambda: 1 + ch, lambda: ch + e, lambda: ch + e.c1):
        with pytest.raises(TypeError, match="unsupported operand"):
            op()


def test_chern_character_pin():
    m = SurfaceModel()
    e = BundleData(2, NumClass(m, 1, 3), Fraction(5, 4))
    ch = chern_character(e)
    assert ch == ChernCharacter(Fraction(2), e.c1, Fraction(6 - Fraction(5, 2), 2))
    assert ch.d2 == (e.c1sq - 2 * e.c2) / 2


def test_chern_character_additive_on_extensions():
    rng = random.Random(61)
    for _ in range(100):
        m = SurfaceModel(rng.randint(0, 2), rng.randint(0, 2), 0)
        sub = BundleData(1, rand_class(rng, m), 0)
        quot = BundleData(2, rand_class(rng, m), Fraction(rng.randint(-6, 6), 5))
        total = whitney(sub, quot)
        assert chern_character(total) == chern_character(sub) + chern_character(quot)
