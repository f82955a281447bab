"""Intersection pairing on blown-up ruled surface models."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gonalslope.chow import (ModelMismatchError, NumClass, SurfaceModel,
                             canonical_class, chi_structure, intersect,
                             self_intersection)
from gonalslope.grr import blownup_c1
from gonalslope.ratcalc import G
from gonalslope.slope import slope_general_via_surface


def rand_class(rng: random.Random, m: SurfaceModel) -> NumClass:
    q = lambda: Fraction(rng.randint(-20, 20), rng.randint(1, 6))
    return NumClass(m, q(), q(), tuple(q() for _ in range(m.s)),
                    tuple(q() for _ in range(m.t)))


def test_model_validation():
    with pytest.raises(ValueError):
        SurfaceModel(-1)
    with pytest.raises(ValueError):
        SurfaceModel(0, -2, 0)
    with pytest.raises(ValueError):
        SurfaceModel(0, 0, 10_001)


@pytest.mark.parametrize("data", [(0.5,), (Fraction(1),), (0, True, 0), (0, 0, False),
                                  (0, Fraction(1, 2), 0)], ids=repr)
def test_model_refuses_non_int_data(data):
    with pytest.raises(TypeError, match="must be ints"):
        SurfaceModel(*data)


def test_non_int_base_genus_refused_through_slope():
    with pytest.raises(TypeError):
        slope_general_via_surface(10, 3, 14, 3, 2, Fraction(1, 2))


def test_generator_products():
    m = SurfaceModel(2, 2, 1)
    t0, f = m.t0(), m.f()
    assert intersect(t0, t0) == 0
    assert intersect(f, f) == 0
    assert intersect(t0, f) == 1 == intersect(f, t0)
    for e in (m.e_prime(0), m.e_prime(1), m.e_dprime(0)):
        assert self_intersection(e) == -1
        assert intersect(e, t0) == 0 and intersect(e, f) == 0
    assert intersect(m.e_prime(0), m.e_prime(1)) == 0
    assert intersect(m.e_prime(0), m.e_dprime(0)) == 0
    assert self_intersection(m.zero()) == 0


def test_generator_index_bounds():
    m = SurfaceModel(0, 1, 0)
    with pytest.raises(IndexError):
        m.e_prime(1)
    with pytest.raises(IndexError):
        m.e_dprime(0)


def test_coefficient_vectors_must_fit_model():
    m = SurfaceModel(0, 2, 0)
    with pytest.raises(ModelMismatchError):
        NumClass(m, 1, 1, (1,), ())
    with pytest.raises(ModelMismatchError):
        NumClass(m, 1, 1, (1, 1), (1,))


def test_cross_model_operations_rejected():
    a = SurfaceModel(0, 1, 0).t0()
    b = SurfaceModel(1, 1, 0).t0()
    with pytest.raises(ModelMismatchError):
        intersect(a, b)
    with pytest.raises(ModelMismatchError):
        a + b


def test_pairing_symmetric_bilinear_fuzz():
    rng = random.Random(41)
    for _ in range(150):
        m = SurfaceModel(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
        a, b, c = (rand_class(rng, m) for _ in range(3))
        lam = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        assert intersect(a, b) == intersect(b, a)
        assert intersect(a + lam * c, b) == intersect(a, b) + lam * intersect(c, b)


def test_class_arithmetic():
    m = SurfaceModel(1, 1, 1)
    a = NumClass(m, 2, -3, (Fraction(1, 2),), (4,))
    b = NumClass(m, 1, 1, (1,), (-1,))
    assert a - b == NumClass(m, 1, -4, (Fraction(-1, 2),), (5,))
    assert -a == (-1) * a
    assert 2 * a == a + a
    assert a * 2 == a + a


def test_canonical_class_pins():
    m = SurfaceModel(3, 2, 1)
    k = canonical_class(m)
    assert k == NumClass(m, -2, 4, (1, 1), (1,))
    assert intersect(k, m.f()) == -2  # adjunction on a fibre
    assert intersect(k, m.t0()) == 2 * m.b - 2
    assert intersect(k, m.e_prime(0)) == -1
    assert self_intersection(k) == -8 * (m.b - 1) - m.s - m.t


def test_canonical_square_and_chi_grid():
    for b in range(0, 11, 2):
        for s in range(0, 11, 5):
            for t in range(0, 11, 5):
                m = SurfaceModel(b, s, t)
                assert self_intersection(canonical_class(m)) == -8 * (b - 1) - s - t
                assert chi_structure(m) == 1 - b


def test_str_rendering():
    m = SurfaceModel(0, 1, 1)
    c = NumClass(m, 5, Fraction(-7, 2), (-2,), (0,))
    assert str(c) == "5*T0 - 7/2*F - 2*E'0"


def test_str_parenthesises_compound_coefficients():
    assert (str(blownup_c1(G, 4, 1, SurfaceModel(1, 1, 1)))
            == "(g + 3)*T0 + (7/(g + 3))*F - 3*E'0 - 2*E''0")
    assert str(NumClass(SurfaceModel(0, 1, 0), 1, 2, (1 - G,))) == "1*T0 + 2*F + (-g + 1)*E'0"


def test_str_of_rational_classes_keeps_its_form():
    rng = random.Random(113)
    for _ in range(200):
        m = SurfaceModel(0, rng.randint(0, 2), rng.randint(0, 2))
        c = rand_class(rng, m)
        bits = [f"{c.t0}*T0", f"{c.f}*F"]
        bits += [f"{x}*E'{i}" for i, x in enumerate(c.ep) if x]
        bits += [f"{x}*E''{j}" for j, x in enumerate(c.epp) if x]
        assert str(c) == " + ".join(bits).replace("+ -", "- ")
