"""Intersection pairing on blown-up ruled surface models."""
from __future__ import annotations

import random
from fractions import Fraction
from operator import add, sub

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gonalslope.chow import (ModelMismatchError, NumClass, SurfaceModel,
                             canonical_class, chi_structure, intersect,
                             self_intersection)
from gonalslope.grr import blownup_c1
from gonalslope.ratcalc import G, RatFunc
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
    with pytest.raises(ModelMismatchError):
        a - b


def test_equal_but_distinct_models_combine():
    m, twin = SurfaceModel(1, 1, 1), SurfaceModel(1, 1, 1)
    assert m == twin and m is not twin
    coefficients = (2, Fraction(1, 3), (-1,), (Fraction(5, 2),))
    b, b_here = NumClass(twin, *coefficients), NumClass(m, *coefficients)
    for a in (canonical_class(m), blownup_c1(G, 4, 1, m)):  # Q and Q(g) storage
        assert a + b == a + b_here and a - b == a - b_here and b - a == b_here - a
        assert intersect(a, b) == intersect(b, a) == intersect(a, b_here)


def test_pairing_symmetric_bilinear_fuzz():
    rng = random.Random(41)
    for _ in range(150):
        m = SurfaceModel(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
        a, b, c = (rand_class(rng, m) for _ in range(3))
        lam = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        assert intersect(a, b) == intersect(b, a)
        assert intersect(a + lam * c, b) == intersect(a, b) + lam * intersect(c, b)


# -- the integer pairing kernel against the entry-wise Fraction sum --------

entries = st.one_of(st.just(0), st.integers(-10**6, 10**6),
                    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6)))


@st.composite
def class_pairs(draw):
    m = SurfaceModel(draw(st.integers(0, 5)), draw(st.integers(0, 60)), draw(st.integers(0, 60)))

    def one():
        return NumClass(m, draw(entries), draw(entries),
                        tuple(draw(st.lists(entries, min_size=m.s, max_size=m.s))),
                        tuple(draw(st.lists(entries, min_size=m.t, max_size=m.t))))

    a = one()
    return a, a if draw(st.booleans()) else one()


def entrywise(a: NumClass, b: NumClass):
    """t0.f' + f.t0' - sum ep.ep' - sum epp.epp', one Fraction product at a time."""
    out = a.t0 * b.f + a.f * b.t0
    for x, y in zip(a.ep, b.ep):
        out -= x * y
    for x, y in zip(a.epp, b.epp):
        out -= x * y
    return out


@given(class_pairs())
@example((SurfaceModel(0, 2, 3).zero(),) * 2)
@example((SurfaceModel(0, 2, 3).t0(), SurfaceModel(0, 2, 3).f()))
def test_pairing_kernel_matches_entrywise_sum(pair):
    a, b = pair
    want = entrywise(a, b)
    for got in (intersect(a, b), intersect(b, a)):
        assert got == want and type(got) is Fraction
    assert self_intersection(a) == entrywise(a, a)


@pytest.mark.parametrize("model", [SurfaceModel(1, 1, 1), SurfaceModel(0, 0, 0),
                                   SurfaceModel(3, 0, 7), SurfaceModel(2, 60, 60)], ids=str)
def test_q_of_g_pairing_keeps_the_entrywise_ratfunc(model):
    c1, k = blownup_c1(G, 4, 1, model), canonical_class(model)
    for got in (intersect(c1, k), intersect(k, c1)):
        assert type(got) is RatFunc and got == entrywise(c1, k)
    assert self_intersection(c1) == 1
    if model == SurfaceModel(1, 1, 1):  # -14/(g + 3) + 3 + 2
        assert intersect(c1, k) == (5 * G + 1) / (G + 3)


def test_q_of_g_self_pairing_at_sixty_blowups_matches_the_entrywise_sum():
    c1 = blownup_c1(G, 4, 1, SurfaceModel(2, 60, 60))
    got = intersect(c1, c1)
    assert type(got) is RatFunc and got == entrywise(c1, c1) == 1


def test_pairing_refuses_mixed_models_on_both_paths():
    m = SurfaceModel(1, 1, 1)
    other = SurfaceModel(1, 1, 2)
    for a in (canonical_class(m), blownup_c1(G, 4, 1, m)):
        with pytest.raises(ModelMismatchError):
            intersect(a, canonical_class(other))
        with pytest.raises(ModelMismatchError):
            intersect(canonical_class(other), a)


def test_class_sum_with_non_class_raises_type_error():
    c = SurfaceModel(0, 1, 1).t0()
    assert c.__add__(1) is NotImplemented and c.__sub__(1) is NotImplemented
    for op in (lambda: c + 1, lambda: c - 1, lambda: 1 - c, lambda: c + Fraction(1, 2)):
        with pytest.raises(TypeError, match="unsupported operand"):
            op()


def test_pairing_with_non_class_raises_type_error():
    c = SurfaceModel(0, 1, 1).t0()
    for a, b in ((c, 3), (3, c), (c, None)):
        with pytest.raises(TypeError, match="^intersect needs NumClasses, got .*$"):
            intersect(a, b)


# -- arithmetic and pairing on runs of shared entries ----------------------

_fracs = st.tuples(st.integers(-10**6, 10**6), st.integers(1, 10**3))
_ratfuncs = st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 9))


def _build(spec):
    """A new Fraction or RatFunc object on every call."""
    if len(spec) == 2:
        return Fraction(*spec)
    p, q, r = spec
    return (p * G + q) / (G + r)


@st.composite
def run_entries(draw, n: int, mode: str):
    """n entries in runs: 'shared' repeats one Fraction object per run, 'equal' builds
    each entry of a run anew, 'mixed' alternates Fraction and RatFunc runs of one object."""
    out, flip = [], draw(st.booleans())
    while len(out) < n:
        flip = not flip
        spec = draw(_ratfuncs if mode == "mixed" and flip else _fracs)
        size = draw(st.integers(1, n - len(out)))
        out += [_build(spec) for _ in range(size)] if mode == "equal" else [_build(spec)] * size
    return tuple(out)


@st.composite
def run_pairs(draw):
    m = SurfaceModel(0, draw(st.integers(0, 60)), draw(st.integers(0, 60)))
    mode = draw(st.sampled_from(("shared", "equal", "mixed")))

    def one():  # runs may cross from t0 and f into the E' and E'' entries
        xs = draw(run_entries(2 + m.s + m.t, mode))
        return NumClass(m, xs[0], xs[1], xs[2:2 + m.s], xs[2 + m.s:])

    a = one()
    return a, a if draw(st.booleans()) else one()


def oracle(op, a: NumClass, b: NumClass) -> NumClass:
    """op entry by entry, each result admitted through NumClass(...)."""
    return NumClass(a.model, op(a.t0, b.t0), op(a.f, b.f), tuple(map(op, a.ep, b.ep)),
                    tuple(map(op, a.epp, b.epp)))


@given(run_pairs(), st.one_of(st.integers(-9, 9), _fracs.map(_build), _ratfuncs.map(_build)))
def test_run_arithmetic_matches_entrywise_oracle(pair, k):
    a, b = pair
    cases = [(a + b, oracle(add, a, b)), (a - b, oracle(sub, a, b)),
             (-a, oracle(lambda x, _: -x, a, a))]
    cases += [(got, oracle(lambda x, _: k * x, a, a)) for got in (k * a, a * k)]
    for got, want in cases:
        assert got == want and hash(got) == hash(want)
        assert {type(x) for x in (got.t0, got.f, *got.ep, *got.epp)} <= {Fraction, RatFunc}


@given(run_pairs())
def test_pairing_on_runs_matches_entrywise_sum(pair):
    a, b = pair
    for got in (intersect(a, b), intersect(b, a)):
        assert got == entrywise(a, b)


# -- integer storage of rational classes -----------------------------------


@pytest.mark.parametrize("k", [3, -1, Fraction(-7, 4)], ids=str)
def test_rational_arithmetic_builds_no_fraction_per_entry(k, fraction_count):
    rng = random.Random(7)
    m = SurfaceModel(2, 60, 60)
    a, b = rand_class(rng, m), rand_class(rng, m)
    fraction_count.clear()
    for op in (lambda: a + b, lambda: a - b, lambda: -a, lambda: k * a, lambda: a * k):
        op()
        assert fraction_count == []
    intersect(a, b)
    assert len(fraction_count) == 1


@pytest.mark.parametrize("b,s,t", [(b, s, t) for b in (0, 1, 10) for s in (0, 1, 10)
                                   for t in (0, 1, 10)])
def test_direct_constructors_store_as_numclass_does(b, s, t):
    m = SurfaceModel(b, s, t)
    zeros = lambda n, k=None: tuple(int(i == k) for i in range(n))
    pairs = [(canonical_class(m), NumClass(m, -2, 2 * b - 2, (1,) * s, (1,) * t)),
             (m.zero(), NumClass(m, 0, 0, zeros(s), zeros(t))),
             (m.t0(), NumClass(m, 1, 0, zeros(s), zeros(t))),
             (m.f(), NumClass(m, 0, 1, zeros(s), zeros(t)))]
    pairs += [(m.e_prime(i), NumClass(m, 0, 0, zeros(s, i), zeros(t))) for i in range(s)]
    pairs += [(m.e_dprime(j), NumClass(m, 0, 0, zeros(s), zeros(t, j))) for j in range(t)]
    for direct, built in pairs:
        assert (direct._c, direct._den) == (built._c, built._den)
        assert direct == built and hash(direct) == hash(built)


@given(class_pairs())
def test_equal_classes_by_other_routes_compare_and_hash_equal(pair):
    a, b = pair
    as_consts = NumClass(a.model, RatFunc.const(a.t0), RatFunc.const(a.f),
                         tuple(map(RatFunc.const, a.ep)), tuple(map(RatFunc.const, a.epp)))
    for again in (2 * (a * Fraction(1, 2)), a - b + b, -(-a), a + 0 * b, as_consts):
        assert again == a and a == again and hash(again) == hash(a)
    assert (a + b == a) == (b == a.model.zero())


def test_classes_are_immutable():
    for c in (canonical_class(SurfaceModel(1, 2, 2)), blownup_c1(G, 4, 1, SurfaceModel(1, 2, 2))):
        for name in ("model", "t0", "f", "ep", "epp", "other"):
            with pytest.raises(AttributeError):
                setattr(c, name, 1)
            with pytest.raises(AttributeError):
                delattr(c, name)
        assert c == NumClass(c.model, c.t0, c.f, c.ep, c.epp)


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


def test_str_omits_zero_entries_of_either_type():
    m = SurfaceModel(0, 2, 2)
    assert str(NumClass(m, 1, 0, (G - G, G), (0, Fraction(0)))) == "1*T0 + 0*F + g*E'1"
    assert str(NumClass(SurfaceModel(0, 1, 1), 1, 0, (G - G,), (0,))) == "1*T0 + 0*F"


def test_str_of_rational_classes_keeps_its_form():
    rng = random.Random(113)
    for _ in range(200):
        m = SurfaceModel(0, rng.randint(0, 2), rng.randint(0, 2))
        c = rand_class(rng, m)
        bits = [f"{c.t0}*T0", f"{c.f}*F"]
        bits += [f"{x}*E'{i}" for i, x in enumerate(c.ep) if x]
        bits += [f"{x}*E''{j}" for j, x in enumerate(c.epp) if x]
        assert str(c) == " + ".join(bits).replace("+ -", "- ")
