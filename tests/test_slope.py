"""Fibration invariants, blow-up variants, moduli conversion."""
from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gonalslope import slope
from gonalslope.ratcalc import G, RatFunc, lift
from gonalslope.slope import (FibrationInvariants, ZeroChiError,
                              fourgonal_rearranged, harris_stankova_reference,
                              moduli_conversion, slope_fourgonal,
                              slope_fourgonal_blowup, slope_general,
                              slope_general_via_surface, slope_trigonal,
                              slope_trigonal_blowup)


def test_trigonal_worked_example():
    inv = slope_trigonal(5, 14, Fraction(28, 9))
    assert inv.kf2 == Fraction(32, 3)
    assert inv.chif == Fraction(26, 9)
    assert inv.slope == Fraction(48, 13)


def test_fourgonal_worked_example():
    inv = slope_fourgonal(13, 6, Fraction(7, 4), 1)
    assert inv.kf2 == Fraction(9, 2)
    assert inv.chif == Fraction(17, 16)
    assert inv.slope == Fraction(72, 17)


def test_symbolic_genus_inputs():
    # c2 = c1sq/4 reproduces the even-case bound shape over Q(g)
    inv = slope_trigonal(G, 1, Fraction(1, 4))
    assert isinstance(inv.slope, RatFunc)
    assert inv.slope == (5 * G - 6) / G
    assert inv.kf2 == (5 * G - 6) / (4 * G + 8)


def test_general_formula_matches_specialized():
    rng = random.Random(83)
    for _ in range(100):
        g = rng.randint(5, 60)
        c1sq = Fraction(rng.randint(1, 50))
        c2 = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        rsq = 2 * c1sq - 3 * c2
        gen = slope_general(g, 3, c1sq, c2, rsq)
        tri = slope_trigonal(g, c1sq, c2)
        assert (gen.kf2, gen.chif) == (tri.kf2, tri.chif)
        c2e = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        c2f = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        gen4 = slope_general(g, 4, c1sq, c2e, 2 * c1sq - 4 * c2e + c2f)
        four = slope_fourgonal(g, c1sq, c2e, c2f)
        assert (gen4.kf2, gen4.chif) == (four.kf2, four.chif)


def test_base_genus_cancels():
    rng = random.Random(89)
    for _ in range(60):
        n = rng.choice((3, 4))
        g = rng.randint(5 if n == 3 else 10, 50)
        c1sq = Fraction(rng.randint(1, 40))
        c2 = Fraction(rng.randint(-10, 10), 3)
        rsq = Fraction(rng.randint(-10, 10), 2)
        base = slope_general(g, n, c1sq, c2, rsq)
        for b in (0, 1, 2, 5):
            via = slope_general_via_surface(g, n, c1sq, c2, rsq, b)
            assert (via.kf2, via.chif) == (base.kf2, base.chif)


def test_zero_chi_raises():
    with pytest.raises(ZeroChiError):
        slope_trigonal(5, 14, 6)
    with pytest.raises(ZeroChiError):
        slope_fourgonal(13, 16, Fraction(15, 2), 1)


def test_blowup_reduces_to_finite():
    assert slope_trigonal_blowup(7, 20, 3, 0) == slope_trigonal(7, 20, 3)
    assert (slope_fourgonal_blowup(11, 20, 3, 2, 0, 0)
            == slope_fourgonal(11, 20, 3, 2))


def test_blowup_chi_increments():
    g, c1sq, c2 = 5, Fraction(14), Fraction(2)
    fin = slope_trigonal_blowup(g, c1sq, c2, 0)
    one = slope_trigonal_blowup(g, c1sq, c2, 1)
    assert one.kf2 == fin.kf2
    assert one.chif - fin.chif == Fraction(g, g + 2)
    g4, c2e, c2f = 10, Fraction(3), Fraction(2)
    fin4 = slope_fourgonal_blowup(g4, 20, c2e, c2f, 0, 0)
    s1 = slope_fourgonal_blowup(g4, 20, c2e, c2f, 1, 0)
    t1 = slope_fourgonal_blowup(g4, 20, c2e, c2f, 0, 1)
    assert s1.chif - fin4.chif == Fraction(3 * g4, 2 * (g4 + 3))
    assert t1.chif - fin4.chif == Fraction(g4 + 1, g4 + 3)
    assert s1.kf2 == t1.kf2 == fin4.kf2


def test_criterion_point_59_20():
    inv = slope_trigonal_blowup(5, 14, Fraction(27, 7), 1)
    assert inv.kf2 == Fraction(59, 7)
    assert inv.chif == Fraction(20, 7)
    assert inv.slope == Fraction(59, 20)


def test_rearranged_route_agrees_when_saturated():
    rng = random.Random(97)
    for _ in range(100):
        g = rng.randint(10, 60)
        c1sq = Fraction(rng.randint(1, 60))
        c2f = Fraction(rng.randint(-10, 20), rng.randint(1, 4))
        c2e = (c1sq + c2f) / 4
        try:
            inv = slope_fourgonal(g, c1sq, c2e, c2f)
        except ZeroChiError:
            continue
        assert fourgonal_rearranged(g, c1sq, c2f) == inv.slope


def test_rearranged_self_check_fires_only_at_s_t_zero(monkeypatch):
    calls = []

    def disagreeing(*args):
        calls.append(args)
        return Fraction(-1)

    monkeypatch.setattr(slope, "fourgonal_rearranged", disagreeing)
    saturated = (11, 20, 6, 4)  # c2(E) = (c1^2 + c2(F))/4
    with pytest.raises(AssertionError, match="rearranged quadruple-cover slope disagrees"):
        slope_fourgonal(*saturated)
    with pytest.raises(AssertionError, match="rearranged quadruple-cover slope disagrees"):
        slope_fourgonal_blowup(*saturated, 0, 0)
    assert len(calls) == 2
    # with blow-ups the rearranged form is a display only, never a check
    slope_fourgonal_blowup(*saturated, 1, 0)
    slope_fourgonal_blowup(*saturated, 0, 1)
    assert len(calls) == 2


def test_rearranged_blowup_form_exceeds_direct():
    g, c1sq, c2f, s, t = 11, Fraction(40), Fraction(5), 1, 2
    c2e = (c1sq + c2f) / 4
    direct = slope_fourgonal_blowup(g, c1sq, c2e, c2f, s, t)
    displayed = fourgonal_rearranged(g, c1sq, c2f, s, t)
    extra = Fraction(3 * g, 2 * (g + 3)) * s + Fraction(g + 1, g + 3) * t
    assert displayed - direct.slope == 4 * extra / direct.chif
    assert displayed > direct.slope


def test_moduli_conversion():
    inv = slope_trigonal(5, 14, Fraction(28, 9))
    md = moduli_conversion(inv)
    assert md.s_b == 12 - Fraction(48, 13) == Fraction(108, 13)
    assert md.lambda_b == inv.chif
    assert md.delta_b == 12 * inv.chif - inv.kf2 == 24
    # 12 lambda = kf2 + delta
    assert 12 * md.lambda_b == inv.kf2 + md.delta_b


def test_warning_outside_admissible_interval():
    ok = FibrationInvariants(Fraction(4), Fraction(1), Fraction(4))
    assert ok.warning() is None
    bad = FibrationInvariants(Fraction(13), Fraction(1), Fraction(13))
    assert "13" in bad.warning()
    neg = FibrationInvariants(Fraction(-1), Fraction(1), Fraction(-1))
    assert neg.warning() is not None
    # a negative chi_f is flagged only where the interval note is silent
    neg_chi = FibrationInvariants(Fraction(-1), Fraction(-1), Fraction(1))
    assert neg_chi.warning() == "chi_f -1 is negative"
    both = FibrationInvariants(Fraction(1), Fraction(-1), Fraction(-1))
    assert both.warning() == "slope -1 outside (0, 12]"


def test_warning_checks_each_numeric_entry():
    """A function of g is not checked; a number beside it still is."""
    assert FibrationInvariants(-G, RatFunc.const(-1), G).warning() == "chi_f -1 is negative"
    assert FibrationInvariants(G, G, Fraction(13)).warning() == "slope 13 outside (0, 12]"
    assert FibrationInvariants(G, G - 100, 1).warning() is None


def test_harris_stankova_reference():
    assert harris_stankova_reference(2, 4) == 3
    assert harris_stankova_reference(3) == 5 - 6 / G
    assert harris_stankova_reference(3, 12) == Fraction(9, 2)
    assert harris_stankova_reference(4) == Fraction(16, 3) - 8 / G
    assert harris_stankova_reference(4, 10) == Fraction(68, 15)
    with pytest.raises(ValueError):
        harris_stankova_reference(1)
    with pytest.raises(ValueError):
        harris_stankova_reference(3, 0)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_harris_stankova_reference_at_symbolic_g_is_the_profile(n):
    """A RatFunc genus is not checked, so g = G gives the profile itself."""
    value = harris_stankova_reference(n, G)
    assert type(value) is RatFunc and value == harris_stankova_reference(n)
    if n == 3:
        assert value == (5 * G - 6) / G


@pytest.mark.parametrize("n", (2, 3, 4))
def test_harris_stankova_reference_at_g_is_the_profile_at_g(n):
    profile = harris_stankova_reference(n)
    for g in range(1, 501):
        value = harris_stankova_reference(n, g)
        assert type(value) is Fraction and value == profile(g)


# -- _parts: one division per output, ints kept integral --------------------------


def _parts_oracle(g, n, c1sq, c2, rsq, s, t):
    """The per-term formula: every input lifted, one quotient per blow-up kind."""
    g, n, c1sq, c2, rsq, s, t = map(lift, (g, n, c1sq, c2, rsq, s, t))
    d = g + n - 1
    chif = (g + n - 2) / (2 * d) * c1sq - c2
    if s:
        chif += 3 * g / (2 * d) * s
    if t:
        chif += (g + n - 3) / d * t
    return rsq - 4 * c1sq / d, chif


_exact_values = st.integers(-500, 500) | st.fractions(-500, 500, max_denominator=60)


@st.composite
def _parts_inputs(draw):
    n = draw(st.sampled_from((3, 4)))
    g = draw(st.integers(1, 300) | st.fractions(1, 300, max_denominator=12))
    s = draw(st.integers(0, 60)) if n == 4 else 0
    return g, n, draw(_exact_values), draw(_exact_values), draw(_exact_values), \
        s, draw(st.integers(0, 60))


@settings(max_examples=200, deadline=None, database=None)
@given(_parts_inputs())
def test_parts_matches_the_per_term_formula(args):
    got = slope._parts(*args)
    assert got == _parts_oracle(*args)
    assert [type(x) for x in got] == [Fraction, Fraction]


@pytest.mark.parametrize("args", [(5, 3, 14, 3, 2, 0, 0), (13, 4, 6, 1, 7, 2, 3),
                                  (40, 4, -9, 0, 0, 0, 5), (7, 3, 0, 0, 0, 0, 1)])
def test_parts_of_all_int_inputs_are_fractions(args):
    got = slope._parts(*args)
    assert got == _parts_oracle(*args)
    assert [type(x) for x in got] == [Fraction, Fraction]


@pytest.mark.parametrize("s,t", [(0, 0), (2, 0), (0, 3), (5, 7)])
def test_parts_over_q_of_g_matches_the_per_term_formula(s, t):
    args = (G, 4, Fraction(7, 3), G / 5 + 1, 2 * G - 3, s, t)
    got = slope._parts(*args)
    assert got == _parts_oracle(*args)
    assert all(isinstance(x, RatFunc) for x in got)


def test_parts_integer_route_builds_one_fraction_per_output(fraction_count):
    c1sq, c2, rsq = Fraction(37, 5), Fraction(7, 3), Fraction(-11, 6)
    fraction_count.clear()
    slope._parts(11, 4, c1sq, c2, rsq, 1, 2)
    assert len(fraction_count) == 2
    fraction_count.clear()
    fourgonal_rearranged(11, c1sq, c2, 1, 2)
    assert len(fraction_count) <= 2


# -- fourgonal_rearranged: integers at a concrete genus ------------------------


def _rearranged_oracle(g, c1sq, c2f, s, t):
    """The per-term formula, every input lifted; None where the denominator vanishes."""
    g, c1sq, c2f, s, t = map(lift, (g, c1sq, c2f, s, t))
    num = c2f - 2 * c1sq / (g + 3)
    den = ((g + 1) / (4 * (g + 3)) * c1sq - c2f / 4
           + 3 * g / (2 * (g + 3)) * s + (g + 1) / (g + 3) * t)
    return None if den == 0 else 4 + num / den


@st.composite
def _rearranged_inputs(draw):
    g = draw(st.integers(1, 300) | st.fractions(1, 300, max_denominator=12))
    s, t, c1sq = draw(st.integers(0, 60)), draw(st.integers(0, 60)), draw(_exact_values)
    if draw(st.booleans()):  # c2(F) that makes the denominator vanish
        c2f = (lift(g + 1) * c1sq + 6 * g * s + 4 * (g + 1) * t) / (g + 3)
        if c2f.denominator == 1 and draw(st.booleans()):
            c2f = int(c2f)
    else:
        c2f = draw(_exact_values)
    return g, c1sq, c2f, s, t


@settings(max_examples=300, deadline=None, database=None)
@given(_rearranged_inputs())
def test_rearranged_matches_the_per_term_formula(args):
    want = _rearranged_oracle(*args)
    if want is None:
        with pytest.raises(ZeroChiError, match="chi_f = 0"):
            fourgonal_rearranged(*args)
    else:
        got = fourgonal_rearranged(*args)
        assert got == want and type(got) is Fraction


@pytest.mark.parametrize("s,t", [(0, 0), (2, 0), (0, 3), (5, 7)])
def test_rearranged_over_q_of_g_matches_the_per_term_formula(s, t):
    args = (G, Fraction(7, 3), G / 5 + 1, s, t)
    got = fourgonal_rearranged(*args)
    assert isinstance(got, RatFunc) and got == _rearranged_oracle(*args)


# -- _parts and fourgonal_rearranged over Q(g): drawn inputs, the derivation's own --

#: Maroni invariant m(g, gamma) of every case family, as bounds._MARONI states them
_MARONI_SHAPES = (lambda g, gamma: 0, lambda g, gamma: 1, lambda g, gamma: g - 5,
                  lambda g, gamma: (g + 3) / 3, lambda g, gamma: g - 1 - 4 * gamma)

_small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=3)


@st.composite
def _ratfuncs(draw):
    """A RatFunc of low degree; a constant one now and then."""
    num, den = draw(_small_polys), draw(_small_polys.filter(any))
    return RatFunc(num, den)


#: G, or another function of g, some with a denominator
_genera = st.sampled_from((G, G + 3, 2 * G - 1, (G + 1) / 2, (3 * G + 2) / 5))


@st.composite
def _weak_positivity_coefficients(draw, g, n):
    """q = alpha/(2(g+n-1)) with alpha = (g+n-1-m)/2, m a case's Maroni invariant."""
    d = g + n - 1
    m = draw(st.sampled_from(_MARONI_SHAPES))(g, draw(st.integers(1, 12)))
    return (d - m) / (4 * d)


@st.composite
def _symbolic_parts_inputs(draw):
    n, g = draw(st.sampled_from((3, 4))), draw(_genera)
    s = draw(st.integers(0, 60)) if n == 4 else 0
    t = draw(st.integers(0, 60))
    if draw(st.booleans()):  # the derivation's own inputs at c1^2 = 1
        q = draw(_weak_positivity_coefficients(g, n))
        c2 = q if n == 3 else (1 + q) / 4
        return g, n, 1, c2, 2 - 3 * q if n == 3 else 2 - 4 * c2 + q, s, t
    scalars = _ratfuncs() | _exact_values
    return g, n, draw(scalars), draw(scalars), draw(scalars), s, t


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_symbolic_parts_inputs())
def test_parts_over_q_of_g_matches_the_per_term_formula_when_drawn(args):
    got = slope._parts(*args)
    want = _parts_oracle(*args)
    for x, y in zip(got, want):
        assert type(x) is RatFunc and (x.num, x.den) == (y.num, y.den)


@st.composite
def _symbolic_rearranged_inputs(draw):
    g = draw(_genera)
    s, t = draw(st.integers(0, 60)), draw(st.integers(0, 60))
    if draw(st.booleans()):
        c1sq, c2f = 1, draw(_weak_positivity_coefficients(g, 4))
    else:
        c1sq, c2f = draw(_ratfuncs() | _exact_values), draw(_ratfuncs() | _exact_values)
    if draw(st.booleans()):  # c2(F) that makes the denominator vanish
        c2f = ((g + 1) * c1sq + 6 * g * s + 4 * (g + 1) * t) / (g + 3)
    return g, c1sq, c2f, s, t


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_symbolic_rearranged_inputs())
def test_rearranged_over_q_of_g_matches_the_per_term_formula_when_drawn(args):
    want = _rearranged_oracle(*args)
    if want is None:
        with pytest.raises(ZeroChiError, match="chi_f = 0"):
            fourgonal_rearranged(*args)
    else:
        got = fourgonal_rearranged(*args)
        assert type(got) is RatFunc and (got.num, got.den) == (want.num, want.den)


_GENUS_ENTRIES = {
    "slope_general": lambda g: slope_general(g, 3, 5, 1, 1),
    "slope_general_via_surface": lambda g: slope_general_via_surface(g, 3, 14, 3, 2, 1),
    "slope_trigonal_blowup": lambda g: slope_trigonal_blowup(g, 14, Fraction(27, 7), 1),
    "fourgonal_rearranged": lambda g: fourgonal_rearranged(g, 20, 6),
}


@pytest.mark.parametrize("g", [0, -2, -3, Fraction(-3)], ids=repr)
@pytest.mark.parametrize("entry", _GENUS_ENTRIES.values(), ids=_GENUS_ENTRIES)
def test_nonpositive_concrete_genus_refused(entry, g):
    with pytest.raises(ValueError, match="genus must be positive"):
        entry(g)


_DEGREE_ROUTES = {
    "slope_general": slope_general,
    "slope_general_via_surface": lambda *args: slope_general_via_surface(*args, 1),
}


@pytest.mark.parametrize("g", [5, Fraction(5)], ids=repr)
@pytest.mark.parametrize("n", [-5, -4])
@pytest.mark.parametrize("route", _DEGREE_ROUTES.values(), ids=_DEGREE_ROUTES)
def test_nonpositive_fibre_degree_refused(route, n, g):
    """Both slope routes refuse g+n-1 <= 0 with grr._fibre_degree's error; at
    g = 5, n = -5 once gave a slope and n = -4 a bare ZeroDivisionError."""
    message = rf"^fibre degree g\+n-1 = {g + n - 1} must be positive$"
    with pytest.raises(ValueError, match=message):
        route(g, n, 14, 3, 2)


def _outcome(call, *args):
    """("ok", invariants), or the type and message of what call(*args) raised."""
    try:
        return "ok", call(*args)
    except Exception as exc:
        return type(exc), str(exc)


_route_values = st.fractions(-60, 60, max_denominator=12)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(st.integers(-2, 30), st.integers(-2, 6), _route_values, _route_values | st.just(0),
       _route_values, st.integers(0, 3))
def test_both_slope_routes_refuse_the_same_inputs(g, n, c1sq, c2, rsq, b):
    """grr.check_degree owns the degree rule: n >= 2, and c2 = 0 at n = 2."""
    direct = _outcome(slope_general, g, n, c1sq, c2, rsq)
    assert direct == _outcome(slope_general_via_surface, g, n, c1sq, c2, rsq, b)


#: entry point -> (call on g and its Chern inputs, exact values of those inputs)
_CHERN_ENTRIES = {
    "slope_general": (lambda g, *c: slope_general(g, 3, *c), (14, 3, 2)),
    "trigonal_blowup_parts": (lambda g, *c: slope.trigonal_blowup_parts(g, *c, 1), (14, 3)),
    "fourgonal_blowup_parts": (lambda g, *c: slope.fourgonal_blowup_parts(g, *c, 1, 1),
                               (20, 6, 4)),
    "fourgonal_rearranged": (lambda g, *c: fourgonal_rearranged(g, *c, 1, 1), (20, 6)),
}


@pytest.mark.parametrize("inexact", [1.5, Decimal("1.5")], ids=repr)
@pytest.mark.parametrize("g", [11, G], ids=str)
@pytest.mark.parametrize("entry", _CHERN_ENTRIES.values(), ids=_CHERN_ENTRIES)
def test_inexact_chern_input_refused(entry, g, inexact):
    call, exact = entry
    for i in range(len(exact)):
        data = [*exact]
        data[i] = inexact
        with pytest.raises(TypeError, match="not an exact rational"):
            call(g, *data)
