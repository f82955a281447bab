"""Canonical form, arithmetic and evaluation of exact rational functions."""
from __future__ import annotations

import random
import re
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gonalslope import ratcalc
from gonalslope.ratcalc import G, PoleError, RatFunc, _pgcd, parse_rat


def rand_ratfunc(rng: random.Random, deg: int = 3) -> RatFunc:
    while True:
        num = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
               for _ in range(rng.randint(1, deg + 1))]
        den = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
               for _ in range(rng.randint(1, deg + 1))]
        if any(den):
            return RatFunc(num, den)


@pytest.mark.parametrize("text,value", [
    ("3", Fraction(3)),
    ("-4/9", Fraction(-4, 9)),
    ("+7", Fraction(7)),
    (" 28/9 ", Fraction(28, 9)),
    ("0", Fraction(0)),
])
def test_parse_rat_accepts_exact_literals(text, value):
    assert parse_rat(text) == value


@pytest.mark.parametrize("text", ["1.5", "3/ 4", "a", "1/-2", "", "2e3", "1/2/3",
                                  "1/0", "-3/00"])
def test_parse_rat_rejects_inexact_or_malformed(text):
    with pytest.raises(ValueError):
        parse_rat(text)


@settings(max_examples=200, deadline=None, database=None)
@given(st.from_regex(r"\A[+-]?[0-9]{1,40}(/[0-9]{1,40})?\Z"))
def test_parse_rat_round_trips_against_fraction(text):
    try:
        want = Fraction(text)
    except ZeroDivisionError:
        with pytest.raises(ValueError, match=f"^zero denominator in {re.escape(repr(text))}$"):
            parse_rat(text)
        return
    got = parse_rat(text)
    assert (type(got), got) == (Fraction, want)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter sets no int-conversion digit limit")
def test_parse_rat_too_many_digits_text():
    long = "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ValueError, match=r"^too many digits in value: '1+/2'$"):
        parse_rat(long + "/2")
    with pytest.raises(ValueError, match=r"^too many digits in value: '3/1+'$"):
        parse_rat("3/" + long)


def test_exact_returns_a_plain_fraction_as_is():
    f = Fraction(7, 3)
    assert ratcalc._exact(f) is f

    class Sub(Fraction):
        pass

    sub = Sub(7, 3)
    assert type(ratcalc._exact(sub)) is Fraction and ratcalc._exact(sub) == f
    assert type(ratcalc._exact(5)) is Fraction and ratcalc._exact(5) == 5
    for bad in (1.5, Decimal("1.5")):
        with pytest.raises(TypeError, match="not an exact rational"):
            ratcalc._exact(bad)


def test_canonical_cancellation():
    assert RatFunc((-1, 0, 1), (-1, 1)) == G + 1
    assert RatFunc((2, 2), (4,)) == (G + 1) / 2
    assert RatFunc((0, 2), (0, 0, 2)) == 1 / G


def test_canonical_integer_coprime_positive_lead():
    f = (G / 2 + Fraction(1, 3)) / (G / 5 - 1)
    # 5(3g + 2) / 6(g - 5) cleared to integer coprime coefficients
    assert f.num == (10, 15)
    assert f.den == (-30, 6)
    flip = RatFunc((1,), (2, -1))  # 1/(2 - g): lead must turn positive
    assert flip.den[-1] > 0
    assert flip.num == (-1,)


def test_canonical_form_idempotent():
    rng = random.Random(17)
    for _ in range(100):
        f = rand_ratfunc(rng)
        again = RatFunc(f.num, f.den)
        assert (f.num, f.den) == (again.num, again.den)


def test_zero_and_constants():
    zero = RatFunc(())
    assert zero.is_zero() and zero.is_constant()
    assert zero.as_rat() == 0
    assert (G - G).is_zero()
    c = RatFunc.const(Fraction(-3, 7))
    assert c.is_constant() and c.as_rat() == Fraction(-3, 7)
    with pytest.raises(ValueError):
        G.as_rat()


@pytest.mark.parametrize("build", [lambda: RatFunc((0.5, 1)), lambda: RatFunc((1,), ("2",)),
                                   lambda: RatFunc.const(0.25), lambda: G(0.1),
                                   lambda: RatFunc((1, 2), (3, Decimal(1)))],
                         ids=["num", "den", "const", "call", "den_among_ints"])
def test_inexact_values_refused(build):
    with pytest.raises(TypeError):
        build()


def test_identically_zero_denominator_rejected():
    for num, den in [((1,), (0,)), ((1,), (0, 0)), ((), ()), ((1, 2), []), ((1,), (False,))]:
        with pytest.raises(ZeroDivisionError, match="denominator is identically zero"):
            RatFunc(num, den)
    with pytest.raises(ZeroDivisionError):
        G / (G - G)


_int_coeffs = st.lists(st.one_of(st.integers(-60, 60), st.booleans()), max_size=6)


@settings(max_examples=300, deadline=None, database=None)
@given(_int_coeffs, _int_coeffs.filter(any), st.integers(0, 3))
@example([0, 0], [3, -6], 0)
@example([], [0, 4], 2)
@example([2, 0, 4], [6, 0, 0], 0)
@example([True, False, 2], [True, True], 1)
def test_int_coefficients_canonicalise_as_their_fractions(num, den, zeros):
    # all ints take the int route; a bool among them takes the _exact route, as before
    num, den = num + [0] * zeros, den + [0] * zeros
    got = RatFunc(num, den)
    want = RatFunc([Fraction(int(c)) for c in num], [Fraction(int(c)) for c in den])
    assert (got.num, got.den) == (want.num, want.den)
    assert type(got.num) is type(got.den) is tuple
    assert {*map(type, got.num + got.den)} == {int}


def test_field_ops_match_pointwise_evaluation():
    rng = random.Random(23)
    pts = [Fraction(k) for k in range(-6, 7)]
    ops = [lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y]
    for _ in range(120):
        f, h = rand_ratfunc(rng), rand_ratfunc(rng)
        for op in ops:
            fh = op(f, h)
            for x in pts:
                try:
                    expect = op(f(x), h(x))
                except PoleError:
                    continue
                assert fh(x) == expect
        if not h.is_zero():
            q = f / h
            for x in pts:
                try:
                    fx, hx = f(x), h(x)
                except PoleError:
                    continue
                if hx != 0:
                    assert q(x) == fx / hx


def test_reflected_ops_with_scalars():
    assert 5 - 8 / (G + 1) == (5 * G - 3) / (G + 1)
    assert 24 * (G - 1) / (5 * G + 1) == RatFunc((-24, 24), (1, 5))
    assert Fraction(16, 3) - 8 / G == (16 * G - 24) / (3 * G)
    assert 2 + G == G + 2
    assert (1 - G) == -(G - 1)


def test_pow_including_negative():
    f = (G + 1) / (G - 1)
    assert f ** 0 == RatFunc.const(1)
    assert f ** 3 == f * f * f
    assert f ** -2 == 1 / (f * f)
    assert G ** -1 == 1 / G
    with pytest.raises(ZeroDivisionError):
        (G - G) ** -1


def test_pole_and_call():
    f = (G + 3) / (G - 5)
    assert f(6) == 9
    assert f(Fraction(1, 2)) == Fraction(7, 2) / Fraction(-9, 2)
    with pytest.raises(PoleError):
        f(5)


def test_compose():
    f = (G + 1) / (G - 1)
    assert f.compose(G) == f
    assert f.compose(3 * G + 2) == (3 * G + 3) / (3 * G + 1)
    assert f.compose(Fraction(2)) == RatFunc.const(3)
    rng = random.Random(31)
    for _ in range(50):
        f, h = rand_ratfunc(rng), rand_ratfunc(rng)
        fh = f.compose(h)
        for x in (Fraction(2), Fraction(-7, 3)):
            try:
                expect = f(h(x))
            except PoleError:
                continue
            assert fh(x) == expect


def test_compose_denominator_collapse():
    with pytest.raises(ZeroDivisionError):
        (1 / G).compose(RatFunc.const(0))


def test_structural_equality_and_hash():
    a = (5 * G - 3) / (G + 1)
    b = 5 - 8 / (G + 1)
    assert a == b and hash(a) == hash(b)
    assert a != (5 * G - 3) / (G + 2)
    assert RatFunc.const(4) == 4 and RatFunc.const(4) == Fraction(8, 2)
    table = {a: "odd"}
    assert table[b] == "odd"


@pytest.mark.parametrize("value", [3, Fraction(3, 2)])
def test_constant_hashes_like_its_number(value):
    const = RatFunc.const(value)
    assert const == value and hash(const) == hash(value)
    assert len({const, value}) == 1
    assert {value: "x"}[const] == "x"


@pytest.mark.parametrize("func,text", [
    (24 * (G - 1) / (5 * G + 1), "(24g - 24)/(5g + 1)"),
    (16 / (3 * G + 1), "16/(3g + 1)"),
    (2 * G / (G + 2), "2g/(g + 2)"),
    (RatFunc.const(Fraction(1, 4)), "1/4"),
    (G - G, "0"),
    (G ** 2 - 1, "g^2 - 1"),
    ((5 * G - 6) / G, "(5g - 6)/g"),
])
def test_str_forms(func, text):
    assert str(func) == text


# -- independent oracles: sympy for the algebra, hypothesis for the properties --

SYM_G = sympy.Symbol("g")

nonzero_int_polys = st.lists(st.integers(-30, 30), max_size=5).map(tuple).filter(any)
coefficients = st.one_of(st.integers(-30, 30),
                         st.fractions(-30, 30, max_denominator=6))
rat_polys = st.lists(coefficients, max_size=4).map(tuple)
nonzero_rat_polys = rat_polys.filter(any)
ratfuncs = st.builds(RatFunc, rat_polys, nonzero_rat_polys)
oracle_settings = settings(max_examples=100, deadline=None, database=None)


def to_sympy(cs) -> sympy.Poly:
    """A coefficient tuple, lowest degree first, as a sympy polynomial over Q."""
    return sympy.Poly(sum((sympy.Rational(c.numerator, c.denominator) * SYM_G ** i for i, c in enumerate(cs)),
                          sympy.Integer(0)), SYM_G, domain="QQ")


def from_sympy(poly: sympy.Poly) -> tuple[Fraction, ...]:
    cs = () if poly.is_zero else reversed(poly.all_coeffs())
    return tuple(Fraction(int(c.p), int(c.q)) for c in cs)


def sympy_product(a, b) -> tuple[Fraction, ...]:
    return from_sympy(to_sympy(a) * to_sympy(b))


def primitive_pair(num, den) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """num/den scaled to jointly coprime integers with a positive lead in den."""
    cs = [Fraction(c) for c in (*num, *den)]
    scale = Fraction(lcm(*(c.denominator for c in cs)),
                     gcd(*(c.numerator for c in cs)))
    if den[-1] < 0:
        scale = -scale
    ints = [int(c * scale) for c in cs]
    return tuple(ints[:len(num)]), tuple(ints[len(num):])


def sympy_canonical(num, den) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return sympy_cancelled(to_sympy(num).as_expr() / to_sympy(den).as_expr())


def sympy_cancelled(expr) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """sympy.cancel of expr, as the canonical integer (num, den) pair."""
    n, d = sympy.fraction(sympy.cancel(expr))
    n, d = from_sympy(sympy.Poly(n, SYM_G)), from_sympy(sympy.Poly(d, SYM_G))
    return ((), (1,)) if not n else primitive_pair(n, d)


def is_int_tuple(cs) -> bool:
    return all(type(c) is int for c in cs)


@oracle_settings
@given(st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(1, 10**4)), max_size=8))
def test_over_lcm_puts_each_pair_over_the_lcm_of_the_denominators(pairs):
    nums, m = ratcalc.over_lcm(iter(pairs))  # any iterable, a generator included
    assert m == lcm(*(d for _, d in pairs))
    assert type(nums) is tuple and is_int_tuple(nums)
    assert [Fraction(n, m) for n in nums] == [Fraction(n, d) for n, d in pairs]


@oracle_settings
@given(rat_polys, nonzero_rat_polys, nonzero_int_polys)
def test_canonical_form_matches_sympy_cancel(a, b, common):
    num, den = sympy_product(a, common), sympy_product(b, common)
    f = RatFunc(num, den)
    assert (f.num, f.den) == sympy_canonical(num, den)
    assert is_int_tuple(f.num) and is_int_tuple(f.den)


@oracle_settings
@given(nonzero_int_polys, nonzero_int_polys, nonzero_int_polys)
def test_private_gcd_matches_sympy_gcd(a, b, common):
    p, q = (tuple(int(c) for c in sympy_product(x, common)) for x in (a, b))
    got = _pgcd(p, q)
    assert is_int_tuple(got)
    # equal up to content and sign: both scale to the same monic polynomial
    monic = lambda cs: tuple(Fraction(c) / cs[-1] for c in cs)
    assert monic(got) == monic(from_sympy(sympy.gcd(to_sympy(p), to_sympy(q))))


@oracle_settings
@given(ratfuncs, ratfuncs, ratfuncs)
def test_field_axioms(f, h, k):
    zero, one = RatFunc.const(0), RatFunc.const(1)
    assert f + h == h + f and f * h == h * f
    assert (f + h) + k == f + (h + k) and (f * h) * k == f * (h * k)
    assert f * (h + k) == f * h + f * k
    assert f + zero == f and f * one == f and f - f == zero and -(-f) == f
    if not f.is_zero():
        assert f * (1 / f) == one and f / f == one
    for result in (f + h, f - h, f * h, f * (h + k)):
        assert is_int_tuple(result.num) and is_int_tuple(result.den)


@oracle_settings
@given(ratfuncs, ratfuncs, st.integers(-40, 40) | st.fractions(-40, 40, max_denominator=9))
def test_compose_agrees_with_evaluation_off_poles(f, h, x):
    try:
        expect = f(h(x))
    except PoleError:
        assume(False)
    assert f.compose(h)(x) == expect


#: degree <= 5 over degree <= 5, the zero function and constants included
compose_funcs = st.builds(RatFunc, st.lists(coefficients, max_size=6).map(tuple),
                          st.lists(coefficients, min_size=1, max_size=6).map(tuple).filter(any))


@oracle_settings
@given(compose_funcs, compose_funcs | coefficients)
def test_compose_pair_is_coprime_before_any_gcd(f, h):
    """q^k num(p/q) and q^k den(p/q) share no factor, so compose skips the gcd."""
    p, q, _ = ratcalc._operand(h)
    k = max(len(f.num), len(f.den)) - 1
    num, den = ratcalc._phom(f.num, p, q, k), ratcalc._phom(f.den, p, q, k)
    assume(den)
    if num:
        assert len(_pgcd(num, den)) == 1
    got, want = f.compose(h), ratcalc._canon(num, den)
    assert (got.num, got.den) == (want.num, want.den)


@oracle_settings
@given(ratfuncs, nonzero_int_polys)
def test_common_factor_leaves_canonical_form_unchanged(f, factor):
    scaled = RatFunc(sympy_product(f.num, factor), sympy_product(f.den, factor))
    assert (scaled.num, scaled.den) == (f.num, f.den)


@oracle_settings
@given(ratfuncs, ratfuncs, st.fractions(-50, 50, max_denominator=12))
def test_equal_values_have_equal_hashes(f, h, q):
    again = (f + h) - h
    assert again == f and hash(again) == hash(f)
    const = (G + q) - G
    assert const == q and const == RatFunc.const(q)
    assert hash(const) == hash(q) == hash(RatFunc.const(q))


# -- a constant operand skips the gcd: same value, same canonical form ---------

SCALAR_OPS = {
    "f+c": lambda f, c: f + c, "c+f": lambda f, c: c + f,
    "f-c": lambda f, c: f - c, "c-f": lambda f, c: c - f,
    "f*c": lambda f, c: f * c, "c*f": lambda f, c: c * f,
    "f/c": lambda f, c: f / c, "c/f": lambda f, c: c / f,
}
#: degree <= 4 over degree <= 4; the zero function and constants included
low_degree = st.builds(RatFunc, st.lists(coefficients, max_size=5).map(tuple),
                       st.lists(coefficients, min_size=1, max_size=5).map(tuple).filter(any))
scalars = st.one_of(st.integers(-30, 30), st.fractions(-30, 30, max_denominator=6),
                    st.fractions(-30, 30, max_denominator=6).map(RatFunc.const))


def sympy_of(x):
    if isinstance(x, RatFunc):
        return to_sympy(x.num).as_expr() / to_sympy(x.den).as_expr()
    return sympy.Rational(x.numerator, x.denominator)


def assert_canonical(r: RatFunc) -> None:
    assert is_int_tuple(r.num) and is_int_tuple(r.den)
    assert gcd(*r.num, *r.den) == 1 and r.den[-1] > 0
    again = RatFunc(r.num, r.den)
    assert (again.num, again.den) == (r.num, r.den)


def divides_by_zero(name, f, c) -> bool:
    return (name == "f/c" and c == 0) or (name == "c/f" and f.is_zero())


@oracle_settings
@given(low_degree, scalars)
def test_constant_operand_matches_sympy_cancel(f, c):
    for name, op in SCALAR_OPS.items():
        if divides_by_zero(name, f, c):
            with pytest.raises(ZeroDivisionError):
                op(f, c)
            continue
        r = op(f, c)
        assert (r.num, r.den) == sympy_cancelled(op(sympy_of(f), sympy_of(c))), name
        assert_canonical(r)


@pytest.mark.parametrize("q", [0, -3, Fraction(-5, 4), Fraction(7, 2)])
def test_constant_hash_and_zero_divisors(q):
    assert hash(RatFunc.const(q)) == hash(q)
    f = (G + 1) / (G - 2)
    for zero in (0, Fraction(0), RatFunc.const(0)):
        with pytest.raises(ZeroDivisionError):
            f / zero
    with pytest.raises(ZeroDivisionError):
        q / (G - G)


def test_int_evaluation_matches_fraction_evaluation():
    f = (G ** 2 + 3) / (G - 3)
    for x in (-4, 0, 2, 5):
        assert f(x) == f(Fraction(x)) and type(f(x)) is Fraction
    for x in (3, Fraction(3)):
        with pytest.raises(PoleError, match="g = 3"):
            f(x)


def test_constant_operands_never_run_the_gcd(monkeypatch):
    funcs = [(G ** 2 + 1) / (G - 3), (2 * G + 4) / (6 * G ** 2 - 1), G ** 3 - G / 2,
             RatFunc.const(Fraction(-5, 4)), G - G]
    consts = [0, -3, Fraction(2, 7), RatFunc.const(Fraction(-5, 4)), RatFunc.const(0)]

    def refuse(a, b):
        raise AssertionError(f"gcd ran on {a}, {b}")

    monkeypatch.setattr(ratcalc, "_pgcd", refuse)
    for f, c in product(funcs, consts):
        for name, op in SCALAR_OPS.items():
            if not divides_by_zero(name, f, c):
                op(f, c)
        assert (f == c) == (f - c).is_zero() == (c == f)
        f(Fraction(1, 5)), f(7)
