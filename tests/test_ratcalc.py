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
from gonalslope.ratcalc import G, PoleError, RatFunc, _pgcd, concrete, parse_rat


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
    assert not zero and zero.is_constant()
    assert zero.as_rat() == 0
    assert not (G - G)
    c = RatFunc.const(Fraction(-3, 7))
    assert c.is_constant() and c.as_rat() == Fraction(-3, 7)
    with pytest.raises(ValueError):
        G.as_rat()


@pytest.mark.parametrize("value,number", [
    (3, 3), (Fraction(-5, 4), Fraction(-5, 4)), (True, True),
    (RatFunc.const(0), Fraction(0)), (RatFunc.const(Fraction(7, 2)), Fraction(7, 2)),
    (G, None), (G - 100, None), (1 / G, None),
])
def test_concrete_tells_a_number_from_a_function_of_g(value, number):
    got = concrete(value)
    assert got == number and type(got) is type(number)


@pytest.mark.parametrize("value", [0.5, Decimal("0.5"), "1"], ids=repr)
def test_concrete_refuses_what_lift_refuses(value):
    with pytest.raises(TypeError, match="not an exact rational"):
        concrete(value)


@pytest.mark.parametrize("q", [0, -3, Fraction(-5, 4), Fraction(7, 2)])
def test_bool_of_a_constant_is_bool_of_its_number(q):
    f = RatFunc.const(q)
    assert bool(f) == bool(f.as_rat()) == bool(q)


def test_bool_of_a_function_of_g():
    assert bool(G) and bool(G - 100) and not (G - G)


#: binary operators and compose, each with the RatFunc on the left and on the right
FOREIGN_OPS = {
    "+": (lambda f, x: f + x, lambda f, x: x + f),
    "-": (lambda f, x: f - x, lambda f, x: x - f),
    "*": (lambda f, x: f * x, lambda f, x: x * f),
    "/": (lambda f, x: f / x, lambda f, x: x / f),
    "**": (lambda f, x: f ** x, lambda f, x: x ** f),
    "compose": (lambda f, x: f.compose(x), lambda f, x: f.compose(x)),
}


@pytest.mark.parametrize("foreign", [0.5, Decimal("0.5"), "g"], ids=repr)
@pytest.mark.parametrize("op", FOREIGN_OPS)
def test_foreign_operands_raise_type_error(op, foreign):
    for side in FOREIGN_OPS[op]:
        for f in (G, RatFunc.const(2)):
            with pytest.raises(TypeError):
                side(f, foreign)
    assert (G == foreign) is False and (foreign == G) is False


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
        if h:
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
@given(ratfuncs)
@example(RatFunc((0,), (5,)))
def test_bool_is_the_zero_test(f):
    assert bool(f) == (f != 0)


@oracle_settings
@given(ratfuncs, ratfuncs, ratfuncs)
def test_field_axioms(f, h, k):
    zero, one = RatFunc.const(0), RatFunc.const(1)
    assert f + h == h + f and f * h == h * f
    assert (f + h) + k == f + (h + k) and (f * h) * k == f * (h * k)
    assert f * (h + k) == f * h + f * k
    assert f + zero == f and f * one == f and f - f == zero and -(-f) == f
    if f:
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
    num, den = ratcalc._kron_compose(f.num, f.den, p, q)
    assume(den)
    if num:
        assert len(_pgcd(num, den)) == 1
    got, want = f.compose(h), ratcalc._canon(num, den)
    assert (got.num, got.den) == (want.num, want.den)


#: coefficients up to 10^20, so the packing width grows past a machine word
big_coefficients = st.one_of(st.integers(-10**20, 10**20),
                             st.fractions(-10**20, 10**20, max_denominator=10**6))
big_funcs = st.builds(RatFunc, st.lists(big_coefficients, max_size=4).map(tuple),
                      st.lists(big_coefficients, min_size=1, max_size=4).map(tuple).filter(any))


@oracle_settings
@given(big_funcs | compose_funcs, big_funcs | big_coefficients | compose_funcs | coefficients)
@example(RatFunc(()), (G ** 2 + 1) / (G - 3))  # f = 0
@example((G ** 3 - 2 * G + 5) / (3 * G ** 2 + 1), 7)
@example((G ** 3 - 2 * G + 5) / (3 * G ** 2 + 1), Fraction(-10 ** 20, 7))
@example((G ** 2 + G) / (G - 1), (-(10 ** 20) * G ** 3 + 1) / (G - 5))  # negative leads
@example((-3 * G ** 4 + 1) / (2 * G + 7), (-G ** 2 - G) / (-5 * G ** 2 + 3))
@example(1 / G, 0)  # the denominator vanishes identically
def test_compose_matches_sympy_cancel(f, h):
    expr, inner = sympy_of(f), sympy_of(h)
    if sympy.cancel(to_sympy(f.den).as_expr().subs(SYM_G, inner)) == 0:
        with pytest.raises(ZeroDivisionError):
            f.compose(h)
        return
    got = f.compose(h)
    assert (got.num, got.den) == sympy_cancelled(expr.subs(SYM_G, inner))
    assert_canonical(got)


@oracle_settings
@given(ratfuncs, st.integers(-4, 8))
@example(RatFunc(()), -2)
@example(RatFunc(()), 0)
@example((3 * G ** 2 + 1) / (G - 7), 12)
def test_pow_matches_repeated_multiplication(f, k):
    if k < 0 and not f:
        with pytest.raises(ZeroDivisionError):
            f ** k
        return
    want = RatFunc.const(1)
    for _ in range(abs(k)):
        want = want * f if k > 0 else want / f
    got = f ** k
    assert (got.num, got.den) == (want.num, want.den)
    assert_canonical(got)


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
    return (name == "f/c" and c == 0) or (name == "c/f" and not f)


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


def _evaluated(f, x):
    """f(x), a Fraction, or the message of the PoleError it raised."""
    try:
        value = f(x)
    except PoleError as exc:
        return str(exc)
    assert type(value) is Fraction
    return value


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(ratfuncs, st.integers(-40, 40), st.integers(-40, 40))
@example((G ** 2 + 3) / G, -4, 3)
@example(RatFunc(()), 1, 1)
def test_int_evaluation_matches_fraction_evaluation(f, x, r):
    """An int point goes by Horner in integers, a Fraction by _peval: they agree."""
    for h in (f, f / (G - r)):  # a pole at r unless f cancels it
        for point in (x, r):
            got = _evaluated(h, point)
            assert got == _evaluated(h, Fraction(point))
            if type(got) is str:
                assert got == f"pole of {h} at g = {point}"
        for flag in (False, True):
            if type(got := _evaluated(h, int(flag))) is str:
                with pytest.raises(PoleError):
                    h(flag)
            else:
                assert h(flag) == got


def _refuse(name):
    """A stand-in for the private function name that fails if it runs."""
    def refuse(*args):
        raise AssertionError(f"{name} ran on {args}")
    return refuse


def test_constant_operands_never_run_the_gcd(monkeypatch):
    funcs = [(G ** 2 + 1) / (G - 3), (2 * G + 4) / (6 * G ** 2 - 1), G ** 3 - G / 2,
             RatFunc.const(Fraction(-5, 4)), G - G]
    consts = [0, -3, Fraction(2, 7), RatFunc.const(Fraction(-5, 4)), RatFunc.const(0)]
    monkeypatch.setattr(ratcalc, "_pgcd", _refuse("_pgcd"))
    for f, c in product(funcs, consts):
        for name, op in SCALAR_OPS.items():
            if not divides_by_zero(name, f, c):
                op(f, c)
        assert (f == c) == (not (f - c)) == (c == f)
        f(Fraction(1, 5)), f(7)


# -- work counts, without timing -------------------------------------------------


def test_compose_runs_no_polynomial_product_or_sum(monkeypatch):
    funcs = [(G ** 3 - 2 * G + 5) / (3 * G ** 2 + 1), G ** 5 / 7, RatFunc(()), 1 / (G + 1)]
    inners = [G, (-(10 ** 20) * G ** 3 + 1) / (G - 5), 4 * G ** 2 - G, 7, Fraction(-3, 8)]
    monkeypatch.setattr(ratcalc, "_pmul", _refuse("_pmul"))
    monkeypatch.setattr(ratcalc, "_padd", _refuse("_padd"))
    for f, h in product(funcs, inners):
        f.compose(h)


def test_coprime_pair_gcd_stops_at_a_constant_remainder(monkeypatch):
    calls = []
    prem = ratcalc._prem
    monkeypatch.setattr(ratcalc, "_prem", lambda a, b: calls.append(a) or prem(a, b))
    assert _pgcd((2, 0, 0, 1), (1, 0, 1)) == (1,)  # g^3 + 2 and g^2 + 1
    assert len(calls) == 2


def test_pow_runs_no_gcd(monkeypatch):
    funcs = [(3 * G ** 2 + 1) / (G - 7), (G + 1) / (G - 1), -G ** 3 / 5, RatFunc.const(-2)]
    monkeypatch.setattr(ratcalc, "_pgcd", _refuse("_pgcd"))
    for f, k in product(funcs, (-3, 0, 1, 2, 5, 12)):
        f ** k
    RatFunc(()) ** 3
