"""Canonical form, arithmetic and evaluation of exact rational functions."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gonalslope.ratcalc import G, PoleError, RatFunc, parse_rat


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


def test_identically_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc((1,), (0,))
    with pytest.raises(ZeroDivisionError):
        G / (G - G)


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
