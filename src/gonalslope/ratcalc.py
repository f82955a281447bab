"""Exact scalar and univariate rational-function arithmetic.

Scalars are stdlib ``fractions.Fraction`` values, re-exported here as
``Rat``.  ``RatFunc`` is a quotient of polynomials over Q in one formal
variable, printed as ``g``.  Every instance is held in canonical form:
numerator and denominator coprime as polynomials, all coefficients
integral and jointly coprime, leading denominator coefficient positive.
Equality is therefore plain structural comparison, and an independent
check is always available by evaluating at enough sample points.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

Rat = Fraction

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class PoleError(ZeroDivisionError):
    """Evaluation of a RatFunc at a root of its denominator."""


def parse_rat(text: str) -> Rat:
    """Parse an exact integer or 'p/q' literal. Anything else is rejected."""
    text = text.strip()
    if not _RAT_RE.match(text):
        raise ValueError(f"not an exact rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


# -- dense polynomials over Q: tuples of Fraction, lowest degree first, --
# -- no trailing zeros; the zero polynomial is the empty tuple.         --

def _trim(cs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return cs[:n]


def _padd(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(tuple(out))


def _pneg(a: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    return tuple(-c for c in a)


def _pmul(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(tuple(out))


def _pdivmod(a: tuple[Fraction, ...], b: tuple[Fraction, ...]):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    lead = b[-1]
    while len(r) >= len(b) and any(r):
        r = list(_trim(tuple(r)))
        if len(r) < len(b):
            break
        k = len(r) - len(b)
        f = r[-1] / lead
        q[k] = f
        for i, c in enumerate(b):
            r[k + i] -= f * c
        r.pop()
    return _trim(tuple(q)), _trim(tuple(r))


def _pgcd(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if a:
        a = tuple(c / a[-1] for c in a)  # monic
    return a


def _peval(a: tuple[Fraction, ...], x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(a):
        out = out * x + c
    return out


def _pstr(a: tuple[Fraction, ...], var: str = "g") -> str:
    if not a:
        return "0"
    parts: list[str] = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        mag_s = str(mag.numerator) if mag.denominator == 1 else str(mag)
        if k == 0:
            body = mag_s
        else:
            pw = var if k == 1 else f"{var}^{k}"
            body = pw if mag == 1 else f"{mag_s}{pw}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


class RatFunc:
    """A rational function num/den in the single variable g, over Q."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        n = _trim(tuple(Fraction(c) for c in num))
        d = _trim(tuple(Fraction(c) for c in den))
        if not d:
            raise ZeroDivisionError("denominator is identically zero")
        if not n:
            self.num, self.den = (), (Fraction(1),)
            return
        common = _pgcd(n, d)
        if len(common) > 1:
            n = _pdivmod(n, common)[0]
            d = _pdivmod(d, common)[0]
        # clear to jointly coprime integer coefficients, positive lead in den
        all_cs = n + d
        m = lcm(*(c.denominator for c in all_cs))
        ints = [c * m for c in all_cs]
        gg = gcd(*(int(c) for c in ints))
        scale = Fraction(m, gg)
        if d[-1] * scale < 0:
            scale = -scale
        self.num = tuple(c * scale for c in n)
        self.den = tuple(c * scale for c in d)

    # construction helpers ------------------------------------------------

    @classmethod
    def const(cls, q) -> RatFunc:
        return cls((Fraction(q),))

    @classmethod
    def variable(cls) -> RatFunc:
        return cls((0, 1))

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction)):
            return RatFunc.const(x)
        return None

    # predicates and views -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def as_rat(self) -> Rat:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        if not self.num:
            return Fraction(0)
        return self.num[0] / self.den[0]

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(_padd(_pmul(self.num, o.den), _pmul(o.num, self.den)),
                       _pmul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(RatFunc)
        out.num = _pneg(self.num)
        out.den = self.den
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if self.is_zero():
                raise ZeroDivisionError("inverse of the zero rational function")
            return RatFunc(self.den, self.num) ** (-k)
        out = RatFunc.const(1)
        for _ in range(k):
            out = out * self
        return out

    # equality is structural; canonical form makes that sound

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a constant equals its Fraction (and int), so it must hash like one
        return hash(self.as_rat()) if self.is_constant() else hash((self.num, self.den))

    # evaluation and substitution -------------------------------------------

    def __call__(self, x) -> Rat:
        x = Fraction(x)
        d = _peval(self.den, x)
        if d == 0:
            raise PoleError(f"pole of {self} at g = {x}")
        return _peval(self.num, x) / d

    def compose(self, inner) -> RatFunc:
        """Substitute ``inner`` for the variable; inner may be a RatFunc or a number."""
        h = self._coerce(inner)
        if h is None:
            raise TypeError(f"cannot substitute {inner!r}")
        n = RatFunc.const(0)
        for c in reversed(self.num):
            n = n * h + c
        d = RatFunc.const(0)
        for c in reversed(self.den):
            d = d * h + c
        if d.is_zero():
            raise ZeroDivisionError("denominator vanishes identically under substitution")
        return n / d

    def __str__(self) -> str:
        if self.is_constant():
            return str(self.as_rat())
        if self.den == (Fraction(1),):
            return _pstr(self.num)
        num_s, den_s = _pstr(self.num), _pstr(self.den)
        wrap = lambda s: f"({s})" if " " in s else s
        return f"{wrap(num_s)}/{wrap(den_s)}"

    def __repr__(self) -> str:
        return f"RatFunc[{self}]"


#: the formal variable, shared by everything downstream
G = RatFunc.variable()
