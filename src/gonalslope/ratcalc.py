"""Exact scalar and univariate rational-function arithmetic.

Scalars are stdlib ``fractions.Fraction`` values (``Rat``) or ``RatFunc``s;
``lift`` admits a caller's scalar into every layer and refuses a float or
Decimal.  ``RatFunc`` is a quotient of polynomials in one formal variable,
printed as ``g``; it accepts int or Fraction coefficients but stores
numerator and denominator as tuples of int.  When every coefficient's type
is ``int`` they are trimmed and canonicalised as given; otherwise (a
``bool`` included) each is admitted through ``_exact`` and all are brought
onto their lcm by ``over_lcm``, which every layer uses for that.  Every
instance is held in canonical form: numerator and denominator coprime as
polynomials, all coefficients jointly coprime, leading denominator
coefficient positive.
The common factor is found by a primitive polynomial remainder sequence
over Z, so no arithmetic leaves the integers.  It runs only between two
nonconstant operands.  If a/b is canonical and p/q is a nonzero constant,
then q*a + p*b and q*b are coprime, and so are p*a, q*b and q*a, p*b; so
+, -, * and / with an int, Fraction or constant RatFunc on either side, and
``compose``, fix only the integer content and the denominator's sign
(``_normal``).  For ``compose``, with p/q canonical and k = max(deg a,
deg b): a common prime factor of q^k a(p/q) and q^k b(p/q) divides q (from
u*a + v*b = 1), and modulo it they are a_k p^k and b_k p^k, not both 0 as
p is prime to q.  Equality is plain structural comparison, and an
independent check is always available by evaluating at enough sample
points.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

Rat = Fraction

_RAT_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


class PoleError(ZeroDivisionError):
    """Evaluation of a RatFunc at a root of its denominator."""


def _exact(x) -> Fraction:
    """x as a Fraction (a plain Fraction as is); a float or any other inexact value is refused."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"not an exact rational: {x!r}")
    return x if type(x) is Fraction else Fraction(x)


def lift(x):
    """A caller's scalar: Fraction or RatFunc as is, int as Fraction, else TypeError."""
    return x if isinstance(x, (Fraction, RatFunc)) else _exact(x)


def over_lcm(pairs) -> tuple[tuple[int, ...], int]:
    """Int (numerator, denominator) pairs as numerators over the denominators' lcm, and the lcm."""
    pairs = [*pairs]
    m = lcm(*(d for _, d in pairs))
    return (*(n * (m // d) for n, d in pairs),), m


def parse_rat(text: str) -> Rat:
    """Parse an exact integer or 'p/q' literal. Anything else is rejected."""
    text = text.strip()
    m = _RAT_RE.match(text)
    if not m:
        raise ValueError(f"not an exact rational literal: {text!r}")
    num, den = m.groups()
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:  # more digits than the interpreter converts to an int
        raise ValueError(f"too many digits in value: {text!r}") from None


# -- dense polynomials over Z: tuples of int, lowest degree first, no trailing --
# -- zeros, () for zero.  The gcd is a primitive PRS: pseudo-remainders with   --
# -- content removal (Knuth, TAOCP vol. 2, 4.6.1), so nothing leaves Z.       --

_Poly = tuple[int, ...]


def _trim(cs: _Poly) -> _Poly:
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return cs[:n]


def _padd(a: _Poly, b: _Poly) -> _Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(tuple(out))


def _pmul(a: _Poly, b: _Poly) -> _Poly:
    if not a or not b:
        return ()
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:  # a scalar multiple, the common case
        return a if b[0] == 1 else (*(b[0] * c for c in a),)
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)  # Z has no zero divisors: the lead stays nonzero


def _primitive(a: _Poly) -> _Poly:
    c = gcd(*a)
    return a if c == 1 else (*(x // c for x in a),)


def _prem(a: _Poly, b: _Poly) -> _Poly:
    """The remainder of a by b times a nonzero integer (len(a) >= len(b))."""
    r, n, lead = list(a), len(b), b[-1]
    for k in range(len(a) - n, -1, -1):
        top = r.pop()
        if top:
            g = gcd(top, lead)
            scale, f = lead // g, top // g
            if scale != 1:
                r = [c * scale for c in r]
            for i in range(n - 1):
                r[k + i] -= f * b[i]
    return _trim(tuple(r))


def _pgcd(a: _Poly, b: _Poly) -> _Poly:
    """The primitive gcd of two nonzero polynomials, up to sign."""
    if len(a) < len(b):
        a, b = b, a
    b = _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a


def _pexquo(a: _Poly, b: _Poly) -> _Poly:
    """a / b, where b divides a."""
    r, n, lead = list(a), len(b), b[-1]
    q = [0] * (len(a) - n + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k], rem = divmod(r.pop(), lead)
        assert not rem, "inexact polynomial division"
        for i in range(n - 1):
            r[k + i] -= q[k] * b[i]
    assert not any(r), "inexact polynomial division"
    return tuple(q)


def _canon(num: _Poly, den: _Poly) -> RatFunc:
    """The RatFunc num/den: coprime, jointly primitive, positive lead in den."""
    if len(num) > 1 and len(den) > 1:
        common = _pgcd(num, den)
        if len(common) > 1:
            num, den = _pexquo(num, common), _pexquo(den, common)
    return _normal(num, den)


def _normal(num: _Poly, den: _Poly) -> RatFunc:
    """The RatFunc num/den for coprime num and den: content and sign fixed."""
    if not num:
        den = (1,)
    c = gcd(*num, *den) * (-1 if den[-1] < 0 else 1)
    if c != 1:
        num, den = (*(x // c for x in num),), (*(x // c for x in den),)
    out = object.__new__(RatFunc)
    out.num, out.den = num, den
    return out


def _operand(x):
    """(num, den, is_constant) of an int, Fraction or RatFunc; None for anything else."""
    if isinstance(x, RatFunc):
        return x.num, x.den, len(x.num) <= 1 and len(x.den) == 1
    if isinstance(x, (int, Fraction)):
        return ((x.numerator,) if x else ()), (x.denominator,), True
    return None


def _phom(a: _Poly, p: _Poly, q: _Poly, k: int) -> _Poly:
    """q^k a(p/q) for polynomials p, q and k >= deg a: sum of a_i p^i q^(k-i)."""
    acc, qk = (), (1,)
    for c in reversed(a + (0,) * (k + 1 - len(a))):
        acc = _padd(_pmul(acc, p), (*(c * x for x in qk),))
        qk = _pmul(qk, q)
    return acc


def _peval(a: _Poly, p: int, q: int, k: int) -> int:
    """The integer q^k a(p/q), for k >= deg a."""
    acc, qk = 0, 1
    for c in reversed(a):
        acc = acc * p + c * qk
        qk *= q
    return acc * q ** (k + 1 - len(a))


def _pstr(a: _Poly, var: str = "g") -> str:
    if not a:
        return "0"
    parts: list[str] = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            pw = var if k == 1 else f"{var}^{k}"
            body = pw if mag == 1 else f"{mag}{pw}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


class RatFunc:
    """A rational function num/den in the single variable g, over Q.

    ``num`` and ``den`` are tuples of int, lowest degree first.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        n, d = (*num,), (*den,)
        if not {*map(type, n + d)} <= {int}:  # a bool, too, goes through _exact
            cs, _ = over_lcm(_exact(c).as_integer_ratio() for c in n + d)
            n, d = cs[:len(n)], cs[len(n):]
        n, d = _trim(n), _trim(d)
        if not d:
            raise ZeroDivisionError("denominator is identically zero")
        canon = _canon(n, d)
        self.num, self.den = canon.num, canon.den

    # construction helpers ------------------------------------------------

    @classmethod
    def const(cls, q) -> RatFunc:
        q = _exact(q)
        return _canon((q.numerator,) if q else (), (q.denominator,))

    @classmethod
    def variable(cls) -> RatFunc:
        return cls((0, 1))

    # predicates and views -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def as_rat(self) -> Rat:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return Fraction(self.num[0] if self.num else 0, self.den[0])

    # arithmetic: a constant on either side skips the gcd (module docstring) --

    def _join(self, constant: bool, num: _Poly, den: _Poly) -> RatFunc:
        return (_normal if constant or self.is_constant() else _canon)(num, den)

    def __add__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        on, od, constant = o
        return self._join(constant, _padd(_pmul(self.num, od), _pmul(on, self.den)),
                          _pmul(self.den, od))

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(RatFunc)
        out.num = (*(-c for c in self.num),)
        out.den = self.den
        return out

    def __sub__(self, other):
        return NotImplemented if _operand(other) is None else self + (-other)

    def __rsub__(self, other):
        return NotImplemented if _operand(other) is None else -self + other

    def __mul__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        on, od, constant = o
        return self._join(constant, _pmul(self.num, on), _pmul(self.den, od))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        on, od, constant = o
        if not on:
            raise ZeroDivisionError("division by the zero rational function")
        return self._join(constant, _pmul(self.num, od), _pmul(self.den, on))

    def __rtruediv__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        on, od, constant = o
        if self.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return self._join(constant, _pmul(on, self.den), _pmul(od, self.num))

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if self.is_zero():
                raise ZeroDivisionError("inverse of the zero rational function")
            return _canon(self.den, self.num) ** (-k)
        out = RatFunc.const(1)
        for _ in range(k):
            out = out * self
        return out

    # equality is structural; canonical form makes that sound

    def __eq__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return self.num == o[0] and self.den == o[1]

    def __hash__(self):
        # a constant equals its Fraction (and int), so it must hash like one
        return hash(self.as_rat()) if self.is_constant() else hash((self.num, self.den))

    # evaluation and substitution -------------------------------------------

    def __call__(self, x) -> Rat:
        if not isinstance(x, int):  # an int is already x/1
            x = _exact(x)
        p, q = x.numerator, x.denominator
        k = max(len(self.num), len(self.den)) - 1
        d = _peval(self.den, p, q, k)
        if d == 0:
            raise PoleError(f"pole of {self} at g = {x}")
        return Fraction(_peval(self.num, p, q, k), d)

    def compose(self, inner) -> RatFunc:
        """Substitute ``inner`` for the variable; inner may be a RatFunc or a number."""
        h = _operand(inner)
        if h is None:
            raise TypeError(f"cannot substitute {inner!r}")
        # f(p/q) = q^k num(p/q) / (q^k den(p/q)), coprime (module docstring)
        p, q, _ = h
        k = max(len(self.num), len(self.den)) - 1
        d = _phom(self.den, p, q, k)
        if not d:
            raise ZeroDivisionError("denominator vanishes identically under substitution")
        return _normal(_phom(self.num, p, q, k), d)

    def __str__(self) -> str:
        if self.is_constant():
            return str(self.as_rat())
        if self.den == (1,):
            return _pstr(self.num)
        num_s, den_s = _pstr(self.num), _pstr(self.den)
        wrap = lambda s: f"({s})" if " " in s else s
        return f"{wrap(num_s)}/{wrap(den_s)}"

    def __repr__(self) -> str:
        return f"RatFunc[{self}]"


#: the formal variable, shared by everything downstream
G = RatFunc.variable()
