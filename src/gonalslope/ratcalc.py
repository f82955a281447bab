"""Exact scalar and univariate rational-function arithmetic.

Scalars are stdlib ``fractions.Fraction`` values (``Rat``) or ``RatFunc``s;
``lift`` admits a caller's scalar into every layer and refuses a float or
Decimal; ``concrete`` is the one rule that tells a number (a constant
RatFunc included) from a function of g; ``__bool__`` is the one zero test.
``RatFunc`` is a quotient of polynomials in one formal variable, printed as
``g``; it accepts int or Fraction coefficients but stores numerator and
denominator as tuples of int.  When every coefficient's type is ``int`` they
are trimmed and canonicalised as given; otherwise (a ``bool`` included) each
is admitted through ``_exact`` and all are brought onto their lcm by
``over_lcm``, which every layer uses for that.  Every instance is held in
canonical form: numerator and denominator coprime as polynomials, all
coefficients jointly coprime, leading denominator coefficient positive.
The common factor is found by a primitive polynomial remainder sequence
over Z, so no arithmetic leaves the integers.  It runs only between two
nonconstant operands.  If a/b is canonical and p/q is a nonzero constant,
then q*a + p*b and q*b are coprime, and so are p*a, q*b and q*a, p*b; so
+, -, * and / with an int, Fraction or constant RatFunc on either side,
``**`` and ``compose``, fix only the integer content and the denominator's
sign (``_normal``).  For ``**``, a^k and b^k are coprime (an irreducible
factor of both divides a and b), and jointly primitive by Gauss's lemma (a
prime dividing every coefficient of a^k divides every coefficient of a).
For ``compose``, with p/q canonical and k = max(deg a, deg b): a common
prime factor of q^k a(p/q) and q^k b(p/q) divides q (from u*a + v*b = 1),
and modulo it they are a_k p^k and b_k p^k, not both 0 as p is prime to q.
``compose`` forms both by Kronecker substitution: each is one integer sum
of a_i p(x)^i q(x)^(k-i) at x = 2^w, read back as signed base-2^w digits.
With |.|_1 the sum of absolute coefficients, each coefficient of
p^i q^(k-i) is at most max(|p|_1, |q|_1)^k, so each output coefficient is
at most m = max(|a|_1, |b|_1) * max(|p|_1, |q|_1)^k; with w = bitlen(m) + 2,
m < 2^(w-1), so the digits are unique and the read-back exact.  Equality
is plain structural comparison, and an independent check is always
available by evaluating at enough sample points.  ``_sum`` and ``_paren``
are the one rule for the text of an exact expression; ``chow`` reads them.

``pair`` is the one pair view: an exact scalar as its (numerator,
denominator), each an int where it is constant and an ``IntPoly`` where it
is not.  +, - and * on those ring values never normalise, and ``ratio``
brings a quotient of two to lowest terms once: a Fraction of two ints, or a
canonical RatFunc.  So a formula over several scalars, written as the
integer formula it is at a concrete genus, takes one canonical form per
result over Q(g), not one per RatFunc operation.  ``slope`` writes its
formulas that way, and so makes no RatFunc type test of its own.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul

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


def concrete(x):
    """int or Fraction as is, a constant RatFunc as its Fraction, None for a function of g."""
    if isinstance(x, RatFunc):
        return x.as_rat() if x.is_constant() else None
    return x if isinstance(x, (int, Fraction)) else _exact(x)


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
    """The primitive gcd of two nonzero polynomials, up to sign; (1,) for a coprime pair."""
    if len(a) < len(b):
        a, b = b, a
    b = _primitive(b)
    while len(b) > 1:  # a nonzero constant remainder ends it: the pair is coprime
        a, b = b, _primitive(_prem(a, b))
    return (1,) if b else a


def _pexquo(a: _Poly, b: _Poly) -> _Poly:
    """a / b, where b divides a."""
    r, n, lead = list(a), len(b), b[-1]
    q = [0] * (len(a) - n + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k], rem = divmod(r.pop(), lead)
        if rem:  # raises, not asserts: python -O keeps both
            raise AssertionError("inexact polynomial division")
        for i in range(n - 1):
            r[k + i] -= q[k] * b[i]
    if any(r):
        raise AssertionError("inexact polynomial division")
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


# -- the pair view: a scalar as (numerator, denominator) ring values, so a  --
# -- formula over several scalars takes one canonical form per result       --


class IntPoly:
    """An integer polynomial in g as a ring element: +, - and * with ints and
    IntPolys, never normalised.  ``pair`` makes them and ``ratio`` divides two."""

    __slots__ = ("cs",)

    def __init__(self, cs: _Poly):
        self.cs = cs

    def __bool__(self) -> bool:
        return bool(self.cs)

    def __add__(self, other):
        return IntPoly(_padd(self.cs, _coeffs(other)))

    __radd__ = __add__

    def __neg__(self):
        return IntPoly((*(-c for c in self.cs),))

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        return self if other == 1 else IntPoly(_pmul(self.cs, _coeffs(other)))

    __rmul__ = __mul__


def _coeffs(x) -> _Poly:
    """The coefficients of a ring value: an IntPoly's own, an int as a constant."""
    return x.cs if type(x) is IntPoly else (x,) if x else ()


def _ring(cs: _Poly):
    """A polynomial as a ring value: an int where it is constant, else an IntPoly."""
    return IntPoly(cs) if len(cs) > 1 else cs[0] if cs else 0


def pair(x):
    """(numerator, denominator) of an exact scalar as ring values, ints where
    they are constant.  So a formula over pairs stays in ints exactly where
    every input is a number (a constant RatFunc is one, as for ``concrete``)."""
    if type(x) is int or type(x) is Fraction:
        return x.as_integer_ratio()
    if isinstance(x, RatFunc):
        return _ring(x.num), _ring(x.den)
    return _exact(x).as_integer_ratio()


def ratio(num, den):
    """num/den in lowest terms: a Fraction of two ints; one canonical form where
    an IntPoly is in; any other exact scalars by their own division."""
    if type(num) is int and type(den) is int:
        return Fraction(num, den)
    if type(num) is IntPoly or type(den) is IntPoly:
        d = _coeffs(den)
        if not d:
            raise ZeroDivisionError("denominator is identically zero")
        return _canon(_coeffs(num), d)
    return num / den


def _kron_compose(a: _Poly, b: _Poly, p: _Poly, q: _Poly) -> tuple[_Poly, _Poly]:
    """q^k a(p/q) and q^k b(p/q), k = max(deg a, deg b), by Kronecker substitution."""
    k = max(len(a), len(b)) - 1
    m = max(sum(map(abs, a)), sum(map(abs, b))) * max(sum(map(abs, p)), sum(map(abs, q))) ** k
    bits = m.bit_length() + 2  # each output coefficient within m < half (module docstring)
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    x, y = (sum(c << (i * bits) for i, c in enumerate(cs)) for cs in (p, q))
    xs, ys = ([*accumulate([z] * k, mul, initial=1)] for z in (x, y))
    basis = [*map(mul, xs, reversed(ys))]  # p^i q^(k-i) at 2^bits
    out = []
    for v in (sum(map(mul, a, basis)), sum(map(mul, b, basis))):
        cs = []
        while v:  # signed digits in [-half, half), lowest first
            c = ((v + half) & mask) - half
            cs.append(c)
            v = (v - c) >> bits
        out.append((*cs,))
    return out[0], out[1]


def _horner(a: _Poly, x: int) -> int:
    """The integer a(x)."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _peval(a: _Poly, p: int, q: int, k: int) -> int:
    """The integer q^k a(p/q), for k >= deg a."""
    acc, qk = 0, 1
    for c in reversed(a):
        acc = acc * p + c * qk
        qk *= q
    return acc * q ** (k + 1 - len(a))


def _sum(terms) -> str:
    """Signed terms as one sum: a term that starts with '-' is subtracted."""
    return " + ".join(terms).replace("+ -", "- ")


def _paren(text: str, divisor: bool = False) -> str:
    """text as an operand: parenthesised if it is a sum, or if it is a divisor
    and neither an integer nor a bare power of g, so '/' never binds a product."""
    bare = " " not in text and (not divisor or text.isdigit() or text[0] == "g")
    return text if bare else f"({text})"


def _pstr(a: _Poly) -> str:
    terms = []
    for k in range(len(a) - 1, -1, -1):
        if c := a[k]:
            coef = "" if c == 1 else "-" if c == -1 else str(c)
            terms.append(str(c) if k == 0 else f"{coef}g" if k == 1 else f"{coef}g^{k}")
    return _sum(terms)


class RatFunc:
    """A rational function num/den in the single variable g, over Q.

    ``num`` and ``den`` are tuples of int, lowest degree first.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        n, d = (*num,), (*den,)
        # ints skip the lift: lifting them too cost verify-suite pass_s +4.8% (6 paired 10 s runs)
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

    # predicates and views -------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

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
        if not self:
            raise ZeroDivisionError("division by the zero rational function")
        return self._join(constant, _pmul(on, self.den), _pmul(od, self.num))

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        num, den = self.num, self.den
        if k < 0:
            if not num:
                raise ZeroDivisionError("inverse of the zero rational function")
            num, den, k = den, num, -k
        n, d = (1,), (1,)
        for bit in f"{k:b}":  # square and multiply, leading bit first
            n, d = _pmul(n, n), _pmul(d, d)
            if bit == "1":
                n, d = _pmul(n, num), _pmul(d, den)
        return _normal(n, d)  # coprime and jointly primitive (module docstring)

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
        if type(x) is int:  # Horner in integers: x is already x/1; a bool goes by _exact
            n, d = _horner(self.num, x), _horner(self.den, x)
        else:
            x = _exact(x)
            p, q = x.numerator, x.denominator
            k = max(len(self.num), len(self.den)) - 1
            n, d = _peval(self.num, p, q, k), _peval(self.den, p, q, k)
        if d == 0:
            raise PoleError(f"pole of {self} at g = {x}")
        return Fraction(n, d)

    def compose(self, inner) -> RatFunc:
        """Substitute ``inner`` for the variable; inner may be a RatFunc or a number."""
        h = _operand(inner)
        if h is None:
            raise TypeError(f"cannot substitute {inner!r}")
        # f(p/q) = q^k num(p/q) / (q^k den(p/q)), coprime (module docstring)
        n, d = _kron_compose(self.num, self.den, h[0], h[1])
        if not d:
            raise ZeroDivisionError("denominator vanishes identically under substitution")
        return _normal(n, d)

    def __str__(self) -> str:
        if self.is_constant():
            return str(self.as_rat())
        if self.den == (1,):
            return _pstr(self.num)
        return f"{_paren(_pstr(self.num))}/{_paren(_pstr(self.den), divisor=True)}"

    def __repr__(self) -> str:
        return f"RatFunc[{self}]"


#: the formal variable, shared by everything downstream
G = RatFunc((0, 1))
