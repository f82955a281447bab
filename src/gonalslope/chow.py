"""Numerical classes on a blown-up ruled surface, with exact intersection pairing.

The ambient model is a P^1-bundle over a smooth curve of genus ``b``,
blown up in ``s`` points carrying total ramification and ``t`` points of
local index three.  Its numerical lattice is spanned by a section class
T0 with T0^2 = 0, the fibre class F, and the exceptional classes
E'_1..E'_s and E''_1..E''_t.  The only nonzero products among generators
are T0.F = 1 and E'_i^2 = E''_j^2 = -1.

A class with all coefficients rational is stored as a tuple of ints
(t0, f, E'..., E''...) over one positive denominator, jointly coprime, so
equal classes store alike.  The constructors write that storage directly:
``NumClass`` of int and Fraction entries brings them onto their lcm
(``ratcalc.over_lcm``) without lifting an entry, ``canonical_class`` and
the ``SurfaceModel`` generators pass their int tuple over denominator 1,
and ``_new`` sets the three slots past the frozen ``__setattr__``.
``+`` and ``-`` take one lcm, every result one gcd (dividing only when it
is not 1), and ``intersect`` is one integer dot product and one Fraction.  The
tuples are built at their final size, ``(*it,)``: ``tuple(it)`` of an
iterator with no length starts at ten slots and shrinks, which fills the
interpreter's tuple free lists.  A class with a Q(g) coefficient keeps its
entries: arithmetic works once per run of shared entry objects (``_runs``)
and the pairing multiplies once per run of equal entry pairs.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import groupby, repeat
from math import gcd, lcm
from operator import add, floordiv, mul, sub

from .ratcalc import Rat, RatFunc, lift, over_lcm

_MAX_BLOWUPS = 10_000
_NOTHING = object()


def _runs(op, xs, ys) -> tuple:
    """op(x, y) entry-wise, called again only where x or y is not the previous entry's object."""
    out, px, py, val = [], _NOTHING, _NOTHING, None
    for x, y in zip(xs, ys):
        if x is not px or y is not py:
            px, py, val = x, y, op(x, y)
        out.append(val)
    return tuple(out)


class ModelMismatchError(ValueError):
    """Two classes from different surface models were combined."""


class Record:
    """A frozen value whose fields are the leading names of __slots__.  Slot _key
    holds their tuple: == within one class and hash are one tuple operation.
    __init__ writes through _setters, the slots' __set__, past __setattr__, and
    replace builds a new value through __init__, which checks it again.
    """

    __slots__ = ("_key",)

    def __init_subclass__(cls):
        cls._setters = tuple(getattr(cls, name).__set__ for name in ("_key", *cls.__slots__))

    def _fill(self, *values):
        for set_slot, value in zip(self._setters, (values, *values)):
            set_slot(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle: the default would assign the slots
        return type(self), self._key

    def replace(self, **changes):
        return type(self)(**dict(zip(self.__slots__, self._key), **changes))


class SurfaceModel(Record):
    """Ruled surface over a genus-b curve with s + t marked blow-ups."""

    __slots__ = ("b", "s", "t")

    def __init__(self, b: int = 0, s: int = 0, t: int = 0):
        set_key, set_b, set_s, set_t = self._setters
        set_key(self, (b, s, t))
        set_b(self, b)
        set_s(self, s)
        set_t(self, t)
        if not type(b) is type(s) is type(t) is int:
            raise TypeError(f"model data must be ints: {self}")
        if b < 0 or s < 0 or t < 0:
            raise ValueError(f"negative model data: {self}")
        if s > _MAX_BLOWUPS or t > _MAX_BLOWUPS:
            raise ValueError(f"blow-up count beyond supported size: {self}")

    # generator classes ----------------------------------------------------

    def _unit(self, k: int) -> NumClass:
        """The class with coefficient 1 at storage slot k and 0 elsewhere."""
        c = [0] * (2 + self.s + self.t)
        c[k] = 1
        return _new(self, (*c,), 1)

    def zero(self) -> NumClass:
        return _new(self, (0,) * (2 + self.s + self.t), 1)

    def t0(self) -> NumClass:
        return self._unit(0)

    def f(self) -> NumClass:
        return self._unit(1)

    def e_prime(self, i: int) -> NumClass:
        if not 0 <= i < self.s:
            raise IndexError(f"E'_{i} out of range for {self}")
        return self._unit(2 + i)

    def e_dprime(self, j: int) -> NumClass:
        if not 0 <= j < self.t:
            raise IndexError(f"E''_{j} out of range for {self}")
        return self._unit(2 + self.s + j)


class NumClass:
    """a.t0*T0 + a.f*F + sum a.ep[i]*E'_i + sum a.epp[j]*E''_j, coefficients in Q or Q(g)."""

    # _c: numerators over the int _den, or the Fraction and RatFunc entries if _den is None
    __slots__ = ("model", "_c", "_den")
    __setattr__, __delattr__ = Record.__setattr__, Record.__delattr__

    def __init__(self, model: SurfaceModel, t0, f, ep=(), epp=()):
        ep, epp = tuple(ep), tuple(epp)
        vals, symbolic = (t0, f, *ep, *epp), False
        if not {*map(type, vals)} <= {int, Fraction}:
            vals = (*map(lift, vals),)
            symbolic = RatFunc in map(type, vals)
        if len(ep) != model.s or len(epp) != model.t:
            raise ModelMismatchError(
                f"coefficient vectors ({len(ep)}, {len(epp)}) do not fit {model}")
        if symbolic:
            _new(model, vals, None, self)
        else:
            _new(model, *over_lcm(x.as_integer_ratio() for x in vals), self)

    def _entries(self) -> tuple:
        """(t0, f, *ep, *epp) as Fraction or RatFunc objects, one object per value."""
        if self._den is None:
            return self._c
        fracs = {n: Fraction(n, self._den) for n in set(self._c)}
        return (*map(fracs.__getitem__, self._c),)

    t0 = property(lambda self: self._entries()[0])
    f = property(lambda self: self._entries()[1])
    ep = property(lambda self: self._entries()[2:2 + self.model.s])
    epp = property(lambda self: self._entries()[2 + self.model.s:])

    def _combine(self, op, other: NumClass) -> NumClass:
        if self.model != other.model:
            raise ModelMismatchError(f"{self.model} vs {other.model}")
        da, db = self._den, other._den
        if da is None or db is None:
            return _new(self.model, _runs(op, self._entries(), other._entries()), None)
        m = lcm(da, db)
        return _new(self.model, (*map(op, map(mul, self._c, repeat(m // da)),
                                      map(mul, other._c, repeat(m // db))),), m)

    def __add__(self, other: NumClass) -> NumClass:
        return self._combine(add, other) if isinstance(other, NumClass) else NotImplemented

    def __sub__(self, other: NumClass) -> NumClass:
        return self._combine(sub, other) if isinstance(other, NumClass) else NotImplemented

    def __rmul__(self, k) -> NumClass:
        k = k if type(k) is int else lift(k)
        if self._den is None or type(k) is RatFunc:
            c = self._entries()
            return _new(self.model, _runs(lambda x, _: k * x, c, c), None)
        return _new(self.model, (*map(mul, self._c, repeat(k.numerator)),),
                    self._den * k.denominator)

    __mul__ = __rmul__

    def __neg__(self) -> NumClass:
        return -1 * self

    def __eq__(self, other):
        if not isinstance(other, NumClass):
            return NotImplemented
        if self._den is None or other._den is None:  # Fraction 1 == constant RatFunc 1
            return (self.model, self._entries()) == (other.model, other._entries())
        return (self.model, self._den, self._c) == (other.model, other._den, other._c)

    def __hash__(self):
        return hash((self.model, self._entries()))

    def __reduce__(self):  # copy and pickle: the default would assign the slots
        return _new, (self.model, self._c, self._den)

    def __repr__(self) -> str:
        return f"NumClass(model={self.model!r}, _c={self._c!r}, _den={self._den!r})"

    def __str__(self) -> str:
        terms = [(self.t0, "T0"), (self.f, "F")]
        # != 0, not truth: a RatFunc has no __bool__, so a zero one is truthy
        terms += [(c, f"E'{i}") for i, c in enumerate(self.ep) if c != 0]
        terms += [(c, f"E''{j}") for j, c in enumerate(self.epp) if c != 0]
        bits = (f"({c})*{gen}" if " " in str(c) else f"{c}*{gen}" for c, gen in terms)
        return " + ".join(bits).replace("+ -", "- ")


def _new(model: SurfaceModel, c: tuple, den: int | None, out=None) -> NumClass:
    """A NumClass (out, if given) over entries c, or over numerators c / den, reduced."""
    if den is not None and (g := gcd(den, *c)) != 1:
        c, den = (*map(floordiv, c, repeat(g)),), den // g
    out = object.__new__(NumClass) if out is None else out
    _set_model(out, model)
    _set_c(out, c)
    _set_den(out, den)
    return out


# the slot descriptors write past the refusing __setattr__
_set_model, _set_c, _set_den = NumClass.model.__set__, NumClass._c.__set__, NumClass._den.__set__


def intersect(a: NumClass, b: NumClass) -> Rat | RatFunc:
    """Intersection number under T0.F = 1, T0^2 = F^2 = 0, E^2 = -1, E mutually orthogonal."""
    if not (isinstance(a, NumClass) and isinstance(b, NumClass)):
        raise TypeError(f"intersect needs NumClasses, got {type(a).__name__}, {type(b).__name__}")
    if a.model != b.model:
        raise ModelMismatchError(f"{a.model} vs {b.model}")
    if a._den is None or b._den is None:
        x, y = a._entries(), b._entries()
        runs = groupby(zip(x[2:], y[2:]))
        return x[0] * y[1] + x[1] * y[0] - sum(len([*r]) * (p * q) for (p, q), r in runs)
    x, y = a._c, b._c
    return Fraction(x[0] * y[1] + x[1] * y[0] - sum(map(mul, x[2:], y[2:])), a._den * b._den)


def self_intersection(a: NumClass) -> Rat | RatFunc:
    return intersect(a, a)


def canonical_class(m: SurfaceModel) -> NumClass:
    """-2*T0 + (2b-2)*F + sum E'_i + sum E''_j."""
    return _new(m, (-2, 2 * m.b - 2, *(1,) * (m.s + m.t)), 1)


def chi_structure(m: SurfaceModel) -> int:
    """chi(O) of the model; blow-ups leave it at 1 - b."""
    return 1 - m.b
