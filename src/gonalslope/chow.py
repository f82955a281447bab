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
is not 1), and ``intersect`` is one integer dot product and one Fraction.
All three compare the two models by identity before value, since classes
built together share one model object.  The tuples are built at their
final size, ``(*it,)``: ``tuple(it)`` of an iterator with no length starts
at ten slots and shrinks, which fills the interpreter's tuple free lists.
A class with a Q(g) coefficient keeps its Fraction and RatFunc entries and
works on them entry by entry.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, floordiv, mul, sub

from .ratcalc import Rat, RatFunc, _paren, _sum, lift, over_lcm

_MAX_BLOWUPS = 10_000


class ModelMismatchError(ValueError):
    """Two classes from different surface models were combined."""


class Record:
    """A frozen value stored once, as the tuple _key of its fields, which a subclass
    names as a class keyword: class ModuliData(Record, fields=("s_b", "delta_b",
    "lambda_b")) with __slots__ = ().  Each field is a read-only property of its _key
    entry.  __init__ takes the values positionally, in field order; a subclass that
    checks them defines its own and stores them with _fill.  Either store is one slot
    write; == within one class and hash are one tuple operation.  replace rebuilds
    the value positionally through __init__, which checks it again.
    """

    __slots__ = ("_key",)

    def __init_subclass__(cls, fields: tuple[str, ...]):
        cls._fields = fields
        for i, name in enumerate(fields):
            setattr(cls, name, property(lambda self, i=i: self._key[i]))

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} values, "
                            f"got {len(values)}")
        _set_key(self, values)

    def _fill(self, *values):
        _set_key(self, values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle: the default would assign the slot
        return type(self), self._key

    def replace(self, **changes):
        values = [changes.pop(k, v) for k, v in zip(self._fields, self._key)]
        if changes:
            raise TypeError(f"{type(self).__name__} has no field {next(iter(changes))!r}")
        return type(self)(*values)


class SurfaceModel(Record, fields=("b", "s", "t")):
    """Ruled surface over a genus-b curve with s + t marked blow-ups."""

    __slots__ = ()

    def __init__(self, b: int = 0, s: int = 0, t: int = 0):
        self._fill(b, s, t)
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
        """(t0, f, *ep, *epp) as Fraction or RatFunc objects."""
        if self._den is None:
            return self._c
        return (*map(Fraction, self._c, repeat(self._den)),)

    t0 = property(lambda self: self._entries()[0])
    f = property(lambda self: self._entries()[1])
    ep = property(lambda self: self._entries()[2:2 + self.model.s])
    epp = property(lambda self: self._entries()[2 + self.model.s:])

    def _combine(self, op, other: NumClass) -> NumClass:
        if self.model is not other.model and self.model != other.model:
            raise ModelMismatchError(f"{self.model} vs {other.model}")
        da, db = self._den, other._den
        if da is None or db is None:
            return _new(self.model, (*map(op, self._entries(), other._entries()),), None)
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
            return _new(self.model, (*map(mul, repeat(k), self._entries()),), None)
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
        vals, s = self._entries(), self.model.s
        terms = [(vals[0], "T0"), (vals[1], "F")]
        terms += [(x, f"E'{i}") for i, x in enumerate(vals[2:2 + s]) if x]
        terms += [(x, f"E''{j}") for j, x in enumerate(vals[2 + s:]) if x]
        return _sum(f"{_paren(str(c))}*{gen}" for c, gen in terms)


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
_set_key, _set_model, _set_c, _set_den = (Record._key.__set__, NumClass.model.__set__,
                                          NumClass._c.__set__, NumClass._den.__set__)


def intersect(a: NumClass, b: NumClass) -> Rat | RatFunc:
    """Intersection number under T0.F = 1, T0^2 = F^2 = 0, E^2 = -1, E mutually orthogonal."""
    if not (isinstance(a, NumClass) and isinstance(b, NumClass)):
        raise TypeError(f"intersect needs NumClasses, got {type(a).__name__}, {type(b).__name__}")
    if a.model is not b.model and a.model != b.model:
        raise ModelMismatchError(f"{a.model} vs {b.model}")
    if a._den is None or b._den is None:
        x, y = a._entries(), b._entries()
        return x[0] * y[1] + x[1] * y[0] - sum(map(mul, x[2:], y[2:]))
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
