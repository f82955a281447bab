"""Numerical classes on a blown-up ruled surface, with exact intersection pairing.

The ambient model is a P^1-bundle over a smooth curve of genus ``b``,
blown up in ``s`` points carrying total ramification and ``t`` points of
local index three.  Its numerical lattice is spanned by a section class
T0 with T0^2 = 0, the fibre class F, and the exceptional classes
E'_1..E'_s and E''_1..E''_t.  The only nonzero products among generators
are T0.F = 1 and E'_i^2 = E''_j^2 = -1.

``+``, ``-``, negation and scaling work once per run of entries that are
the same objects as the entry before and share the result down the run.
Cover constructions repeat one coefficient object down the E' and the E''
entries, so runs last from c1 through Sym^2 and quotients to the pairing.

``intersect`` sums the pairing in Python ints when every entry is a
Fraction: the nonzero products share one common denominator, a repeated
pair adds its previous integer term again, and each intersection number
builds a single Fraction.  A class with a Q(g) entry takes the entry-wise
sum in RatFunc arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import add, sub

from .ratcalc import Rat, RatFunc, lift

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


@dataclass(frozen=True)
class SurfaceModel:
    """Ruled surface over a genus-b curve with s + t marked blow-ups."""

    b: int = 0
    s: int = 0
    t: int = 0

    def __post_init__(self):
        if not all(type(x) is int for x in (self.b, self.s, self.t)):
            raise TypeError(f"model data must be ints: {self}")
        if self.b < 0 or self.s < 0 or self.t < 0:
            raise ValueError(f"negative model data: {self}")
        if self.s > _MAX_BLOWUPS or self.t > _MAX_BLOWUPS:
            raise ValueError(f"blow-up count beyond supported size: {self}")

    # generator classes ----------------------------------------------------

    def zero(self) -> NumClass:
        return NumClass(self, 0, 0, (0,) * self.s, (0,) * self.t)

    def t0(self) -> NumClass:
        return NumClass(self, 1, 0, (0,) * self.s, (0,) * self.t)

    def f(self) -> NumClass:
        return NumClass(self, 0, 1, (0,) * self.s, (0,) * self.t)

    def e_prime(self, i: int) -> NumClass:
        if not 0 <= i < self.s:
            raise IndexError(f"E'_{i} out of range for {self}")
        return NumClass(self, 0, 0, tuple(1 if k == i else 0 for k in range(self.s)),
                        (0,) * self.t)

    def e_dprime(self, j: int) -> NumClass:
        if not 0 <= j < self.t:
            raise IndexError(f"E''_{j} out of range for {self}")
        return NumClass(self, 0, 0, (0,) * self.s,
                        tuple(1 if k == j else 0 for k in range(self.t)))


@dataclass(frozen=True)
class NumClass:
    """a.t0*T0 + a.f*F + sum a.ep[i]*E'_i + sum a.epp[j]*E''_j, coefficients in Q or Q(g)."""

    model: SurfaceModel
    t0: Rat | RatFunc
    f: Rat | RatFunc
    ep: tuple[Rat | RatFunc, ...] = field(default=())
    epp: tuple[Rat | RatFunc, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "t0", lift(self.t0))
        object.__setattr__(self, "f", lift(self.f))
        object.__setattr__(self, "ep", tuple(map(lift, self.ep)))
        object.__setattr__(self, "epp", tuple(map(lift, self.epp)))
        if len(self.ep) != self.model.s or len(self.epp) != self.model.t:
            raise ModelMismatchError(
                f"coefficient vectors ({len(self.ep)}, {len(self.epp)}) do not fit {self.model}")

    def _check(self, other: NumClass) -> None:
        if self.model != other.model:
            raise ModelMismatchError(f"{self.model} vs {other.model}")

    def _map(self, op, other: NumClass) -> NumClass:
        """op over paired entries via _runs; op keeps entry types, so skip __post_init__."""
        self._check(other)
        out = object.__new__(NumClass)
        vals = (self.model, op(self.t0, other.t0), op(self.f, other.f),
                _runs(op, self.ep, other.ep), _runs(op, self.epp, other.epp))
        for name, val in zip(("model", "t0", "f", "ep", "epp"), vals):
            object.__setattr__(out, name, val)
        return out

    def __add__(self, other: NumClass) -> NumClass:
        return self._map(add, other) if isinstance(other, NumClass) else NotImplemented

    def __sub__(self, other: NumClass) -> NumClass:
        return self._map(sub, other) if isinstance(other, NumClass) else NotImplemented

    def __neg__(self) -> NumClass:
        return self._map(lambda x, _: -x, self)

    def __rmul__(self, k) -> NumClass:
        return self._map(lambda x, _, k=lift(k): k * x, self)

    __mul__ = __rmul__

    def __str__(self) -> str:
        terms = [(self.t0, "T0"), (self.f, "F")]
        terms += [(c, f"E'{i}") for i, c in enumerate(self.ep) if c]
        terms += [(c, f"E''{j}") for j, c in enumerate(self.epp) if c]
        bits = (f"({c})*{gen}" if " " in str(c) else f"{c}*{gen}" for c, gen in terms)
        return " + ".join(bits).replace("+ -", "- ")


def intersect(a: NumClass, b: NumClass) -> Rat | RatFunc:
    """Intersection number under T0.F = 1, T0^2 = F^2 = 0, E^2 = -1, E mutually orthogonal.

    With all entries in Q, each nonzero product is brought onto one running
    common denominator (an lcm, nothing reduced per term) and one Fraction is
    built at the end.  Any Q(g) entry takes the entry-wise RatFunc sum.
    """
    if not (isinstance(a, NumClass) and isinstance(b, NumClass)):
        raise TypeError(f"intersect needs NumClasses, got {type(a).__name__}, {type(b).__name__}")
    a._check(b)
    if RatFunc in map(type, (a.t0, a.f, b.t0, b.f, *a.ep, *a.epp, *b.ep, *b.epp)):
        out = a.t0 * b.f + a.f * b.t0
        out -= sum(x * y for x, y in zip(a.ep, b.ep))
        out -= sum(x * y for x, y in zip(a.epp, b.epp))
        return out
    num, den = 0, 1
    for sign, xs, ys in ((1, (a.t0, a.f), (b.f, b.t0)), (-1, a.ep + a.epp, b.ep + b.epp)):
        px = py = _NOTHING
        for x, y in zip(xs, ys):
            if x is not px or y is not py:
                px, py, term = x, y, 0
                (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
                if xn and yn:
                    m = lcm(den, xd * yd)
                    num, den = num * (m // den), m
                    term = sign * xn * yn * (m // (xd * yd))
            num += term
    return Fraction(num, den)


def self_intersection(a: NumClass) -> Rat | RatFunc:
    return intersect(a, a)


def canonical_class(m: SurfaceModel) -> NumClass:
    """-2*T0 + (2b-2)*F + sum E'_i + sum E''_j."""
    return NumClass(m, -2, 2 * m.b - 2, (1,) * m.s, (1,) * m.t)


def chi_structure(m: SurfaceModel) -> int:
    """chi(O) of the model; blow-ups leave it at 1 - b."""
    return 1 - m.b
