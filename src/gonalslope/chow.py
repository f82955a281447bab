"""Numerical classes on a blown-up ruled surface, with exact intersection pairing.

The ambient model is a P^1-bundle over a smooth curve of genus ``b``,
blown up in ``s`` points carrying total ramification and ``t`` points of
local index three.  Its numerical lattice is spanned by a section class
T0 with T0^2 = 0, the fibre class F, and the exceptional classes
E'_1..E'_s and E''_1..E''_t.  The only nonzero products among generators
are T0.F = 1 and E'_i^2 = E''_j^2 = -1.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .ratcalc import Rat, RatFunc, lift

_MAX_BLOWUPS = 10_000


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

    def __add__(self, other: NumClass) -> NumClass:
        self._check(other)
        return NumClass(self.model, self.t0 + other.t0, self.f + other.f,
                        tuple(a + b for a, b in zip(self.ep, other.ep)),
                        tuple(a + b for a, b in zip(self.epp, other.epp)))

    def __sub__(self, other: NumClass) -> NumClass:
        return self + (-other)

    def __neg__(self) -> NumClass:
        return (-1) * self

    def __rmul__(self, k) -> NumClass:
        k = lift(k)
        return NumClass(self.model, k * self.t0, k * self.f,
                        tuple(k * c for c in self.ep), tuple(k * c for c in self.epp))

    __mul__ = __rmul__

    def __str__(self) -> str:
        terms = [(self.t0, "T0"), (self.f, "F")]
        terms += [(c, f"E'{i}") for i, c in enumerate(self.ep) if c]
        terms += [(c, f"E''{j}") for j, c in enumerate(self.epp) if c]
        bits = (f"({c})*{gen}" if " " in str(c) else f"{c}*{gen}" for c, gen in terms)
        return " + ".join(bits).replace("+ -", "- ")


def intersect(a: NumClass, b: NumClass) -> Rat | RatFunc:
    """Intersection number under T0.F = 1, T0^2 = F^2 = 0, E^2 = -1, E mutually orthogonal."""
    a._check(b)
    out = a.t0 * b.f + a.f * b.t0
    out -= sum(x * y for x, y in zip(a.ep, b.ep))
    out -= sum(x * y for x, y in zip(a.epp, b.epp))
    return out


def self_intersection(a: NumClass) -> Rat | RatFunc:
    return intersect(a, a)


def canonical_class(m: SurfaceModel) -> NumClass:
    """-2*T0 + (2b-2)*F + sum E'_i + sum E''_j."""
    return NumClass(m, -2, 2 * m.b - 2, (1,) * m.s, (1,) * m.t)


def chi_structure(m: SurfaceModel) -> int:
    """chi(O) of the model; blow-ups leave it at 1 - b."""
    return 1 - m.b
