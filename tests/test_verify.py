"""The verify suite's random inputs, pinned against the Fraction helpers it used to draw through.

The suite draws its classes and rational functions as int pairs straight
into integer storage.  These transcriptions of the Fraction helpers it
replaced are the oracle: for every seed the suite uses, each draw must
give the same stored class or function and leave the generator in the
same state, so the checks still run on the same inputs.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gonalslope import chow, verify
from gonalslope.ratcalc import RatFunc


def _rat(rng: random.Random, lo: int = -30, hi: int = 30, den: int = 12) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _ratfunc(rng: random.Random, deg: int = 3) -> RatFunc:
    while True:
        num = [_rat(rng, -9, 9, 4) for _ in range(rng.randint(1, deg + 1))]
        den = [_rat(rng, -9, 9, 4) for _ in range(rng.randint(1, deg + 1))]
        if any(den):
            return RatFunc(num, den)


def _numclass(rng: random.Random, m: chow.SurfaceModel) -> chow.NumClass:
    return chow.NumClass(m, _rat(rng), _rat(rng),
                         tuple(_rat(rng) for _ in range(m.s)),
                         tuple(_rat(rng) for _ in range(m.t)))


@pytest.mark.parametrize("seed", range(verify._SEED, verify._SEED + 17))
def test_draws_match_the_fraction_helpers(seed):
    got, want = random.Random(seed), random.Random(seed)
    for i in range(500):
        m = chow.SurfaceModel(i % 3, i % 4, i % 5)
        a, b = verify._numclass(got, m), _numclass(want, m)
        assert (a.model, a._c, a._den) == (b.model, b._c, b._den), (seed, i)
        assert got.getstate() == want.getstate(), (seed, i)
        f, h = verify._ratfunc(got), _ratfunc(want)
        assert (f.num, f.den) == (h.num, h.den), (seed, i)
        assert got.getstate() == want.getstate(), (seed, i)

