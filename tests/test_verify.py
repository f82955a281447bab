"""The verify suite's random inputs, pinned against the stdlib draws they stand for.

The suite draws its classes and rational functions as int pairs straight
into integer storage, and its integers through ``verify._Rng``, whose
randint skips randrange's argument handling.  random.Random and
transcriptions of the Fraction helpers the suite replaced are the oracle:
each draw must give the same value, class or function and leave the
generator in the same state, so the checks still run on the same inputs.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

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



#: every (lo, hi) the suite hands randint, its _rat and _ratfunc ranges included
SUITE_RANGES = ((-50, 50), (0, 2), (0, 3), (0, 4), (0, 20), (1, 3), (1, 4), (1, 5),
                (1, 6), (1, 25), (1, 30), (1, 40), (1, 60), (1, 80), (1, 90), (5, 50),
                (5, 60), (10, 60), (10, 80), (10, 90), (5, 40), (10, 40), (-30, 30),
                (1, 12), (-10, 30), (-40, 80), (0, 60), (-9, 9))

_randint_ops = st.one_of(
    st.sampled_from(SUITE_RANGES),
    st.builds(lambda lo, width: (lo, lo + width),
              st.integers(-2 ** 31, 2 ** 31), st.integers(0, 2 ** 31)),
).map(lambda r: ("randint", *r))
_pairs_ops = st.tuples(st.just("pairs"), st.integers(0, 9), st.sampled_from(SUITE_RANGES),
                   st.integers(1, 12))


_ops = st.lists(st.one_of(_randint_ops, st.just(("choice",)), _pairs_ops), max_size=60)


@given(st.integers(0, 2 ** 64), _ops)
def test_the_sampler_draws_what_random_draws(seed, ops):
    got, want = verify._Rng(seed), random.Random(seed)
    for op in ops:
        if op[0] == "randint":
            assert got.randint(*op[1:]) == want.randint(*op[1:]), op
        elif op[0] == "choice":
            assert got.choice((3, 4)) == want.choice((3, 4))
        else:
            _, k, (lo, hi), den = op
            pairs = [(want.randint(lo, hi), want.randint(1, den)) for _ in range(k)]
            assert verify._pairs(got, k, lo, hi, den) == (pairs, lcm(*(d for _, d in pairs))), op
    assert got.getstate() == want.getstate()


def test_an_empty_range_is_refused():
    with pytest.raises(ValueError):
        verify._Rng(0).randint(1, 0)


#: the checks that draw: each builds its generators through verify._Rng
SEEDED = [fn for _, fn in verify.CHECKS if "_Rng" in fn.__code__.co_names]


def test_the_seeded_checks_are_found():
    assert len(SEEDED) == 17


@pytest.mark.parametrize("check", SEEDED, ids=lambda fn: fn.__name__)
def test_each_check_runs_on_the_stdlib_draws(check, monkeypatch):
    """The check passes on _Rng and on random.Random, and each generator it
    builds ends in the same state under both: it ran on the same inputs."""
    states = []
    for base in (verify._Rng, random.Random):
        made = []

        class Recording(base):
            def __init__(self, seed):
                super().__init__(seed)
                made.append(self)

        monkeypatch.setattr(verify, "_Rng", Recording)
        check()
        states.append([rng.getstate() for rng in made])
    assert states[0] and states[0] == states[1]
