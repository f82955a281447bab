"""Fixtures shared by the test modules."""
from __future__ import annotations

import os
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest


@pytest.fixture
def child_env() -> dict[str, str]:
    """Environment for a child Python that must import the gonalslope under test.

    The directory holding the imported package goes first on PYTHONPATH, so a
    subprocess runs this code whether the caller reached it through an
    inherited PYTHONPATH, an install, or the test runner's own path set-up.
    """
    import gonalslope

    root = str(Path(gonalslope.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([root, inherited] if inherited else [root])
    return env


@pytest.fixture
def kf2_constant_term(monkeypatch):
    """Give K_f^2 the constant term 1 in both parts functions that bounds calls."""
    from gonalslope import bounds

    for name in ("trigonal_blowup_parts", "fourgonal_blowup_parts"):
        def shifted(*args, parts=getattr(bounds, name)):
            kf2, chif = parts(*args)
            return kf2 + 1, chif

        monkeypatch.setattr(bounds, name, shifted)


@pytest.fixture
def fraction_count(monkeypatch) -> list[tuple]:
    """The argument tuples of every Fraction.__new__ call while the test runs.

    Fractions built in set-up count too, so clear() the list before the
    code under test runs.
    """
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return built


@pytest.fixture
def canon_count(monkeypatch) -> Counter:
    """Calls of ratcalc._canon and ratcalc._normal while the test runs, by name.

    A _canon call ends in a _normal call, which counts too.  Values built in
    set-up count as well, so clear() the counter before the code under test.
    """
    from gonalslope import ratcalc

    calls = Counter()
    for name in ("_canon", "_normal"):
        def counting(*args, original=getattr(ratcalc, name), name=name):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(ratcalc, name, counting)
    return calls
