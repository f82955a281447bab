"""Acceptance gate: one test per shipped guarantee, exact arithmetic throughout.

Run with -s to see one PASS/FAIL line per criterion.
"""
from __future__ import annotations

import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import gonalslope as gs
from gonalslope import (
    G,
    BundleData,
    ScenarioSpec,
    SurfaceModel,
    NumClass,
    blownup_c1,
    blowup_bound_report,
    c2_bounds_blowup,
    c2e_bound_fourgonal,
    canonical_class,
    chern_character,
    derived_slope_bound,
    exceptional_coefficients,
    fourgonal_rsq,
    intersect,
    self_intersection,
    slope_fourgonal,
    slope_general,
    slope_general_via_surface,
    slope_trigonal,
    slope_trigonal_blowup,
    sym2,
    sym2_roots_oracle,
    trigonal_rsq,
    whitney,
)
from gonalslope.slope import fourgonal_blowup_parts, trigonal_blowup_parts

_SEED = 77000


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {desc}")
        raise
    print(f"PASS criterion {num}: {desc}")


def _rat(rng: random.Random, lo: int = -30, hi: int = 30) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 12))


def _model(rng: random.Random) -> SurfaceModel:
    return SurfaceModel(rng.randint(0, 3), rng.randint(0, 2), rng.randint(0, 2))


def _cls(rng: random.Random, m: SurfaceModel) -> NumClass:
    return NumClass(m, _rat(rng), _rat(rng),
                    tuple(_rat(rng) for _ in range(m.s)),
                    tuple(_rat(rng) for _ in range(m.t)))


# -- 1: closed forms ----------------------------------------------------------


def test_c1_closed_forms_exact():
    cases = [
        (ScenarioSpec(n=3, g=5, case="index_only"), 24 * (G - 1) / (5 * G + 1)),
        (ScenarioSpec(n=3, g=5, case="general_odd"), 5 - 8 / (G + 1)),
        (ScenarioSpec(n=3, g=6, case="general_even"), 5 - 6 / G),
        (ScenarioSpec(n=4, g=10, case="nonfactorizing"), 24 * (G - 1) / (5 * G + 3)),
    ]
    for gamma in range(2, 9):
        cases.append((ScenarioSpec(n=4, g=6 * gamma + 5, case="factorizing",
                                   gamma=gamma),
                      4 + 4 * (gamma - 1) / (G - gamma)))
    with criterion(1, "derived bounds equal their closed forms, under 1 s"):
        start = time.perf_counter()
        for spec, expected in cases:
            res = derived_slope_bound(spec)
            assert res.derived_bound == expected, (spec, res.derived_bound)
            assert not res.discrepancy
        assert time.perf_counter() - start < 1.0


# -- 2: discrepancy ledger ----------------------------------------------------


def test_c2_fourgonal_discrepancies_reported():
    with criterion(2, "fourgonal odd/even discrepancies reported exactly"):
        odd = derived_slope_bound(ScenarioSpec(n=4, g=11, case="general_odd"))
        assert odd.derived_bound == 16 * (G - 1) / (3 * G + 1)
        assert odd.stated_bound == Fraction(16, 3) - 16 / (3 * (3 * G + 1))
        assert odd.discrepancy == 16 / (3 * G + 1)
        assert odd.discrepancy(11) == Fraction(8, 17)
        even = derived_slope_bound(ScenarioSpec(n=4, g=10, case="general_even"))
        assert even.derived_bound == 16 * (G - 1) / (3 * G + 2)
        assert even.stated_bound == Fraction(16, 3) - 8 / G
        assert even.discrepancy(10) == Fraction(1, 30)
        for res in (odd, even):
            assert res.derived_bound != res.stated_bound
            assert res.discrepancy
            assert any("differs" in note for note in res.notes)


# -- 3: direct-image identities -----------------------------------------------


def test_c3_rsq_routes_and_character_additivity():
    rng = random.Random(_SEED + 3)
    with criterion(3, "R^2 routes and character additivity on 500 random inputs"):
        for _ in range(500):
            m = _model(rng)
            e2 = BundleData(2, _cls(rng, m), _rat(rng))
            assert trigonal_rsq(e2) == 2 * e2.c1sq - 3 * e2.c2
            e3 = BundleData(3, _cls(rng, m), _rat(rng))
            f2 = BundleData(2, e3.c1, _rat(rng))
            assert fourgonal_rsq(e3, f2) == 2 * e3.c1sq - 4 * e3.c2 + f2.c2
            total = whitney(e2, f2)
            assert chern_character(total) == chern_character(e2) + chern_character(f2)


# -- 4: splitting-principle oracle --------------------------------------------


def test_c4_sym2_oracle_1000_pairs():
    rng = random.Random(_SEED + 4)
    with criterion(4, "sym2 equals the split-roots oracle on 1000 pairs"):
        for _ in range(1000):
            m = _model(rng)
            a, b = _cls(rng, m), _cls(rng, m)
            split = BundleData(2, a + b, intersect(a, b))
            assert sym2_roots_oracle(a, b) == sym2(split)


# -- 5: blow-up bookkeeping ---------------------------------------------------


def test_c5_exceptional_solve_roundtrip_grid():
    rng = random.Random(_SEED + 5)
    with criterion(5, "exceptional coefficients, c1 round-trip, K^2 grid"):
        assert exceptional_coefficients() == (Fraction(-2), Fraction(-3),
                                              Fraction(-2))
        for _ in range(200):
            c1sq = _rat(rng, -20, 60)
            g3, t3 = rng.randint(5, 40), rng.randint(0, 5)
            m3 = SurfaceModel(rng.randint(0, 2), 0, t3)
            assert self_intersection(blownup_c1(g3, 3, c1sq, m3)) == c1sq
            g4 = rng.randint(10, 40)
            m4 = SurfaceModel(rng.randint(0, 2), rng.randint(0, 5),
                              rng.randint(0, 5))
            assert self_intersection(blownup_c1(g4, 4, c1sq, m4)) == c1sq
        for b in range(11):
            for s in range(11):
                for t in range(11):
                    k = canonical_class(SurfaceModel(b, s, t))
                    assert self_intersection(k) == -8 * (b - 1) - s - t


# -- 6: degeneration and independence -----------------------------------------


def test_c6_degeneration_and_independence():
    rng = random.Random(_SEED + 6)
    with criterion(6, "blow-up formulas degenerate; b and c1^2 drop out"):
        from gonalslope import ZeroChiError, slope_fourgonal_blowup
        checked = 0
        while checked < 200:
            g = rng.randint(5, 60)
            c1sq, c2 = _rat(rng), _rat(rng)
            try:
                assert slope_trigonal_blowup(g, c1sq, c2, 0) == \
                    slope_trigonal(g, c1sq, c2)
                c2e, c2f = _rat(rng), _rat(rng)
                assert slope_fourgonal_blowup(g + 5, c1sq, c2e, c2f, 0, 0) == \
                    slope_fourgonal(g + 5, c1sq, c2e, c2f)
            except ZeroChiError:
                continue
            checked += 1
        checked = 0
        while checked < 50:
            g, n = rng.randint(5, 60), rng.choice((3, 4))
            c1sq, c2, rsq = _rat(rng), _rat(rng), _rat(rng)
            try:
                base = slope_general(g, n, c1sq, c2, rsq)
            except ZeroChiError:
                continue
            for b in (0, 1, 2, 5):
                assert slope_general_via_surface(g, n, c1sq, c2, rsq, b) == base
            checked += 1
        probes = (1, 14, 1000)
        scens = [ScenarioSpec(n=3, g=7, case="index_only"),
                 ScenarioSpec(n=3, g=7, case="general_odd"),
                 ScenarioSpec(n=3, g=8, case="general_even"),
                 ScenarioSpec(n=4, g=12, case="index_only"),
                 ScenarioSpec(n=4, g=13, case="general_odd"),
                 ScenarioSpec(n=4, g=12, case="general_even"),
                 ScenarioSpec(n=4, g=13, case="nonfactorizing"),
                 ScenarioSpec(n=4, g=17, case="factorizing", gamma=2)]
        for spec in scens:
            res = derived_slope_bound(spec)
            for c1sq in probes:
                c2b = c2_bounds_blowup(spec, c1sq).value
                if spec.n == 3:
                    inv = slope_trigonal(spec.g, c1sq, c2b)
                else:
                    inv = slope_fourgonal(spec.g, c1sq,
                                          c2e_bound_fourgonal(c1sq, c2b), c2b)
                assert inv.slope == res.derived_bound(spec.g), (spec, c1sq)


# -- 7: monotonicity certificates ---------------------------------------------


def test_c7_monotonicity_500_each():
    rng = random.Random(_SEED + 7)
    with criterion(7, "raising c2 under the certificates never lowers slope"):
        done = 0
        while done < 500:
            g = rng.randint(5, 60)
            t = rng.randint(0, 4)
            c1sq = Fraction(6 * g * t, g - 3) + _rat(rng, 1, 40)
            hi = Fraction(g + 1, 2 * (g + 2)) * c1sq + Fraction(g, g + 2) * t
            d1, d2 = _rat(rng, 1, 30), _rat(rng, 0, 20)
            lo_inv = slope_trigonal_blowup(g, c1sq, hi - d1 - d2, t)
            hi_inv = slope_trigonal_blowup(g, c1sq, hi - d1, t)
            assert hi_inv.slope >= lo_inv.slope
            done += 1
        done = 0
        while done < 500:
            g = rng.randint(10, 80)
            c1sq = Fraction(rng.randint(1, 90))
            c2f = 2 * c1sq / (g + 3) + _rat(rng, 1, 25)
            hi = Fraction(g + 2, 2 * (g + 3)) * c1sq
            d1, d2 = _rat(rng, 1, 30), _rat(rng, 0, 20)
            lo_inv = slope_fourgonal(g, c1sq, hi - d1 - d2, c2f)
            hi_inv = slope_fourgonal(g, c1sq, hi - d1, c2f)
            assert hi_inv.slope >= lo_inv.slope
            done += 1


# -- 8: blow-up report at the marked point ------------------------------------

_POINT = ScenarioSpec(n=3, g=5, case="general_odd", t=1)


def test_c8_blowup_report_mechanism():
    with criterion(8, "report at g=5, t=1, c1^2=14 flags slope 59/20 below t=0"):
        rep = blowup_bound_report(_POINT, (14,))
        row = rep.rows[0]
        assert row.slope == Fraction(59, 20)
        assert row.verdict == "below"
        baseline = derived_slope_bound(
            ScenarioSpec(n=3, g=5, case="general_odd")).derived_bound
        assert rep.baseline_at_g == baseline(5) == Fraction(11, 3)


@pytest.mark.xfail(strict=True, reason="the quoted t=0 reference 13/3 is the "
                   "g=11 value of (5g-3)/(g+1); at g=5 the bound is 11/3")
def test_c8_quoted_reference_value():
    rep = blowup_bound_report(_POINT, (14,))
    print("XFAIL criterion 8 (quoted value): baseline at g=5 is "
          f"{rep.baseline_at_g}, not 13/3")
    assert rep.baseline_at_g == Fraction(13, 3)


# -- 9: end-to-end verify -----------------------------------------------------


def test_c9_verify_subprocess_under_30s(child_env):
    with criterion(9, "`python -m gonalslope verify` exits 0 in under 30 s"):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "gonalslope", "verify"],
                              capture_output=True, text=True, env=child_env)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert "checks passed" in proc.stdout
        assert elapsed < 30.0, f"verify took {elapsed:.1f}s"


# -- exactness at every entry -------------------------------------------------

_F = gs.SurfaceModel().f()
_REPORT = ScenarioSpec(3, 11, "general_odd", t=1)

#: each public entry with a caller's scalar put in one slot
_SCALAR_ENTRIES = {
    "slope_general": lambda x: gs.slope_general(10, 3, x, 1, 2),
    "slope_general.n": lambda x: gs.slope_general(10, 3 + x, 1, 1, 2),
    "slope_general.g": lambda x: gs.slope_general(x, 3, 14, 3, 2),
    "slope_general_via_surface.rsq": lambda x: gs.slope_general_via_surface(10, 3, 14, 3, x, 1),
    "slope_trigonal": lambda x: gs.slope_trigonal(5, x, 1),
    "slope_fourgonal": lambda x: gs.slope_fourgonal(11, 20, x, 2),
    "slope_trigonal_blowup": lambda x: gs.slope_trigonal_blowup(7, 20, x, 1),
    "slope_fourgonal_blowup": lambda x: gs.slope_fourgonal_blowup(11, 20, 3, x, 1, 2),
    "trigonal_blowup_parts": lambda x: trigonal_blowup_parts(7, x, 3, 1),
    "fourgonal_blowup_parts": lambda x: fourgonal_blowup_parts(11, x, 3, 2, 1, 2),
    "fourgonal_rearranged": lambda x: gs.fourgonal_rearranged(11, 20, x),
    "fourgonal_rearranged.g": lambda x: gs.fourgonal_rearranged(x, 20, 2),
    "check_genus": gs.check_genus,
    "NumClass": lambda x: gs.NumClass(gs.SurfaceModel(), x, 1),
    "scalar_times_class": lambda x: x * _F,
    "BundleData.c2": lambda x: gs.BundleData(2, _F, x),
    "c1_decomposition": lambda x: gs.c1_decomposition(10, 3, x, gs.SurfaceModel()),
    "blownup_c1": lambda x: gs.blownup_c1(10, 3, x, gs.SurfaceModel(0, 0, 1)),
    "SplittingType": lambda x: gs.SplittingType(x, 1),
    "weak_positivity_bound": lambda x: gs.weak_positivity_bound(gs.SplittingType(1, 2), x),
    "index_bound": lambda x: gs.index_bound(3, x),
    "c2e_bound_fourgonal": lambda x: gs.c2e_bound_fourgonal(x, 1),
    "c2_bounds_blowup": lambda x: gs.c2_bounds_blowup(_REPORT, x),
    "blowup_bound_report.grid": lambda x: gs.blowup_bound_report(_REPORT, (14, x)),
}


@pytest.mark.parametrize("entry", _SCALAR_ENTRIES.values(), ids=_SCALAR_ENTRIES)
def test_inexact_scalar_refused_at_every_entry(entry):
    entry(Fraction(1, 10))
    with pytest.raises(TypeError):
        entry(0.1)


# -- a constant RatFunc is checked as the number it is ------------------------

#: each check that reads ratcalc.concrete, with the value in the slot it checks
_CONCRETE_CHECKS = {
    "check_genus": gs.check_genus,
    "slope_general": lambda g: gs.slope_general(g, 3, 5, 1, 1),
    "fourgonal_rearranged": lambda g: gs.fourgonal_rearranged(g, 14, 3),
    "harris_stankova_reference": lambda g: gs.harris_stankova_reference(3, g),
    "c1_decomposition": lambda g: gs.c1_decomposition(g, 3, 14, gs.SurfaceModel()),
    "blownup_c1": lambda g: gs.blownup_c1(g, 3, 14, gs.SurfaceModel(0, 0, 1)),
    "SplittingType.alpha": lambda x: gs.SplittingType(x, 5),
    "SplittingType.beta": lambda x: gs.SplittingType(1, x),
    "warning.slope": lambda x: gs.FibrationInvariants(x, 1, x).warning(),
    "warning.chif": lambda x: gs.FibrationInvariants(x, x, 1).warning(),
}


def _outcome(check, x):
    """("ok", result) or (exception type, message) of check(x)."""
    try:
        return "ok", check(x)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("value", [-5, -3, 0, 5, 13, Fraction(-13, 8)], ids=str)
@pytest.mark.parametrize("check", _CONCRETE_CHECKS.values(), ids=_CONCRETE_CHECKS)
def test_constant_ratfunc_checked_as_its_number(check, value):
    forms = [Fraction(value), gs.RatFunc.const(value)]
    if value.denominator == 1:
        forms.append(int(value))
    expected = _outcome(check, forms[0])
    for form in forms[1:]:
        assert _outcome(check, form) == expected, type(form).__name__


@pytest.mark.parametrize("g", [G, G - 100], ids=str)
@pytest.mark.parametrize("check", _CONCRETE_CHECKS.values(), ids=_CONCRETE_CHECKS)
def test_function_of_g_stays_unchecked(check, g):
    assert _outcome(check, g)[0] == "ok"
