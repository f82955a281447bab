"""Case-by-case derived bounds, stated closed forms, blow-up reports."""
from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from gonalslope import verify
from gonalslope.bounds import (ScenarioError, ScenarioSpec, SplittingType, _c2_chain,
                               blowup_bound_report, c2_bounds_blowup,
                               c2e_bound_fourgonal, compare,
                               derived_slope_bound, index_bound,
                               splitting_for_scenario, stated_closed_form,
                               weak_positivity_bound)
from gonalslope.ratcalc import G, RatFunc
from gonalslope.slope import (fourgonal_blowup_parts, slope_fourgonal, slope_trigonal,
                              trigonal_blowup_parts)


def test_splitting_type_validation():
    st = SplittingType(3, 4)
    assert st.maroni() == 1
    assert SplittingType(2, 2).maroni() == 0
    with pytest.raises(ValueError):
        SplittingType(0, 3)
    with pytest.raises(ValueError):
        SplittingType(5, 4)


def test_weak_positivity_bound():
    # balanced: coefficient 1/4, not strict
    val, strict = weak_positivity_bound(SplittingType(6, 6), 8)
    assert val == 2 and not strict
    # general odd trigonal shape at g = 11: alpha/(2(alpha+beta)) = 3/13
    val, strict = weak_positivity_bound(SplittingType(6, 7), 1)
    assert val == Fraction(3, 13) and strict


def test_index_bound():
    assert index_bound(3, 9) == 12
    assert index_bound(4, 9) == 9
    assert index_bound(2, 5) == 10
    with pytest.raises(ScenarioError):
        index_bound(1, 9)


def test_c2e_bound_polymorphic():
    assert c2e_bound_fourgonal(3, 1) == 1
    sym = c2e_bound_fourgonal(G, G)
    assert sym == G / 2


@pytest.mark.parametrize("kwargs,message", [
    (dict(n=5, g=11, case="index_only"), "degree"),
    (dict(n=3, g=11, case="mystery"), "unknown case"),
    (dict(n=3, g=11, case="nonfactorizing"), "degree 4 only"),
    (dict(n=4, g=20, case="factorizing"), "needs gamma"),
    (dict(n=4, g=20, case="factorizing", gamma=0), "gamma must be >= 1"),
    (dict(n=4, g=15, case="factorizing", gamma=2), "gamma < (g-3)/6"),
    (dict(n=4, g=11, case="general_odd", gamma=1), "only meaningful"),
    (dict(n=3, g=10, case="general_odd"), "odd g"),
    (dict(n=3, g=11, case="general_even"), "even g"),
    (dict(n=3, g=11, case="index_only", t=-1), "nonnegative"),
    (dict(n=3, g=11, case="index_only", s=1), "no total-ramification"),
    (dict(n=3, g=4, case="index_only"), "below floor"),
    (dict(n=4, g=9, case="index_only"), "below floor"),
])
def test_scenario_validation_rejects(kwargs, message):
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec(**kwargs).validate()
    assert message in str(err.value)


def test_scenario_floor_relaxable():
    spec = ScenarioSpec(4, 9, "nonfactorizing")
    with pytest.raises(ScenarioError):
        spec.validate()
    spec.validate(enforce_genus=False)


@pytest.mark.parametrize("spec,alpha,beta", [
    (ScenarioSpec(3, 11, "general_odd"), 6, 7),
    (ScenarioSpec(3, 12, "general_even"), 7, 7),
    (ScenarioSpec(4, 11, "general_odd"), 7, 7),
    (ScenarioSpec(4, 12, "general_even"), 7, 8),
    (ScenarioSpec(4, 13, "nonfactorizing"), 6, 10),
    (ScenarioSpec(4, 20, "factorizing", gamma=2), 6, 17),
])
def test_splitting_for_scenario(spec, alpha, beta):
    st = splitting_for_scenario(spec)
    assert (st.alpha, st.beta) == (alpha, beta)


def test_splitting_for_index_only():
    assert splitting_for_scenario(ScenarioSpec(3, 5, "index_only")) is None


def test_trigonal_maroni_invariants():
    odd = splitting_for_scenario(ScenarioSpec(3, 11, "general_odd"))
    even = splitting_for_scenario(ScenarioSpec(3, 12, "general_even"))
    assert odd.maroni() == 1 and even.maroni() == 0


@pytest.mark.parametrize("spec,closed", [
    (ScenarioSpec(3, 5, "index_only"), 24 * (G - 1) / (5 * G + 1)),
    (ScenarioSpec(3, 11, "general_odd"), 5 - 8 / (G + 1)),
    (ScenarioSpec(3, 12, "general_even"), 5 - 6 / G),
    (ScenarioSpec(4, 10, "index_only"), RatFunc.const(4)),
    (ScenarioSpec(4, 13, "nonfactorizing"), 24 * (G - 1) / (5 * G + 3)),
    (ScenarioSpec(4, 20, "factorizing", gamma=2), 4 + 4 / (G - 2)),
    (ScenarioSpec(4, 10, "factorizing", gamma=1), RatFunc.const(4)),
])
def test_derived_bounds_match_stated(spec, closed):
    res = derived_slope_bound(spec)
    assert res.derived_bound == closed
    assert res.stated_bound == closed
    assert res.discrepancy.is_zero()
    assert res.notes == () or all("strict" in n for n in res.notes)


def test_derived_bounds_that_differ_from_stated():
    odd = derived_slope_bound(ScenarioSpec(4, 11, "general_odd"))
    assert odd.derived_bound == 16 * (G - 1) / (3 * G + 1)
    assert odd.stated_bound == Fraction(16, 3) - 16 / (3 * (3 * G + 1))
    assert odd.discrepancy == 16 / (3 * G + 1)
    assert odd.derived_bound != odd.stated_bound
    assert any("differs" in n for n in odd.notes)
    even = derived_slope_bound(ScenarioSpec(4, 10, "general_even"))
    assert even.derived_bound == 16 * (G - 1) / (3 * G + 2)
    assert even.stated_bound == Fraction(16, 3) - 8 / G
    assert even.discrepancy(10) == Fraction(1, 30)


@pytest.mark.parametrize("spec,value", [
    (ScenarioSpec(3, 5, "index_only"), Fraction(48, 13)),
    (ScenarioSpec(3, 11, "general_odd"), Fraction(13, 3)),
    (ScenarioSpec(3, 5, "general_odd"), Fraction(11, 3)),
    (ScenarioSpec(3, 12, "general_even"), Fraction(9, 2)),
    (ScenarioSpec(4, 11, "general_odd"), Fraction(80, 17)),
    (ScenarioSpec(4, 13, "nonfactorizing"), Fraction(72, 17)),
    (ScenarioSpec(4, 20, "factorizing", gamma=2), Fraction(38, 9)),
])
def test_bound_values_at_reference_genera(spec, value):
    res = derived_slope_bound(spec)
    assert res.derived_bound(spec.g) == value


def test_strictness_and_corrections():
    strict_cases = {
        ("index_only", 3): False, ("general_odd", 3): True,
        ("general_even", 3): False, ("index_only", 4): False,
        ("general_odd", 4): False, ("general_even", 4): True,
        ("nonfactorizing", 4): False, ("factorizing", 4): True,
    }
    for (case, n), expected in strict_cases.items():
        g = {("general_odd", 3): 11, ("general_even", 3): 12,
             ("general_odd", 4): 11}.get((case, n), 20)
        gamma = 2 if case == "factorizing" else None
        res = derived_slope_bound(ScenarioSpec(n, g, case, gamma))
        assert res.strict is expected, (case, n)
    # blow-up corrections inside the c2 bound
    assert c2_bounds_blowup(ScenarioSpec(3, 5, "general_odd", t=2), 14).correction == 8
    assert c2_bounds_blowup(ScenarioSpec(4, 11, "general_odd", s=1, t=2), 14).correction == 17
    assert c2_bounds_blowup(ScenarioSpec(3, 5, "index_only", t=2), 14).correction == 0


def test_c2_bound_values():
    b = c2_bounds_blowup(ScenarioSpec(3, 5, "general_odd", t=1), 14)
    assert b.target == "c2(E)"
    assert b.coefficient == Fraction(3, 14)
    assert b.value == Fraction(3, 14) * 18 == Fraction(27, 7)
    assert b.strict
    b4 = c2_bounds_blowup(ScenarioSpec(4, 13, "nonfactorizing"), 12)
    assert b4.target == "c2(F)"
    assert b4.value == 2 and not b4.strict


def test_blowups_rejected_by_closed_form_derivation():
    with pytest.raises(ScenarioError, match="blowup_bound_report"):
        derived_slope_bound(ScenarioSpec(3, 5, "general_odd", t=1))


def test_compare_samples():
    res = compare(ScenarioSpec(3, 5, "general_odd"), sample_offsets=(0, 2))
    assert res.samples == ((5, Fraction(11, 3), Fraction(11, 3)),
                           (7, Fraction(4), Fraction(4)))


def test_blowup_report_criterion_point():
    rep = blowup_bound_report(ScenarioSpec(3, 5, "general_odd", t=1),
                              [14, 20, 100])
    assert rep.baseline_at_g == Fraction(11, 3)
    assert rep.limit == Fraction(11, 3)
    assert rep.minimum == Fraction(59, 20)
    assert rep.admissible_from == Fraction(2, 3)
    row = rep.rows[0]
    assert row.c1sq == 14
    assert row.c2_bound == Fraction(27, 7)
    assert (row.kf2, row.chif, row.slope) == (Fraction(59, 7), Fraction(20, 7),
                                              Fraction(59, 20))
    assert row.verdict == "below"
    assert all(r.verdict == "below" for r in rep.rows)


def test_blowup_report_inadmissible_rows():
    rep = blowup_bound_report(ScenarioSpec(3, 5, "general_odd", t=1),
                              [Fraction(1, 2), 14])
    first = rep.rows[0]
    assert first.verdict == "inadmissible"
    assert first.slope is None
    assert first.chif < 0  # still reported exactly
    assert rep.minimum == Fraction(59, 20)


def test_blowup_report_rows_sorted_and_deduplicated():
    rep = blowup_bound_report(ScenarioSpec(3, 5, "general_odd", t=1),
                              [100, 14, 14, 20])
    assert [r.c1sq for r in rep.rows] == [14, 20, 100]


def test_blowup_report_empty_admissible_grid():
    with pytest.raises(ScenarioError, match="admissible"):
        blowup_bound_report(ScenarioSpec(3, 5, "general_odd", t=1), [Fraction(1, 2)])


def test_blowup_report_without_blowups_is_flat():
    rep = blowup_bound_report(ScenarioSpec(4, 11, "general_odd"), [3, 14, 77])
    assert all(r.verdict == "equal" for r in rep.rows)
    assert rep.minimum == rep.baseline_at_g == Fraction(80, 17)


def test_stated_closed_forms_transcription():
    assert stated_closed_form(ScenarioSpec(4, 11, "general_odd")) == \
        Fraction(16, 3) - 16 / (3 * (3 * G + 1))
    assert stated_closed_form(ScenarioSpec(4, 10, "general_even")) == \
        Fraction(16, 3) - 8 / G
    assert stated_closed_form(ScenarioSpec(4, 10, "index_only")) == 4


# -- oracles: the per-probe and per-point routes the affine substitution replaced --


@pytest.mark.parametrize("spec", verify.ALL_SCENARIOS, ids=str)
def test_derived_bound_equals_slope_at_sample_c1sq(spec):
    res = derived_slope_bound(spec)
    q = _c2_chain(spec)[0]
    for c1sq in (1, 14, 1000):
        c2 = q * c1sq
        if spec.n == 3:
            inv = slope_trigonal(G, c1sq, c2)
        else:
            inv = slope_fourgonal(G, c1sq, c2e_bound_fourgonal(c1sq, c2), c2)
        assert inv.slope == res.derived_bound, c1sq


def _per_point_parts(spec, c1sq):
    c2 = c2_bounds_blowup(spec, c1sq).value
    if spec.n == 3:
        return c2, trigonal_blowup_parts(spec.g, c1sq, c2, spec.t)
    return c2, fourgonal_blowup_parts(spec.g, c1sq, c2e_bound_fourgonal(c1sq, c2), c2,
                                      spec.s, spec.t)


def _blowup_scenarios(count):
    rng = random.Random(4096)
    cases = {3: ("index_only", "general_odd", "general_even"),
             4: ("index_only", "general_odd", "general_even", "nonfactorizing",
                 "factorizing")}
    while count:
        n = rng.choice((3, 4))
        case = rng.choice(cases[n])
        gamma = rng.randint(1, 3) if case == "factorizing" else None
        spec = ScenarioSpec(n, rng.randint(3, 60), case, gamma,
                            rng.randint(1, 4) if n == 4 else 0, rng.randint(1, 4))
        if spec.genus_problem(enforce_floor=False) is None:
            count -= 1
            grid = [Fraction(rng.randint(-60, 400), rng.randint(1, 9)) for _ in range(12)]
            yield spec, grid + [Fraction(-5, 2), 0, 1]


@pytest.mark.parametrize("spec,grid", list(_blowup_scenarios(40)), ids=lambda x: str(x)[:60])
def test_blowup_report_matches_per_point_route(spec, grid):
    baseline = derived_slope_bound(replace(spec, s=0, t=0), True).derived_bound(spec.g)
    rows = []
    for c1sq in sorted(set(grid)):
        c2, (kf2, chif) = _per_point_parts(spec, c1sq)
        if chif <= 0:
            rows.append((c1sq, c2, kf2, chif, None, "inadmissible"))
            continue
        sl = kf2 / chif
        rows.append((c1sq, c2, kf2, chif, sl, "below" if sl < baseline else
                     "equal" if sl == baseline else "above"))
    if all(r[4] is None for r in rows):
        with pytest.raises(ScenarioError, match="admissible"):
            blowup_bound_report(spec, grid, allow_out_of_range=True)
        return
    rep = blowup_bound_report(spec, grid, allow_out_of_range=True)
    assert [(r.c1sq, r.c2_bound, r.kf2, r.chif, r.slope, r.verdict)
            for r in rep.rows] == rows
    assert rep.minimum == min(r[4] for r in rows if r[4] is not None)
    _, p0 = _per_point_parts(spec, Fraction(0))
    _, p1 = _per_point_parts(spec, Fraction(1))
    kf2_lead, chif_lead = p1[0] - p0[0], p1[1] - p0[1]
    assert rep.limit == kf2_lead / chif_lead
    assert rep.admissible_from == (-p0[1] / chif_lead if chif_lead > 0 else None)
