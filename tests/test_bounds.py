"""Case-by-case derived bounds, stated closed forms, blow-up reports."""
from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gonalslope import ratcalc, verify
from gonalslope.bounds import (_MARONI, _STATED, CASES, ScenarioError, ScenarioSpec,
                               SplittingType, _c2_chain, _splitting,
                               blowup_bound_report, c2_bounds_blowup,
                               c2e_bound_fourgonal, compare,
                               derived_slope_bound, genus_notes, index_bound,
                               splitting_for_scenario, stated_closed_form,
                               weak_positivity_bound)
from gonalslope.grr import GENUS_FLOOR
from gonalslope.ratcalc import G, RatFunc
from gonalslope.slope import (check_genus, fourgonal_blowup_parts, harris_stankova_reference,
                              slope_fourgonal, slope_trigonal, trigonal_blowup_parts)


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
    (dict(n=4, g=10, case="general_odd"), "odd g"),
    (dict(n=4, g=11, case="general_even"), "even g"),
])
def test_scenario_validation_rejects(kwargs, message):
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec(**kwargs).validate()
    assert message in str(err.value)


#: scenarios whose n, g or gamma is no int; each used to derive a bound or crash
NON_INT_SCENARIOS = {
    "n=3.0": lambda: derived_slope_bound(ScenarioSpec(3.0, 11, "general_odd")),
    "n=Fraction(4)": lambda: derived_slope_bound(ScenarioSpec(Fraction(4), 11, "general_odd")),
    "gamma=3/2": lambda: derived_slope_bound(ScenarioSpec(4, 20, "factorizing",
                                                          gamma=Fraction(3, 2))),
    "gamma=True": lambda: derived_slope_bound(ScenarioSpec(4, 20, "factorizing", gamma=True)),
    "g=Fraction(11)": lambda: derived_slope_bound(ScenarioSpec(3, Fraction(11),
                                                               "general_odd")),
    "g=True": lambda: ScenarioSpec(3, True, "general_odd").validate(allow_out_of_range=True),
    "g=11.0": lambda: ScenarioSpec(3, 11.0, "general_odd"),
}


@pytest.mark.parametrize("name", NON_INT_SCENARIOS)
def test_scenario_refuses_non_int_genus_and_gamma(name):
    with pytest.raises(ScenarioError, match="n, g and gamma must be integers"):
        NON_INT_SCENARIOS[name]()


def _splitting_genus_problem(spec, g):
    """genus_problem as it read through the Fraction-valued _splitting."""
    try:
        check_genus(g)
    except ValueError as exc:
        return str(exc)
    if spec.case == "factorizing" and 6 * spec.gamma + 3 >= g:
        return f"factorizing needs gamma < (g-3)/6: gamma={spec.gamma}, g={g}"
    split = _splitting(spec, g)
    if split and not split[2] and split[0].denominator != 1:
        return f"{spec.case} needs {'even' if g % 2 else 'odd'} g, got {g}"
    if split:
        # the integral type rounds a floor on alpha up
        alpha = math.ceil(split[0])
        beta = split[0] + split[1] - alpha
        if alpha > beta:
            return f"{spec.case} splitting needs alpha <= beta, got ({alpha}, {beta})"
        if spec.n == 4 and alpha < 4:
            return f"degree-4 splitting needs alpha >= 4, got {alpha}"
    return None


@pytest.mark.parametrize("case", CASES)
def test_integer_parity_matches_splitting_oracle(case):
    """genus_problem against the oracle; validate then adds the floor, and only the floor."""
    gammas = range(1, 5) if case == "factorizing" else (None,)
    for n, gamma in product(_MARONI[case], gammas):
        spec = ScenarioSpec(n, 1, case, gamma)
        floor = GENUS_FLOOR[n]
        for g in range(1, 301):
            expected = _splitting_genus_problem(spec, g)
            assert spec.genus_problem(g) == expected
            at_g = spec.replace(g=g)
            assert at_g.genus_problem() == expected
            if expected is not None:
                for allow in (False, True):
                    with pytest.raises(ScenarioError) as err:
                        at_g.validate(allow_out_of_range=allow)
                    assert str(err.value) == expected
            elif g >= floor:
                assert at_g.validate() == at_g.validate(allow_out_of_range=True) == []
            else:
                with pytest.raises(ScenarioError) as err:
                    at_g.validate()
                assert str(err.value) == (f"genus {g} below floor {floor} for degree {n}; "
                                          "pass --allow-out-of-range to compute anyway")
                assert at_g.validate(allow_out_of_range=True) == [
                    f"out-of-range: genus {g} below floor {floor}"]


def test_scenario_form_checked_at_construction():
    with pytest.raises(ScenarioError, match="unknown case"):
        ScenarioSpec(3, 11, "mystery")
    with pytest.raises(ScenarioError, match="only meaningful"):
        ScenarioSpec(4, 11, "general_odd").replace(gamma=1)


#: library entries that take a scenario, each reached with g = 0
GENUS_ZERO_ENTRIES = {
    "blowup_bound_report": lambda: blowup_bound_report(
        ScenarioSpec(3, 0, "general_even", t=1), [14], allow_out_of_range=True),
    "derived_slope_bound": lambda: derived_slope_bound(
        ScenarioSpec(3, 0, "general_even"), allow_out_of_range=True),
    "c2_bounds_blowup": lambda: c2_bounds_blowup(ScenarioSpec(3, 0, "general_even"), 14),
    "splitting_for_scenario": lambda: splitting_for_scenario(
        ScenarioSpec(4, 0, "factorizing", gamma=1)),
}


@pytest.mark.parametrize("name", GENUS_ZERO_ENTRIES)
def test_genus_below_one_refused_by_the_library(name):
    with pytest.raises(ScenarioError, match=r"^genus must be positive, got 0$"):
        GENUS_ZERO_ENTRIES[name]()


def test_genus_below_one_reported_first():
    assert (ScenarioSpec(4, -1, "factorizing", gamma=1).genus_problem()
            == "genus must be positive, got -1")
    assert ScenarioSpec(3, 1, "general_odd").genus_problem() is None


def test_scenario_floor_relaxable():
    spec = ScenarioSpec(4, 9, "nonfactorizing")
    with pytest.raises(ScenarioError):
        spec.validate()
    spec.validate(allow_out_of_range=True)


def test_validate_takes_the_floor_knob_by_keyword_only():
    with pytest.raises(TypeError, match="positional argument"):
        ScenarioSpec(4, 9, "nonfactorizing").validate(True)


@pytest.mark.parametrize("allow", [False, True])
@pytest.mark.parametrize("n", [5, 2, True, "3", 3.0], ids=repr)
def test_genus_notes_refuses_a_degree_other_than_3_or_4(n, allow):
    with pytest.raises(ScenarioError, match=r"^degree must be 3 or 4, got "):
        genus_notes(n, 10, allow)


@pytest.mark.parametrize("spec,alpha,beta", [
    (ScenarioSpec(3, 11, "general_odd"), 6, 7),
    (ScenarioSpec(3, 12, "general_even"), 7, 7),
    (ScenarioSpec(4, 11, "general_odd"), 7, 7),
    (ScenarioSpec(4, 12, "general_even"), 7, 8),
    (ScenarioSpec(4, 13, "nonfactorizing"), 6, 10),
    (ScenarioSpec(4, 20, "factorizing", gamma=2), 6, 17),
    (ScenarioSpec(4, 10, "index_only"), 4, 9),
])
def test_splitting_for_scenario(spec, alpha, beta):
    st = splitting_for_scenario(spec)
    assert (st.alpha, st.beta) == (alpha, beta)


def test_splitting_for_index_only():
    assert splitting_for_scenario(ScenarioSpec(3, 5, "index_only")) is None


def test_degree_4_splitting_needs_alpha_4():
    with pytest.raises(ScenarioError, match="degree-4 splitting needs alpha >= 4, got 2"):
        splitting_for_scenario(ScenarioSpec(4, 1, "general_odd"))


#: scenarios whose splitting cannot exist, each with the words that refuse it
IMPOSSIBLE_SPLITTINGS = [
    (ScenarioSpec(4, 3, "general_odd"), "degree-4 splitting needs alpha >= 4, got 3"),
    (ScenarioSpec(4, 3, "index_only"), "index_only splitting needs alpha <= beta, got (4, 2)"),
]


@pytest.mark.parametrize("spec,message", IMPOSSIBLE_SPLITTINGS, ids=str)
def test_impossible_splitting_refused_by_every_entry(spec, message):
    """The floor is the only rule that allow_out_of_range relaxes."""
    pattern = f"^{re.escape(message)}$"
    assert spec.genus_problem() == message
    entries = [spec.validate,  # the splitting rule comes before the floor
               lambda: splitting_for_scenario(spec),
               lambda: c2_bounds_blowup(spec, 14),
               lambda: stated_closed_form(spec),
               lambda: derived_slope_bound(spec, allow_out_of_range=True),
               lambda: blowup_bound_report(spec.replace(t=1), [14], allow_out_of_range=True)]
    for entry in entries:
        with pytest.raises(ScenarioError, match=pattern):
            entry()


#: the floor refusal of the library, in the words the CLI prints
FLOOR_REFUSAL = (r"^genus 4 below floor 5 for degree 3; "
                 r"pass --allow-out-of-range to compute anyway$")


def test_library_results_carry_the_floor_note():
    spec = ScenarioSpec(3, 4, "general_even")
    note = "out-of-range: genus 4 below floor 5"
    assert derived_slope_bound(spec, allow_out_of_range=True).notes[0] == note
    assert derived_slope_bound(spec.replace(g=6)).notes == ()
    report = blowup_bound_report(spec.replace(t=1), [14], allow_out_of_range=True)
    assert report.notes == (note,)
    assert blowup_bound_report(spec.replace(g=6, t=1), [14]).notes == ()
    for entry in (derived_slope_bound, lambda sp: blowup_bound_report(sp.replace(t=1), [14])):
        with pytest.raises(ScenarioError, match=FLOOR_REFUSAL):
            entry(spec)


@pytest.mark.parametrize("spec", [ScenarioSpec(3, 11, "general_odd"),
                                  ScenarioSpec(4, 11, "general_odd")], ids=str)
def test_cancellation_certificate_fires(spec, kf2_constant_term):
    with pytest.raises(AssertionError, match=r"^c1\^2 failed to cancel for "):
        derived_slope_bound(spec)


def test_symbolic_splitting_type_skips_the_order_check():
    st = SplittingType((G + 2) / 2, (G + 4) / 2)
    assert st.maroni() == 1
    assert weak_positivity_bound(st, 1) == ((G + 2) / (4 * (G + 3)), True)


#: one scenario for each table entry with an exact (not floor) splitting type
EXACT_SPLIT_SPECS = [
    ScenarioSpec(3, 11, "general_odd"), ScenarioSpec(3, 12, "general_even"),
    ScenarioSpec(4, 11, "general_odd"), ScenarioSpec(4, 12, "general_even"),
    ScenarioSpec(4, 20, "factorizing", gamma=2), ScenarioSpec(4, 31, "factorizing", gamma=4),
]


def test_exact_split_specs_cover_the_table():
    exact = {(n, case) for case, by_degree in _MARONI.items()
             for n, entry in by_degree.items() if entry is not None and not entry[1]}
    assert {(spec.n, spec.case) for spec in EXACT_SPLIT_SPECS} == exact


@pytest.mark.parametrize("spec", EXACT_SPLIT_SPECS, ids=str)
def test_exact_splitting_gives_the_c2_coefficient(spec):
    res = derived_slope_bound(spec)
    assert weak_positivity_bound(splitting_for_scenario(spec), 1) == \
        (res.c2_coefficient, res.strict)


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
    assert not res.discrepancy
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
    res = compare(ScenarioSpec(3, 5, "general_odd"))
    assert res.samples == ((5, Fraction(11, 3), Fraction(11, 3)),
                           (7, Fraction(4), Fraction(4)),
                           (25, Fraction(61, 13), Fraction(61, 13)),
                           (205, Fraction(511, 103), Fraction(511, 103)))


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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a row is admissible only if chi_f > 0, "
                   "K_f^2 > 0 and slope <= 12; the report tests chi_f > 0 alone")
def test_blowup_report_row_with_negative_kf2_is_inadmissible():
    rep = blowup_bound_report(ScenarioSpec(3, 5, "general_odd", t=1), [1, 14, 20, 100])
    first = rep.rows[0]
    assert (first.c1sq, first.kf2) == (1, Fraction(-25, 14))  # still reported exactly
    assert first.verdict == "inadmissible"
    assert rep.minimum == Fraction(59, 20)
    assert rep.admissible_from == Fraction(36, 11)  # the K_f^2 = 0 threshold


def test_blowup_report_rows_sorted_and_deduplicated():
    rep = blowup_bound_report(ScenarioSpec(3, 5, "general_odd", t=1),
                              [100, 14, 14, 20])
    assert [r.c1sq for r in rep.rows] == [14, 20, 100]


def test_blowup_report_reads_a_constant_ratfunc_as_its_number():
    spec = ScenarioSpec(3, 5, "general_odd", t=1)
    assert blowup_bound_report(spec, [RatFunc.const(14), 20]) \
        == blowup_bound_report(spec, [Fraction(14), 20])


def test_blowup_report_refuses_a_function_of_g():
    with pytest.raises(ScenarioError,
                       match=r"^c1\^2 grid point g is a function of g, not a number$"):
        blowup_bound_report(ScenarioSpec(3, 5, "general_odd", t=1), [G])


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


def test_stated_table_keys_match_maroni():
    # a new case states its closed form for exactly the degrees it applies to
    assert ({case: sorted(by_degree) for case, by_degree in _STATED.items()}
            == {case: sorted(by_degree) for case, by_degree in _MARONI.items()})


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


#: (n, g, case, gamma, s, t) of 40 admissible blow-up scenarios.  A fixed table,
#: not a filtered random stream, so a change to an admissibility rule fails the
#: scenario it refuses and renames no other test.
_BLOWUP_SPECS = (
    (3, 40, "general_even", None, 0, 3), (4, 5, "index_only", None, 4, 2),
    (4, 44, "general_even", None, 4, 3), (3, 37, "general_odd", None, 0, 1),
    (3, 13, "index_only", None, 0, 4), (4, 19, "nonfactorizing", None, 2, 1),
    (3, 20, "general_even", None, 0, 3), (3, 5, "general_odd", None, 0, 2),
    (3, 22, "index_only", None, 0, 4), (3, 57, "general_odd", None, 0, 1),
    (3, 43, "index_only", None, 0, 3), (3, 18, "index_only", None, 0, 3),
    (3, 51, "index_only", None, 0, 3), (4, 36, "nonfactorizing", None, 1, 1),
    (3, 23, "general_odd", None, 0, 4), (4, 50, "general_even", None, 1, 1),
    (4, 60, "factorizing", 2, 1, 3), (4, 18, "nonfactorizing", None, 3, 1),
    (3, 44, "index_only", None, 0, 2), (3, 49, "general_odd", None, 0, 1),
    (4, 28, "index_only", None, 3, 2), (4, 6, "general_even", None, 4, 2),
    (3, 46, "general_even", None, 0, 1), (4, 38, "nonfactorizing", None, 3, 3),
    (4, 50, "general_even", None, 1, 2), (4, 8, "index_only", None, 2, 3),
    (4, 25, "index_only", None, 1, 2), (4, 48, "index_only", None, 4, 4),
    (4, 10, "general_even", None, 1, 3), (3, 20, "general_even", None, 0, 1),
    (4, 13, "general_odd", None, 1, 1), (4, 29, "index_only", None, 3, 4),
    (3, 30, "general_even", None, 0, 3), (4, 41, "factorizing", 1, 3, 4),
    (3, 4, "index_only", None, 0, 4), (3, 28, "index_only", None, 0, 2),
    (4, 47, "nonfactorizing", None, 2, 2), (3, 54, "general_even", None, 0, 3),
    (4, 22, "general_even", None, 1, 1), (4, 33, "general_odd", None, 4, 2),
)


def _blowup_scenarios():
    rng = random.Random(4096)
    for fields in _BLOWUP_SPECS:
        grid = [Fraction(rng.randint(-60, 400), rng.randint(1, 9)) for _ in range(12)]
        yield ScenarioSpec(*fields), grid + [Fraction(-5, 2), 0, 1]


@pytest.mark.parametrize("spec,grid", list(_blowup_scenarios()), ids=lambda x: str(x)[:60])
def test_blowup_report_matches_per_point_route(spec, grid):
    assert spec.genus_problem() is None
    baseline = derived_slope_bound(spec.replace(s=0, t=0), True).derived_bound(spec.g)
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


def _row_oracle_cases():
    """Seeded grids over the blow-up table and four blown-down scenarios.

    Every grid holds negative c1^2 and 0, both with chi_f <= 0, the point
    where chi_f = 0 exactly, and one point past it.  Blown down, c1^2
    cancels, so every admissible row is 'equal'.
    """
    rng = random.Random(2718)
    flat = [(4, 11, "general_odd", None, 0, 0), (3, 12, "general_even", None, 0, 0),
            (4, 13, "nonfactorizing", None, 0, 0), (3, 5, "index_only", None, 0, 0)]
    for fields in _BLOWUP_SPECS[:12] + tuple(flat):
        spec = ScenarioSpec(*fields)
        _, (_, chif_0) = _per_point_parts(spec, Fraction(0))
        _, (_, chif_1) = _per_point_parts(spec, Fraction(1))
        zero = -chif_0 / (chif_1 - chif_0)
        grid = [Fraction(rng.randint(-400, 400), rng.randint(1, 11)) for _ in range(10)]
        yield spec, grid + [Fraction(-7, 3), 0, zero, zero + Fraction(1, 10 ** 6), 1000]


@pytest.mark.parametrize("spec,grid", list(_row_oracle_cases()), ids=lambda x: str(x)[:60])
def test_blowup_report_rows_match_the_per_row_fraction_formula(spec, grid):
    """Integer rows against K_f^2, chi_f and the c2 bound evaluated in Fractions per row."""
    c2_0, (kf2_0, chif_0) = _per_point_parts(spec, Fraction(0))
    c2_1, (kf2_1, chif_1) = _per_point_parts(spec, Fraction(1))
    baseline = derived_slope_bound(spec.replace(s=0, t=0), True).derived_bound(spec.g)
    rep = blowup_bound_report(spec, grid, allow_out_of_range=True)
    assert [r.c1sq for r in rep.rows] == sorted(set(grid))
    verdicts = set()
    for row in rep.rows:
        x = row.c1sq
        kf2, chif = kf2_0 + (kf2_1 - kf2_0) * x, chif_0 + (chif_1 - chif_0) * x
        slope = kf2 / chif if chif > 0 else None
        verdict = ("inadmissible" if slope is None else "below" if slope < baseline
                   else "equal" if slope == baseline else "above")
        assert (row.c2_bound, row.kf2, row.chif, row.slope, row.verdict) == \
            (c2_0 + (c2_1 - c2_0) * x, kf2, chif, slope, verdict), x
        cells = (row.c2_bound, row.kf2, row.chif) + ((row.slope,) if slope is not None else ())
        assert all(type(c) is Fraction for c in cells)
        verdicts.add(verdict)
    assert "inadmissible" in verdicts
    if not (spec.s or spec.t):
        assert verdicts == {"inadmissible", "equal"}
    assert rep.minimum == min(r.slope for r in rep.rows if r.slope is not None)


# -- cases as Maroni strata: m = beta - alpha picks one bound per degree --------


def _maroni_family(n, m, g=G):
    """5 - (2m+6)/(g+m) for n = 3, 16(g-1)/(3g+1+m) for n = 4."""
    return 5 - (2 * m + 6) / (g + m) if n == 3 else 16 * (g - 1) / (3 * g + 1 + m)


def _maroni_gap(n, m, g=G):
    """Harris-Stankova reference minus the family at m."""
    if n == 3:
        return 2 * m * (g - 3) / (g * (g + m))
    return 8 * (2 * g * m - g - 3 - 3 * m) / (3 * g * (3 * g + 1 + m))


#: (spec at an admissible genus, m as a function of g); the degree-3 index
#: route uses no splitting but coincides with m = (g+2)/9
MARONI_ENTRIES = [
    (ScenarioSpec(3, 5, "index_only"), (G + 2) / 9),
    (ScenarioSpec(3, 11, "general_odd"), RatFunc.const(1)),
    (ScenarioSpec(3, 12, "general_even"), RatFunc.const(0)),
    (ScenarioSpec(4, 10, "index_only"), G - 5),
    (ScenarioSpec(4, 11, "general_odd"), RatFunc.const(0)),
    (ScenarioSpec(4, 10, "general_even"), RatFunc.const(1)),
    (ScenarioSpec(4, 13, "nonfactorizing"), (G + 3) / 3),
    *((ScenarioSpec(4, 6 * gamma + 5, "factorizing", gamma), G - 1 - 4 * gamma)
      for gamma in range(1, 6)),
]


@pytest.mark.parametrize("spec,m", MARONI_ENTRIES, ids=str)
def test_derived_bound_is_the_maroni_family(spec, m):
    assert derived_slope_bound(spec).derived_bound == _maroni_family(spec.n, m)


@pytest.mark.parametrize("spec,m", MARONI_ENTRIES, ids=str)
def test_reference_gap_is_exact_in_m(spec, m):
    gap = harris_stankova_reference(spec.n) - derived_slope_bound(spec).derived_bound
    assert gap == _maroni_gap(spec.n, m)


#: (n, case) -> m at an integer g, for the cases with an exact splitting type
EXACT_MARONI = {
    (3, "general_odd"): lambda g, gamma: 1,
    (3, "general_even"): lambda g, gamma: 0,
    (4, "general_odd"): lambda g, gamma: 0,
    (4, "general_even"): lambda g, gamma: 1,
    (4, "factorizing"): lambda g, gamma: g - 1 - 4 * gamma,
}


@st.composite
def exact_splitting_specs(draw):
    n, case = draw(st.sampled_from(sorted(EXACT_MARONI)))
    g = draw(st.integers(10 if n == 4 else 5, 400))
    if case == "general_odd":
        g |= 1
    elif case == "general_even":
        g += g % 2
    gamma = draw(st.integers(1, (g - 4) // 6)) if case == "factorizing" else None
    return ScenarioSpec(n, g, case, gamma)


@settings(max_examples=60, deadline=None, database=None)
@given(exact_splitting_specs())
def test_exact_splitting_follows_its_maroni_invariant(spec):
    spec.validate()
    m = EXACT_MARONI[(spec.n, spec.case)](spec.g, spec.gamma)
    assert splitting_for_scenario(spec).maroni() == m
    res = derived_slope_bound(spec)
    assert res.strict is (m > 0)
    assert res.derived_bound(spec.g) == _maroni_family(spec.n, Fraction(m), spec.g)


def test_derivations_stay_within_the_gcd_budget(monkeypatch):
    calls = []
    pgcd = ratcalc._pgcd
    monkeypatch.setattr(ratcalc, "_pgcd", lambda a, b: calls.append(a) or pgcd(a, b))
    for spec in verify.ALL_SCENARIOS:
        derived_slope_bound(spec)
    # 135 calls when every constant operand ran the gcd too; counts repeat exactly
    assert len(calls) <= 80


# -- the derivation over Q(g): values recorded before the pair route, and its work --

#: derived_slope_bound for every family and factorizing gamma 1..12, recorded when
#: every RatFunc operation normalised its own result; num/den lists, lowest degree first
DERIVATIONS = json.loads((Path(__file__).resolve().parent / "golden" / "derivations.json")
                         .read_text(encoding="utf-8"))


def test_recorded_derivations_cover_every_family_and_gamma():
    assert [(r["n"], r["case"], r["gamma"]) for r in DERIVATIONS] == [
        (n, case, gamma) for case in CASES for n in sorted(_MARONI[case])
        for gamma in (range(1, 13) if case == "factorizing" else [None])]


@pytest.mark.parametrize("row", DERIVATIONS,
                         ids=lambda r: f"{r['n']}-{r['case']}-{r['gamma']}-g{r['g']}")
def test_derivation_matches_the_recorded_one(row):
    res = derived_slope_bound(ScenarioSpec(row["n"], row["g"], row["case"], row["gamma"]))
    for field in ("derived_bound", "stated_bound", "discrepancy"):
        value = getattr(res, field)
        assert type(value) is RatFunc and [list(value.num), list(value.den)] == row[field]
    assert type(res.c2_coefficient) is Fraction
    assert str(res.c2_coefficient) == row["c2_coefficient"]
    assert list(res.chain) == row["chain"]


#: (n, g, case, gamma) -> (_canon, _normal) calls one derived_slope_bound makes.
#: A _canon ends in a _normal, counted under both.  Normalising each RatFunc
#: operation's result took 31 to 69 _normal calls (CHANGES.md has each family's).
DERIVATION_WORK = {
    (3, 5, "index_only", None): (7, 17),
    (3, 7, "general_odd", None): (9, 21),
    (3, 6, "general_even", None): (9, 20),
    (4, 10, "index_only", None): (9, 27),
    (4, 11, "general_odd", None): (10, 29),
    (4, 10, "general_even", None): (11, 26),
    (4, 12, "nonfactorizing", None): (13, 32),
    (4, 30, "factorizing", 2): (9, 29),
}


@pytest.mark.parametrize("spec", DERIVATION_WORK, ids=str)
def test_derivation_normalises_once_per_result(spec, canon_count):
    canon_count.clear()
    derived_slope_bound(ScenarioSpec(*spec))
    assert (canon_count["_canon"], canon_count["_normal"]) == DERIVATION_WORK[spec]
