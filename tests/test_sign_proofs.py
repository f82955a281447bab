"""Signs proved on a whole genus range [floor, oo) with sympy, not sampled.

Each claim is an exact RatFunc taken from the library's own functions,
turned into a sympy expression in a real g, and shown to keep its sign on
[floor, oo): sympy's solveset finds no g there where the sign fails.  A
proof over the real interval covers every integer genus in it.

Two kinds of claim:

- the substitution step.  A derived bound puts a c2 lower bound into the
  slope, which gives a lower bound on the slope only where the slope does
  not decrease as that c2 grows.  K_f^2 and chi_f are affine in each c2, so
  the direction is the sign of D = K_1*chi_0 - K_0*chi_1, with K_1, chi_1
  the c2 coefficients and K_0, chi_0 the values at c2 = 0.
- the abstract's claims: each derived bound against Harris-Stankova.
"""
from __future__ import annotations

import operator

import pytest
import sympy

from gonalslope.bounds import (ScenarioSpec, _c2_chain, _splitting, c2e_bound_fourgonal,
                               derived_slope_bound)
from gonalslope.grr import GENUS_FLOOR
from gonalslope.ratcalc import G, RatFunc
from gonalslope.slope import (fourgonal_blowup_parts, harris_stankova_reference,
                              trigonal_blowup_parts)

SYM_G = sympy.Symbol("g", real=True)


def to_sympy(f: RatFunc) -> sympy.Expr:
    """f as a sympy expression in g, checked against f at a few genera."""
    num, den = (sum((c * SYM_G ** i for i, c in enumerate(cs)), sympy.Integer(0))
                for cs in (f.num, f.den))
    expr = num / den
    for g in (1, 7, 30):
        assert expr.subs(SYM_G, g) == sympy.Rational(*f(g).as_integer_ratio())
    return expr


def fails_nowhere(f: RatFunc, fails, floor: int) -> bool:
    """sympy finds no real g >= floor with fails(f(g), 0)."""
    where = sympy.solveset(fails(to_sympy(f), 0), SYM_G, sympy.Interval(floor, sympy.oo))
    return where == sympy.EmptySet


def test_the_proofs_can_fail():
    """A sign that fails somewhere on the range is not proved, even past the floor."""
    assert not fails_nowhere(G - 20, operator.lt, 10)
    assert not fails_nowhere((G - 3) / (G + 2), operator.le, 3)
    assert fails_nowhere((G - 3) / (G + 2), operator.le, 4)


# -- the substitution step at s = t = 0 (ROADMAP item 14) ---------------------


def _monotonicity(parts) -> RatFunc:
    """D of (K_f^2, chi_f) = parts(c2), from parts at c2 = 0 and c2 = 1.

    At s = t = 0 both parts are linear in (c1^2, c2) with no constant term
    (bounds._derived certifies it), so D is c1^2 times its value at c1^2 = 1,
    where parts is taken.  D >= 0 is then the slope's monotonicity only where
    c1^2 > 0, which these proofs assume: the chain text does not name that
    hypothesis yet.
    """
    (k0, x0), (k_one, x_one) = parts(0), parts(1)
    return (k_one - k0) * x0 - k0 * (x_one - x0)


#: the eight s = t = 0 families
FAMILIES = [(3, "index_only", None), (3, "general_odd", None), (3, "general_even", None),
            (4, "index_only", None), (4, "general_odd", None), (4, "general_even", None),
            (4, "nonfactorizing", None), (4, "factorizing", 2)]

#: the c2(E) step's D per degree-4 family, written out from (alpha - 4)/(2(g+3))
C2E_STEP = {"general_odd": (G - 5) / (4 * (G + 3)), "general_even": (G - 6) / (4 * (G + 3)),
            "index_only": 0 * G, "nonfactorizing": (G - 9) / (6 * (G + 3)),
            "factorizing": 1 / (G + 3)}


def _steps(n: int, case: str, gamma: int | None) -> dict[str, RatFunc]:
    """Substituted c2 -> D of its step, with the case's own c2(F) bound in the c2(E) step."""
    if n == 3:
        return {"c2(E)": _monotonicity(lambda c2: trigonal_blowup_parts(G, 1, c2, 0))}
    q = _c2_chain(ScenarioSpec(n, GENUS_FLOOR[n] + 5, case, gamma))[0]  # c2(F) >= q*c1^2
    return {"c2(F)": _monotonicity(lambda c2f: fourgonal_blowup_parts(
                G, 1, c2e_bound_fourgonal(1, c2f), c2f, 0, 0)),
            "c2(E)": _monotonicity(lambda c2e: fourgonal_blowup_parts(G, 1, c2e, q, 0, 0))}


@pytest.mark.parametrize("n,case,gamma", FAMILIES, ids=[f"{n}-{c}" for n, c, _ in FAMILIES])
def test_substitution_steps_raise_the_slope_from_the_floor(n, case, gamma):
    steps = _steps(n, case, gamma)
    if n == 3:
        assert steps == {"c2(E)": (G - 3) / (2 * (G + 2))}
    else:
        assert steps == {"c2(F)": (G - 1) / (4 * (G + 3)), "c2(E)": C2E_STEP[case]}
    for step in steps.values():
        assert fails_nowhere(step, operator.lt, GENUS_FLOOR[n])


@pytest.mark.parametrize("case", C2E_STEP)
def test_c2e_step_is_monotone_exactly_where_alpha_is_at_least_4(case):
    """genus_problem's degree-4 rule alpha >= 4 is the c2(E) step's monotonicity."""
    gamma = 2 if case == "factorizing" else None
    alpha, _, _ = _splitting(ScenarioSpec(4, 15, case, gamma), G)
    assert _steps(4, case, gamma)["c2(E)"] == (alpha - 4) / (2 * (G + 3))


# -- the abstract's claims against Harris-Stankova (ROADMAP item 9) -----------


#: (n, case, a genus of the case, derived bound minus Harris-Stankova, its sign)
HARRIS_STANKOVA_GAPS = [
    (4, "general_odd", 11, 8 * (G + 3) / (3 * G * (3 * G + 1)), 1),
    # short of the 4-gonal claim at every even g >= 10: this chain does not reach it
    (4, "general_even", 10, -8 * (G - 6) / (3 * G * (3 * G + 2)), -1),
    (3, "general_odd", 5, -2 * (G - 3) / (G * (G + 1)), -1),
    (3, "general_even", 6, 0 * G, 0),
]


@pytest.mark.parametrize("n,case,g,expected,sign", HARRIS_STANKOVA_GAPS,
                         ids=[f"{n}-{case}" for n, case, *_ in HARRIS_STANKOVA_GAPS])
def test_derived_bound_against_harris_stankova(n, case, g, expected, sign):
    gap = (derived_slope_bound(ScenarioSpec(n, g, case)).derived_bound
           - harris_stankova_reference(n))
    assert gap == expected
    if sign == 0:
        assert not gap
    else:
        assert fails_nowhere(gap, operator.le if sign > 0 else operator.ge, GENUS_FLOOR[n])
