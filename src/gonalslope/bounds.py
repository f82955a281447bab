"""Slope lower bounds per scenario: derivation, closed forms, comparison.

A scenario fixes the cover degree, fibre genus, a structural case tag and
optional blow-up counts.  Each case carries a lower bound on the relevant
second Chern class; substituting that bound into the slope formulas gives
the derived bound as an exact rational function of g.  The stated closed
forms are kept separately and never reused in the derivation, so their
difference is an honest discrepancy report.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .grr import GENUS_FLOOR
from .ratcalc import G, Rat, RatFunc
from .slope import (fourgonal_blowup_parts, slope_fourgonal, slope_trigonal,
                    trigonal_blowup_parts)

CASES = ("index_only", "general_odd", "general_even", "nonfactorizing", "factorizing")


class ScenarioError(ValueError):
    """Inconsistent or unsupported scenario data."""


@dataclass(frozen=True)
class SplittingType:
    """Splitting degrees 0 < alpha <= beta of the restricted bundle."""

    alpha: Rat
    beta: Rat

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if not 0 < self.alpha <= self.beta:
            raise ValueError(f"need 0 < alpha <= beta, got ({self.alpha}, {self.beta})")

    def maroni(self) -> Rat:
        return self.beta - self.alpha


def weak_positivity_bound(st: SplittingType, c1sq) -> tuple[Rat, bool]:
    """Lower bound alpha/(2(alpha+beta)) * c1sq on c2, strict unless balanced."""
    coeff = st.alpha / (2 * (st.alpha + st.beta))
    return coeff * Fraction(c1sq), st.alpha < st.beta


def index_bound(n: int, c1sq) -> Rat:
    """Upper bound 4 c1^2 / n on R^2 for a degree-n cover (signature argument)."""
    if n < 2:
        raise ScenarioError(f"index bound needs degree >= 2, got {n}")
    return Fraction(4, n) * Fraction(c1sq)


def c2e_bound_fourgonal(c1sq, c2f):
    """c2(E) >= (c1^2 + c2(F))/4, from the index bound on R^2.

    Either argument may be symbolic; the result follows suit.
    """
    if isinstance(c1sq, RatFunc) or isinstance(c2f, RatFunc):
        return (c1sq + c2f) / 4
    return (Fraction(c1sq) + Fraction(c2f)) / 4


@dataclass(frozen=True)
class ScenarioSpec:
    """Cover degree, fibre genus, case tag, and blow-up counts (s, t)."""

    n: int
    g: int
    case: str
    gamma: int | None = None
    s: int = 0
    t: int = 0

    def validate(self, enforce_genus: bool = True) -> None:
        """Raise ScenarioError on any inconsistency; enforce_genus=False skips the floor."""
        self.validate_form()
        problem = self.genus_problem(enforce_floor=enforce_genus)
        if problem:
            raise ScenarioError(problem)

    def validate_form(self) -> None:
        """The checks that do not depend on g."""
        if self.n not in GENUS_FLOOR:
            raise ScenarioError(f"degree must be 3 or 4, got {self.n}")
        if self.case not in CASES:
            raise ScenarioError(f"unknown case {self.case!r}; choose from {CASES}")
        if self.case in ("nonfactorizing", "factorizing") and self.n != 4:
            raise ScenarioError(f"case {self.case!r} applies to degree 4 only")
        if self.case == "factorizing":
            if self.gamma is None:
                raise ScenarioError("factorizing needs gamma")
            if self.gamma < 1:
                raise ScenarioError(f"gamma must be >= 1, got {self.gamma}")
        elif self.gamma is not None:
            raise ScenarioError(f"gamma is only meaningful for factorizing, got {self.case!r}")
        if self.s < 0 or self.t < 0:
            raise ScenarioError("blow-up counts must be nonnegative")
        if self.n == 3 and self.s:
            raise ScenarioError("degree 3 admits no total-ramification blow-ups")

    def genus_problem(self, enforce_floor: bool) -> str | None:
        """Why g does not suit this scenario, or None; assumes validate_form passed."""
        g = self.g
        if self.case == "factorizing" and 6 * self.gamma + 3 >= g:
            return f"factorizing needs gamma < (g-3)/6: gamma={self.gamma}, g={g}"
        if self.case == "general_odd" and g % 2 == 0:
            return f"general_odd needs odd g, got {g}"
        if self.case == "general_even" and g % 2 == 1:
            return f"general_even needs even g, got {g}"
        if enforce_floor and g < GENUS_FLOOR[self.n]:
            return f"genus {g} below floor {GENUS_FLOOR[self.n]} for degree {self.n}"
        return None


def splitting_for_scenario(spec: ScenarioSpec) -> SplittingType | None:
    """Integral splitting type attached to the case, or None for index_only.

    The case's _split_exprs at the concrete genus.  Where the case only pins
    a floor (nonfactorizing), the integral type rounds alpha up, while the
    bound coefficient keeps the exact rational floor.
    """
    spec.validate(enforce_genus=False)
    if spec.case == "index_only":
        return None
    alpha, beta, is_floor = _split_exprs(spec, Fraction(spec.g))
    total = alpha + beta
    if is_floor:
        alpha = math.ceil(alpha)
    st = SplittingType(alpha, total - alpha)
    if spec.n == 4 and st.alpha < 4:
        raise ScenarioError(f"degree-4 splitting needs alpha >= 4, got {st.alpha}")
    return st


def _split_exprs(spec: ScenarioSpec, g):
    """(alpha, beta, is_floor) in terms of g; None for the trigonal index case.

    g may be symbolic, so floors stay exact rationals here.
    """
    if spec.case == "index_only":
        if spec.n == 3:
            return None
        return 4 + 0 * g, g - 1, True  # only alpha >= 4 is known
    if spec.case == "general_odd":
        if spec.n == 3:
            return (g + 1) / 2, (g + 3) / 2, False
        return (g + 3) / 2, (g + 3) / 2, False
    if spec.case == "general_even":
        if spec.n == 3:
            return (g + 2) / 2, (g + 2) / 2, False
        return (g + 2) / 2, (g + 4) / 2, False
    if spec.case == "nonfactorizing":
        return (g + 3) / 3, 2 * (g + 3) / 3, True
    # factorizing
    return Fraction(2 * spec.gamma + 2) + 0 * g, g + 1 - 2 * spec.gamma, False


def _c2_chain(spec: ScenarioSpec):
    """The case's c2 lower bound: (coefficient q in Q(g), strict, chain text).

    The bound reads c2 >= q * (c1^2 + correction) with the correction from
    _correction(); for degree 4 it lands on c2(F) and then c2(E) through
    the quarter bound.
    """
    target = "c2(E)" if spec.n == 3 else "c2(F)"
    corr = _correction(spec)
    if spec.n == 3 and spec.case == "index_only":
        # R^2 <= (4/3) c1^2 with R^2 = 2 c1^2 - 3 c2 forces the coefficient
        q = (2 - Fraction(4, 3)) / 3 + 0 * G
        return q, False, ("R^2 <= 4/3 * c1^2 with R^2 = 2*c1^2 - 3*c2(E)",
                          f"{target} >= [{q}] * c1^2")
    alpha, beta, is_floor = _split_exprs(spec, G)
    q = alpha / (2 * (alpha + beta))
    if is_floor:
        strict = False
        origin = f"splitting floor alpha >= {alpha} out of alpha + beta = {alpha + beta}"
    else:
        gap = (beta - alpha)(spec.g)
        strict = gap > 0
        origin = f"splitting alpha = {alpha} and beta = {beta}"
    rel = ">" if strict else ">="
    if corr == 0:
        inside = "c1^2"
    elif spec.n == 3:
        inside = "c1^2 + 4t"
    else:
        inside = "c1^2 + 9s + 4t"
    lines = [origin, f"{target} {rel} [{q}] * ({inside})"]
    if spec.n == 4:
        lines.append("c2(E) >= (c1^2 + c2(F))/4")
    return q, strict, tuple(lines)


def _correction(spec: ScenarioSpec) -> Rat:
    """Blow-up correction added to c1^2 inside the c2 bound."""
    if spec.n == 3:
        # the index route keeps its bare c1^2; splitting routes gain 4 per E''
        return Fraction(0) if spec.case == "index_only" else Fraction(4 * spec.t)
    return Fraction(9 * spec.s + 4 * spec.t)


@dataclass(frozen=True)
class C2Bound:
    """A concrete c2 lower bound value q*(c1^2 + correction) at one input."""

    target: str
    value: Rat
    coefficient: Rat
    correction: Rat
    strict: bool


def c2_bounds_blowup(spec: ScenarioSpec, c1sq) -> C2Bound:
    """Evaluate the case's c2 lower bound at a concrete c1^2."""
    spec.validate(enforce_genus=False)
    q, strict, _ = _c2_chain(spec)
    coeff = q(spec.g)
    corr = _correction(spec)
    target = "c2(E)" if spec.n == 3 else "c2(F)"
    return C2Bound(target, coeff * (Fraction(c1sq) + corr), coeff, corr, strict)


@dataclass(frozen=True)
class BoundResult:
    """Derived slope lower bound for a scenario, next to its stated closed form."""

    scenario: ScenarioSpec
    c2_coefficient: Rat
    correction: Rat
    strict: bool
    derived_bound: RatFunc
    stated_bound: RatFunc | None
    discrepancy: RatFunc | None
    chain: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()
    samples: tuple[tuple[int, Rat, Rat | None], ...] = ()


def stated_closed_form(spec: ScenarioSpec) -> RatFunc:
    """The claimed closed form for the scenario's bound, transcribed verbatim."""
    spec.validate(enforce_genus=False)
    if spec.n == 3:
        if spec.case == "index_only":
            return 24 * (G - 1) / (5 * G + 1)
        if spec.case == "general_odd":
            return 5 - 8 / (G + 1)
        return 5 - 6 / G
    if spec.case == "index_only":
        return RatFunc.const(4)
    if spec.case == "nonfactorizing":
        return 24 * (G - 1) / (5 * G + 3)
    if spec.case == "factorizing":
        return 4 + 4 * (spec.gamma - 1) / (G - spec.gamma)
    if spec.case == "general_odd":
        return Fraction(16, 3) - 16 / (3 * (3 * G + 1))
    return Fraction(16, 3) - 8 / G


def _affine_parts(spec: ScenarioSpec, g, q):
    """(K_f^2, chi_f) at c1^2 = 0 and their slopes in c1^2 for c2 = q*(c1^2 + corr)."""
    c2_0 = q * _correction(spec)
    if spec.n == 3:
        return (trigonal_blowup_parts(g, 0, c2_0, spec.t),
                trigonal_blowup_parts(g, 1, q, 0))
    return (fourgonal_blowup_parts(g, 0, c2e_bound_fourgonal(0, c2_0), c2_0,
                                   spec.s, spec.t),
            fourgonal_blowup_parts(g, 1, c2e_bound_fourgonal(1, q), q, 0, 0))


def derived_slope_bound(spec: ScenarioSpec, allow_out_of_range: bool = False) -> BoundResult:
    """Substitute the case's c2 bound into the slope and simplify over Q(g).

    Both constant terms of the substituted K_f^2 and chi_f must vanish, which
    certifies that c1^2 cancels; the bound is the slope at c1^2 = 1.  Blow-up
    scenarios do not cancel c1^2 and belong to blowup_bound_report instead.
    """
    spec.validate(enforce_genus=not allow_out_of_range)
    if spec.s or spec.t:
        raise ScenarioError("c1^2 does not cancel once s or t is positive; "
                            "use blowup_bound_report")
    q, strict, chain = _c2_chain(spec)
    const, _ = _affine_parts(spec, G, q)
    if not all(x.is_zero() for x in const):
        raise AssertionError(f"c1^2 failed to cancel for {spec}: constant terms {const}")
    derived = (slope_trigonal(G, 1, q) if spec.n == 3
               else slope_fourgonal(G, 1, c2e_bound_fourgonal(1, q), q)).slope
    stated = stated_closed_form(spec)
    disc = stated - derived
    notes = []
    if not disc.is_zero():
        notes.append(f"stated form differs from the derivation by {disc}")
    if strict:
        notes.append("derived bound is strict (unbalanced splitting)")
    return BoundResult(spec, q(spec.g), _correction(spec), strict, derived,
                       stated, disc, chain, tuple(notes))


def compare(spec: ScenarioSpec, sample_offsets: tuple[int, ...] = (0, 2, 20, 200),
            allow_out_of_range: bool = False) -> BoundResult:
    """derived_slope_bound plus evaluations of both bounds at sample genera."""
    res = derived_slope_bound(spec, allow_out_of_range)
    rows = []
    for off in sample_offsets:
        gval = spec.g + off
        rows.append((gval, res.derived_bound(gval),
                     res.stated_bound(gval) if res.stated_bound is not None else None))
    return replace(res, samples=tuple(rows))


# -- blow-up reports: c1^2 no longer cancels, so sweep it over a grid --------


@dataclass(frozen=True)
class BlowupRow:
    c1sq: Rat
    c2_bound: Rat
    kf2: Rat
    chif: Rat
    slope: Rat | None
    verdict: str  # below / equal / above / inadmissible


@dataclass(frozen=True)
class BlowupReport:
    scenario: ScenarioSpec
    rows: tuple[BlowupRow, ...]
    baseline: RatFunc
    baseline_at_g: Rat
    minimum: Rat
    limit: Rat
    admissible_from: Rat | None
    strict: bool
    chain: tuple[str, ...] = ()


def blowup_bound_report(spec: ScenarioSpec, c1sq_grid,
                        allow_out_of_range: bool = False) -> BlowupReport:
    """Evaluate the substituted slope over a c1^2 grid and compare with s = t = 0.

    K_f^2 and chi_f are affine in c1^2; each admissible grid point (chi_f > 0)
    is tagged below/equal/above the blown-down baseline.  The report also
    carries the exact c1^2 -> infinity limit, which recovers that baseline.
    """
    spec.validate(enforce_genus=not allow_out_of_range)
    base = derived_slope_bound(replace(spec, s=0, t=0), allow_out_of_range)
    baseline_at_g = base.derived_bound(spec.g)
    q, strict, chain = _c2_chain(spec)
    coeff, corr = q(spec.g), _correction(spec)
    (kf2_0, chif_0), (kf2_lead, chif_lead) = _affine_parts(spec, spec.g, coeff)

    rows = []
    for c1sq in sorted({Fraction(x) for x in c1sq_grid}):
        kf2, chif = kf2_0 + kf2_lead * c1sq, chif_0 + chif_lead * c1sq
        sl = kf2 / chif if chif > 0 else None
        verdict = ("inadmissible" if sl is None else "below" if sl < baseline_at_g
                   else "equal" if sl == baseline_at_g else "above")
        rows.append(BlowupRow(c1sq, coeff * (c1sq + corr), kf2, chif, sl, verdict))
    slopes = [r.slope for r in rows if r.slope is not None]
    if not slopes:
        raise ScenarioError("empty admissible grid: chi_f > 0 nowhere on it")
    limit = kf2_lead / chif_lead
    admissible_from = -chif_0 / chif_lead if chif_lead > 0 else None
    return BlowupReport(spec, tuple(rows), base.derived_bound, baseline_at_g,
                        min(slopes), limit, admissible_from, strict, chain)
