"""Slope lower bounds per scenario: derivation, closed forms, comparison.

A scenario fixes the cover degree, fibre genus, a structural case tag and
optional blow-up counts.  Each case is a splitting type alpha <= beta with
alpha + beta = g+n-1, stated once in the table _MARONI by its Maroni
invariant m = beta - alpha.  The splitting gives a lower bound on the
relevant second Chern class; substituting that bound into the slope formulas
gives the derived bound as an exact rational function of g.  The stated
closed forms are kept separately, in _STATED, and never reused in the
derivation, so their difference is an honest discrepancy report.

A genus is checked against the case's rules first (ScenarioSpec.genus_problem)
and then against the degree's floor (genus_notes), the only rule that
--allow-out-of-range relaxes; a result computed below the floor carries a note.
"""
from __future__ import annotations

from fractions import Fraction

from .chow import Record
from .grr import GENUS_FLOOR, ScenarioError, blowup_correction, check_blowups
from .ratcalc import G, Rat, RatFunc, concrete, lift, over_lcm
from .slope import (check_genus, fourgonal_blowup_parts, slope_fourgonal,
                    slope_trigonal, trigonal_blowup_parts)

#: case -> degree -> (m = beta - alpha as a function of (g, gamma), is_floor),
#: or None for the degree-3 index route, which uses no splitting.  A case
#: applies to the degrees it lists; m is exact at integer or symbolic g.
_MARONI = {
    "index_only": {3: None,
                   4: (lambda g, gamma: g - 5, True)},  # only alpha >= 4 is known
    "general_odd": {3: (lambda g, gamma: 1, False), 4: (lambda g, gamma: 0, False)},
    "general_even": {3: (lambda g, gamma: 0, False), 4: (lambda g, gamma: 1, False)},
    "nonfactorizing": {4: (lambda g, gamma: (g + 3) / Fraction(3), True)},
    "factorizing": {4: (lambda g, gamma: g - 1 - 4 * gamma, False)},
}
CASES = tuple(_MARONI)

#: case -> degree -> the stated closed form as a function of gamma, keyed as
#: _MARONI is.  Transcribed from the statements; the derivation only compares.
_STATED = {
    "index_only": {3: lambda gamma: 24 * (G - 1) / (5 * G + 1),
                   4: lambda gamma: RatFunc.const(4)},
    "general_odd": {3: lambda gamma: 5 - 8 / (G + 1),
                    4: lambda gamma: Fraction(16, 3) - 16 / (3 * (3 * G + 1))},
    "general_even": {3: lambda gamma: 5 - 6 / G, 4: lambda gamma: Fraction(16, 3) - 8 / G},
    "nonfactorizing": {4: lambda gamma: 24 * (G - 1) / (5 * G + 3)},
    "factorizing": {4: lambda gamma: 4 + 4 * (gamma - 1) / (G - gamma)},
}


class SplittingType(Record, fields=("alpha", "beta")):
    """Splitting degrees 0 < alpha <= beta; the order is checked where both are numbers."""

    __slots__ = ()

    def __init__(self, alpha: Rat, beta: Rat):
        self._fill(lift(alpha), lift(beta))
        alpha, beta = concrete(self.alpha), concrete(self.beta)
        if None not in (alpha, beta) and not 0 < alpha <= beta:
            raise ValueError(f"need 0 < alpha <= beta, got ({self.alpha}, {self.beta})")

    def maroni(self) -> Rat:
        return self.beta - self.alpha


def weak_positivity_bound(st: SplittingType, c1sq) -> tuple[Rat, bool]:
    """Lower bound alpha/(2(alpha+beta)) * c1sq on c2, strict unless balanced."""
    coeff = st.alpha / (2 * (st.alpha + st.beta))
    return coeff * lift(c1sq), st.alpha != st.beta


def index_bound(n: int, c1sq) -> Rat:
    """Upper bound 4 c1^2 / n on R^2 for a degree-n cover (signature argument)."""
    if n < 2:
        raise ScenarioError(f"index bound needs degree >= 2, got {n}")
    return Fraction(4, n) * lift(c1sq)


def c2e_bound_fourgonal(c1sq, c2f):
    """c2(E) >= (c1^2 + c2(F))/4, from the index bound on R^2.

    Either argument may be symbolic; the result follows suit.
    """
    return (lift(c1sq) + lift(c2f)) / 4


def genus_notes(n: int, g: int, allow_out_of_range: bool) -> list[str]:
    """The floor, the one genus rule --allow-out-of-range relaxes: no notes from it
    up; below it a refusal, or with allow_out_of_range a note.  The degree rule
    (check_blowups) and check_genus come first."""
    check_blowups(n, 0, 0)
    check_genus(g)
    floor = GENUS_FLOOR[n]
    if g >= floor:
        return []
    if not allow_out_of_range:
        raise ScenarioError(f"genus {g} below floor {floor} for degree {n}; "
                            "pass --allow-out-of-range to compute anyway")
    return [f"out-of-range: genus {g} below floor {floor}"]


class ScenarioSpec(Record, fields=("n", "g", "case", "gamma", "s", "t")):
    """Cover degree, fibre genus, case tag, blow-up counts (s, t); form checked when made."""

    __slots__ = ()

    def __init__(self, n: int, g: int, case: str, gamma: int | None = None,
                 s: int = 0, t: int = 0):
        self._fill(n, g, case, gamma, s, t)
        if not (type(n) is type(g) is int and type(gamma) in (int, type(None))):
            raise ScenarioError(f"n, g and gamma must be integers, got n={n!r}, "
                                f"g={g!r}, gamma={gamma!r}")
        check_blowups(n, s, t)
        if case not in CASES:
            raise ScenarioError(f"unknown case {case!r}; choose from {CASES}")
        if n not in _MARONI[case]:
            degrees = " and ".join(map(str, _MARONI[case]))
            raise ScenarioError(f"case {case!r} applies to degree {degrees} only")
        if case == "factorizing":
            if gamma is None:
                raise ScenarioError("factorizing needs gamma")
            if gamma < 1:
                raise ScenarioError(f"gamma must be >= 1, got {gamma}")
        elif gamma is not None:
            raise ScenarioError(f"gamma is only meaningful for factorizing, got {case!r}")

    def validate(self, *, allow_out_of_range: bool = False) -> list[str]:
        """Raise ScenarioError unless g suits the spec, floor last; return the floor notes."""
        problem = self.genus_problem()
        if problem:
            raise ScenarioError(problem)
        return genus_notes(self.n, self.g, allow_out_of_range)

    def genus_problem(self, g: int | None = None) -> str | None:
        """Why genus g (by default the spec's own) breaks a rule no flag relaxes, or None."""
        g = self.g if g is None else g
        try:
            check_genus(g)
        except ValueError as exc:
            return str(exc)
        if self.case == "factorizing" and 6 * self.gamma + 3 >= g:
            return f"factorizing needs gamma < (g-3)/6: gamma={self.gamma}, g={g}"
        maroni, is_floor = _MARONI[self.case][self.n] or (None, True)
        d = g + self.n - 1
        if not is_floor and (d - maroni(g, self.gamma)) % 2:
            # an exact alpha = (g+n-1-m)/2 is integral only at one parity of g
            return f"{self.case} needs {'even' if g % 2 else 'odd'} g, got {g}"
        if maroni:
            alpha = self._integral_alpha(g)
            if alpha > d - alpha:
                return f"{self.case} splitting needs alpha <= beta, got ({alpha}, {d - alpha})"
            if self.n == 4 and alpha < 4:
                return f"degree-4 splitting needs alpha >= 4, got {alpha}"
        return None

    def _integral_alpha(self, g: int) -> int:
        """The integral alpha at genus g: (g+n-1-m)/2, rounded up where m is a floor."""
        maroni, _ = _MARONI[self.case][self.n]
        return -((maroni(g, self.gamma) - (g + self.n - 1)) // 2)


def splitting_for_scenario(spec: ScenarioSpec) -> SplittingType | None:
    """Integral splitting type attached to the case, or None where it has none.

    alpha is spec._integral_alpha, rounded up where the case only pins a
    floor; the bound coefficient keeps the exact rational floor.  A type
    that cannot exist is refused by spec.validate at any genus.
    """
    spec.validate(allow_out_of_range=True)
    if _MARONI[spec.case][spec.n] is None:
        return None
    alpha = spec._integral_alpha(spec.g)
    return SplittingType(alpha, spec.g + spec.n - 1 - alpha)


def _splitting(spec: ScenarioSpec, g):
    """(alpha, beta, is_floor) at genus g; None for the trigonal index case.

    alpha + beta = g+n-1 is the fibre degree and beta - alpha the case's
    Maroni invariant m.  g is an int or symbolic; halving by a Fraction keeps
    both exact.
    """
    entry = _MARONI[spec.case][spec.n]
    if entry is None:
        return None
    maroni, is_floor = entry
    d = g + (spec.n - 1)
    alpha = Fraction(1, 2) * (d - maroni(g, spec.gamma))
    return alpha, d - alpha, is_floor


def _c2_chain(spec: ScenarioSpec):
    """The case's c2 lower bound: (q in Q(g), correction, strict, chain text, target).

    The bound reads target >= q * (c1^2 + correction); the degree-4 target
    c2(F) reaches c2(E) through the quarter bound.  The index route uses no
    splitting and keeps its bare c1^2, so its correction is 0.
    """
    target = "c2(E)" if spec.n == 3 else "c2(F)"
    split = _splitting(spec, G)
    if split is None:
        # R^2 <= (4/3) c1^2 with R^2 = 2 c1^2 - 3 c2 forces the coefficient
        rsq_max = index_bound(3, 1)
        q = (2 - rsq_max) / 3 + 0 * G
        return q, Fraction(0), False, (f"R^2 <= {rsq_max} * c1^2 with R^2 = 2*c1^2 - 3*c2(E)",
                                       f"{target} >= [{q}] * c1^2"), target
    corr = blowup_correction(spec.n, spec.s, spec.t)
    alpha, beta, is_floor = split
    q, unbalanced = weak_positivity_bound(SplittingType(alpha, beta), 1)
    strict = unbalanced and not is_floor  # a floor on alpha leaves the type open
    if is_floor:
        origin = f"splitting floor alpha >= {alpha} out of alpha + beta = {alpha + beta}"
    else:
        origin = f"splitting alpha = {alpha} and beta = {beta}"
    rel = ">" if strict else ">="
    inside = "c1^2"
    if corr:
        if spec.n == 4:
            inside += f" + {blowup_correction(4, 1, 0)}s"
        inside += f" + {blowup_correction(spec.n, 0, 1)}t"
    lines = [origin, f"{target} {rel} [{q}] * ({inside})"]
    if spec.n == 4:
        lines.append("c2(E) >= (c1^2 + c2(F))/4")
    return q, corr, strict, tuple(lines), target


class C2Bound(Record, fields=("target", "value", "coefficient", "correction", "strict")):
    """A concrete c2 lower bound value q*(c1^2 + correction) at one input."""

    __slots__ = ()


def c2_bounds_blowup(spec: ScenarioSpec, c1sq) -> C2Bound:
    """Evaluate the case's c2 lower bound at a concrete c1^2."""
    spec.validate(allow_out_of_range=True)
    q, corr, strict, _, target = _c2_chain(spec)
    coeff = q(spec.g)
    return C2Bound(target, coeff * (lift(c1sq) + corr), coeff, corr, strict)


class BoundResult(Record, fields=("scenario", "c2_coefficient", "correction", "strict",
                                  "derived_bound", "stated_bound", "discrepancy", "chain",
                                  "notes", "samples")):
    """Derived slope lower bound for a scenario, next to its stated closed form."""

    __slots__ = ()


def stated_closed_form(spec: ScenarioSpec) -> RatFunc:
    """The claimed closed form for the scenario's bound, transcribed verbatim."""
    spec.validate(allow_out_of_range=True)
    return _STATED[spec.case][spec.n](spec.gamma)


def _substituted(spec: ScenarioSpec, g, c1sq, c2):
    """(K_f^2, chi_f) at c1^2 once the c2 bound value c2 is substituted.

    Degree 3 takes c2 as c2(E); degree 4 takes it as c2(F) and reaches c2(E)
    through c2e_bound_fourgonal.
    """
    if spec.n == 3:
        return trigonal_blowup_parts(g, c1sq, c2, spec.t)
    return fourgonal_blowup_parts(g, c1sq, c2e_bound_fourgonal(c1sq, c2), c2, spec.s, spec.t)


def _derived(spec: ScenarioSpec, q: RatFunc) -> RatFunc:
    """The slope over Q(g) at c1^2 = 1 once the c2 bound q*c1^2 is in.

    Both constant terms of the substituted K_f^2 and chi_f must vanish, which
    certifies that c1^2 cancels; the degree-4 slope also runs the
    fourgonal_rearranged self-check.
    """
    const = _substituted(spec, G, 0, 0)
    if any(const):
        raise AssertionError(f"c1^2 failed to cancel for {spec}: constant terms {const}")
    return (slope_trigonal(G, 1, q) if spec.n == 3
            else slope_fourgonal(G, 1, c2e_bound_fourgonal(1, q), q)).slope


def derived_slope_bound(spec: ScenarioSpec, allow_out_of_range: bool = False) -> BoundResult:
    """Substitute the case's c2 bound into the slope and simplify over Q(g).

    The bound is _derived: the slope at c1^2 = 1, certified to cancel c1^2.
    Blow-up scenarios do not cancel c1^2 and belong to blowup_bound_report
    instead.
    """
    notes = spec.validate(allow_out_of_range=allow_out_of_range)
    if spec.s or spec.t:
        raise ScenarioError("c1^2 does not cancel once s or t is positive; "
                            "use blowup_bound_report, or the report subcommand")
    q, corr, strict, chain, _ = _c2_chain(spec)
    derived = _derived(spec, q)
    stated = _STATED[spec.case][spec.n](spec.gamma)  # spec validated above
    disc = stated - derived
    if disc:
        notes.append(f"stated form differs from the derivation by {disc}")
    if strict:
        notes.append("derived bound is strict (unbalanced splitting)")
    return BoundResult(spec, q(spec.g), corr, strict, derived,
                       stated, disc, chain, tuple(notes), ())


def compare(spec: ScenarioSpec, allow_out_of_range: bool = False) -> BoundResult:
    """derived_slope_bound plus both bounds at the sample genera g, g+2, g+20, g+200."""
    res = derived_slope_bound(spec, allow_out_of_range)
    genera = [spec.g + off for off in (0, 2, 20, 200)]
    return res.replace(samples=tuple((g, res.derived_bound(g), res.stated_bound(g))
                                     for g in genera))


# -- blow-up reports: c1^2 no longer cancels, so sweep it over a grid --------


class BlowupRow(Record, fields=("c1sq", "c2_bound", "kf2", "chif", "slope", "verdict")):
    """One grid point; the verdict is below, equal, above or inadmissible."""

    __slots__ = ()


class BlowupReport(Record, fields=("scenario", "rows", "baseline", "baseline_at_g", "minimum",
                                   "limit", "admissible_from", "strict", "chain", "notes")):
    __slots__ = ()


def blowup_bound_report(spec: ScenarioSpec, c1sq_grid,
                        allow_out_of_range: bool = False) -> BlowupReport:
    """Evaluate the substituted slope over a c1^2 grid and compare with s = t = 0.

    K_f^2 and chi_f are affine in c1^2; each admissible grid point (chi_f > 0)
    is tagged below/equal/above the blown-down baseline.  The report also
    carries the exact c1^2 -> infinity limit, which recovers that baseline.
    q and strictness do not read s or t, so one c2 chain serves both the
    rows and the baseline, which _derived certifies as derived_slope_bound
    does.  The rows are computed in integers: each affine part is two
    numerators over one denominator (ratcalc.over_lcm), a grid point p/r
    gives one Fraction per cell, chi_f > 0 is a sign test on its numerator,
    and the verdict is a cross-multiplication against the baseline at g.
    The grid, read by ratcalc.concrete, is sorted and deduplicated as its
    integer numerators over its lcm: sorting the lifted Fractions measured
    about 5% slower on the benchmark's blowup-grid workload.
    """
    base_spec = spec.replace(s=0, t=0)
    notes = base_spec.validate(allow_out_of_range=allow_out_of_range)  # reads neither s nor t
    q, corr, strict, chain, _ = _c2_chain(spec)
    baseline = _derived(base_spec, q)
    baseline_at_g = baseline(spec.g)
    coeff = q(spec.g)
    kf2_0, chif_0 = _substituted(spec, spec.g, 0, coeff * corr)
    kf2_1, chif_1 = _substituted(spec, spec.g, 1, coeff * (1 + corr))
    kf2_lead, chif_lead = kf2_1 - kf2_0, chif_1 - chif_0
    (k0, k1), kd = over_lcm(x.as_integer_ratio() for x in (kf2_0, kf2_lead))
    (x0, x1), xd = over_lcm(x.as_integer_ratio() for x in (chif_0, chif_lead))
    (b0, b1), bd = over_lcm(x.as_integer_ratio() for x in (coeff * corr, coeff))
    # slope = kn*xd / (xn*kd) against the baseline B = u/v: kn*xd*v vs u*kd*xn
    k_scale, x_scale = xd * baseline_at_g.denominator, kd * baseline_at_g.numerator

    points = []
    for x in c1sq_grid:
        if (value := concrete(x)) is None:
            raise ScenarioError(f"c1^2 grid point {x} is a function of g, not a number")
        points.append(lift(value))
    keys, _ = over_lcm(x.as_integer_ratio() for x in points)
    by_key = dict(zip(keys, points))
    rows = []
    for c1sq in map(by_key.__getitem__, sorted(by_key)):
        p, r = c1sq.numerator, c1sq.denominator  # each cell is (n0*r + n1*p) / (den*r)
        kn, xn = k0 * r + k1 * p, x0 * r + x1 * p
        if xn > 0:
            sl = Fraction(kn * xd, xn * kd)
            left, right = kn * k_scale, xn * x_scale
            verdict = "below" if left < right else "equal" if left == right else "above"
        else:
            sl, verdict = None, "inadmissible"
        rows.append(BlowupRow(c1sq, Fraction(b0 * r + b1 * p, bd * r),
                              Fraction(kn, kd * r), Fraction(xn, xd * r), sl, verdict))
    slopes = [r.slope for r in rows if r.slope is not None]
    if not slopes:
        raise ScenarioError("empty admissible grid: chi_f > 0 nowhere on it")
    limit = kf2_lead / chif_lead
    admissible_from = -chif_0 / chif_lead if chif_lead > 0 else None
    return BlowupReport(spec, tuple(rows), baseline, baseline_at_g,
                        min(slopes), limit, admissible_from, strict, chain, tuple(notes))
