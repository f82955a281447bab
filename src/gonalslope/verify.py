"""Self-contained invariant suite covering every module, run by the CLI.

Each check is a named nullary function that raises AssertionError on
failure.  Randomness is seeded, so a run is deterministic; all
comparisons are exact.  Every check draws from its own ``_Rng``, whose
``randint`` returns what ``random.Random.randint`` returns from the same
state, straight from ``getrandbits``.  Random classes and rational
functions are drawn as (numerator, denominator) int pairs, in the order
one ``_rat`` call per entry draws them, and go straight into integer
storage over the denominators' lcm: no Fraction is built for them.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from . import bounds, chern, chow, grr, ratcalc, slope
from .ratcalc import G, RatFunc

_SEED = 20240

ALL_SCENARIOS = (
    bounds.ScenarioSpec(3, 5, "index_only"),
    bounds.ScenarioSpec(3, 11, "general_odd"),
    bounds.ScenarioSpec(3, 12, "general_even"),
    bounds.ScenarioSpec(4, 10, "index_only"),
    bounds.ScenarioSpec(4, 11, "general_odd"),
    bounds.ScenarioSpec(4, 10, "general_even"),
    bounds.ScenarioSpec(4, 13, "nonfactorizing"),
    bounds.ScenarioSpec(4, 20, "factorizing", gamma=2),
)


def _randint(rng: random.Random, a: int, b: int) -> int:
    """rng.randint(a, b) for any random.Random, from rng.getrandbits alone.

    It runs the rejection loop randrange runs, without randrange's argument
    handling, so it draws the same value and leaves rng in the same state.
    """
    n = b - a + 1
    if n < 1:
        raise ValueError(f"empty range for randint({a}, {b})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return a + r


class _Rng(random.Random):
    """The suite's generator: random.Random with the faster, equal randint."""

    randint = _randint


def _rat(rng: random.Random, lo: int = -30, hi: int = 30, den: int = 12) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _pairs(rng: random.Random, k: int, lo: int, hi: int, den: int) -> tuple[list, int]:
    """k (numerator, denominator) pairs and the denominators' lcm, drawn from
    rng.getrandbits alone as k _rat(rng, lo, hi, den) calls draw them."""
    bits, n = rng.getrandbits, hi - lo + 1
    kn, kd = n.bit_length(), den.bit_length()
    pairs, m = [], 1
    for _ in range(k):
        a = bits(kn)
        while a >= n:
            a = bits(kn)
        d = bits(kd)
        while d >= den:
            d = bits(kd)
        d += 1
        m = lcm(m, d)
        pairs.append((lo + a, d))
    return pairs, m


def _ratfunc(rng: random.Random) -> RatFunc:
    """A random RatFunc of numerator and denominator degree at most 3."""
    while True:
        num, m_num = _pairs(rng, _randint(rng, 1, 4), -9, 9, 4)
        den, m_den = _pairs(rng, _randint(rng, 1, 4), -9, 9, 4)
        if any(a for a, _ in den):
            m = lcm(m_num, m_den)
            return RatFunc([a * (m // d) for a, d in num], [a * (m // d) for a, d in den])


def _model(rng: random.Random) -> chow.SurfaceModel:
    return chow.SurfaceModel(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))


def _numclass(rng: random.Random, m: chow.SurfaceModel) -> chow.NumClass:
    """Entries t0, f, E'..., E''... drawn as _rat(rng) draws them, stored as ints over their lcm."""
    pairs, den = _pairs(rng, 2 + m.s + m.t, -30, 30, 12)
    return chow._new(m, (*(a * (den // d) for a, d in pairs),), den)


# -- ratcalc ---------------------------------------------------------------


def check_ratfunc_canonical():
    assert RatFunc((-1, 0, 1), (-1, 1)) == G + 1, "(g^2-1)/(g-1) should cancel"
    assert RatFunc((2, 2), (4,)) == (G + 1) / 2
    assert 24 * (G - 1) / (5 * G + 1) == RatFunc((-24, 24), (1, 5))
    f = _ratfunc(_Rng(_SEED + 0))
    again = RatFunc(f.num, f.den)
    assert f == again and f.num == again.num, "canonical form must be idempotent"


def check_ratfunc_eval_compose():
    rng = _Rng(_SEED + 1)
    done = 0
    while done < 1000:
        f, h = _ratfunc(rng), _ratfunc(rng)
        x = rng.randint(-50, 50)  # __call__ takes an int as it is
        try:
            expect = f(h(x))
            got = f.compose(h)(x)
        except ZeroDivisionError:
            continue
        assert got == expect, f"compose/eval mismatch at {x}: {got} vs {expect}"
        done += 1


def check_ratfunc_equality_by_sampling():
    rng = _Rng(_SEED + 2)
    for _ in range(200):
        f, h = _ratfunc(rng), _ratfunc(rng)
        n_pts = (len(f.num) + len(f.den) + len(h.num) + len(h.den)) + 1
        agree = True
        x, seen = 0, 0
        while seen < n_pts:
            try:
                if f(x) != h(x):
                    agree = False
                    break
                seen += 1
            except ratcalc.PoleError:
                pass
            x += 1
        assert (f == h) == agree, f"structural and sampled equality differ: {f} vs {h}"


# -- chow ------------------------------------------------------------------


def check_pairing_symmetric_bilinear():
    rng = _Rng(_SEED + 3)
    for _ in range(200):
        m = _model(rng)
        a, b, c = (_numclass(rng, m) for _ in range(3))
        lam = _rat(rng)
        assert chow.intersect(a, b) == chow.intersect(b, a)
        assert (chow.intersect(a + lam * c, b)
                == chow.intersect(a, b) + lam * chow.intersect(c, b))


def check_canonical_square_grid():
    for b in range(11):
        for s in range(11):
            for t in range(11):
                m = chow.SurfaceModel(b, s, t)
                k = chow.canonical_class(m)
                assert chow.intersect(k, k) == -8 * (b - 1) - s - t
                assert chow.chi_structure(m) == 1 - b


# -- chern -----------------------------------------------------------------


def check_sym2_splitting_oracle():
    rng = _Rng(_SEED + 4)
    for _ in range(1000):
        m = _model(rng)
        a, b = _numclass(rng, m), _numclass(rng, m)
        direct = chern.sym2(chern.BundleData(2, a + b, chow.intersect(a, b)))
        oracle = chern.sym2_roots_oracle(a, b)
        assert direct == oracle, f"splitting principle failed for roots {a}, {b}"


def check_chern_character_additive():
    rng = _Rng(_SEED + 5)

    def bundle(m):
        rank = rng.randint(1, 3)
        return chern.BundleData(rank, _numclass(rng, m),
                                0 if rank == 1 else _rat(rng))

    for _ in range(200):
        m = _model(rng)
        sub, quot = bundle(m), bundle(m)
        total = chern.whitney(sub, quot)
        assert (chern.chern_character(total)
                == chern.chern_character(sub) + chern.chern_character(quot))


# -- grr -------------------------------------------------------------------


def check_trigonal_rsq_routes():
    rng = _Rng(_SEED + 6)
    for _ in range(500):
        m = _model(rng)
        e = chern.BundleData(2, _numclass(rng, m), _rat(rng))
        assert grr.trigonal_rsq(e) == 2 * e.c1sq - 3 * e.c2


def check_fourgonal_rsq_routes():
    rng = _Rng(_SEED + 7)
    for _ in range(500):
        m = _model(rng)
        e = chern.BundleData(3, _numclass(rng, m), _rat(rng))
        f = chern.BundleData(2, e.c1, _rat(rng))
        rsq = grr.fourgonal_rsq(e, f)
        assert rsq == 2 * e.c1sq - 4 * e.c2 + f.c2
        back = grr.conics_kernel(e, rsq)
        assert back.c1 == e.c1 and back.c2 == f.c2, "conics sequence solve round-trip"


def check_blownup_c1_roundtrip():
    rng = _Rng(_SEED + 8)
    for _ in range(200):
        n = rng.choice((3, 4))
        g = rng.randint(grr.GENUS_FLOOR[n], 60)
        c1sq = _rat(rng, -40, 80)
        m = chow.SurfaceModel(rng.randint(0, 3),
                              0 if n == 3 else rng.randint(0, 4), rng.randint(0, 4))
        c1 = grr.blownup_c1(g, n, c1sq, m)
        assert chow.self_intersection(c1) == c1sq


def check_exceptional_solve():
    assert grr.exceptional_coefficients() == (-2, -3, -2)
    rng = _Rng(_SEED + 9)
    for _ in range(50):
        n = rng.choice((3, 4))
        g = rng.randint(grr.GENUS_FLOOR[n], 40)
        m = chow.SurfaceModel(rng.randint(0, 2),
                              0 if n == 3 else rng.randint(1, 3), rng.randint(1, 3))
        two_c1 = 2 * grr.blownup_c1(g, n, _rat(rng, 0, 60), m)
        for i in range(m.s):
            assert chow.intersect(two_c1, m.e_prime(i)) == grr.upstairs_pairing(n, "total_ram")
        for j in range(m.t):
            assert chow.intersect(two_c1, m.e_dprime(j)) == grr.upstairs_pairing(n, "index3")


# -- slope -----------------------------------------------------------------


def check_base_genus_independence():
    rng = _Rng(_SEED + 10)
    for _ in range(100):
        n = rng.choice((3, 4))
        g = rng.randint(grr.GENUS_FLOOR[n], 60)
        c1sq = Fraction(rng.randint(1, 60))
        c2, rsq = _rat(rng), _rat(rng)
        try:
            closed = slope.slope_general(g, n, c1sq, c2, rsq)
        except slope.ZeroChiError:
            continue
        for b in (0, 1, 2, 5):
            via = slope.slope_general_via_surface(g, n, c1sq, c2, rsq, b)
            assert (via.kf2, via.chif) == (closed.kf2, closed.chif), \
                f"base genus b={b} leaked into the invariants"


def check_blowup_degeneration():
    # the s = t = 0 bodies against the surface route on a rational base
    rng = _Rng(_SEED + 11)
    for _ in range(200):
        g = rng.randint(5, 60)
        c1sq, c2 = _rat(rng), _rat(rng)
        try:
            fin = slope.slope_trigonal_blowup(g, c1sq, c2, 0)
            via = slope.slope_general_via_surface(g, 3, c1sq, c2, 2 * c1sq - 3 * c2, 0)
        except slope.ZeroChiError:
            continue
        assert fin == via
        c2e, c2f = _rat(rng), _rat(rng)
        try:
            fin4 = slope.slope_fourgonal_blowup(g + 5, c1sq, c2e, c2f, 0, 0)
            via4 = slope.slope_general_via_surface(g + 5, 4, c1sq, c2e,
                                                   2 * c1sq - 4 * c2e + c2f, 0)
        except slope.ZeroChiError:
            continue
        assert fin4 == via4


def check_fourgonal_rearranged_route():
    rng = _Rng(_SEED + 12)
    for _ in range(200):
        g = rng.randint(10, 80)
        c1sq = Fraction(rng.randint(1, 80))
        c2f = _rat(rng, -10, 30)
        c2e = bounds.c2e_bound_fourgonal(c1sq, c2f)
        try:
            direct = slope.slope_fourgonal(g, c1sq, c2e, c2f)
        except slope.ZeroChiError:
            continue
        assert direct.slope == slope.fourgonal_rearranged(g, c1sq, c2f)


def check_fourgonal_rearranged_blowup_gap():
    # with blow-ups the rearranged display exceeds the direct quotient by
    # exactly 4*(chi blow-up terms)/chi_f
    rng = _Rng(_SEED + 13)
    for _ in range(100):
        g = rng.randint(10, 60)
        s, t = rng.randint(0, 3), rng.randint(0, 3)
        c1sq = Fraction(rng.randint(10, 90))
        c2f = _rat(rng, 0, 20)
        c2e = bounds.c2e_bound_fourgonal(c1sq, c2f)
        kf2, chif = slope.fourgonal_blowup_parts(g, c1sq, c2e, c2f, s, t)
        if not chif:
            continue
        extra = Fraction(3 * g, 2 * (g + 3)) * s + Fraction(g + 1, g + 3) * t
        direct = kf2 / chif
        displayed = slope.fourgonal_rearranged(g, c1sq, c2f, s, t)
        assert displayed - direct == 4 * extra / chif


def check_trigonal_blowup_monotone():
    rng = _Rng(_SEED + 14)
    done = 0
    while done < 500:
        g = rng.randint(5, 60)
        t = rng.randint(0, 4)
        c1sq = Fraction(6 * g * t, g - 3) + Fraction(rng.randint(1, 40), rng.randint(1, 4))
        hi = Fraction(g + 1, 2 * (g + 2)) * c1sq + Fraction(g, g + 2) * t
        d1 = Fraction(rng.randint(1, 30), rng.randint(1, 6))
        d2 = Fraction(rng.randint(0, 20), rng.randint(1, 6))
        c2 = hi - d1 - d2
        lo = slope.slope_trigonal_blowup(g, c1sq, c2, t)
        hi_inv = slope.slope_trigonal_blowup(g, c1sq, c2 + d2, t)
        assert hi_inv.slope >= lo.slope, \
            f"slope dropped when raising c2: g={g} t={t} c1sq={c1sq}"
        done += 1


def check_fourgonal_monotone_c2e():
    rng = _Rng(_SEED + 15)
    done = 0
    while done < 500:
        g = rng.randint(10, 80)
        c1sq = Fraction(rng.randint(1, 90))
        c2f = 2 * c1sq / (g + 3) + Fraction(rng.randint(1, 25), rng.randint(1, 5))
        hi = Fraction(g + 2, 2 * (g + 3)) * c1sq
        d1 = Fraction(rng.randint(1, 30), rng.randint(1, 6))
        d2 = Fraction(rng.randint(0, 20), rng.randint(1, 6))
        c2e = hi - d1 - d2
        lo = slope.slope_fourgonal(g, c1sq, c2e, c2f)
        hi_inv = slope.slope_fourgonal(g, c1sq, c2e + d2, c2f)
        assert hi_inv.slope >= lo.slope, \
            f"slope dropped when raising c2E: g={g} c1sq={c1sq} c2f={c2f}"
        done += 1


def check_moduli_identity():
    rng = _Rng(_SEED + 16)
    for _ in range(100):
        g = rng.randint(5, 50)
        try:
            inv = slope.slope_trigonal(g, _rat(rng), _rat(rng))
        except slope.ZeroChiError:
            continue
        md = slope.moduli_conversion(inv)
        assert md.s_b == 12 - inv.slope
        assert md.delta_b / inv.chif + inv.slope == 12
        assert md.lambda_b == inv.chif
    assert slope.harris_stankova_reference(2, 4) == 3
    assert slope.harris_stankova_reference(3) == 5 - 6 / G
    assert slope.harris_stankova_reference(4) == Fraction(16, 3) - 8 / G


# -- bounds ----------------------------------------------------------------


def check_derived_bounds_cancel_c1sq():
    # the cancellation certificate lives inside derived_slope_bound; run every case
    for sc in ALL_SCENARIOS:
        bounds.derived_slope_bound(sc)


def check_known_match_suite():
    matches = [bounds.ScenarioSpec(3, 5, "index_only"),
               bounds.ScenarioSpec(3, 11, "general_odd"),
               bounds.ScenarioSpec(3, 12, "general_even"),
               bounds.ScenarioSpec(4, 13, "nonfactorizing")]
    matches += [bounds.ScenarioSpec(4, 6 * gamma + 5, "factorizing", gamma=gamma)
                for gamma in range(2, 9)]
    for sc in matches:
        res = bounds.derived_slope_bound(sc)
        assert not res.discrepancy, \
            f"{sc.case} n={sc.n}: unexpected discrepancy {res.discrepancy}"


def check_known_discrepancies():
    odd = bounds.derived_slope_bound(bounds.ScenarioSpec(4, 11, "general_odd"))
    assert odd.derived_bound == 16 * (G - 1) / (3 * G + 1)
    assert odd.discrepancy == 16 / (3 * G + 1)
    even = bounds.derived_slope_bound(bounds.ScenarioSpec(4, 10, "general_even"))
    assert even.derived_bound == 16 * (G - 1) / (3 * G + 2)
    assert even.discrepancy(10) == Fraction(1, 30)


def check_bound_ordering():
    nonfact = bounds.derived_slope_bound(
        bounds.ScenarioSpec(4, 13, "nonfactorizing")).derived_bound
    odd = bounds.derived_slope_bound(
        bounds.ScenarioSpec(4, 11, "general_odd")).derived_bound
    even = bounds.derived_slope_bound(
        bounds.ScenarioSpec(4, 10, "general_even")).derived_bound
    for g in range(10, 501):
        general = odd if g % 2 else even
        assert general(g) > nonfact(g), f"ordering failed at g={g}"
        assert nonfact(g) > 4, f"nonfactorizing bound not above 4 at g={g}"


def check_elliptic_edge():
    res = bounds.derived_slope_bound(bounds.ScenarioSpec(4, 10, "factorizing", gamma=1))
    assert res.derived_bound == RatFunc.const(4)


def check_strictness_flags():
    expected = {
        (3, "index_only"): False, (3, "general_odd"): True, (3, "general_even"): False,
        (4, "index_only"): False, (4, "general_odd"): False, (4, "general_even"): True,
        (4, "nonfactorizing"): False, (4, "factorizing"): True,
    }
    for sc in ALL_SCENARIOS:
        res = bounds.derived_slope_bound(sc)
        assert res.strict == expected[(sc.n, sc.case)], \
            f"strictness flag for {sc.case} n={sc.n}"


def check_blowup_reports():
    rep = bounds.blowup_bound_report(bounds.ScenarioSpec(3, 5, "general_odd", t=1),
                                     [14, 20, 100, 1000])
    assert rep.limit == rep.baseline_at_g
    assert all(r.verdict == "below" for r in rep.rows if r.slope is not None)
    flat = bounds.blowup_bound_report(bounds.ScenarioSpec(4, 11, "general_odd"),
                                      [3, 14, 77])
    assert all(r.verdict == "equal" for r in flat.rows)
    # closed form of the substituted trigonal odd-case slope
    g, c1sq, t = 5, Fraction(14), 1
    row = [r for r in rep.rows if r.c1sq == 14][0]
    assert row.slope == Fraction((5 * g - 3) * 14 - 12 * (g + 1) * t,
                                 (g + 1) * 14 - 4 * t)


CHECKS = [
    ("ratfunc canonical form", check_ratfunc_canonical),
    ("ratfunc compose/eval consistency (1000 random)", check_ratfunc_eval_compose),
    ("ratfunc equality matches sampling", check_ratfunc_equality_by_sampling),
    ("pairing symmetry and bilinearity", check_pairing_symmetric_bilinear),
    ("canonical class square on (b,s,t) grid 0..10^3", check_canonical_square_grid),
    ("sym2 splitting-principle oracle (1000 random)", check_sym2_splitting_oracle),
    ("chern character additivity", check_chern_character_additive),
    ("trigonal R^2 dual routes (500 random)", check_trigonal_rsq_routes),
    ("fourgonal R^2 dual routes (500 random)", check_fourgonal_rsq_routes),
    ("blown-up c1 self-intersection round-trip", check_blownup_c1_roundtrip),
    ("exceptional coefficients (-2, -3, -2) and upstairs pairings", check_exceptional_solve),
    ("base genus independence", check_base_genus_independence),
    ("blow-up formulas degenerate at s=t=0", check_blowup_degeneration),
    ("fourgonal rearranged route agreement", check_fourgonal_rearranged_route),
    ("fourgonal rearranged blow-up gap identity", check_fourgonal_rearranged_blowup_gap),
    ("trigonal blow-up slope monotone in c2 (500 random)", check_trigonal_blowup_monotone),
    ("fourgonal slope monotone in c2E (500 random)", check_fourgonal_monotone_c2e),
    ("moduli conversion identities and reference profile", check_moduli_identity),
    ("c1^2 cancels in every derived bound", check_derived_bounds_cancel_c1sq),
    ("known-match suite: discrepancy 0", check_known_match_suite),
    ("known discrepancies 16/(3g+1) and 1/30 at g=10", check_known_discrepancies),
    ("bound ordering general > nonfactorizing > 4", check_bound_ordering),
    ("elliptic edge: factorizing(1) bound is 4", check_elliptic_edge),
    ("strictness flags per case", check_strictness_flags),
    ("blow-up report limits and verdicts", check_blowup_reports),
]


def run(out=print) -> list[str]:
    """Run every check; report one line each; return the failing names.

    Any exception counts as a failure: a crashed identity check is no
    better than a refuted one.  The checks are asserts, which python -O
    strips, so there the suite runs nothing and reports that as its failure.
    """
    if not __debug__:
        return ["python -O (or PYTHONOPTIMIZE) strips the checks' asserts; run without it"]
    failures = []
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:
            failures.append(name)
            out(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            out(f"ok   {name}")
    return failures
