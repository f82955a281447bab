"""Pushforward identities, R^2 solves, and blow-up bookkeeping."""
from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import product

import pytest

import gonalslope
from gonalslope import bounds, grr
from gonalslope.bounds import (ScenarioSpec, c2_bounds_blowup, c2e_bound_fourgonal,
                               derived_slope_bound)
from gonalslope.chern import BundleData, sym2
from gonalslope.chow import NumClass, SurfaceModel, canonical_class, intersect, self_intersection
from gonalslope.grr import (ScenarioError, blownup_c1, blowup_correction,
                            c1_decomposition, check_blowups, chi_total_space, conics_kernel,
                            exceptional_coefficient, exceptional_coefficients,
                            fourgonal_rsq, push_2r_bundle, push_ramification,
                            trigonal_rsq, upstairs_pairing)
from gonalslope.ratcalc import G, RatFunc
from gonalslope.slope import (fourgonal_blowup_parts, fourgonal_rearranged,
                              slope_fourgonal_blowup, slope_general,
                              slope_general_via_surface, slope_trigonal_blowup,
                              trigonal_blowup_parts)
from gonalslope.verify import ALL_SCENARIOS


def rand_bundle(rng: random.Random, rank: int, m: SurfaceModel) -> BundleData:
    q = lambda: Fraction(rng.randint(-15, 15), rng.randint(1, 4))
    c1 = m.zero() + q() * m.t0() + q() * m.f()
    for i in range(m.s):
        c1 = c1 + q() * m.e_prime(i)
    for j in range(m.t):
        c1 = c1 + q() * m.e_dprime(j)
    return BundleData(rank, c1, q())


@pytest.mark.parametrize("n,kind,value", [
    (3, "index3", 4),
    (4, "total_ram", 6),
    (4, "index3", 4),
])
def test_upstairs_pairing_table(n, kind, value):
    assert upstairs_pairing(n, kind) == value


def test_upstairs_pairing_rejects_unsupported():
    with pytest.raises(ValueError):
        upstairs_pairing(3, "total_ram")
    with pytest.raises(ValueError):
        upstairs_pairing(5, "index3")


def test_push_ramification_is_twice_c1():
    m = SurfaceModel(1)
    e = BundleData(2, m.t0() + 3 * m.f(), 2)
    assert push_ramification(e) == 2 * e.c1


def test_chi_total_space_pin():
    # b = 0 model: chi(O_Y) = 1, K_Y = -2T0 - 2F
    m = SurfaceModel(0)
    e = BundleData(2, 5 * m.t0() + 3 * m.f(), 4)
    # 3*1 + (-16)/2 + 30/2 - 4
    assert chi_total_space(3, e) == 6
    assert chi_total_space(4, e) == 7


def test_push_2r_bundle_pin():
    m = SurfaceModel(0)
    e = BundleData(2, 5 * m.t0() + 3 * m.f(), 4)
    p = push_2r_bundle(3, e, rsq=Fraction(11))
    assert p.rank == 3
    assert p.c1 == 3 * e.c1
    assert p.c2 == 4 * 30 + 4 - 11


def test_trigonal_rsq_closed_form():
    rng = random.Random(67)
    for _ in range(200):
        m = SurfaceModel(rng.randint(0, 2), 0, rng.randint(0, 3))
        e = rand_bundle(rng, 2, m)
        assert trigonal_rsq(e) == 2 * e.c1sq - 3 * e.c2
    with pytest.raises(ValueError):
        trigonal_rsq(rand_bundle(rng, 3, SurfaceModel()))


def test_fourgonal_rsq_closed_form():
    rng = random.Random(71)
    for _ in range(200):
        m = SurfaceModel(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
        e = rand_bundle(rng, 3, m)
        f = BundleData(2, e.c1, Fraction(rng.randint(-9, 9), 2))
        assert fourgonal_rsq(e, f) == 2 * e.c1sq - 4 * e.c2 + f.c2


def test_fourgonal_rsq_input_guards():
    m = SurfaceModel()
    e = BundleData(3, m.t0() + m.f(), 1)
    with pytest.raises(ValueError):
        fourgonal_rsq(BundleData(2, m.t0(), 0), BundleData(2, m.t0(), 0))
    with pytest.raises(ValueError):
        fourgonal_rsq(e, BundleData(2, 2 * e.c1, 0))  # c1 mismatch


def test_conics_kernel_inverts_rsq_solve():
    rng = random.Random(73)
    for _ in range(100):
        m = SurfaceModel(rng.randint(0, 2))
        e = rand_bundle(rng, 3, m)
        f = BundleData(2, e.c1, Fraction(rng.randint(-9, 9), 4))
        back = conics_kernel(e, fourgonal_rsq(e, f))
        assert back == f


def test_c1_decomposition():
    m = SurfaceModel(2)
    c1 = c1_decomposition(5, 3, Fraction(14), m)
    assert c1.t0 == 7 and c1.f == Fraction(14, 14) == 1
    assert self_intersection(c1) == 14
    with pytest.raises(ValueError):
        c1_decomposition(5, 3, 14, SurfaceModel(0, 0, 1))
    with pytest.raises(ValueError, match=r"fibre degree g\+n-1 = -1 must be positive"):
        c1_decomposition(-3, 3, 1, SurfaceModel())


@pytest.mark.parametrize("n", (3, 4))
def test_c1_decomposition_at_symbolic_genus(n):
    for c1sq in (1, Fraction(7, 3)):
        m = SurfaceModel(1)
        assert c1_decomposition(G, n, c1sq, m) == blownup_c1(G, n, c1sq, m)
        c2, rsq = Fraction(-2, 5), Fraction(3, 2)
        for b in (0, 1, 2):
            assert (slope_general_via_surface(G, n, c1sq, c2, rsq, b)
                    == slope_general(G, n, c1sq, c2, rsq)), (c1sq, b)


def test_exceptional_coefficients_solved():
    assert exceptional_coefficient(3, "index3") == -2
    assert exceptional_coefficient(4, "total_ram") == -3
    assert exceptional_coefficient(4, "index3") == -2
    assert exceptional_coefficients() == (-2, -3, -2)


def test_blowup_correction_sums_squared_coefficients():
    assert blowup_correction(3, 0, 2) == 8
    assert blowup_correction(4, 1, 0) == 9
    assert blowup_correction(4, 1, 2) == 17
    assert blowup_correction(4, 0, 0) == 0
    with pytest.raises(ValueError, match="degree must be 3 or 4"):
        blowup_correction(5, 0, 1)
    with pytest.raises(ValueError, match="no total-ramification"):
        blowup_correction(3, 1, 0)


def test_scenario_error_has_one_home():
    assert gonalslope.ScenarioError is bounds.ScenarioError is grr.ScenarioError
    assert issubclass(ScenarioError, ValueError)


def test_check_blowups_accepts_counts():
    for n, s, t in ((3, 0, 0), (3, 0, 5), (4, 0, 0), (4, 2, 3)):
        check_blowups(n, s, t)
    with pytest.raises(ScenarioError, match="degree must be 3 or 4"):
        check_blowups(5, 0, 0)


#: the blow-up gate and the grr entries built on it, as a call with the degree set to x
DEGREE_ENTRIES = {
    "check_blowups": lambda x: check_blowups(x, 0, 0),
    "blowup_correction": lambda x: blowup_correction(x, 0, 1),
    "blownup_c1": lambda x: blownup_c1(10, x, 1, SurfaceModel(0, 0, 1)),
}


@pytest.mark.parametrize("bad", (4.0, Fraction(3), True), ids=repr)
@pytest.mark.parametrize("entry", DEGREE_ENTRIES)
def test_degree_gated_as_an_int(entry, bad):
    DEGREE_ENTRIES[entry](4)  # the int degree is fine
    with pytest.raises(ScenarioError, match=f"degree must be 3 or 4, got {re.escape(repr(bad))}"):
        DEGREE_ENTRIES[entry](bad)


#: every public entry taking blow-up counts, as a call with one count set to x
BLOWUP_ENTRIES = {
    "slope_trigonal_blowup": lambda x: slope_trigonal_blowup(7, 14, 3, x),
    "trigonal_blowup_parts": lambda x: trigonal_blowup_parts(7, 14, 3, x),
    "slope_fourgonal_blowup.s": lambda x: slope_fourgonal_blowup(11, 20, 9, 6, x, 1),
    "slope_fourgonal_blowup.t": lambda x: slope_fourgonal_blowup(11, 20, 9, 6, 1, x),
    "fourgonal_blowup_parts.s": lambda x: fourgonal_blowup_parts(11, 20, 9, 6, x, 1),
    "fourgonal_blowup_parts.t": lambda x: fourgonal_blowup_parts(11, 20, 9, 6, 1, x),
    "fourgonal_rearranged.s": lambda x: fourgonal_rearranged(11, 20, 6, x, 1),
    "fourgonal_rearranged.t": lambda x: fourgonal_rearranged(11, 20, 6, 1, x),
    "blowup_correction.s": lambda x: blowup_correction(4, x, 1),
    "blowup_correction.t": lambda x: blowup_correction(4, 1, x),
    "ScenarioSpec.validate.s": lambda x: ScenarioSpec(4, 11, "general_odd", s=x).validate(),
    "ScenarioSpec.validate.t": lambda x: ScenarioSpec(3, 11, "general_odd", t=x).validate(),
}


@pytest.mark.parametrize("bad", (-1, Fraction(1, 2), True), ids=repr)
@pytest.mark.parametrize("entry", BLOWUP_ENTRIES)
def test_blowup_counts_gated_at_every_entry(entry, bad):
    BLOWUP_ENTRIES[entry](1)  # a count of 1 is fine
    with pytest.raises(ScenarioError, match="nonnegative"):
        BLOWUP_ENTRIES[entry](bad)


def test_blownup_c1_roundtrip_and_pairings():
    rng = random.Random(79)
    for _ in range(100):
        n = rng.choice((3, 4))
        g = rng.randint(5, 40)
        m = SurfaceModel(rng.randint(0, 2), 0 if n == 3 else rng.randint(0, 3),
                         rng.randint(0, 3))
        c1sq = Fraction(rng.randint(-30, 60), rng.randint(1, 3))
        c1 = blownup_c1(g, n, c1sq, m)
        assert self_intersection(c1) == c1sq
        assert c1.t0 == g + n - 1
        two = 2 * c1
        for i in range(m.s):
            assert intersect(two, m.e_prime(i)) == 6
        for j in range(m.t):
            assert intersect(two, m.e_dprime(j)) == 4


def test_blownup_c1_guards():
    with pytest.raises(ValueError):
        blownup_c1(5, 3, 1, SurfaceModel(0, 1, 0))
    with pytest.raises(ValueError):
        blownup_c1(5, 5, 1, SurfaceModel())
    with pytest.raises(ValueError, match=r"^fibre degree g\+n-1 = -1 must be positive$"):
        blownup_c1(-3, 3, 14, SurfaceModel(0, 0, 1))


# -- Q(g) classes specialise to the same call made at a concrete genus ----------


def _at(x, g):
    """x with the genus set to g, entry by entry through bundles and classes."""
    if isinstance(x, BundleData):
        return BundleData(x.rank, _at(x.c1, g), _at(x.c2, g))
    if isinstance(x, NumClass):
        return NumClass(x.model, _at(x.t0, g), _at(x.f, g), [_at(e, g) for e in x.ep],
                        [_at(e, g) for e in x.epp])
    return x(g) if type(x) is RatFunc else x


@pytest.mark.parametrize("n,b,s,t", [(3, 1, 0, 60), (4, 2, 60, 60), (4, 0, 3, 1)])
def test_q_of_g_classes_specialise_to_the_concrete_call(n, b, s, t):
    m = SurfaceModel(b, s, t)
    k = canonical_class(m)

    def derive(g):
        """Every class and number the GRR routes build from c1 at genus g."""
        c1 = blownup_c1(g, n, Fraction(7, 3), m)
        e = BundleData(n - 1, c1, (g + 1) * Fraction(1, 3))
        out = [c1, 3 * c1 - k + g * c1, intersect(c1, k), sym2(e), chi_total_space(n, e)]
        if n == 3:
            return out + [trigonal_rsq(e)]
        f = BundleData(2, c1, g * Fraction(1, 2) - 1)
        rsq = fourgonal_rsq(e, f)
        return out + [rsq, conics_kernel(e, rsq)]

    symbolic = derive(G)
    assert type(symbolic[2]) is RatFunc
    for g in (grr.GENUS_FLOOR[n], grr.GENUS_FLOOR[n] + 1, 37):
        assert [_at(x, g) for x in symbolic] == derive(g)


# -- the slope layer's transcribed closed forms against grr over Q(g) ----------


@pytest.mark.parametrize("n", (3, 4))
def test_blowup_parts_are_what_grr_derives(n):
    """(K_f^2, chi_f) in slope equal (R^2 + 4 c1.K_Y, chi(O_S)) from grr at symbolic g.

    On a base of genus 1 the twist (g-1)(b-1) is 0, so K_f^2 = R^2 + 4 c1.K_Y
    with c1.K_Y taken on the unblown model, and chi_f = chi(O_S) on the
    blown-up one; R^2 comes from the Sym^2 routes.
    """
    base = SurfaceModel(1)
    c2fs, ss = ((0, 3), range(3)) if n == 4 else ((None,), (0,))
    for c1sq, c2, c2f, s, t in product((1, Fraction(7, 3)), (0, Fraction(-2, 5)),
                                       c2fs, ss, range(4)):
        e = BundleData(n - 1, blownup_c1(G, n, c1sq, SurfaceModel(1, s, t)), c2)
        c1_ky = intersect(blownup_c1(G, n, c1sq, base), canonical_class(base))
        if n == 3:
            rsq, parts = trigonal_rsq(e), trigonal_blowup_parts(G, c1sq, c2, t)
        else:
            rsq = fourgonal_rsq(e, BundleData(2, e.c1, c2f))
            parts = fourgonal_blowup_parts(G, c1sq, c2, c2f, s, t)
        assert all(isinstance(x, RatFunc) for x in parts)
        assert parts == (rsq + 4 * c1_ky, chi_total_space(n, e)), (c1sq, c2, c2f, s, t)


@pytest.mark.parametrize("spec", ALL_SCENARIOS, ids=lambda sc: f"{sc.n}-{sc.case}")
def test_via_surface_at_bound_equality_gives_the_derived_bound(spec):
    """With c2 at equality in the case's bound and R^2 from grr, the slope on a
    base of genus b is the derived bound at g, whatever b and c1^2."""
    g, n = spec.g, spec.n
    bound = derived_slope_bound(spec).derived_bound(g)
    for b, c1sq in product((0, 1, 2), (1, 14, 1000)):
        c2 = c2_bounds_blowup(spec, c1sq).value
        c1 = c1_decomposition(g, n, c1sq, SurfaceModel(b))
        if n == 3:
            c2e, rsq = c2, trigonal_rsq(BundleData(2, c1, c2))
        else:
            c2e = c2e_bound_fourgonal(c1sq, c2)
            rsq = fourgonal_rsq(BundleData(3, c1, c2e), BundleData(2, c1, c2))
        assert slope_general_via_surface(g, n, c1sq, c2e, rsq, b).slope == bound, (b, c1sq)
