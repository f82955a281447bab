"""Relative invariants and slope of a fibred surface from cover data.

All formulas work uniformly over exact rationals and over RatFunc, so a
genus can be left symbolic.  K_f^2 and chi_f are written once, in _parts,
as ring operations on the (numerator, denominator) pairs of ratcalc.pair
with one division each: in integers at a concrete genus, on integer
polynomials for a Q(g) derivation, so each output takes one canonical
form.  fourgonal_rearranged and harris_stankova_reference are written the
same way; _ratio forms every slope and is the one place chi_f = 0 is an
error.  A concrete genus must be positive (check_genus), so must the fibre
degree g+n-1 (grr._fibre_degree), and a concrete cover degree must be at
least 2 (grr.check_degree).  The degree-3 and degree-4 blow-up parts only
supply R^2, and the s = t = 0 entry points delegate to the blow-up ones.
"""
from __future__ import annotations

from .chern import BundleData
from .chow import Record, SurfaceModel, canonical_class, intersect
from .grr import _fibre_degree, c1_decomposition, check_blowups, check_degree, chi_total_space
from .ratcalc import G, concrete, lift, pair, ratio


class ZeroChiError(ZeroDivisionError):
    """chi_f vanished; the slope is undefined."""


def _ratio(kf2, chif):
    if not chif:
        raise ZeroChiError("chi_f = 0")
    return ratio(kf2, chif)


class FibrationInvariants(Record, fields=("kf2", "chif", "slope")):
    """K_f^2, chi_f and their quotient; entries are Rat or RatFunc."""

    __slots__ = ()

    def warning(self) -> str | None:
        """Flag a numeric slope outside the admissible interval (0, 12], else a negative chi_f."""
        slope, chif = concrete(self.slope), concrete(self.chif)
        if slope is not None and not 0 < slope <= 12:
            return f"slope {self.slope} outside (0, 12]"
        if chif is not None and chif < 0:
            return f"chi_f {self.chif} is negative"
        return None


class ModuliData(Record, fields=("s_b", "delta_b", "lambda_b")):
    """Divisor-class coordinates: s_B = 12 - slope, delta.B, lambda.B = chi_f."""

    __slots__ = ()


def moduli_conversion(inv: FibrationInvariants) -> ModuliData:
    """12 lambda.B = K_f^2 + delta.B and lambda.B = chi_f pin all three."""
    return ModuliData(12 - inv.slope, 12 * inv.chif - inv.kf2, inv.chif)


def _parts(g, n: int, c1sq, c2, rsq, s=0, t=0):
    """(K_f^2, chi_f) of a degree-n cover fibration, s E' and t E'' blown down.

    K_f^2 = R^2 - 4c1^2/(g+n-1) and
    chi_f = ((g+n-2)c1^2 + 3gs + 2(g+n-3)t) / (2(g+n-1)) - c2.
    With g = u/v, n = m/w, c1^2 = a/A, c2 = b/B and R^2 = r/R as
    ratcalc.pair gives them, g = h/W and n = N/W over W = vw, and
    d = h + N - W, so g+n-1 = d/W:
    K_f^2 = (rAd - 4aRW)/(RAd) and
    chi_f = (((d-W)a + (3hs + 2(d-2W)t)A)B - 2dAb)/(2dAB),
    each brought to lowest terms once by ratcalc.ratio.  Where every input
    is a number (a constant RatFunc is one) the pairs are ints and each
    output is one Fraction; otherwise they are integer polynomials and each
    output is one canonical RatFunc.

    One body serves both routes.  On RatFunc ring elements it cost
    genus-sweep 9-10% of its pass time, as each operation normalised its
    own result.  On the pairs the derivation's calls at g = G take 21-27%
    less time than the per-operation route did, and a concrete call about
    0.2 us more, which is check_degree (CPython 3.11 on a 2-CPU container,
    best of 15 alternating in-process timings).
    """
    if s or t:
        check_blowups(n, s, t)
    check_genus(g)
    _fibre_degree(g, n)
    check_degree(n, c2)
    (u, v), (m, w), (a, A), (b, B), (r, R) = map(pair, (g, n, c1sq, c2, rsq))
    h, W = u * w, v * w
    d = h + (m * v - W)
    above = (d - W) * a
    if s or t:
        above += (3 * h * s + 2 * (d - 2 * W) * t) * A
    ad = A * d
    ad2 = 2 * ad
    return ratio(r * ad - 4 * a * R * W, R * ad), ratio(above * B - ad2 * b, ad2 * B)


def _invariants(kf2, chif) -> FibrationInvariants:
    return FibrationInvariants(kf2, chif, _ratio(kf2, chif))


def slope_general(g, n: int, c1sq, c2, rsq) -> FibrationInvariants:
    """Invariants of a degree-n cover fibration; slope_general_via_surface
    rechecks that the base genus cancels."""
    return _invariants(*_parts(g, n, c1sq, c2, rsq))


def slope_general_via_surface(g: int, n: int, c1sq, c2, rsq, b: int) -> FibrationInvariants:
    """Same invariants, recomputed on an explicit base of genus b.

    K_f^2 = K_S^2 - 8(g-1)(b-1) with K_S^2 = n K_Y^2 + 4 c1.K_Y + R^2, and
    chi_f = chi(O_S) - (g-1)(b-1) via the direct-image formula.
    """
    check_genus(g)
    model = SurfaceModel(b)
    c1 = c1_decomposition(g, n, c1sq, model)
    check_degree(n, c2)
    e = BundleData(n - 1, c1, c2)
    ky = canonical_class(model)
    twist = (g - 1) * (b - 1)
    kf2 = lift(rsq) + 4 * intersect(c1, ky) + n * intersect(ky, ky) - 8 * twist
    return _invariants(kf2, chi_total_space(n, e) - twist)


def slope_trigonal(g, c1sq, c2) -> FibrationInvariants:
    """Triple-cover invariants: slope_trigonal_blowup at t = 0."""
    return slope_trigonal_blowup(g, c1sq, c2, 0)


def slope_fourgonal(g, c1sq, c2e, c2f) -> FibrationInvariants:
    """Quadruple-cover invariants: slope_fourgonal_blowup at s = t = 0."""
    return slope_fourgonal_blowup(g, c1sq, c2e, c2f, 0, 0)


def fourgonal_rearranged(g, c1sq, c2f, s=0, t=0):
    """Slope written as 4 plus an excess, for c2(E) = (c1^2 + c2(F))/4.

    4 + (c2F - 2c1^2/(g+3)) / ((g+1)/(4(g+3)) c1^2 - c2F/4 + blow-up terms).
    At s = t = 0 this equals the direct quotient exactly; with blow-ups the
    direct quotient is smaller by 4*(blow-up terms)/chi_f, so only the
    direct route is used for bounds.  With g = u/v, c1^2 = a/A and
    c2F = f/F the pairs of ratcalc.pair, the excess is num/den, both
    multiplied by 4(g+3)AFv, in ring operations on ints and integer
    polynomials alike; the one division, in _ratio, comes last.
    """
    check_blowups(4, s, t)
    check_genus(g)
    (u, v), (a, A), (f, F) = map(pair, (g, c1sq, c2f))
    g3, aF, Af = u + 3 * v, a * F, A * f
    num = 4 * g3 * Af - 8 * aF * v
    den = (u + v) * aF - g3 * Af
    if s or t:
        den += (6 * u * s + 4 * (u + v) * t) * A * F
    return _ratio(4 * den + num, den)


def trigonal_blowup_parts(g, c1sq, c2, t):
    """(K_f^2, chi_f) with t index-three fibres blown down, from R^2 = 2c1^2 - 3c2."""
    return _parts(g, 3, c1sq, c2, 2 * c1sq - 3 * c2, t=t)


def slope_trigonal_blowup(g, c1sq, c2, t) -> FibrationInvariants:
    """Triple-cover invariants with t index-three fibres blown down; K_f^2 is
    unchanged in the blown-up Chern data and chi_f gains g/(g+2) per blow-up."""
    return _invariants(*trigonal_blowup_parts(g, c1sq, c2, t))


def fourgonal_blowup_parts(g, c1sq, c2e, c2f, s, t):
    """(K_f^2, chi_f) with s E' and t E'' blown down, from R^2 = 2c1^2 - 4c2(E) + c2(F)."""
    return _parts(g, 4, c1sq, c2e, 2 * c1sq - 4 * c2e + c2f, s, t)


def slope_fourgonal_blowup(g, c1sq, c2e, c2f, s, t) -> FibrationInvariants:
    """Quadruple-cover invariants on the blown-up model; chi_f gains
    3g/(2(g+3)) per E' and (g+1)/(g+3) per E''.  At s = t = 0 with c2(E) =
    (c1^2 + c2(F))/4, fourgonal_rearranged must give the same slope."""
    inv = _invariants(*fourgonal_blowup_parts(g, c1sq, c2e, c2f, s, t))
    if not (s or t) and 4 * c2e == c1sq + c2f:
        alt = fourgonal_rearranged(g, c1sq, c2f)
        if alt != inv.slope:
            raise AssertionError("rearranged quadruple-cover slope disagrees "
                                 f"with the direct quotient: {alt} vs {inv.slope}")
    return inv


def harris_stankova_reference(n: int, g=None):
    """Reference slope profile 6 - 2/(n-1) - 2n/g for degree-n covers.

    A RatFunc in g, or its exact value at a supplied genus g.  With
    g = u/v and n = m/w as ratcalc.pair gives them, that is
    ((6m - 8w)wu - 2m(m-w)v) / ((m-w)wu), brought to lowest terms once.
    """
    check_degree(n)
    g = G if g is None else g
    check_genus(g)
    (u, v), (m, w) = pair(g), pair(n)
    return ratio((6 * m - 8 * w) * w * u - 2 * m * (m - w) * v, (m - w) * w * u)


def check_genus(g) -> None:
    """Raise ValueError unless genus g is positive; a nonconstant RatFunc genus is not checked."""
    if (value := concrete(g)) is not None and value <= 0:
        raise ValueError(f"genus must be positive, got {g}")
