"""Relative invariants and slope of a fibred surface from cover data.

All formulas work uniformly over exact rationals and over RatFunc, so a
genus can be left symbolic.  K_f^2 and chi_f are written once, in _parts,
with one division each: in integers at a concrete genus, lifted for a
Q(g) derivation (_parts says why it keeps both routes).
fourgonal_rearranged is one body of ring operations on (numerator,
denominator) pairs and one division.  A concrete genus must be positive
(check_genus).  The degree-3 and degree-4 blow-up parts only supply R^2,
and the s = t = 0 entry points delegate to the blow-up ones.  The slope is
their quotient, with a zero chi_f reported as an explicit error.
"""
from __future__ import annotations

from fractions import Fraction

from .chern import BundleData
from .chow import Record, SurfaceModel, canonical_class, intersect
from .grr import c1_decomposition, check_blowups, chi_total_space
from .ratcalc import G, RatFunc, concrete, lift


#: input types of the integer route: as_integer_ratio() gives (numerator, denominator)
_EXACT = {int, Fraction}


class ZeroChiError(ZeroDivisionError):
    """chi_f vanished; the slope is undefined."""


def _ratio(kf2, chif):
    if chif == 0:
        raise ZeroChiError("chi_f = 0")
    return kf2 / chif


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
    With g, n, s and t ints and c1^2 = a/A, c2 = b/B, R^2 = r/R ints or
    Fractions, both are built from integers over one denominator, with
    d = g+n-1: K_f^2 = (rAd - 4aR)/(RAd) and
    chi_f = (((g+n-2)a + (3gs + 2(g+n-3)t)A)B - 2dAb)/(2dAB).
    Otherwise every non-int input is lifted and each output takes one
    division.  The outputs are Fraction, or RatFunc where an input is one.

    The routes stay two: one body, on (x, 1) or on polynomial pairs, cost
    the genus-sweep benchmark 9-10% of its pass time (twice the RatFunc
    operations over Q(g)), and the lifted route alone takes 12.6 in place
    of 5.1 us per concrete call, 2,904 of them in a verify pass.
    """
    if s or t:
        check_blowups(n, s, t)
    check_genus(g)
    if type(g) is type(n) is type(s) is type(t) is int \
            and {*map(type, (c1sq, c2, rsq))} <= _EXACT:
        (a, A), (b, B), (r, R) = (x.as_integer_ratio() for x in (c1sq, c2, rsq))
        d = g + n - 1
        blowups = (3 * g * s + 2 * (g + n - 3) * t) * A
        return (Fraction(r * A * d - 4 * a * R, R * A * d),
                Fraction(((g + n - 2) * a + blowups) * B - 2 * d * A * b, 2 * d * A * B))
    c1sq, c2, rsq = lift(c1sq), lift(c2), lift(rsq)
    g, n, s, t = (x if type(x) is int else lift(x) for x in (g, n, s, t))
    d = g + n - 1
    blowups = 3 * g * s + 2 * (g + n - 3) * t if s or t else 0
    return rsq - 4 * c1sq / d, ((g + n - 2) * c1sq + blowups) / (2 * d) - c2


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
    direct route is used for bounds.  c1^2 = a/A and c2F = f/F are
    (numerator, denominator) pairs, (lift(x), 1) unless x is an int or
    Fraction; the excess times 4(g+3)AF is num/den in ring operations, on
    ints and RatFuncs alike, and the one division comes last.
    """
    check_blowups(4, s, t)
    check_genus(g)
    g, s, t = (x if type(x) is int else lift(x) for x in (g, s, t))
    (a, A), (f, F) = (x.as_integer_ratio() if type(x) in _EXACT else (lift(x), 1)
                      for x in (c1sq, c2f))
    num = 4 * (g + 3) * A * f - 8 * a * F
    den = (g + 1) * a * F - (g + 3) * A * f + (6 * g * s + 4 * (g + 1) * t) * A * F
    if den == 0:
        raise ZeroChiError("chi_f = 0")
    return 4 + num / den if type(den) is RatFunc else Fraction(4 * den + num, den)


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

    A RatFunc in g, or its exact value at a supplied genus g.
    """
    if n < 2:
        raise ValueError(f"reference profile needs n >= 2, got {n}")
    g = G if g is None else g
    check_genus(g)
    return 6 - Fraction(2, n - 1) - Fraction(2 * n) / g


def check_genus(g) -> None:
    """Raise ValueError unless genus g is positive; a nonconstant RatFunc genus is not checked."""
    if (value := concrete(g)) is not None and value <= 0:
        raise ValueError(f"genus must be positive, got {g}")
