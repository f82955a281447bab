"""Relative invariants and slope of a fibred surface from cover data.

All formulas work uniformly over exact rationals and over RatFunc, so a
genus can be left symbolic.  K_f^2 and chi_f are written once, in _parts;
the degree-3 and degree-4 entry points only supply R^2.  The slope is their
quotient, with a zero chi_f reported as an explicit error.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chern import BundleData
from .chow import SurfaceModel, canonical_class, intersect
from .grr import c1_decomposition, chi_total_space
from .ratcalc import G, Rat, RatFunc


class ZeroChiError(ZeroDivisionError):
    """chi_f vanished; the slope is undefined."""


def _lift(*xs):
    return tuple(x if isinstance(x, RatFunc) else Fraction(x) for x in xs)


def _ratio(kf2, chif):
    if isinstance(chif, RatFunc) or isinstance(kf2, RatFunc):
        num, den = RatFunc._coerce(kf2), RatFunc._coerce(chif)
        if den.is_zero():
            raise ZeroChiError("chi_f is identically zero")
        return num / den
    if chif == 0:
        raise ZeroChiError("chi_f = 0")
    return kf2 / chif


@dataclass(frozen=True)
class FibrationInvariants:
    """K_f^2, chi_f and their quotient; entries are Rat or RatFunc."""

    kf2: Rat | RatFunc
    chif: Rat | RatFunc
    slope: Rat | RatFunc

    def warning(self) -> str | None:
        """Flag numeric slopes outside the admissible interval (0, 12]."""
        if isinstance(self.slope, RatFunc):
            return None
        if not 0 < self.slope <= 12:
            return f"slope {self.slope} outside (0, 12]"
        return None


@dataclass(frozen=True)
class ModuliData:
    """Divisor-class coordinates: s_B = 12 - slope, delta.B, lambda.B = chi_f."""

    s_b: Rat | RatFunc
    delta_b: Rat | RatFunc
    lambda_b: Rat | RatFunc


def moduli_conversion(inv: FibrationInvariants) -> ModuliData:
    """12 lambda.B = K_f^2 + delta.B and lambda.B = chi_f pin all three."""
    return ModuliData(12 - inv.slope, 12 * inv.chif - inv.kf2, inv.chif)


def _parts(g, n: int, c1sq, c2, rsq, s=0, t=0):
    """(K_f^2, chi_f) of a degree-n cover fibration, s E' and t E'' blown down.

    K_f^2 = R^2 - 4c1^2/(g+n-1) and chi_f = (g+n-2)/(2(g+n-1)) c1^2 - c2,
    plus 3g/(2(g+n-1)) per E' and (g+n-3)/(g+n-1) per E''.
    """
    d = g + n - 1
    chif = (g + n - 2) / (2 * d) * c1sq - c2
    if s:
        chif += 3 * g / (2 * d) * s
    if t:
        chif += (g + n - 3) / d * t
    return rsq - 4 * c1sq / d, chif


def _trigonal_parts(g, c1sq, c2, t=0):
    g, c1sq, c2 = _lift(g, c1sq, c2)
    return _parts(g, 3, c1sq, c2, 2 * c1sq - 3 * c2, t=t)


def _fourgonal_parts(g, c1sq, c2e, c2f, s=0, t=0):
    g, c1sq, c2e, c2f = _lift(g, c1sq, c2e, c2f)
    return _parts(g, 4, c1sq, c2e, 2 * c1sq - 4 * c2e + c2f, s, t)


def _invariants(kf2, chif) -> FibrationInvariants:
    return FibrationInvariants(kf2, chif, _ratio(kf2, chif))


def slope_general(g, n: int, c1sq, c2, rsq) -> FibrationInvariants:
    """Invariants of a degree-n cover fibration; slope_general_via_surface
    rechecks that the base genus cancels."""
    g, c1sq, c2, rsq = _lift(g, c1sq, c2, rsq)
    return _invariants(*_parts(g, n, c1sq, c2, rsq))


def slope_general_via_surface(g: int, n: int, c1sq, c2, rsq, b: int) -> FibrationInvariants:
    """Same invariants, recomputed on an explicit base of genus b.

    K_f^2 = K_S^2 - 8(g-1)(b-1) with K_S^2 = n K_Y^2 + 4 c1.K_Y + R^2, and
    chi_f = chi(O_S) - (g-1)(b-1) via the direct-image formula.
    """
    model = SurfaceModel(b)
    c1 = c1_decomposition(g, n, c1sq, model)
    e = BundleData(n - 1, c1, c2)
    ky = canonical_class(model)
    twist = (g - 1) * (b - 1)
    kf2 = Fraction(rsq) + 4 * intersect(c1, ky) + n * intersect(ky, ky) - 8 * twist
    return _invariants(kf2, chi_total_space(n, e) - twist)


def slope_trigonal(g, c1sq, c2) -> FibrationInvariants:
    """Triple-cover invariants: K_f^2 = 2g/(g+2) c1^2 - 3c2."""
    return _invariants(*_trigonal_parts(g, c1sq, c2))


def slope_fourgonal(g, c1sq, c2e, c2f) -> FibrationInvariants:
    """Quadruple-cover invariants: K_f^2 = 2(g+1)/(g+3) c1^2 - 4c2(E) + c2(F).

    When c2(E) saturates (c1^2 + c2(F))/4 the slope also comes out of the
    rearrangement around 4; both routes are checked against each other.
    """
    inv = _invariants(*_fourgonal_parts(g, c1sq, c2e, c2f))
    c1sq, c2e, c2f = _lift(c1sq, c2e, c2f)
    if c2e == (c1sq + c2f) / 4:
        alt = fourgonal_rearranged(g, c1sq, c2f)
        if alt != inv.slope:
            raise AssertionError("rearranged quadruple-cover slope disagrees "
                                 f"with the direct quotient: {alt} vs {inv.slope}")
    return inv


def fourgonal_rearranged(g, c1sq, c2f, s=0, t=0):
    """Slope written as 4 plus an excess, for c2(E) = (c1^2 + c2(F))/4.

    4 + (c2F - 2c1^2/(g+3)) / ((g+1)/(4(g+3)) c1^2 - c2F/4 + blow-up terms).
    At s = t = 0 this equals the direct quotient exactly; with blow-ups the
    direct quotient is smaller by 4*(blow-up terms)/chi_f, so only the
    direct route is used for bounds.
    """
    g, c1sq, c2f = _lift(g, c1sq, c2f)
    num = c2f - 2 * c1sq / (g + 3)
    den = ((g + 1) / (4 * (g + 3)) * c1sq - c2f / 4
           + 3 * g / (2 * (g + 3)) * s + (g + 1) / (g + 3) * t)
    return 4 + _ratio(num, den)


def trigonal_blowup_parts(g, c1sq, c2, t):
    """(K_f^2, chi_f) with t index-three fibres blown down; no quotient taken."""
    return _trigonal_parts(g, c1sq, c2, t)


def slope_trigonal_blowup(g, c1sq, c2, t) -> FibrationInvariants:
    """Triple-cover invariants with t index-three fibres blown down.

    K_f^2 is unchanged in terms of the blown-up Chern data; chi_f gains
    g/(g+2) per blow-up.  t = 0 reduces to slope_trigonal.
    """
    return _invariants(*_trigonal_parts(g, c1sq, c2, t))


def fourgonal_blowup_parts(g, c1sq, c2e, c2f, s, t):
    """(K_f^2, chi_f) with s total-ramification and t index-three blow-ups."""
    return _fourgonal_parts(g, c1sq, c2e, c2f, s, t)


def slope_fourgonal_blowup(g, c1sq, c2e, c2f, s, t) -> FibrationInvariants:
    """Quadruple-cover invariants on the blown-up model; chi_f gains
    3g/(2(g+3)) per E' and (g+1)/(g+3) per E''.  s = t = 0 reduces to
    slope_fourgonal."""
    return _invariants(*_fourgonal_parts(g, c1sq, c2e, c2f, s, t))


def harris_stankova_reference(n: int, g=None):
    """Reference slope profile 6 - 2/(n-1) - 2n/g for degree-n covers.

    Returns a RatFunc in g, or its exact value when a genus is supplied.
    """
    if n < 2:
        raise ValueError(f"reference profile needs n >= 2, got {n}")
    prof = 6 - Fraction(2, n - 1) - 2 * n / G
    if g is None:
        return prof
    check_genus(g)
    return prof(g)


def check_genus(g) -> None:
    """Raise ValueError unless the fibre genus g is positive."""
    if Fraction(g) <= 0:
        raise ValueError(f"genus must be positive, got {g}")
