"""Pushforward identities for low-degree covers of ruled surfaces.

A degree-n cover rho: S -> Y (n = 3 or 4) with reduced direct-image
bundle E of rank n-1 satisfies, numerically on Y:

    rho_* R             == 2 c1(E)            (R the ramification divisor)
    chi(O_S)            == n chi(O_Y) + c1.K_Y/2 + c1^2/2 - c2
    c1(rho_* O_S(2R))   == 3 c1(E)
    c2(rho_* O_S(2R))   == 4 c1^2 + c2 - R^2

Everything here is exact arithmetic on those identities; R^2 is always
obtained by solving them, never hard-coded.
"""
from __future__ import annotations

from fractions import Fraction

from .chern import BundleData, sym2, whitney_quotient
from .chow import NumClass, SurfaceModel, canonical_class, chi_structure, intersect
from .ratcalc import Rat, concrete, lift

#: lowest fibre genus supported, by cover degree
GENUS_FLOOR = {3: 5, 4: 10}


class ScenarioError(ValueError):
    """Inconsistent or unsupported scenario data."""


def check_blowups(n: int, s: int, t: int) -> None:
    """Raise ScenarioError unless s total-ramification and t index-3 blow-ups
    suit a degree-n cover: n is the int 3 or 4, s and t are ints >= 0 (not
    bools), and degree 3 has s = 0."""
    if type(n) is not int or n not in GENUS_FLOOR:
        raise ScenarioError(f"degree must be 3 or 4, got {n!r}")
    if type(s) is not int or type(t) is not int or s < 0 or t < 0:
        raise ScenarioError(f"blow-up counts must be nonnegative integers, got s={s!r}, t={t!r}")
    if n == 3 and s:
        raise ScenarioError("degree 3 admits no total-ramification blow-ups")


#: intersection of the relative conic/quadric with the pulled-back exceptional
#: class, by blow-up kind
_UPSTAIRS = {
    (3, "index3"): 4,
    (4, "total_ram"): 6,
    (4, "index3"): 4,
}


def upstairs_pairing(n: int, kind: str) -> int:
    try:
        return _UPSTAIRS[(n, kind)]
    except KeyError:
        raise ValueError(f"no {kind!r} blow-ups for degree {n}") from None


def push_ramification(e: BundleData) -> NumClass:
    """Numerical class of rho_* R."""
    return 2 * e.c1


def chi_total_space(n: int, e: BundleData) -> Rat:
    """chi(O_S) from the invariants of E on its own surface model."""
    m = e.c1.model
    k = canonical_class(m)
    return n * chi_structure(m) + intersect(e.c1, k) / 2 + e.c1sq / 2 - e.c2


def push_2r_bundle(n: int, e: BundleData, rsq: Rat) -> BundleData:
    """Chern data of rho_* O_S(2R)."""
    return BundleData(n, 3 * e.c1, 4 * e.c1sq + e.c2 - rsq)


def trigonal_rsq(e: BundleData) -> Rat:
    """R^2 for a triple cover, solved from Sym^2 E = rho_* O_S(2R).

    Matching second Chern classes gives R^2 = 4c1^2 + c2 - c2(Sym^2 E),
    which collapses to 2c1^2 - 3c2.
    """
    if e.rank != 2:
        raise ValueError(f"triple cover needs a rank-2 bundle, got rank {e.rank}")
    return 4 * e.c1sq + e.c2 - sym2(e).c2


def fourgonal_rsq(e: BundleData, f: BundleData) -> Rat:
    """R^2 for a quadruple cover with bundle of conics F.

    F sits under Sym^2 E with quotient rho_* O_S(2R); solving the Whitney
    sum for the quotient and matching c2 yields R^2 = 2c1^2 - 4c2(E) + c2(F).
    """
    if e.rank != 3:
        raise ValueError(f"quadruple cover needs a rank-3 bundle, got rank {e.rank}")
    if f.rank != 2 or f.c1 != e.c1:
        raise ValueError("bundle of conics must have rank 2 and c1(F) = c1(E)")
    quot = whitney_quotient(sym2(e), f)
    return 4 * e.c1sq + e.c2 - quot.c2


def conics_kernel(e: BundleData, rsq: Rat) -> BundleData:
    """Solve the sequence F -> Sym^2 E -> rho_* O_S(2R) for F, given R^2."""
    return whitney_quotient(sym2(e), push_2r_bundle(4, e, rsq))


def _fibre_degree(g, n: int):
    """g+n-1, the fibre degree of E; ValueError unless it is positive where it is a number."""
    d = g + (n - 1)  # one addition where g is a RatFunc
    if (degree := concrete(d)) is not None and degree <= 0:
        raise ValueError(f"fibre degree g+n-1 = {d} must be positive")
    return d


def check_degree(n, c2=0) -> None:
    """Raise ScenarioError unless the cover degree n is at least 2 where it is a
    number (E has rank n-1 >= 1), and c2 = 0 at n = 2, where E is a line bundle."""
    if (degree := concrete(n)) is not None and degree < 2:
        raise ScenarioError(f"cover degree n must be at least 2, got {n}")
    if degree == 2 and c2:
        raise ScenarioError(f"a degree-2 cover has a line bundle E, so c2 = 0, got {c2}")


def c1_decomposition(g: int, n: int, c1sq: Rat, model: SurfaceModel) -> NumClass:
    """c1(E) = (g+n-1) T0 + (c1sq / 2(g+n-1)) F on an unblown model.

    The T0 coefficient is the fibre degree of E; the F coefficient is then
    forced by the required self-intersection.
    """
    if model.s or model.t:
        raise ValueError("decomposition on the unblown model only")
    d = _fibre_degree(g, n)
    return NumClass(model, d, lift(c1sq) / (2 * d))


def exceptional_coefficient(n: int, kind: str) -> Rat:
    """Coefficient of an exceptional class in c1 of the blown-up bundle.

    Solved from <2 c1~, E> = upstairs pairing, where E only meets the
    ansatz through its own coefficient: 2a <E, E> = u, so a = -u/2.
    """
    u = upstairs_pairing(n, kind)
    m = SurfaceModel(0, 1, 0) if kind == "total_ram" else SurfaceModel(0, 0, 1)
    exc = m.e_prime(0) if kind == "total_ram" else m.e_dprime(0)
    return Fraction(u, 2 * intersect(exc, exc))


#: the supported exceptional coefficients, solved once, keyed like _UPSTAIRS
_EXCEPTIONAL = {key: exceptional_coefficient(*key) for key in _UPSTAIRS}


def exceptional_coefficients() -> tuple[Rat, Rat, Rat]:
    """The three supported coefficients, ordered (3, index3), (4, total_ram), (4, index3)."""
    return tuple(_EXCEPTIONAL.values())


def blowup_correction(n: int, s: int, t: int) -> Rat:
    """a'^2 s + a''^2 t: what s total-ramification and t index-3 blow-ups add to c1^2.

    An exceptional class has self-intersection -1, so its coefficient a in c1
    lowers c1^2 by a^2.
    """
    check_blowups(n, s, t)
    return _EXCEPTIONAL.get((n, "total_ram"), 0) ** 2 * s + _EXCEPTIONAL[(n, "index3")] ** 2 * t


def blownup_c1(g: int, n: int, c1sq: Rat, model: SurfaceModel) -> NumClass:
    """c1 of the reduced bundle on the blown-up model, self-intersecting to c1sq.

    The exceptional coefficients are the constants solved above; the F
    coefficient absorbs blowup_correction() to keep the self-intersection
    at c1sq.
    """
    corr = blowup_correction(n, model.s, model.t)  # refuses a bad n before g+n-1 is formed
    d = _fibre_degree(g, n)
    fcoef = (lift(c1sq) + corr) / (2 * d)
    return NumClass(model, d, fcoef, (_EXCEPTIONAL.get((n, "total_ram"), 0),) * model.s,
                    (_EXCEPTIONAL[(n, "index3")],) * model.t)
