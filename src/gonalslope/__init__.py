"""Exact verification of slope lower bounds for trigonal and fourgonal
fibred surfaces.

Everything is computed over Q (scalars) or Q(g) (closed forms in the fibre
genus); no floats enter any derivation.  The layers, bottom up: ratcalc
(exact arithmetic), chow (intersection numbers on ruled surfaces and their
blow-ups), chern (Chern class calculus), grr (direct-image invariants and
the two R^2 routes), slope (fibration invariants), bounds (case-by-case
derived bounds next to their stated closed forms), verify (the
cross-module identity suite), cli (interface).  Each layer imports only the
layers before it.
"""
from .bounds import (BlowupReport, BlowupRow, BoundResult, C2Bound, ScenarioError,
                     ScenarioSpec, SplittingType, blowup_bound_report,
                     c2_bounds_blowup, c2e_bound_fourgonal, compare,
                     derived_slope_bound, genus_notes, index_bound, splitting_for_scenario,
                     stated_closed_form, weak_positivity_bound)
from .chern import (BundleData, ChernCharacter, UnsupportedRankError,
                    chern_character, sym2, sym2_roots_oracle, whitney,
                    whitney_quotient)
from .chow import (ModelMismatchError, NumClass, SurfaceModel, canonical_class,
                   chi_structure, intersect, self_intersection)
from .grr import (blownup_c1, blowup_correction, c1_decomposition,
                  check_blowups, chi_total_space, conics_kernel, exceptional_coefficient,
                  exceptional_coefficients, fourgonal_rsq, push_2r_bundle,
                  push_ramification, trigonal_rsq, upstairs_pairing)
from .ratcalc import G, PoleError, Rat, RatFunc, lift, parse_rat
from .slope import (FibrationInvariants, ModuliData, ZeroChiError, check_genus,
                    fourgonal_rearranged, harris_stankova_reference,
                    moduli_conversion, slope_fourgonal, slope_fourgonal_blowup,
                    slope_general, slope_general_via_surface, slope_trigonal,
                    slope_trigonal_blowup)

__version__ = "0.1.0"

__all__ = [
    "BlowupReport", "BlowupRow", "BoundResult", "BundleData", "C2Bound",
    "ChernCharacter", "FibrationInvariants", "G", "ModelMismatchError",
    "ModuliData", "NumClass", "PoleError", "Rat", "RatFunc", "ScenarioError",
    "ScenarioSpec", "SplittingType", "SurfaceModel", "UnsupportedRankError",
    "ZeroChiError", "blownup_c1", "blowup_bound_report", "blowup_correction",
    "c1_decomposition", "c2_bounds_blowup", "c2e_bound_fourgonal",
    "canonical_class", "check_blowups", "check_genus", "chern_character",
    "chi_structure", "chi_total_space", "compare", "conics_kernel",
    "derived_slope_bound", "exceptional_coefficient", "exceptional_coefficients",
    "fourgonal_rearranged", "fourgonal_rsq", "genus_notes", "harris_stankova_reference",
    "index_bound", "intersect", "lift", "moduli_conversion", "parse_rat",
    "push_2r_bundle", "push_ramification", "self_intersection",
    "slope_fourgonal", "slope_fourgonal_blowup", "slope_general",
    "slope_general_via_surface", "slope_trigonal", "slope_trigonal_blowup",
    "splitting_for_scenario", "stated_closed_form", "sym2",
    "sym2_roots_oracle", "trigonal_rsq", "upstairs_pairing",
    "weak_positivity_bound", "whitney", "whitney_quotient",
]
