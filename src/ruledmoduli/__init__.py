"""Exact-arithmetic invariants of rank-two bundles on blowups of ruled surfaces.

The package models the numerical lattice of a blowup of a geometrically
ruled surface and computes, in exact integer arithmetic: intersection
numbers and Riemann-Roch characteristics, extension invariants (the wall
class, subscheme lengths, generic section degrees), wall-and-chamber data
for polarizations, dimension counts for extension families and moduli
spaces, and a box-certified numerical stability test.

Names and modules load on first use: ``import ruledmoduli`` imports none of
the six modules, and the first access to a name (``ruledmoduli.wall_search``,
``from ruledmoduli import wall_search`` or ``from ruledmoduli import *``)
imports the module that defines it, so a program pays only for the engines
it calls.
"""

__version__ = "0.1.0"

# Each module's public names; together with the module names they are __all__.
_EXPORTS = {
    "errors": (
        "AssumptionViolatedError", "BoxTooLargeError", "ConfigMismatchError", "IntegerOverflowError",
        "InvalidPolarizationError", "NegativeLengthWarning", "NotApplicableError", "ParityError",
        "RuledModuliError", "SearchBoundsError", "UnsupportedSurfaceError",
    ),
    "lattice": (
        "DivisorClass", "Effectivity", "EffectivityVerdict", "Polarization", "SurfaceConfig",
        "canonical_class", "effectivity", "euler_char", "h0_hirzebruch", "intersect",
    ),
    "invariants": (
        "ChernData", "ExtensionDatum", "chern_twist", "is_extension_unique", "normalize_chern",
        "pushforward_degree_bound", "r0_generic", "subscheme_length", "zeta_class",
    ),
    "walls": (
        "DvZeroCertificate", "Suitability", "WallClass", "WallSearch", "certify_dv_zero", "is_suitable",
        "wall_search",
    ),
    "families": (
        "Classification", "Dominance", "FamilyMaximizer", "FamilyReport", "Rationality", "ReferenceFamily",
        "StructureKind", "VanishingAssumption", "c1f0_report", "c1f1_report", "classify_structure",
        "ext1_rr", "family_dim_c1f0", "family_dim_c1f1", "maximize_family_dim", "moduli_dim",
        "reference_family_dims",
    ),
    "stability": (
        "DestabilizerCandidate", "SearchBox", "StabilityOutcome", "StabilityVerdict", "default_box",
        "destabilizer_search", "slope_margin",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    """Import the module that defines ``name``; a public name is then bound
    here, so this runs once per name (PEP 562)."""
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import binds the submodule here; unlike importlib.import_module,
    # it is listed by -X importtime
    __import__(f"{__name__}.{module}")
    if module != name:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
