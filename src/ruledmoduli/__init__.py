"""Exact-arithmetic invariants of rank-two bundles on blowups of ruled surfaces.

The package models the numerical lattice of a blowup of a geometrically
ruled surface and computes, in exact integer arithmetic: intersection
numbers and Riemann-Roch characteristics, extension invariants (the wall
class, subscheme lengths, generic section degrees), wall-and-chamber data
for polarizations, dimension counts for extension families and moduli
spaces, and a box-certified numerical stability test.
"""

from .errors import (
    AssumptionViolatedError,
    BoxTooLargeError,
    ConfigMismatchError,
    IntegerOverflowError,
    InvalidPolarizationError,
    NegativeLengthWarning,
    NotApplicableError,
    ParityError,
    RuledModuliError,
    SearchBoundsError,
    UnsupportedSurfaceError,
)
from .lattice import (
    DivisorClass,
    Effectivity,
    EffectivityVerdict,
    SurfaceConfig,
    canonical_class,
    effectivity,
    euler_char,
    h0_hirzebruch,
    intersect,
)
from .invariants import (
    ChernData,
    ExtensionDatum,
    ceil_div,
    chern_twist,
    is_extension_unique,
    nagata_min_r,
    normalize_chern,
    pushforward_degree_bound,
    r0_generic,
    subscheme_length,
    subscheme_length_from_zeta,
    zeta_class,
)
from .walls import (
    DvZeroCertificate,
    Polarization,
    Suitability,
    WallClass,
    WallSearch,
    certify_dv_zero,
    hodge_xi,
    is_suitable,
    wall_search,
)
from .families import (
    Classification,
    Dominance,
    FamilyMaximizer,
    FamilyReport,
    Rationality,
    ReferenceFamily,
    StructureKind,
    VanishingAssumption,
    c1f0_report,
    c1f1_report,
    classify_structure,
    ext1_rr,
    family_dim_c1f0,
    family_dim_c1f1,
    maximize_family_dim,
    moduli_dim,
    reference_family_dims,
)
from .stability import (
    DestabilizerCandidate,
    SearchBox,
    StabilityOutcome,
    StabilityVerdict,
    default_box,
    destabilizer_search,
    slope_margin,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
