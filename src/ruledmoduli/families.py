"""Dimension bookkeeping for extension families and moduli of rank-two bundles.

Everything here is closed-form integer arithmetic: the expected moduli
dimension, ext^1 computed through Riemann-Roch under explicitly recorded
vanishing assumptions, the parameter counts of the two normal-form extension
families (fibre degree of c1 even or odd), the maximizer that recovers the
generic section degree, and the coarse birational classification by the
parity of c1.F and the base genus.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import AssumptionViolatedError, checked_int, checked_ints
from .invariants import (
    ChernData,
    ExtensionDatum,
    normalize_chern,
    r0_generic,
    subscheme_length,
)
from .lattice import (
    DivisorClass,
    SurfaceConfig,
    _canonical_term,
    _effectivity_run,
    _require_surface,
    effectivity,
    euler_char,
    h0_hirzebruch,
    pairing,
)


class Dominance(Enum):
    EQUAL = "equal"
    STRICTLY_LESS = "less"
    EXCEEDS = "exceeds"


@dataclass(frozen=True)
class VanishingAssumption:
    """A divisor class whose space of sections is assumed to vanish.

    When ``twisted_by_ideal`` is set the assumption concerns the class
    twisted by the ideal of the length-ell subscheme; only the class itself
    is recorded since the subscheme is never materialized.
    """

    divisor: DivisorClass
    twisted_by_ideal: bool = False


@dataclass(frozen=True)
class FamilyReport:
    family_dim: int
    moduli_dim: int
    ext1: int
    assumptions: tuple[VanishingAssumption, ...] = ()

    @property
    def dominance(self) -> Dominance:
        if self.family_dim == self.moduli_dim:
            return Dominance.EQUAL
        if self.family_dim < self.moduli_dim:
            return Dominance.STRICTLY_LESS
        # families never exceed the moduli count for consistent input
        return Dominance.EXCEEDS


def moduli_dim(config: SurfaceConfig, chern: ChernData) -> int:
    """Expected dimension 4*c2 - c1^2 - 3*chi(O_X) + q(X) of the moduli space.

    On these surfaces chi(O_X) = 1 - g and the irregularity is g.
    """
    _require_surface(config, chern.config, "Chern data")
    g = config.genus
    value = 4 * chern.c2 - pairing(chern.c1, chern.c1) - 3 * (1 - g) + g
    return checked_int(value, "moduli dimension")


def ext1_rr(
    config: SurfaceConfig,
    sub: DivisorClass,
    quot: DivisorClass,
    ell: int,
) -> tuple[int, tuple[VanishingAssumption, VanishingAssumption]]:
    """dim Ext^1(I_Z(quot), O(sub)) = -chi(sub - quot) + ell under vanishing.

    Valid when h^0(O(sub - quot)) = 0 and h^0(O(K + quot - sub) tensor I_Z)
    vanishes; both classes are returned as first-class assumptions.  Either
    class, the difference first, passing the closed-form EFFECTIVE rule
    falsifies the formula and raises AssumptionViolatedError, whose witness
    is the only ``Effectivity`` built.  K is a term, so only the two
    assumption classes are range-checked.
    """
    if checked_int(ell, "subscheme length") < 0:
        raise ValueError(f"subscheme length must be >= 0, got {ell}")
    difference = sub - quot
    dual_class = _canonical_term(config) - difference
    for cls in (difference, dual_class):
        run = _effectivity_run(config.genus, cls.a, cls.exc)
        if run is not None and cls.b >= run[1]:
            raise AssumptionViolatedError(
                f"vanishing assumed for {cls}, but the class is certified "
                f"effective with witness {effectivity(cls).decomposition}"
            )
    assumptions = (
        VanishingAssumption(difference),
        VanishingAssumption(dual_class, twisted_by_ideal=True),
    )
    value = checked_int(-euler_char(config, difference) + ell, "ext^1 dimension")
    return value, assumptions


def _check_family_domain(genus: int, m: int, n: int, eps: int) -> None:
    """The even-fibre counts' domain, genus first."""
    if genus < 0:
        raise ValueError(f"genus must be >= 0, got {genus}")
    if m < 0 or n < 0 or eps not in (0, 1):
        raise ValueError("need m >= 0, n >= 0 and eps in {0, 1}")


def family_dim_c1f0(
    genus: int,
    eta: int,
    m: int,
    n: int,
    eps: int,
    r1: int,
    ell: tuple[int, ...] | list[int],
    h0: int,
) -> int:
    """Parameter count of the extension family in the even-fibre normal form.

    For c1 = eta*F + sum(Ei) and c2 = 2n + eps, the family built from a
    section degree r1, exceptional multiplicities ell_i and h0 independent
    defining sections has dimension

        -2*r1 + (eta + 3g - 1) + (m - sum ell_i^2) + 3*(2n + eps) - h0,

    which is ext^1 + 2g + 2*length - h0 after eliminating the length.
    """
    checked_ints(genus=genus, eta=eta, m=m, n=n, eps=eps, r1=r1, h0=h0)
    _check_family_domain(genus, m, n, eps)
    ell = tuple(ell)
    if len(ell) != m:
        raise ValueError(f"expected {m} multiplicities, got {len(ell)}")
    if any(checked_int(li, "ell entry") < 0 for li in ell):
        raise ValueError(f"multiplicities must be >= 0, got {ell}")
    if h0 < 1:
        raise ValueError(f"h0 counts a nonzero section, must be >= 1, got {h0}")
    value = (
        -2 * r1
        + (eta + 3 * genus - 1)
        + (m - sum(li * li for li in ell))
        + 3 * (2 * n + eps)
        - h0
    )
    return checked_int(value, "family dimension")


def family_dim_c1f1(genus: int, e: int, beta: int, rho: int, c2: int) -> int:
    """Dimension 4*c2 - 2*beta + rho + 4g - 3 + e of the odd-fibre family.

    This equals ext^1 + 2g - 1 (two Jacobian factors minus the
    projectivization) and agrees with the expected moduli dimension.
    """
    checked_ints(genus=genus, e=e, beta=beta, rho=rho, c2=c2)
    if genus < 0 or rho < 0:
        raise ValueError(f"need genus >= 0 and rho >= 0, got genus {genus} and rho {rho}")
    return checked_int(4 * c2 - 2 * beta + rho + 4 * genus - 3 + e, "family dimension")


class ReferenceFamily(NamedTuple):
    family_dim: int
    ext1: int
    h0_twist: int


def reference_family_dims(n: int, invariant_e: int = 1) -> ReferenceFamily:
    """The worked n-indexed family on a Hirzebruch surface of invariant e > 0.

    For c1 = F and c2 = 2n the family with sub-line-bundle O(-nF), quotient
    I_Z((n+1)F) and general Z of length 2n has

        dim = 2*(2n) + ext^1 - h^0(V(nF)) = 8n - 3,
        ext^1 = -chi(-(2n+1)F) + 2n = 4n,
        h^0(V(nF)) = 1 + (h^0((2n+1)F) - 2n) = 3,

    the last count using exact Hirzebruch sections minus the conditions a
    general length-2n subscheme imposes.
    """
    checked_ints(n=n, invariant_e=invariant_e)
    if n < 1:
        raise ValueError(f"the family is indexed by n >= 1, got {n}")
    if invariant_e < 1:
        raise ValueError("the worked family lives on a surface of invariant e >= 1")
    config = SurfaceConfig(genus=0, invariant_e=invariant_e, num_points=0)
    sub = config.divisor(b=-n)
    quot = config.divisor(b=n + 1)
    length = 2 * n
    ext1, _ = ext1_rr(config, sub, quot, length)
    h0_twist = 1 + (h0_hirzebruch(config, config.divisor(b=2 * n + 1)) - length)
    dim = checked_int(2 * length + ext1 - h0_twist, "family dimension")
    return ReferenceFamily(dim, ext1, checked_int(h0_twist, "section count"))


class FamilyMaximizer(NamedTuple):
    r1: int
    ell: tuple[int, ...]
    h0: int
    value: int


def maximize_family_dim(
    genus: int, eta: int, m: int, n: int, eps: int
) -> FamilyMaximizer:
    """Maximize the even-fibre family count over admissible (r1, ell, h0).

    The constraint set is the pushforward degree bound together with
    ell_i >= 0 and h0 >= 1.  The unique argmax is (r0, 0, 1): the count is
    linear in r1 with slope -2, so r1 sits at the least admissible value r0,
    and each unit of ell_i or extra section only loses dimension.  The
    reported value is the dominance cap 4*(2n+eps) + 4g - 3 + m minus the
    parity defect delta = 2*r0 - (eta - (2n+eps) - g) in {0, 1}.  Acceptance
    criterion 3 (tests/test_acceptance.py) proves the argmax claim on its
    grid: r0 is admissible and r0 - 1 is not, and moving r1, h0 or one ell_i
    off the argmax lowers the count by exactly 2, 1 and 1.
    """
    checked_ints(genus=genus, eta=eta, m=m, n=n, eps=eps)
    _check_family_domain(genus, m, n, eps)
    c2 = 2 * n + eps
    r0 = r0_generic(genus, eta, c2)
    delta = 2 * r0 - (eta - c2 - genus)
    cap = 4 * c2 + 4 * genus - 3 + m
    return FamilyMaximizer(r0, (0,) * m, 1, checked_int(cap - delta, "family dimension"))


class StructureKind(Enum):
    ODD_FIBER = "odd_fiber"
    EVEN_FIBER_GENUS_ZERO = "even_fiber_genus_zero"
    EVEN_FIBER_POSITIVE_GENUS = "even_fiber_positive_genus"


class Rationality(Enum):
    RATIONAL = "rational"
    STABLY_RATIONAL = "stably_rational"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Classification:
    """Birational shape of the moduli space, by parity of c1.F and genus.

    ``hilbert_exponent`` is the symmetric-product exponent of the base of
    the dominating projective bundle when the normal form pins it down
    (0 for odd fibre degree, the normalized c2 for even), and None when the
    normalized c2 is negative and no such exponent makes sense.
    """

    kind: StructureKind
    rationality: Rationality
    hilbert_exponent: int | None
    description: str


def classify_structure(config: SurfaceConfig, chern: ChernData) -> Classification:
    """Classify the moduli space by the parity of c1.F and the base genus.

    The output depends only on twist invariants (c1 mod 2 and the
    discriminant through the normalized c2), so it is stable under
    chern_twist.
    """
    _require_surface(config, chern.config, "Chern data")
    genus = config.genus
    if chern.c1.a % 2 != 0:
        rationality = Rationality.RATIONAL if genus == 0 else Rationality.UNKNOWN
        description = (
            "birational to a projective bundle over a product of two Jacobians "
            "of the base curve"
        )
        if genus == 0:
            description += "; rational since the base curve is a line"
        return Classification(StructureKind.ODD_FIBER, rationality, 0, description)

    c2_norm = normalize_chern(chern).c2
    exponent = c2_norm if c2_norm >= 0 else None
    if genus == 0:
        return Classification(
            StructureKind.EVEN_FIBER_GENUS_ZERO,
            Rationality.STABLY_RATIONAL,
            exponent,
            "stably rational; dominated by a projective bundle over a symmetric "
            "product of the base line",
        )
    return Classification(
        StructureKind.EVEN_FIBER_POSITIVE_GENUS,
        Rationality.UNKNOWN,
        exponent,
        "dominated by a projective bundle over a symmetric product of the base "
        "curve and two Jacobians",
    )


def c1f0_report(
    config: SurfaceConfig,
    eta: int,
    n: int,
    eps: int,
    r1: int,
    ell: tuple[int, ...] | list[int],
    h0: int,
) -> FamilyReport:
    """Assemble the even-fibre family report against the moduli count."""
    m = config.num_points
    ell = tuple(ell)
    # first, so that its gate names the bad argument rather than a value built from it
    family_dim = family_dim_c1f0(config.genus, eta, m, n, eps, r1, ell, h0)
    c2 = 2 * n + eps
    c1 = config.divisor(b=eta, exc=(1,) * m)
    chern = ChernData(c1, c2)
    datum = ExtensionDatum(d=0, r=r1, q=ell, chern=chern)
    length = subscheme_length(datum)
    sub = config.divisor(b=r1, exc=ell)
    quot = config.divisor(b=eta - r1, exc=tuple(1 - li for li in ell))
    ext1, assumptions = ext1_rr(config, sub, quot, length)
    return FamilyReport(
        family_dim=family_dim,
        moduli_dim=moduli_dim(config, chern),
        ext1=ext1,
        assumptions=assumptions,
    )


def c1f1_report(config: SurfaceConfig, beta: int, c2: int) -> FamilyReport:
    """Assemble the odd-fibre family report against the moduli count."""
    m = config.num_points
    family_dim = family_dim_c1f1(config.genus, config.invariant_e, beta, m, c2)  # gates beta, c2
    c1 = config.divisor(a=1, b=beta, exc=(1,) * m)
    chern = ChernData(c1, c2)
    sub = config.divisor(a=1, b=beta - c2)
    quot = config.divisor(b=c2, exc=(1,) * m)
    ext1, assumptions = ext1_rr(config, sub, quot, 0)
    return FamilyReport(
        family_dim=family_dim,
        moduli_dim=moduli_dim(config, chern),
        ext1=ext1,
        assumptions=assumptions,
    )
