"""Numerical invariants of rank-two bundles presented as line-bundle extensions.

A rank-two bundle V with c1 = alpha*C0 + beta*F + sum(gamma_i Ei) and second
Chern number c2 sits in an extension whose sub-line-bundle is described by a
fibre degree d (the larger summand of the splitting type on a general fibre),
a section degree r, and exceptional multiplicities q_i.  The difference of
the sub and quotient classes is the class

    zeta = (2d - alpha)*C0 + (2r - beta)*F + sum((2 q_i - gamma_i) Ei),

and the vanishing locus of the defining section has length

    ell = c2 + (zeta^2 - c1^2) / 4.

Only the numerical shadow is modelled: the degree-zero twists on the base
curve and the subscheme itself enter every formula solely through the
Jacobian dimension g and the length ell.
"""

from __future__ import annotations

import warnings

from .errors import NegativeLengthWarning, ParityError, checked_int, checked_ints
from .lattice import DivisorClass, SurfaceConfig, _Record, _require_same_config, pairing


class ChernData(_Record):
    """(c1, c2) of a rank-two bundle; the discriminant 4*c2 - c1^2 is the
    twist-invariant combination everything downstream depends on."""

    __slots__ = _compared = _shown = ("c1", "c2")

    def __init__(self, c1: DivisorClass, c2: int) -> None:
        self._fill(c1, c2)
        checked_int(c2, "c2")

    @property
    def config(self) -> SurfaceConfig:
        return self.c1.config

    @property
    def discriminant(self) -> int:
        return checked_int(4 * self.c2 - pairing(self.c1, self.c1), "discriminant")


class ExtensionDatum(_Record):
    """Numerical data (d, r, q_i) of an extension presentation of a bundle.

    Multiplicities q_i >= 0 describe the exceptional divisor sum(q_i Ei)
    absorbed into the sub-line-bundle; 2d >= c1.a is the convention that d is
    the larger summand of the fibre splitting type.
    """

    __slots__ = _compared = _shown = ("d", "r", "q", "chern")

    def __init__(self, d: int, r: int, q: tuple[int, ...], chern: ChernData) -> None:
        q = tuple(q)
        self._fill(d, r, q, chern)
        checked_ints(d=d, r=r)
        config = chern.config
        if len(q) != config.num_points:
            raise ValueError(
                f"expected {config.num_points} multiplicities, got {len(q)}"
            )
        if any(checked_int(qi, "q entry") < 0 for qi in q):
            raise ValueError(f"multiplicities must be >= 0, got {q}")
        if 2 * d < chern.c1.a:
            raise ValueError(
                f"need 2d >= c1.a (d the larger fibre degree), got d={d}, "
                f"c1.a={chern.c1.a}"
            )

    @property
    def config(self) -> SurfaceConfig:
        return self.chern.config


def zeta_class(datum: ExtensionDatum) -> DivisorClass:
    """Difference of the sub and quotient line-bundle classes of the extension."""
    c1 = datum.chern.c1
    exc = tuple(2 * qi - gi for qi, gi in zip(datum.q, c1.exc))
    return DivisorClass(2 * datum.d - c1.a, 2 * datum.r - c1.b, exc, c1.config)


def _subscheme_length_from_zeta(chern: ChernData, zeta: DivisorClass) -> int:
    """Length c2 + (zeta^2 - c1^2)/4 of the vanishing subscheme.

    Requires zeta congruent to c1 mod 2 componentwise, which makes the
    numerator divisible by 4.  A negative result is reported through
    NegativeLengthWarning rather than an error.
    """
    c1 = chern.c1
    _require_same_config(zeta, c1)
    if any((z - c) % 2 for z, c in zip((zeta.a, zeta.b, *zeta.exc), (c1.a, c1.b, *c1.exc))):
        raise ParityError(
            f"zeta = {zeta} is not congruent to c1 = {c1} mod 2"
        )
    numerator = pairing(zeta, zeta) - pairing(c1, c1)
    assert numerator % 4 == 0, "parity congruence guarantees divisibility by 4"
    length = chern.c2 + numerator // 4
    if length < 0:
        warnings.warn(
            f"derived subscheme length {length} is negative; "
            "no locally free extension realizes this data",
            NegativeLengthWarning,
            stacklevel=2,
        )
    return checked_int(length, "subscheme length")


def subscheme_length(datum: ExtensionDatum) -> int:
    """Length of the vanishing subscheme attached to an extension datum."""
    return _subscheme_length_from_zeta(datum.chern, zeta_class(datum))


def r0_generic(genus: int, eta: int, c2: int) -> int:
    """Generic section degree r0 = ceil((eta - c2 - genus)/2).

    This is the balanced rounding forced by Nagata's bound on maximal
    sub-line-bundles of the pushforward to the base curve; it satisfies
    eta - c2 - genus <= 2*r0 <= eta - c2 - genus + 1.  The difference, of
    checked ints, may leave the 64-bit range; only r0 is range-checked.
    """
    checked_ints(genus=genus, eta=eta, c2=c2)
    if genus < 0:
        raise ValueError(f"genus must be >= 0, got {genus}")
    return checked_int(-((c2 + genus - eta) // 2), "section degree")


def pushforward_degree_bound(
    r: int, beta: int, genus: int, c2: int, q: tuple[int, ...] | list[int] = ()
) -> bool:
    """Whether 2r >= beta - genus - c2 + sum over q_i >= 2 of (1 - q_i)^2.

    Necessary for the section degree of a generic extension with fibre
    degree zero: pushing the extension forward to the base curve and
    applying Nagata's bound to the resulting rank-two bundle yields exactly
    this inequality, with the quadratic correction contributed by
    multiplicities 2 and larger.
    """
    checked_ints(r=r, beta=beta, genus=genus, c2=c2)
    if genus < 0:
        raise ValueError(f"genus must be >= 0, got {genus}")
    if any(checked_int(qi, "q entry") < 0 for qi in q):
        raise ValueError(f"multiplicities must be >= 0, got {tuple(q)}")
    correction = sum((1 - qi) ** 2 for qi in q if qi >= 2)
    return 2 * r >= beta - genus - c2 + correction


def chern_twist(chern: ChernData, t: DivisorClass) -> ChernData:
    """Chern data of V tensored with the line bundle O(T).

    (c1, c2) maps to (c1 + 2T, c2 + c1.T + T^2); the discriminant
    4*c2 - c1^2 is unchanged.
    """
    # each partial sum lies coordinatewise between c1 and c1 + 2T, so only an
    # out-of-range result raises; ConfigMismatchError on foreign T
    c1 = chern.c1 + t + t
    c2 = checked_int(chern.c2 + pairing(chern.c1, t) + pairing(t, t), "twisted c2")
    return ChernData(c1, c2)


def normalize_chern(chern: ChernData) -> ChernData:
    """Twist so every c1 coefficient lands in {0, 1}.

    The normal form depends only on c1 mod 2 and the discriminant, so it is
    itself a twist invariant; downstream classification reads its c2.
    """
    c1 = chern.c1
    t = DivisorClass(
        -(c1.a // 2),
        -(c1.b // 2),
        tuple(-(c // 2) for c in c1.exc),
        c1.config,
    )
    return chern_twist(chern, t)


def is_extension_unique(datum: ExtensionDatum) -> bool:
    """True when 2d > c1.a, in which case the bundle determines its extension.

    With strict inequality the pushforward of the twisted bundle is a line
    bundle and the presentation data (r, q_i, subscheme) is forced; in the
    balanced case 2d = c1.a several presentations can share one bundle.
    """
    return 2 * datum.d > datum.chern.c1.a
