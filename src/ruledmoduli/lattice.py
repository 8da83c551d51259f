"""Exact integer intersection theory on a blowup of a geometrically ruled surface.

The surface is X -> S -> C, where S is geometrically ruled over a smooth
genus-g curve C with invariant e, and X is the blowup of S at m general
points.  Numerical divisor classes form a free lattice with basis
{C0, F, E1, ..., Em}: C0 the minimal section (C0^2 = -e), F the fibre class,
Ei the exceptional curves.  The pairing is

    C0.C0 = -e,  C0.F = 1,  F.F = 0,  Ei.Ej = -delta_ij,

with all mixed products zero, giving signature (1, m+1).  Everything here is
plain integer arithmetic; nothing is approximate, and results leaving the
declared 64-bit range raise instead of degrading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from operator import add, mul, neg, sub

from .errors import (
    INT64_MAX,
    INT64_MIN,
    ConfigMismatchError,
    InvalidPolarizationError,
    ParityError,
    UnsupportedSurfaceError,
    checked_int,
    checked_ints,
)


@dataclass(frozen=True)
class SurfaceConfig:
    """The triple (genus, e, m) of ints that fixes the surface and its lattice."""

    genus: int
    invariant_e: int
    num_points: int = 0

    def __post_init__(self) -> None:
        checked_ints(genus=self.genus, invariant_e=self.invariant_e, num_points=self.num_points)
        if self.genus < 0:
            raise ValueError(f"genus must be >= 0, got {self.genus}")
        if self.num_points < 0:
            raise ValueError(f"num_points must be >= 0, got {self.num_points}")
        if self.genus == 0 and self.invariant_e < 0:
            raise ValueError(
                "a rational ruled surface has invariant e >= 0, "
                f"got e = {self.invariant_e}"
            )

    @property
    def rank(self) -> int:
        """Rank of the numerical lattice, m + 2."""
        return self.num_points + 2

    def divisor(self, a: int = 0, b: int = 0, exc=None) -> "DivisorClass":
        exc = (0,) * self.num_points if exc is None else tuple(exc)
        return DivisorClass(a, b, exc, self)

    def zero(self) -> "DivisorClass":
        return self.divisor()

    def minimal_section(self) -> "DivisorClass":
        return self.divisor(a=1)

    def fiber(self) -> "DivisorClass":
        return self.divisor(b=1)

    def exceptional(self, i: int) -> "DivisorClass":
        """E_i, with i running from 1 to m as in the basis labels."""
        if not 1 <= checked_int(i, "exceptional index") <= self.num_points:
            raise ValueError(f"exceptional index {i} outside 1..{self.num_points}")
        exc = [0] * self.num_points
        exc[i - 1] = 1
        return self.divisor(exc=exc)

    def fiber_transform(self, i: int) -> "DivisorClass":
        """Strict transform F - E_i of the fibre through the i-th point."""
        return self.fiber() - self.exceptional(i)


@dataclass(frozen=True, slots=True)
class DivisorClass:
    """Integer vector (a, b, c_1..c_m) in the basis {C0, F, E1..Em}.

    Every coordinate must be an ``int`` (``bool`` is not one); anything else
    raises TypeError.  A class is range-checked once, when it is built: the
    constructor and the arithmetic operators check the coordinates of the
    class they return and nothing else.
    """

    a: int
    b: int
    exc: tuple[int, ...]
    config: SurfaceConfig = field(repr=False)

    def __post_init__(self) -> None:
        exc = self.exc
        if type(exc) is not tuple:
            exc = tuple(exc)
            _set_exc(self, exc)
        if len(exc) != self.config.num_points:
            raise ValueError(
                f"expected {self.config.num_points} exceptional coefficients, "
                f"got {len(exc)}"
            )
        _check_coordinates(self.a, self.b, exc)

    @classmethod
    def _unchecked(cls, a: int, b: int, exc: tuple[int, ...], config: SurfaceConfig) -> "DivisorClass":
        """Build a class without validation, for engines that have already
        range-checked the coordinates and hold ``exc`` as a tuple of length m.

        The slots are filled through their member descriptors, which skips
        the frozen ``__setattr__`` and the ``__init__`` call.
        """
        self = object.__new__(cls)
        _set_a(self, a)
        _set_b(self, b)
        _set_exc(self, exc)
        _set_config(self, config)
        return self

    @classmethod
    def _checked(cls, a: int, b: int, exc: tuple[int, ...], config: SurfaceConfig) -> "DivisorClass":
        """The class operators' constructor: ``exc`` is a tuple of length m,
        so only the coordinates are checked."""
        _check_coordinates(a, b, exc)
        return cls._unchecked(a, b, exc, config)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        _require_same_config(self, other)
        exc = tuple(map(add, self.exc, other.exc))
        return DivisorClass._checked(self.a + other.a, self.b + other.b, exc, self.config)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        _require_same_config(self, other)
        exc = tuple(map(sub, self.exc, other.exc))
        return DivisorClass._checked(self.a - other.a, self.b - other.b, exc, self.config)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass._checked(-self.a, -self.b, tuple(map(neg, self.exc)), self.config)

    def __mul__(self, scalar: int):
        if type(scalar) is not int:  # a bool is refused, as by errors.checked_int
            return NotImplemented
        checked_int(scalar, "scalar")
        exc = tuple(map(mul, repeat(scalar), self.exc))
        return DivisorClass._checked(scalar * self.a, scalar * self.b, exc, self.config)

    __rmul__ = __mul__

    def __str__(self) -> str:
        terms = []
        for coeff, name in [(self.a, "C0"), (self.b, "F")] + [
            (c, f"E{i + 1}") for i, c in enumerate(self.exc)
        ]:
            if coeff == 0:
                continue
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            body = name if mag == 1 else f"{mag}*{name}"
            terms.append((sign, body))
        if not terms:
            return "0"
        first_sign, first_body = terms[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out


_set_a, _set_b, _set_exc, _set_config = (
    DivisorClass.a.__set__,
    DivisorClass.b.__set__,
    DivisorClass.exc.__set__,
    DivisorClass.config.__set__,
)


def _check_coordinates(a: int, b: int, exc: tuple[int, ...]) -> None:
    """Raise unless every coordinate is an int in the 64-bit range.

    One pass of type and range tests covers the usual in-range class; only
    when it fails does ``checked_int`` gate the coordinates one by one, C0,
    F, then the exceptional ones, so the first bad coordinate names the error.
    """
    if type(a) is int is type(b) and INT64_MIN <= a <= INT64_MAX and INT64_MIN <= b <= INT64_MAX:
        for c in exc:
            if type(c) is not int or not INT64_MIN <= c <= INT64_MAX:
                break
        else:
            return
    checked_int(a, "C0 coefficient")
    checked_int(b, "F coefficient")
    for c in exc:
        checked_int(c, "exceptional coefficient")


class EffectivityVerdict(Enum):
    EFFECTIVE = "effective"
    NOT_EFFECTIVE = "not_effective"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Effectivity:
    """Semi-decision for membership in the effective cone.

    Certified answers only: an EFFECTIVE verdict carries an explicit
    decomposition over {C0, F, Ei, F-Ei}; a NOT_EFFECTIVE verdict carries
    the violated necessary condition.  Everything else is UNKNOWN.
    """

    verdict: EffectivityVerdict
    decomposition: dict[str, int] | None = None
    violated: str | None = None

    def __post_init__(self) -> None:
        if self.verdict is EffectivityVerdict.EFFECTIVE and self.decomposition is None:
            raise ValueError("effective verdicts must carry a decomposition witness")
        if self.verdict is EffectivityVerdict.NOT_EFFECTIVE and self.violated is None:
            raise ValueError("not-effective verdicts must carry a violated condition")


def _require_same_config(d1: DivisorClass, d2: DivisorClass) -> None:
    if d1.config is not d2.config and d1.config != d2.config:
        raise ConfigMismatchError(
            f"classes live on different surfaces: {d1.config} vs {d2.config}"
        )


def _require_surface(config: SurfaceConfig, other: SurfaceConfig, what: str) -> None:
    """The surface check of every engine: ``what`` lives on ``other``."""
    if other is not config and other != config:
        raise ConfigMismatchError(f"{what} does not live on the given surface")


def pairing(d1: DivisorClass, d2: DivisorClass) -> int:
    """Symmetric bilinear intersection pairing, exact and not range-checked.

    For the terms of a formula that range-checks its own result; the package
    does not export it.
    """
    _require_same_config(d1, d2)
    e = d1.config.invariant_e
    total = -e * d1.a * d2.a + d1.a * d2.b + d2.a * d1.b
    return total - sum(map(mul, d1.exc, d2.exc))


def intersect(d1: DivisorClass, d2: DivisorClass) -> int:
    """Symmetric bilinear intersection pairing of two divisor classes."""
    return checked_int(pairing(d1, d2), "intersection number")


@dataclass(frozen=True)
class Polarization:
    """An ample candidate; construction rejects classes failing the checks.

    ``checks`` records necessary positivity values for an ample class L:
    L.L, L.F, L.C0 and, for each blown-up point, L.Ei and L.(F-Ei).  A class
    failing any of them cannot be ample; passing all of them is a filter, not
    an ampleness certificate.  The wall and stability searches read L's basis
    pairings from here; it lives in ``lattice`` so that neither engine needs
    the other.
    """

    cls: DivisorClass
    checks: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        L, config = self.cls, self.cls.config
        checks = {
            "L.L": intersect(L, L),
            "L.F": intersect(L, config.fiber()),
            "L.C0": intersect(L, config.minimal_section()),
        }
        for i in range(1, config.num_points + 1):
            checks[f"L.E{i}"] = intersect(L, config.exceptional(i))
            checks[f"L.(F-E{i})"] = intersect(L, config.fiber_transform(i))
        for name, value in checks.items():
            if value <= 0:
                raise InvalidPolarizationError(
                    f"{name} = {value} must be positive for an ample class"
                )
        object.__setattr__(self, "checks", checks)

    @property
    def config(self) -> SurfaceConfig:
        return self.cls.config


def canonical_class(config: SurfaceConfig) -> DivisorClass:
    """Canonical class K = -2*C0 + (2g - 2 - e)*F + sum Ei.

    The formula is pinned down by adjunction: K.F = -2 with F^2 = 0 (rational
    fibres), K.Ei = -1 with Ei^2 = -1, and K.C0 = e + 2g - 2 with C0^2 = -e.
    """
    k = _canonical_term(config)
    return DivisorClass._checked(k.a, k.b, k.exc, config)


def _canonical_term(config: SurfaceConfig) -> DivisorClass:
    """K without its range check, for a formula that checks its own result:
    K may leave the range when K - D does not."""
    b = 2 * config.genus - 2 - config.invariant_e
    return DivisorClass._unchecked(-2, b, (1,) * config.num_points, config)


def euler_char(config: SurfaceConfig, d: DivisorClass) -> int:
    """Euler characteristic chi(O_X(D)) by Riemann-Roch.

    chi(D) = chi(O_X) + D.(D - K)/2 with chi(O_X) = 1 - g.  D.K has the
    closed form a(2g - 2 + e) - 2b - sum(ci), read off ``canonical_class``
    on ints, since K itself may leave the range when D.(D - K) does not.
    The pairing D.(D - K) is even on any smooth surface; a parity failure
    therefore means the lattice data is corrupt and raises ParityError.
    """
    _require_surface(config, d.config, "divisor")
    d_k = d.a * (2 * config.genus - 2 + config.invariant_e) - 2 * d.b - sum(d.exc)
    d_dk = pairing(d, d) - d_k
    if d_dk % 2 != 0:
        raise ParityError(f"D.(D-K) = {d_dk} is odd; lattice data is corrupt")
    return checked_int((1 - config.genus) + d_dk // 2, "Euler characteristic")


def _effectivity_run(genus: int, a: int, exc: tuple[int, ...]) -> tuple[int | None, int] | None:
    """The effectivity rule for the run of b in a*C0 + b*F + sum(ci*Ei), exact and unchecked:
    None when a < 0 (the fibre rule), else (lo, need).  b < lo is NOT_EFFECTIVE (the pushforward
    rule: lo = 0 on genus 0, None for no bound elsewhere), b >= need = sum(max(0, -ci)) is
    EFFECTIVE (the cone of {C0, F, Ei, F-Ei}), and UNKNOWN lies between."""
    if a < 0:
        return None
    return (0 if genus == 0 else None), (sum(map(abs, exc)) - sum(exc)) // 2


_UNKNOWN = Effectivity(EffectivityVerdict.UNKNOWN)


def effectivity(d: DivisorClass) -> Effectivity:
    """Sound semi-decision for effectivity, read off ``_effectivity_run(genus, a, exc)``.

    EFFECTIVE carries the decomposition over {C0, F, Ei, F-Ei}, with F coefficient b - need,
    and NOT_EFFECTIVE the violated condition.  The rest is one shared UNKNOWN answer: the
    full effective cone of a general-point blowup is not known, so soundness wins over
    completeness."""
    run = _effectivity_run(d.config.genus, d.a, d.exc)
    if run is None:
        return Effectivity(EffectivityVerdict.NOT_EFFECTIVE,
                           violated=f"pairing with the nef fibre class is {d.a} < 0")
    lo, need = run
    if d.b >= need:
        decomposition: dict[str, int] = {}
        if d.a:
            decomposition["C0"] = d.a
        if d.b - need:
            decomposition["F"] = d.b - need
        for i, c in enumerate(d.exc):
            if c > 0:
                decomposition[f"E{i + 1}"] = c
            elif c < 0:
                decomposition[f"F-E{i + 1}"] = -c
        return Effectivity(EffectivityVerdict.EFFECTIVE, decomposition=decomposition)
    if lo is not None and d.b < lo:
        return Effectivity(EffectivityVerdict.NOT_EFFECTIVE, violated=(
            f"pushforward to the minimal rational ruled surface has F-coefficient {d.b} < {lo}"))
    return _UNKNOWN


def h0_hirzebruch(config: SurfaceConfig, d: DivisorClass) -> int:
    """Exact section count h^0(a*C0 + b*F) on a Hirzebruch surface.

    Pushing forward to the base line splits the bundle into degrees
    b, b - e, ..., b - a*e, so h^0 = sum_k max(0, b - k*e + 1) for a >= 0
    and 0 otherwise.  Only valid for genus 0 with no blown-up points.
    """
    if config.genus != 0 or config.num_points != 0:
        raise UnsupportedSurfaceError(
            "exact section counts require genus 0 and no blown-up points"
        )
    _require_surface(config, d.config, "divisor")
    return checked_int(_h0_hirzebruch(config.invariant_e, d.a, d.b), "section count")


def _h0_hirzebruch(e: int, a: int, b: int) -> int:
    """sum_{k=0..a} max(0, b - k*e + 1) in closed form, unchecked.

    For e > 0 the positive terms are those with k <= b // e, an arithmetic
    run of n = min(a, b // e) + 1 terms starting at b + 1.
    """
    if a < 0 or b < 0:
        return 0
    if e == 0:
        return (a + 1) * (b + 1)
    n = min(a, b // e) + 1
    return n * (b + 1) - e * n * (n - 1) // 2
