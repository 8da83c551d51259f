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

from .errors import (
    ConfigMismatchError,
    ParityError,
    UnsupportedSurfaceError,
    checked_int,
)


@dataclass(frozen=True)
class SurfaceConfig:
    """The triple (genus, e, m) that fixes the surface and its lattice."""

    genus: int
    invariant_e: int
    num_points: int = 0

    def __post_init__(self) -> None:
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

    def divisor(self, a: int = 0, b: int = 0, exc=()) -> "DivisorClass":
        exc = tuple(exc) if exc else (0,) * self.num_points
        return DivisorClass(a, b, exc, self)

    def zero(self) -> "DivisorClass":
        return self.divisor()

    def minimal_section(self) -> "DivisorClass":
        return self.divisor(a=1)

    def fiber(self) -> "DivisorClass":
        return self.divisor(b=1)

    def exceptional(self, i: int) -> "DivisorClass":
        """E_i, with i running from 1 to m as in the basis labels."""
        if not 1 <= i <= self.num_points:
            raise ValueError(f"exceptional index {i} outside 1..{self.num_points}")
        exc = [0] * self.num_points
        exc[i - 1] = 1
        return self.divisor(exc=exc)

    def fiber_transform(self, i: int) -> "DivisorClass":
        """Strict transform F - E_i of the fibre through the i-th point."""
        return self.fiber() - self.exceptional(i)

    def to_json(self) -> dict:
        return {"genus": self.genus, "e": self.invariant_e, "points": self.num_points}

    @classmethod
    def from_json(cls, obj: dict) -> "SurfaceConfig":
        _require_keys(obj, {"genus", "e", "points"}, "surface config")
        return cls(
            genus=_require_int(obj["genus"], "genus"),
            invariant_e=_require_int(obj["e"], "e"),
            num_points=_require_int(obj["points"], "points"),
        )


@dataclass(frozen=True)
class DivisorClass:
    """Integer vector (a, b, c_1..c_m) in the basis {C0, F, E1..Em}."""

    a: int
    b: int
    exc: tuple[int, ...]
    config: SurfaceConfig = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "exc", tuple(self.exc))
        if len(self.exc) != self.config.num_points:
            raise ValueError(
                f"expected {self.config.num_points} exceptional coefficients, "
                f"got {len(self.exc)}"
            )
        checked_int(self.a, "C0 coefficient")
        checked_int(self.b, "F coefficient")
        for c in self.exc:
            checked_int(c, "exceptional coefficient")

    @classmethod
    def _unchecked(cls, a: int, b: int, exc: tuple[int, ...], config: SurfaceConfig) -> "DivisorClass":
        """Build a class without validation, for engines that have already
        range-checked the coordinates and hold ``exc`` as a tuple of length m."""
        self = object.__new__(cls)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "exc", exc)
        object.__setattr__(self, "config", config)
        return self

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        _require_same_config(self, other)
        exc = tuple(x + y for x, y in zip(self.exc, other.exc))
        return DivisorClass(self.a + other.a, self.b + other.b, exc, self.config)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-other)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(-self.a, -self.b, tuple(-c for c in self.exc), self.config)

    def __mul__(self, scalar: int):
        if not isinstance(scalar, int):
            return NotImplemented
        return DivisorClass(
            scalar * self.a,
            scalar * self.b,
            tuple(scalar * c for c in self.exc),
            self.config,
        )

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

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "exc": list(self.exc)}

    @classmethod
    def from_json(cls, obj: dict, config: SurfaceConfig) -> "DivisorClass":
        _require_keys(obj, {"a", "b", "exc"}, "divisor class")
        exc = obj["exc"]
        if not isinstance(exc, list):
            raise ValueError("divisor field 'exc' must be a list of integers")
        return cls(
            _require_int(obj["a"], "a"),
            _require_int(obj["b"], "b"),
            tuple(_require_int(c, "exc entry") for c in exc),
            config,
        )


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

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "decomposition": self.decomposition,
            "violated": self.violated,
        }


def _require_same_config(d1: DivisorClass, d2: DivisorClass) -> None:
    if d1.config != d2.config:
        raise ConfigMismatchError(
            f"classes live on different surfaces: {d1.config} vs {d2.config}"
        )


def _require_keys(obj: dict, keys: set[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    extra = set(obj) - keys
    missing = keys - set(obj)
    if extra:
        raise ValueError(f"{what} has unknown fields: {sorted(extra)}")
    if missing:
        raise ValueError(f"{what} is missing fields: {sorted(missing)}")


def _require_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field '{name}' must be an integer, got {value!r}")
    return checked_int(value, f"field '{name}'")


def intersect(d1: DivisorClass, d2: DivisorClass) -> int:
    """Symmetric bilinear intersection pairing of two divisor classes."""
    _require_same_config(d1, d2)
    e = d1.config.invariant_e
    total = -e * d1.a * d2.a + d1.a * d2.b + d2.a * d1.b
    total -= sum(x * y for x, y in zip(d1.exc, d2.exc))
    return checked_int(total, "intersection number")


def canonical_class(config: SurfaceConfig) -> DivisorClass:
    """Canonical class K = -2*C0 + (2g - 2 - e)*F + sum Ei.

    The formula is pinned down by adjunction: K.F = -2 with F^2 = 0 (rational
    fibres), K.Ei = -1 with Ei^2 = -1, and K.C0 = e + 2g - 2 with C0^2 = -e.
    """
    return config.divisor(
        a=-2,
        b=2 * config.genus - 2 - config.invariant_e,
        exc=(1,) * config.num_points,
    )


def euler_char(config: SurfaceConfig, d: DivisorClass) -> int:
    """Euler characteristic chi(O_X(D)) by Riemann-Roch.

    chi(D) = chi(O_X) + D.(D - K)/2 with chi(O_X) = 1 - g.  The pairing
    D.(D - K) is even on any smooth surface; a parity failure therefore means
    the lattice data is corrupt and raises ParityError.
    """
    if d.config != config:
        raise ConfigMismatchError("divisor does not live on the given surface")
    pairing = intersect(d, d - canonical_class(config))
    if pairing % 2 != 0:
        raise ParityError(f"D.(D-K) = {pairing} is odd; lattice data is corrupt")
    return checked_int((1 - config.genus) + pairing // 2, "Euler characteristic")


def effectivity(d: DivisorClass) -> Effectivity:
    """Sound semi-decision for effectivity of a divisor class.

    EFFECTIVE when d is a nonnegative integer combination of the honestly
    effective classes {C0, F, Ei, F-Ei}; the cone these span is simplicial
    enough that membership has a closed form: a >= 0 and
    b >= sum(max(0, -ci)).  NOT_EFFECTIVE when d.F < 0, or, for genus 0,
    when the pushforward a*C0 + b*F to the minimal model fails a >= 0 or
    b >= 0 (the effective cone of a Hirzebruch surface).  Everything else is
    UNKNOWN: the full effective cone of a general-point blowup is not known,
    so soundness wins over completeness.
    """
    fiber_degree = d.a  # d.F with the mixed products zero
    need = sum(max(0, -c) for c in d.exc)
    if d.a >= 0 and d.b - need >= 0:
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
    if fiber_degree < 0:
        return Effectivity(
            EffectivityVerdict.NOT_EFFECTIVE,
            violated=f"pairing with the nef fibre class is {fiber_degree} < 0",
        )
    if d.config.genus == 0 and d.b < 0:
        return Effectivity(
            EffectivityVerdict.NOT_EFFECTIVE,
            violated=(
                f"pushforward to the minimal rational ruled surface has "
                f"F-coefficient {d.b} < 0"
            ),
        )
    return Effectivity(EffectivityVerdict.UNKNOWN)


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
    if d.config != config:
        raise ConfigMismatchError("divisor does not live on the given surface")
    if d.a < 0:
        return 0
    e = config.invariant_e
    return sum(max(0, d.b - k * e + 1) for k in range(d.a + 1))
