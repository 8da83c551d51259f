"""Numerical destabilizer search for rank-two extension bundles.

A bundle presented by a sub-line-bundle class ``sub`` and a quotient class
``quot`` twisted by the ideal of a general length-ell subscheme is L-stable
when every rank-one subsheaf O(A) satisfies 2*(A.L) < c1.L.  Any such A
injects either into the sub (branch 1: sub - A effective) or into the
ideal-twisted quotient (branch 2: quot - A effective, and on surfaces with
exact section counts the generality of the subscheme prunes further).  The
search enumerates a finite coefficient box, so a STABLE_CERTIFIED verdict is
always relative to the recorded box.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product

from .errors import BoxTooLargeError, checked_int
from .lattice import (
    DivisorClass,
    Effectivity,
    EffectivityVerdict,
    SurfaceConfig,
    effectivity,
    h0_hirzebruch,
    intersect,
)
from .walls import Polarization


class StabilityOutcome(Enum):
    STABLE_CERTIFIED = "stable_certified"
    DESTABILIZER_FOUND = "destabilizer_found"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SearchBox:
    """Coefficient bounds |a| <= section, |b| <= fiber, |c_i| <= exceptional."""

    section_bound: int
    fiber_bound: int
    exceptional_bound: int

    def __post_init__(self) -> None:
        if min(self.section_bound, self.fiber_bound, self.exceptional_bound) < 0:
            raise ValueError("box bounds must be nonnegative")

    def volume(self, num_points: int) -> int:
        return (
            (2 * self.section_bound + 1)
            * (2 * self.fiber_bound + 1)
            * (2 * self.exceptional_bound + 1) ** num_points
        )

    def to_json(self) -> dict:
        return {
            "a": self.section_bound,
            "b": self.fiber_bound,
            "exc": self.exceptional_bound,
        }


def default_box(sub: DivisorClass, quot: DivisorClass) -> SearchBox:
    entries = [sub.a, sub.b, *sub.exc, quot.a, quot.b, *quot.exc]
    bound = max(5, max(abs(x) for x in entries) + 3)
    return SearchBox(bound, bound, bound)


@dataclass(frozen=True)
class DestabilizerCandidate:
    """One branch evaluation of a candidate subsheaf class with margin >= 0."""

    divisor: DivisorClass
    branch: int  # 1: injects into the sub, 2: into the ideal-twisted quotient
    effectivity: Effectivity
    margin_times_two: int
    pruned: bool = False

    def to_json(self) -> dict:
        return {
            "a": self.divisor.to_json(),
            "branch": self.branch,
            "effectivity": self.effectivity.to_json(),
            "slope_margin": [self.margin_times_two, 2],
            "pruned": self.pruned,
        }


@dataclass(frozen=True)
class StabilityVerdict:
    verdict: StabilityOutcome
    candidates: tuple[DestabilizerCandidate, ...]
    box: SearchBox
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "candidates": [c.to_json() for c in self.candidates],
            "box": self.box.to_json(),
            "notes": list(self.notes),
        }


def slope_margin(a: DivisorClass, c1: DivisorClass, l_cls: DivisorClass) -> int:
    """Doubled slope margin 2*(A.L) - c1.L; A destabilizes exactly when >= 0.

    Strictly positive means not even semistable.  Doubling keeps everything
    in integers.
    """
    return checked_int(
        2 * intersect(a, l_cls) - intersect(c1, l_cls), "slope margin"
    )


def _pruning_twist(config: SurfaceConfig, quot: DivisorClass, ell: int, box: SearchBox) -> int:
    """Largest fibre twist k with h^0(quot + k*F) <= ell, capped.

    Sections of the ideal-twisted quotient drop by ell for a general
    subscheme, so a branch-2 candidate A must have h^0(A + k*F) = 0 for any
    such k; by monotonicity in k testing the largest one suffices.  When the
    quotient has negative fibre degree every k qualifies and the cap rules
    out all candidates with nonnegative C0-coefficient, which is exactly
    what an everywhere-sectionless quotient forces.
    """
    cap = box.fiber_bound + ell + abs(quot.b) + 3
    k = cap
    floor = -(abs(quot.b) + cap + 4)
    while k > floor and h0_hirzebruch(config, quot + k * config.fiber()) > ell:
        k -= 1
    return k


def destabilizer_search(
    config: SurfaceConfig,
    sub: DivisorClass,
    quot: DivisorClass,
    ell: int,
    polarization: Polarization,
    box: SearchBox | None = None,
    *,
    max_candidates: int = 500_000,
) -> StabilityVerdict:
    """Search the box for numerical destabilizers of the extension bundle.

    Verdicts: DESTABILIZER_FOUND when some candidate with margin >= 0 has a
    certified-effective branch that pruning cannot exclude; INCONCLUSIVE
    when the only surviving branches carry UNKNOWN effectivity;
    STABLE_CERTIFIED when every margin >= 0 candidate fails both branches.
    """
    if ell < 0:
        raise ValueError(f"subscheme length must be >= 0, got {ell}")
    if box is None:
        box = default_box(sub, quot)
    m = config.num_points
    if box.volume(m) > max_candidates:
        raise BoxTooLargeError(
            f"box volume {box.volume(m)} exceeds the cap of {max_candidates}"
        )

    l_cls = polarization.cls
    c1 = sub + quot
    c1_l = intersect(c1, l_cls)
    exact_counts = config.genus == 0 and m == 0
    k_star = _pruning_twist(config, quot, ell, box) if exact_counts else None

    candidates: list[DestabilizerCandidate] = []
    found = False
    inconclusive = False
    exc_ranges = [range(-box.exceptional_bound, box.exceptional_bound + 1)] * m
    for a in range(-box.section_bound, box.section_bound + 1):
        for b in range(-box.fiber_bound, box.fiber_bound + 1):
            for exc in product(*exc_ranges):
                cand = DivisorClass(a, b, exc, config)
                margin2 = 2 * intersect(cand, l_cls) - c1_l
                if margin2 < 0:
                    continue
                eff_sub = effectivity(sub - cand)
                if eff_sub.verdict is not EffectivityVerdict.NOT_EFFECTIVE:
                    candidates.append(
                        DestabilizerCandidate(
                            cand, 1, eff_sub, checked_int(margin2, "slope margin")
                        )
                    )
                    if eff_sub.verdict is EffectivityVerdict.EFFECTIVE:
                        found = True
                    else:
                        inconclusive = True
                eff_quot = effectivity(quot - cand)
                if eff_quot.verdict is not EffectivityVerdict.NOT_EFFECTIVE:
                    pruned = bool(
                        exact_counts
                        and h0_hirzebruch(config, cand + k_star * config.fiber()) > 0
                    )
                    candidates.append(
                        DestabilizerCandidate(
                            cand, 2, eff_quot, checked_int(margin2, "slope margin"), pruned
                        )
                    )
                    if not pruned:
                        if eff_quot.verdict is EffectivityVerdict.EFFECTIVE:
                            found = True
                        else:
                            inconclusive = True

    if found:
        outcome = StabilityOutcome.DESTABILIZER_FOUND
    elif inconclusive:
        outcome = StabilityOutcome.INCONCLUSIVE
    else:
        outcome = StabilityOutcome.STABLE_CERTIFIED

    notes = (
        (
            f"certificate relative to the box |a| <= {box.section_bound}, "
            f"|b| <= {box.fiber_bound}, |c_i| <= {box.exceptional_bound}"
        ),
        (
            "margins only fall off outside the box: for k >= 0, "
            "margin(A - k*F) = margin(A) - 2k*(L.F) and "
            "margin(A - k*C0) = margin(A) - 2k*(L.C0), both strictly decreasing"
        ),
    )
    return StabilityVerdict(outcome, tuple(candidates), box, notes)
