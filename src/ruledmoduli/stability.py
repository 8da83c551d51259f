"""Numerical destabilizer search for rank-two extension bundles.

A bundle presented by a sub-line-bundle class ``sub`` and a quotient class
``quot`` twisted by the ideal of a general length-ell subscheme is L-stable
when every rank-one subsheaf O(A) satisfies 2*(A.L) < c1.L.  Any such A
injects either into the sub (branch 1: sub - A effective) or into the
ideal-twisted quotient (branch 2: quot - A effective, and on surfaces with
exact section counts the generality of the subscheme prunes further).  Which
branches A has is ``lattice._effectivity_run``'s answer.  The search walks a
finite box, and a STABLE_CERTIFIED verdict is relative to it; a search costs
one pass over the box's (a, exc) slices plus one step per recorded candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from operator import sub as minus

from .errors import BoxTooLargeError, checked_int
from .lattice import (
    DivisorClass,
    Effectivity,
    EffectivityVerdict,
    Polarization,
    SurfaceConfig,
    _UNKNOWN,
    _effectivity_run,
    _h0_hirzebruch,
    _require_surface,
    effectivity,
    pairing,
)


_BOX_CAP = 500_000  # the most points a search box may hold


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
        bounds = (self.section_bound, self.fiber_bound, self.exceptional_bound)
        if min(checked_int(bound, "box bound") for bound in bounds) < 0:
            raise ValueError("box bounds must be nonnegative")

    def volume(self, num_points: int) -> int:
        return (
            (2 * self.section_bound + 1)
            * (2 * self.fiber_bound + 1)
            * (2 * self.exceptional_bound + 1) ** num_points
        )


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


@dataclass(frozen=True)
class StabilityVerdict:
    verdict: StabilityOutcome
    candidates: tuple[DestabilizerCandidate, ...]
    box: SearchBox
    notes: tuple[str, ...] = ()


def slope_margin(a: DivisorClass, c1: DivisorClass, l_cls: DivisorClass) -> int:
    """Doubled slope margin 2*(A.L) - c1.L; A destabilizes exactly when >= 0.

    Strictly positive means not even semistable.  Doubling keeps everything
    in integers.
    """
    return checked_int(2 * pairing(a, l_cls) - pairing(c1, l_cls), "slope margin")


def destabilizer_search(
    config: SurfaceConfig,
    sub: DivisorClass,
    quot: DivisorClass,
    ell: int,
    polarization: Polarization,
    box: SearchBox | None = None,
) -> StabilityVerdict:
    """Search the box for numerical destabilizers of the extension bundle.

    Each box class A with margin >= 0 is recorded once per branch whose
    class X - A is not certified non-effective, in (a, b, exc, branch)
    order.  The verdict is read off the records: DESTABILIZER_FOUND when an
    unpruned one is certified effective, INCONCLUSIVE when unpruned ones
    remain but all are UNKNOWN, STABLE_CERTIFIED otherwise, including when
    every survivor is pruned.  A certificate is relative to the box, which
    may hold at most ``_BOX_CAP`` points (else BoxTooLargeError).

    The doubled margin is linear in A, with weights C0.L, F.L > 0 and Ei.L
    read from ``polarization.checks``.  On a slice (a, exc), X - A has fixed a and exc,
    so ``lattice._effectivity_run`` gives branch X one run of b (none, or b <= X.b - lo)
    and its EFFECTIVE part b <= X.b - need, the only records ``effectivity`` sees; the
    UNKNOWN rest share one answer.  The search costs one pass over the slices plus one
    step per record.

    Pruning needs exact section counts (genus 0, no blown-up points).  For
    a general Z of length ell, I_Z(quot + kF) has no sections once
    h^0(quot + kF) <= ell, so a branch-2 A with h^0(A + kF) > 0 for such a
    k cannot inject.  On F_e that h^0 is positive exactly when a >= 0 and
    k >= -b, and h^0(quot + kF) never decreases in k, so k = -b decides.
    """
    if checked_int(ell, "subscheme length") < 0:
        raise ValueError(f"subscheme length must be >= 0, got {ell}")
    if box is None:
        box = default_box(sub, quot)
    m = config.num_points
    if box.volume(m) > _BOX_CAP:
        raise BoxTooLargeError(f"box volume {box.volume(m)} exceeds the cap of {_BOX_CAP}")

    _require_surface(config, polarization.config, "polarization")
    checks = polarization.checks
    # c1.L is a term of every margin; only the margins are range-checked
    c1_l = pairing(sub, polarization.cls) + pairing(quot, polarization.cls)
    c0_l, f_l = checks["L.C0"], checks["L.F"]
    exc_l = [checks[f"L.E{i}"] for i in range(1, m + 1)]

    candidates = []
    for a in range(-box.section_bound, box.section_bound + 1):
        records = []  # (b, exc, branch, rest, b_eff) with doubled margin 2b*(F.L) - rest
        for exc in product(range(-box.exceptional_bound, box.exceptional_bound + 1), repeat=m):
            rest = c1_l - 2 * (a * c0_l + sum(c * w for c, w in zip(exc, exc_l)))
            b_lo = max(-box.fiber_bound, -(-rest // (2 * f_l)))  # the least b of margin >= 0
            if b_lo > box.fiber_bound:
                continue
            for branch, x in ((1, sub), (2, quot)):
                run = _effectivity_run(config.genus, x.a - a, tuple(map(minus, x.exc, exc)))
                if run is not None:  # X - A is EFFECTIVE for b <= b_eff = x.b - need
                    lo, need = run
                    b_hi = box.fiber_bound if lo is None else min(box.fiber_bound, x.b - lo)
                    records += [(b, exc, branch, rest, x.b - need) for b in range(b_lo, b_hi + 1)]
        records.sort()  # (b, exc, branch) is unique, so this is the box order
        point = None
        for b, exc, branch, rest, b_eff in records:
            if (b, exc) != point:  # the branches of one point share its class and margin
                point, cand = (b, exc), DivisorClass._unchecked(a, b, exc, config)
                margin2 = 2 * b * f_l - rest
            eff = effectivity((sub if branch == 1 else quot) - cand) if b <= b_eff else _UNKNOWN
            pruned = branch == 2 and a >= 0 and config.genus == 0 and m == 0 and (
                _h0_hirzebruch(config.invariant_e, quot.a, quot.b - b) <= ell
            )
            checked_int(margin2, "slope margin")
            candidates.append(DestabilizerCandidate(cand, branch, eff, margin2, pruned))

    live = [c.effectivity.verdict for c in candidates if not c.pruned]
    if EffectivityVerdict.EFFECTIVE in live:
        outcome = StabilityOutcome.DESTABILIZER_FOUND
    elif live:
        outcome = StabilityOutcome.INCONCLUSIVE
    else:
        outcome = StabilityOutcome.STABLE_CERTIFIED

    notes = (
        f"certificate relative to the box |a| <= {box.section_bound}, "
        f"|b| <= {box.fiber_bound}, |c_i| <= {box.exceptional_bound}",
        "margins only fall off outside the box: for k >= 0, margin(A - k*F) = margin(A) - 2k*(L.F) "
        "and margin(A - k*C0) = margin(A) - 2k*(L.C0), both strictly decreasing",
    )
    return StabilityVerdict(outcome, tuple(candidates), box, notes)
