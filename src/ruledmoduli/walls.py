"""Wall classes separating polarizations, and the balanced-splitting certificate.

A wall of type (c1, c2) is a class zeta congruent to c1 mod 2 with
c1^2 - 4*c2 <= zeta^2 < 0.  A wall *separates* the fibre class F from a
polarization L when zeta.F > 0 > zeta.L; a polarization is suitable for
(c1, c2) when no such wall exists, and then every stable bundle restricts to
a general fibre with balanced splitting.

Enumeration is finite because the lattice has signature (1, m+1): writing
zeta = a*C0 + b*F + sum(c_i Ei), L = p*C0 + q*F + sum(r_i Ei) with
p = L.F > 0 and L^2 > 0, the Hodge index theorem turns the defining
inequalities into

    a^2 * L^2 <= p^2 * disc,                      disc = 4*c2 - c1^2,
    sum((p*c_i - a*r_i)^2) <= p^2*disc - a^2*L^2,

and, for each (a, c), an explicit integer interval of admissible b.  Both
bounds are rederived in the test suite against a brute-force scan.

One private kernel, ``_slices``, walks the (a, c) slices of that region on
plain integers, holds the only copy of these bounds, and flags the slice
whose last b is its boundary class (zeta.L = 0 happens nowhere else);
``_boundary`` is the one place that carries a run to that class.  One
ordering walk, ``_ordered_walls``, walks each run up to it and emits the
walls and boundary classes in (a, b, exc) order, one a at a time, so it
costs one pass over the slices plus one step per emitted class.  What it
emits is up to its caller's per-run builder, called once per slice with
(a, exc), which returns the maker of one class from its (b, zeta^2, length,
zeta.L).  ``wall_search`` passes the object builder, ``_wall_objects``:
each wall is two slotted objects, a ``WallClass`` and its ``zeta``, sharing
its slice's exc tuple.  The CLI's ``walls`` handler passes a text builder
and builds no object per wall: every value it writes is one that
``_slices`` range-checks or that lies in the wall window.
``is_suitable`` and ``certify_dv_zero`` never walk a run: the first b of a
slice decides whether it holds a separating wall, so a decision costs one
pass over the slices.  On g=0, e=1, m=3, L=3C0+7F-sum Ei, c1=F+sum Ei,
c2=80 that is 7,211 non-empty slices against 69,485 emitted classes.  The
decision witness is the first separating wall in (a, b, exc) order, which
is ``wall_search(...).walls[0]``, else the first boundary class.
``_BUDGET``, read when a query starts, budgets every prefix of c the
kernel visits (8,144 there) and, in the ordering walk, every b of each run
(69,485 more).  The kernel walks the last coefficient of c as a range and
range-checks only what can leave the 64-bit range: once per a, the bound
a + isqrt(disc) + 1 on a and every c_i; per slice, the ends of its run of
b and zeta.L at the first b.  zeta^2 and the length lie in the window, so
never need a check.

``wall_search`` builds its result with the cyclic garbage collector paused
and afterwards restores the state it found (enabled or not); this is the
only place the package touches ``gc``; the CLI's text walk makes no
tracked object per wall and does not pause it.  The pause is sound because
the build makes only acyclic objects: each ``WallClass`` holds its ``zeta``
and ints, each ``zeta`` holds ints, its slice's exc tuple and the
``SurfaceConfig``, so a cyclic collection during the build could free
nothing it made.  A running collector would walk the growing result about
two hundred times in one search on that surface at c2=80, and each full
collection the caller's whole heap too, so a search's cost would grow with
the results the caller keeps.  The caller's next young-generation
collection makes one pass over the new walls.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from dataclasses import dataclass
from itertools import groupby
from math import isqrt
from operator import attrgetter, itemgetter

from .errors import INT64_MAX, INT64_MIN, NotApplicableError, SearchBoundsError, checked_int
from .invariants import ChernData
from .lattice import DivisorClass, Polarization, SurfaceConfig, _require_surface


_BUDGET = 2_000_000  # the work units of one wall query, counted by _slices


@dataclass(frozen=True, slots=True)
class WallClass:
    """A wall zeta with its square, induced length, and signs against F and L."""

    zeta: DivisorClass
    zeta_sq: int
    ell: int
    zF: int
    zL: int


_set_zeta, _set_zeta_sq, _set_ell, _set_zF, _set_zL = (
    WallClass.zeta.__set__,
    WallClass.zeta_sq.__set__,
    WallClass.ell.__set__,
    WallClass.zF.__set__,
    WallClass.zL.__set__,
)


@dataclass(frozen=True)
class WallSearch:
    """Full outcome of a wall enumeration.

    ``walls`` strictly separate F from L (zeta.L < 0); ``boundary`` collects
    degenerate classes with zeta.L = 0, reported but never treated as
    harmless.  ``excluded_negative_length`` is a class constant, 0, kept for
    the output format: the induced length c2 + (zeta^2 - c1^2)/4 equals
    (zeta^2 - (c1^2 - 4*c2))/4, which the window's lower end makes >= 0, and
    zeta = c1 (mod 2) gives zeta^2 = c1^2 (mod 4), so the division is exact.
    """

    walls: tuple[WallClass, ...]
    boundary: tuple[WallClass, ...]
    excluded_negative_length = 0


@dataclass(frozen=True)
class Suitability:
    suitable: bool
    witness: WallClass | None
    boundary: tuple[WallClass, ...]

    def __bool__(self) -> bool:
        return self.suitable


@dataclass(frozen=True)
class DvZeroCertificate:
    """Outcome of the balanced-splitting certificate.

    ``certified`` means every stable bundle with the given invariants has
    fibre degree zero; otherwise ``separating_wall`` is the counterexample
    shape the contrapositive produces.
    """

    certified: bool
    separating_wall: WallClass | None
    boundary: tuple[WallClass, ...]

    @property
    def d_value(self) -> int | None:
        return 0 if self.certified else None


def _slices(config, chern, polarization, walk_runs):
    """Yield every non-empty (a, exc) slice of the Hodge-index region.

    Each item is (a, exc, b, b_last, z_sq, ell, z_l, on_boundary): the walls
    of the slice have F-coefficient b, b + 2, ..., b_last, and zeta^2,
    length and zeta.L are given at the first of them.  Each step of 2 in b
    adds 4a to zeta^2, a to the length and 2p to zeta.L (p = L.F), and every
    b of the run lies in the wall window with zeta.L <= 0, so zeta.L = 0 can
    only happen at b_last; ``on_boundary`` says whether it does, and then
    the class at b_last is the slice's boundary class and the others
    separate.  Slices come in increasing a and, for each a, in increasing
    lexicographic exc.  The run's values are range-checked here, so callers
    may build its classes without checking each one.

    Prefixes shorter than m - 1 go through a depth-first stack; a prefix of
    length m - 1 is expanded in place into its slices, one range of the last
    coefficient (for m = 0 the empty prefix is the slice).  The budget,
    ``_BUDGET`` when the walk starts, counts every exc prefix visited (the
    empty prefix and each full vector included), each charged before its
    work, and, with ``walk_runs``, every b of each run.

    Only values that can leave the 64-bit range are checked.  Each layer
    checks a + isqrt(disc) + 1, which bounds a and every c_i of the layer:
    |p*c_i - a*r_i| <= p*sqrt(disc), and the polarization's checks
    L.E_i > 0 and L.(F - E_i) > 0 give -p < r_i < 0.  Each slice checks
    b >= INT64_MIN, b_last <= INT64_MAX and zeta.L >= INT64_MIN at the
    first b (zeta.L rises to at most 0 along the run).  zeta^2 lies in
    [c1^2 - 4*c2, 0) and the length in [0, disc/4], inside the range since
    the discriminant is.  Unlike a check of each slice's values alone, the
    layer check can fire in a layer with no non-empty slice; that needs a
    near 2^63, so about 2^62 budget units.
    """
    budget = left = _BUDGET
    _require_surface(config, chern.config, "Chern data")
    _require_surface(config, polarization.config, "polarization")

    disc = chern.discriminant  # c1^2 - 4*c2 = -disc
    if disc <= 0:
        return

    c1b, c1_exc = chern.c1.b, chern.c1.exc
    e = config.invariant_e
    L = polarization.cls
    p, lb, l_exc = L.a, L.b, L.exc
    m = len(l_exc)
    l_sq = polarization.checks["L.L"]
    reach = p * p * disc
    root = isqrt(disc) + 1  # |c_i| < root + a on layer a

    a = 1 if chern.c1.a % 2 else 2
    while a * a * l_sq <= reach:
        context = f"a wall coordinate or pairing at a = {a}"
        if a + root > INT64_MAX:
            checked_int(a + root, context)
        ea2, ka, two_a = e * a * a, e * a * p - a * lb, 2 * a
        # sum((p*c_i - a*r_i)^2) <= reach - a^2 * L^2, one coordinate at a
        # time; children are pushed largest c first so the smallest pops first
        stack = [((), 0, 0, reach - a * a * l_sq)]
        while stack:
            exc, sum_c2, sum_cr, room = stack.pop()
            i = len(exc)
            if i == m:  # m = 0: the empty prefix is the slice
                cs, r = (0,), 0
            else:
                left -= 1
                if left < 0:
                    raise SearchBoundsError(budget, f"stuck at leading coefficient a = {a}")
                r, t = l_exc[i], isqrt(room)
                c_lo = -((t - a * r) // p)  # ceil((a*r - t) / p)
                cs = range(c_lo + (c_lo - c1_exc[i]) % 2, (a * r + t) // p + 1, 2)
                if i + 1 < m:
                    # (p*c - a*r)^2 <= t^2 <= room
                    stack += [((*exc, c), sum_c2 + c * c, sum_cr + c * r, room - (p * c - a * r) ** 2)
                              for c in reversed(cs)]
                    continue
            x0, k0 = ea2 + sum_c2, ka + sum_cr
            for c in cs:  # the slices of this prefix, each charged before its work
                left -= 1
                if left < 0:
                    raise SearchBoundsError(budget, f"stuck at leading coefficient a = {a}")
                x = x0 + c * c  # zeta^2 = 2ab - x
                k = k0 + c * r  # zeta.L = pb - k
                b = -((disc - x) // two_a)  # zeta^2 >= c1^2 - 4c2
                b += (c1b - b) % 2
                b_hi = (x - 1) // two_a  # zeta^2 < 0
                if k // p < b_hi:  # zeta.L <= 0
                    b_hi = k // p
                if b > b_hi:
                    continue
                b_last = b_hi - (b_hi - b) % 2
                z_sq, z_l = two_a * b - x, p * b - k
                if not (INT64_MIN <= b <= b_last <= INT64_MAX and z_l >= INT64_MIN):
                    for value in (min(b, z_l), b_last):
                        checked_int(value, context)
                if walk_runs:
                    left -= (b_last - b) // 2 + 1
                    if left < 0:
                        raise SearchBoundsError(budget, f"stuck at leading coefficient a = {a}")
                # length c2 + (zeta^2 - c1^2)/4, exact since zeta = c1 mod 2
                exc_c = (*exc, c) if m else exc
                yield a, exc_c, b, b_last, z_sq, (z_sq + disc) // 4, z_l, z_l + p * (b_last - b) == 0
        a += 2


def wall_search(
    config: SurfaceConfig,
    chern: ChernData,
    polarization: Polarization,
) -> WallSearch:
    """Enumerate every wall zeta with zeta.F > 0 and zeta.L <= 0.

    Deterministic: results are emitted in (a, b, exc) order, by
    ``_ordered_walls``.  The cost is one pass over the slices plus one step
    per emitted class, and each class is two slotted objects, its
    ``WallClass`` and its ``zeta``, around the exc tuple of its slice.
    Raises SearchBoundsError, whose ``budget`` is ``_BUDGET``, when the
    visited exc prefixes plus the b candidates of the runs exceed it, so
    callers can fall back to the brute-force oracle.

    The cyclic garbage collector is paused for the build, which makes only
    acyclic objects, and its state on entry is restored on return or raise,
    so the call's cost does not depend on how large the caller's heap is.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        walls, boundary = _ordered_walls(config, chern, polarization, _wall_objects(config))
        return WallSearch(tuple(walls), tuple(boundary))
    finally:
        if collecting:
            gc.enable()


def _wall_objects(config):
    """The per-run builder of ``wall_search`` and the decisions: for the slice
    (a, exc), the maker of one ``WallClass`` per wall, around a fresh zeta
    that shares the slice's exc tuple.  The maker fills the wall's slots
    through their member descriptors, which skips the frozen ``__setattr__``
    and the ``__init__`` call: the engines compute every field themselves."""
    new_class, new = DivisorClass._unchecked, object.__new__

    def builder(a, exc):
        def make(b, z_sq, ell, z_l):
            wall = new(WallClass)
            _set_zeta(wall, new_class(a, b, exc, config))
            _set_zeta_sq(wall, z_sq)
            _set_ell(wall, ell)
            _set_zF(wall, a)
            _set_zL(wall, z_l)
            return wall

        return make

    return builder


def _ordered_walls(config, chern, polarization, builder):
    """(walls, boundary) of the wall search as two lists, in (a, b, exc) order,
    each class made by its run's maker.

    ``builder(a, exc)`` is called once per slice and returns the maker, which
    takes (b, zeta^2, length, zeta.L) of one class of the run (zeta.F is a).
    The slices of one a come in exc order, so their walls are collected in
    one bucket per b and emptied in increasing b, and so are their boundary
    classes.  A slice's run is walked up to the step before its boundary
    class, so no walked wall is tested against L.  Every value a maker
    receives is range-checked by ``_slices`` (the ends of b, zeta.L at the
    first b) or lies in the wall window (zeta^2, the length), so a maker may
    write it unchecked.  The budget is that of ``wall_search``.
    """
    p = polarization.cls.a
    walls, boundary = [], []
    slices = _slices(config, chern, polarization, walk_runs=True)
    for a, group in groupby(slices, itemgetter(0)):
        walls_at, boundary_at = defaultdict(list), defaultdict(list)  # b -> classes of this a
        step_sq, step_l = 4 * a, 2 * p  # zeta^2 and zeta.L per step of 2 in b
        for _, exc, b, b_last, z_sq, ell, z_l, on_boundary in group:
            make = builder(a, exc)
            if on_boundary:
                boundary_at[b_last].append(_boundary(make, a, b, b_last, z_sq, ell))
                b_last -= 2
            while b <= b_last:
                walls_at[b].append(make(b, z_sq, ell, z_l))
                b += 2
                z_sq += step_sq
                ell += a
                z_l += step_l
        for b in sorted(walls_at):
            walls += walls_at[b]
        for b in sorted(boundary_at):
            boundary += boundary_at[b]
    return walls, boundary


def _boundary(make, a, b, b_last, z_sq, ell):
    """The boundary class (zeta.L = 0) of a slice flagged by ``_slices``, made
    by its run's maker at b_last, with zeta^2 and length carried there in
    closed form."""
    steps = (b_last - b) // 2
    return make(b_last, z_sq + 4 * a * steps, ell + a * steps, 0)


def _decide(config, chern, polarization):
    """(witness, boundary) of the decision queries, without walking any run.

    The first class of a slice is a separating wall when its zeta.L < 0.
    The witness is taken in the first a with such a slice: the first of
    those classes with the least b, which is ``wall_search(...).walls[0]``;
    failing that, it is the first boundary class.  ``boundary`` is complete
    and in the enumeration's order, built like it by ``_boundary`` and
    sorted by b within each a.  The budget counts the visited exc prefixes
    only.
    """
    builder = _wall_objects(config)
    witness = None
    boundary: list[WallClass] = []
    slices = _slices(config, chern, polarization, walk_runs=False)
    for a, group in groupby(slices, itemgetter(0)):
        first = None  # the separating wall of least b in this a, if none came before
        boundary_of_a: list[WallClass] = []
        for _, exc, b, b_last, z_sq, ell, z_l, on_boundary in group:
            if z_l < 0 and witness is None and (first is None or b < first.zeta.b):
                first = builder(a, exc)(b, z_sq, ell, z_l)
            if on_boundary:
                boundary_of_a.append(_boundary(builder(a, exc), a, b, b_last, z_sq, ell))
        if witness is None:
            witness = first
        boundary += sorted(boundary_of_a, key=attrgetter("zeta.b"))
    if witness is None and boundary:
        witness = boundary[0]
    return witness, tuple(boundary)


def is_suitable(
    config: SurfaceConfig,
    chern: ChernData,
    polarization: Polarization,
) -> Suitability:
    """Whether L sits in a chamber whose closure contains the fibre ray.

    True only when no wall separates F from L and no wall meets L exactly
    (boundary classes are reported, never silently resolved: deciding the
    chamber closure there would overclaim).  The witness is the first
    separating wall in (a, b, exc) order, else the first boundary class.
    The cost is one pass over the slices of the wall region, never over the
    walls themselves; the budget counts the exc prefixes that pass visits.
    """
    witness, boundary = _decide(config, chern, polarization)
    return Suitability(witness is None, witness, boundary)


def certify_dv_zero(
    config: SurfaceConfig,
    chern: ChernData,
    polarization: Polarization,
) -> DvZeroCertificate:
    """Certify that stable bundles with these invariants split with degree 0
    on a general fibre.

    Only applies when the fibre degree of c1 is even: a positive splitting
    degree d would produce the wall 2d*C0 + ... with zeta.F > 0 and, by
    stability, zeta.L < 0; Hodge index puts zeta^2 in the wall window, so
    an empty wall list is a certificate.  Decided like ``is_suitable``, with
    the same witness order, cost and budget; the kernel reads c1 only mod 2
    and through the discriminant, so every twist gives the same certificate.
    """
    if chern.c1.a % 2 != 0:
        raise NotApplicableError(
            "the fibre degree of c1 is odd; the splitting degree is determined "
            "by the structure classification instead"
        )
    witness, boundary = _decide(config, chern, polarization)
    return DvZeroCertificate(witness is None, witness, boundary)
