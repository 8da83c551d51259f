from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given

import ruledmoduli.stability
from ruledmoduli import (
    BoxTooLargeError,
    ConfigMismatchError,
    DivisorClass,
    EffectivityVerdict,
    IntegerOverflowError,
    InvalidPolarizationError,
    Polarization,
    SearchBox,
    StabilityOutcome,
    SurfaceConfig,
    default_box,
    destabilizer_search,
    effectivity,
    h0_hirzebruch,
    slope_margin,
)


def worked_family(n: int, e: int, w: int):
    """sub = -nF, quot = (n+1)F, length 2n on the Hirzebruch surface of
    invariant e, polarized by C0 + wF."""
    cfg = SurfaceConfig(0, e, 0)
    return cfg, cfg.divisor(b=-n), cfg.divisor(b=n + 1), 2 * n, Polarization(cfg.divisor(1, w))


class TestSlopeMargin:
    def test_boundary_margin_is_zero(self):
        cfg = SurfaceConfig(0, 0, 0)
        l_cls = cfg.divisor(1, 3)
        assert slope_margin(cfg.fiber(), 2 * cfg.fiber(), l_cls) == 0

    def test_sub_line_bundle_never_destabilizes(self):
        cfg, sub, quot, _, pol = worked_family(3, 1, 100)
        margin = slope_margin(sub, sub + quot, pol.cls)
        assert margin == -7 < 0

    def test_twist_invariance(self):
        cfg = SurfaceConfig(0, 1, 2)
        a = cfg.divisor(1, -2, (0, 1))
        c1 = cfg.divisor(1, 1, (1, 1))
        l_cls = cfg.divisor(3, 7, (-1, -2))
        t = cfg.divisor(-1, 4, (2, 0))
        assert slope_margin(a + t, c1 + 2 * t, l_cls) == slope_margin(a, c1, l_cls)

    def test_only_the_margin_is_range_checked(self):
        # A.L = 2^63 for A = 2C0 and L = C0 + 2^62 F on F_0
        cfg = SurfaceConfig(0, 0, 0)
        a, l_cls = cfg.divisor(2), cfg.divisor(1, 2**62)
        assert slope_margin(a, cfg.divisor(4, 1), l_cls) == -1
        assert slope_margin(a, cfg.divisor(4, -(2**63) + 1), l_cls) == 2**63 - 1
        with pytest.raises(IntegerOverflowError, match="slope margin 9223372036854775808"):
            slope_margin(a, cfg.divisor(4, -(2**63)), l_cls)


class TestWorkedFamilyCertification:
    def test_large_polarization_case(self):
        cfg, sub, quot, length, pol = worked_family(3, 1, 100)
        verdict = destabilizer_search(cfg, sub, quot, length, pol, SearchBox(10, 10, 10))
        assert verdict.verdict is StabilityOutcome.STABLE_CERTIFIED

    @pytest.mark.parametrize("n,e", [(1, 1), (2, 2), (3, 1)])
    def test_threshold_polarization(self, n, e):
        w = 2 * n + 2 * e + 3
        cfg, sub, quot, length, pol = worked_family(n, e, w)
        box = SearchBox(n + 3, n + 3, n + 3)
        verdict = destabilizer_search(cfg, sub, quot, length, pol, box)
        assert verdict.verdict is StabilityOutcome.STABLE_CERTIFIED

    def test_surviving_candidates_are_recorded_with_reasons(self):
        cfg, sub, quot, length, pol = worked_family(3, 1, 100)
        verdict = destabilizer_search(cfg, sub, quot, length, pol, SearchBox(10, 10, 10))
        # margin >= 0 candidates that pass a branch are all pruned by the
        # generality of the subscheme, never certified destabilizers
        assert verdict.candidates
        for candidate in verdict.candidates:
            assert candidate.margin_times_two >= 0
            assert candidate.branch == 2 and candidate.pruned


class TestBoundaryAndFailure:
    def test_strictly_semistable_boundary_counts_as_destabilized(self):
        cfg = SurfaceConfig(0, 1, 0)
        pol = Polarization(cfg.divisor(1, 5))
        verdict = destabilizer_search(cfg, cfg.zero(), cfg.zero(), 0, pol)
        assert verdict.verdict is StabilityOutcome.DESTABILIZER_FOUND
        zero_hits = [c for c in verdict.candidates if c.divisor == cfg.zero()]
        assert zero_hits and all(c.margin_times_two == 0 for c in zero_hits)
        assert any(c.effectivity.verdict is EffectivityVerdict.EFFECTIVE for c in zero_hits)

    def test_wall_crossing_extension_is_not_certified(self):
        # the wall 2C0 - F for c1 = F, c2 = 2 separates F from L = 3C0 + F;
        # the matching extension data is sub = C0, quot = F - C0, length 1
        cfg = SurfaceConfig(0, 0, 0)
        pol = Polarization(cfg.divisor(3, 1))
        verdict = destabilizer_search(
            cfg, cfg.minimal_section(), cfg.fiber() - cfg.minimal_section(), 1, pol,
            SearchBox(5, 5, 5),
        )
        assert verdict.verdict is not StabilityOutcome.STABLE_CERTIFIED

    def test_unknown_effectivity_degrades_to_inconclusive(self):
        # crafted so the only margin >= 0 candidate surviving a branch is
        # A = quot + E1, whose branch-2 class quot - A = -E1 + 0*F sits
        # outside the certified cone model (UNKNOWN); with one blown-up
        # point there are no exact section counts to prune it
        cfg = SurfaceConfig(0, 1, 1)
        pol = Polarization(cfg.divisor(2, 5, (-1,)))
        sub = cfg.divisor(3, -9, (0,))
        quot = cfg.divisor(0, -5, (0,))
        verdict = destabilizer_search(cfg, sub, quot, 2, pol, SearchBox(2, 6, 1))
        assert verdict.verdict is StabilityOutcome.INCONCLUSIVE
        survivors = [
            c
            for c in verdict.candidates
            if c.effectivity.verdict is EffectivityVerdict.UNKNOWN and not c.pruned
        ]
        assert [c.divisor for c in survivors] == [cfg.divisor(0, -5, (1,))]


def verdict_of(candidates) -> StabilityOutcome:
    """The outcome the recorded candidates imply."""
    live = [c for c in candidates if not c.pruned]
    if any(c.effectivity.verdict is EffectivityVerdict.EFFECTIVE for c in live):
        return StabilityOutcome.DESTABILIZER_FOUND
    return StabilityOutcome.INCONCLUSIVE if live else StabilityOutcome.STABLE_CERTIFIED


class TestPruning:
    @given(
        st.integers(0, 3),
        st.tuples(st.integers(-3, 3), st.integers(-5, 5)),
        st.tuples(st.integers(-3, 3), st.integers(-5, 5)),
        st.integers(0, 8),
        st.integers(1, 3),
        st.integers(1, 8),
    )
    def test_pruning_matches_its_definition(self, e, sub, quot, ell, l_a, l_excess):
        # a branch-2 candidate A is pruned exactly when some fibre twist k
        # has h0(quot + kF) <= ell and h0(A + kF) > 0; the scanned window of
        # k contains -b for every b in the box
        cfg = SurfaceConfig(0, e, 0)
        sub, quot = cfg.divisor(*sub), cfg.divisor(*quot)
        pol = Polarization(cfg.divisor(l_a, e * l_a + l_excess))
        box = SearchBox(4, 5, 0)
        verdict = destabilizer_search(cfg, sub, quot, ell, pol, box)
        fiber = cfg.fiber()
        window = range(-box.fiber_bound - 3, box.fiber_bound + 4)
        for c in verdict.candidates:
            brute = c.branch == 2 and any(
                h0_hirzebruch(cfg, quot + k * fiber) <= ell
                and h0_hirzebruch(cfg, c.divisor + k * fiber) > 0
                for k in window
            )
            assert c.pruned == brute
        assert verdict.verdict is verdict_of(verdict.candidates)

    def test_largest_length_prunes_every_branch_two_candidate(self):
        cfg = SurfaceConfig(0, 1, 0)
        pol = Polarization(cfg.divisor(1, 10))
        verdict = destabilizer_search(
            cfg, cfg.divisor(b=-1), cfg.divisor(b=2), 2**63 - 1, pol, SearchBox(3, 3, 0)
        )
        assert verdict.verdict is StabilityOutcome.STABLE_CERTIFIED
        assert verdict.candidates
        assert all(c.branch == 2 and c.pruned for c in verdict.candidates)

    def test_large_section_coefficient_is_counted_in_closed_form(self):
        # h0(2^62 C0) = 2^62 + 1 on F_0 is a sum of 2^62 + 1 terms; the
        # pruning test reads it off in one step
        cfg = SurfaceConfig(0, 0, 0)
        pol = Polarization(cfg.divisor(1, 1))
        verdict = destabilizer_search(
            cfg, cfg.divisor(1 - 2**62), cfg.divisor(2**62), 0, pol, SearchBox(1, 1, 0)
        )
        assert verdict.verdict is StabilityOutcome.DESTABILIZER_FOUND
        assert [(c.divisor, c.branch, c.pruned) for c in verdict.candidates] == [
            (cfg.minimal_section(), 2, False),
        ]

    def test_quotient_near_the_range_edge_is_searched(self):
        # A = F and 2F inject into I_Z(2^62 F): h0 exceeds ell by far
        cfg = SurfaceConfig(0, 1, 0)
        pol = Polarization(cfg.divisor(1, 10))
        verdict = destabilizer_search(
            cfg, cfg.divisor(b=1 - 2**62), cfg.divisor(b=2**62), 3, pol, SearchBox(2, 2, 0)
        )
        assert verdict.verdict is StabilityOutcome.DESTABILIZER_FOUND
        assert [(c.divisor, c.branch, c.pruned) for c in verdict.candidates] == [
            (cfg.divisor(b=1), 2, False),
            (cfg.divisor(b=2), 2, False),
        ]


class TestSearchMechanics:
    def test_default_box(self):
        cfg = SurfaceConfig(0, 1, 0)
        box = default_box(cfg.divisor(b=-4), cfg.divisor(b=5))
        assert box == SearchBox(8, 8, 8)
        assert default_box(cfg.zero(), cfg.zero()) == SearchBox(5, 5, 5)

    def test_box_too_large(self):
        cfg = SurfaceConfig(0, 1, 0)
        pol = Polarization(cfg.divisor(1, 5))
        with pytest.raises(BoxTooLargeError):
            destabilizer_search(
                cfg, cfg.zero(), cfg.zero(), 0, pol, SearchBox(1000, 1000, 0)
            )

    def test_box_cap_is_read_when_the_search_starts(self, monkeypatch):
        # SearchBox(1, 2, 1) holds 3 * 5 * 3^2 = 135 points when m = 2
        cfg = SurfaceConfig(0, 1, 2)
        pol = Polarization(cfg.divisor(3, 7, (-1, -1)))
        args = (cfg, cfg.zero(), cfg.fiber(), 0, pol, SearchBox(1, 2, 1))
        monkeypatch.setattr(ruledmoduli.stability, "_BOX_CAP", 134)
        with pytest.raises(BoxTooLargeError, match="^box volume 135 exceeds the cap of 134$"):
            destabilizer_search(*args)
        monkeypatch.setattr(ruledmoduli.stability, "_BOX_CAP", 135)
        assert destabilizer_search(*args).box == SearchBox(1, 2, 1)

    def test_box_bounds_are_range_checked(self):
        # with m = 0 the exceptional bound does not enter the volume
        with pytest.raises(IntegerOverflowError):
            SearchBox(0, 0, 2**70)
        with pytest.raises(ValueError, match="nonnegative"):
            SearchBox(-1, 0, 0)
        assert SearchBox(0, 0, 2**63 - 1).exceptional_bound == 2**63 - 1

    def test_rejects_negative_length(self):
        cfg = SurfaceConfig(0, 1, 0)
        pol = Polarization(cfg.divisor(1, 5))
        with pytest.raises(ValueError):
            destabilizer_search(cfg, cfg.zero(), cfg.zero(), -1, pol)

    def test_rejects_a_polarization_on_another_surface(self):
        # SearchBox(0, 0, 0) records nothing here: A = 0 has margin -c1.L = -2
        cfg, other = SurfaceConfig(0, 1, 0), SurfaceConfig(0, 2, 0)
        pol = Polarization(cfg.divisor(1, 3))
        for surface in (cfg, other):
            sub = quot = surface.fiber()
            for box in (SearchBox(0, 0, 0), None):
                with pytest.raises(ConfigMismatchError):
                    destabilizer_search(other, sub, quot, 0, pol, box)
        verdict = destabilizer_search(cfg, cfg.fiber(), cfg.fiber(), 0, pol, SearchBox(0, 0, 0))
        assert verdict.candidates == ()

    def test_out_of_range_slope_margin_raises(self):
        # L.C0 = 2^61: the margin 2A.L - c1.L of A = C0 is 5 * 2^61, as
        # slope_margin itself reports
        cfg = SurfaceConfig(0, 0, 0)
        sub, quot = cfg.divisor(2), cfg.divisor(-5)
        l_cls = cfg.divisor(1, 2**61)
        with pytest.raises(IntegerOverflowError):
            slope_margin(cfg.minimal_section(), sub + quot, l_cls)
        with pytest.raises(IntegerOverflowError):
            destabilizer_search(cfg, sub, quot, 0, Polarization(l_cls), SearchBox(1, 1, 0))

    def test_only_the_margins_are_range_checked(self):
        # c1.L = 2^63 for c1 = sub + quot = 4C0 and L = C0 + 2^61 F on F_0,
        # while every recorded margin is in range
        cfg = SurfaceConfig(0, 0, 0)
        pol = Polarization(cfg.divisor(1, 2**61))
        verdict = destabilizer_search(cfg, cfg.divisor(3), cfg.divisor(1), 0, pol, SearchBox(3, 2, 0))
        assert [(c.divisor, c.branch, c.margin_times_two) for c in verdict.candidates] == [
            (cfg.divisor(2, 0), 1, 0),
            (cfg.divisor(3, -2), 1, 2**62 - 4),
            (cfg.divisor(3, -1), 1, 2**62 - 2),
            (cfg.divisor(3, 0), 1, 2**62),
        ]

    def test_enlarging_the_box_never_flips_found_to_certified(self):
        cfg = SurfaceConfig(0, 0, 0)
        pol = Polarization(cfg.divisor(3, 1))
        sub, quot = cfg.minimal_section(), cfg.fiber() - cfg.minimal_section()
        verdicts = [
            destabilizer_search(cfg, sub, quot, 1, pol, SearchBox(k, k, k)).verdict
            for k in (2, 4, 6, 8)
        ]
        assert StabilityOutcome.DESTABILIZER_FOUND in verdicts
        first_found = verdicts.index(StabilityOutcome.DESTABILIZER_FOUND)
        assert all(
            v is StabilityOutcome.DESTABILIZER_FOUND for v in verdicts[first_found:]
        )

    def test_twist_equivariance(self):
        cfg, sub, quot, length, pol = worked_family(2, 1, 30)
        t = cfg.divisor(0, 3)
        box = SearchBox(9, 9, 9)
        plain = destabilizer_search(cfg, sub, quot, length, pol, box)
        shifted = destabilizer_search(cfg, sub + t, quot + t, length, pol, SearchBox(9, 12, 9))
        assert plain.verdict == shifted.verdict
        plain_hits = {(c.divisor.a, c.divisor.b, c.branch) for c in plain.candidates}
        shifted_hits = {
            (c.divisor.a - t.a, c.divisor.b - t.b, c.branch) for c in shifted.candidates
        }
        # every candidate inside the smaller box shifts to a candidate of the
        # shifted search with the same doubled margin
        assert plain_hits <= shifted_hits


@st.composite
def search_inputs(draw):
    """A surface with g <= 2 and m <= 2, extension data, a polarization, and
    an explicit box or None for the default one."""
    g, m = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    e = draw(st.integers(0, 2) if g == 0 else st.integers(-1, 2))
    cfg = SurfaceConfig(g, e, m)
    default = draw(st.booleans())
    coeff = st.integers(-2, 2) if default else st.integers(-3, 3)

    def divisor():
        return DivisorClass(draw(coeff), draw(coeff), tuple(draw(coeff) for _ in range(m)), cfg)

    p = draw(st.integers(2 if m else 1, 4))
    q = max(e * p, 0) + draw(st.integers(1, 6))
    l_cls = DivisorClass(p, q, tuple(-draw(st.integers(1, p - 1)) for _ in range(m)), cfg)
    try:
        pol = Polarization(l_cls)
    except InvalidPolarizationError:
        assume(False)
    box = None if default else SearchBox(*(draw(st.integers(0, hi)) for hi in (3, 4, 2)))
    return cfg, divisor(), divisor(), draw(st.integers(0, 6)), pol, box


class TestCompleteness:
    @given(search_inputs())
    def test_records_are_the_scan_of_the_box(self, case):
        # every box point through slope_margin and effectivity, in box order
        cfg, sub, quot, ell, pol, box = case
        verdict = destabilizer_search(cfg, sub, quot, ell, pol, box)
        box, c1 = verdict.box, sub + quot
        exc_range = range(-box.exceptional_bound, box.exceptional_bound + 1)
        scan = []
        for a in range(-box.section_bound, box.section_bound + 1):
            for b in range(-box.fiber_bound, box.fiber_bound + 1):
                for exc in product(exc_range, repeat=cfg.num_points):
                    cand = DivisorClass(a, b, exc, cfg)
                    if slope_margin(cand, c1, pol.cls) < 0:
                        continue
                    for branch, x in ((1, sub), (2, quot)):
                        if effectivity(x - cand).verdict is not EffectivityVerdict.NOT_EFFECTIVE:
                            scan.append((cand, branch))
        assert [(c.divisor, c.branch) for c in verdict.candidates] == scan
        keys = [(c.divisor.a, c.divisor.b, c.divisor.exc, c.branch) for c in verdict.candidates]
        assert keys == sorted(keys)
        for c in verdict.candidates:
            assert c.margin_times_two == slope_margin(c.divisor, c1, pol.cls)

    def test_effectivity_runs_once_per_record(self, monkeypatch):
        # g=1, m=2, box 5 (volume 14,641): UNKNOWN effectivity on most of it
        calls = []

        def counted(d):
            calls.append(d)
            return effectivity(d)

        monkeypatch.setattr(ruledmoduli.stability, "effectivity", counted)
        cfg = SurfaceConfig(1, 0, 2)
        sub, quot = cfg.divisor(0, -1, (0, 0)), cfg.divisor(0, 2, (1, 1))
        verdict = destabilizer_search(
            cfg, sub, quot, 2, Polarization(cfg.divisor(3, 8, (-1, -2))), SearchBox(5, 5, 5),
        )
        # effectivity builds only the witnesses; the rule answers every other record
        by_verdict = {v: [c for c in verdict.candidates if c.effectivity.verdict is v]
                      for v in EffectivityVerdict}
        effective, unknown = by_verdict[EffectivityVerdict.EFFECTIVE], by_verdict[EffectivityVerdict.UNKNOWN]
        assert (len(effective), len(unknown)) == (61, 1793) and not by_verdict[EffectivityVerdict.NOT_EFFECTIVE]
        assert calls == [(sub if c.branch == 1 else quot) - c.divisor for c in effective]
        shared = effectivity(quot - cfg.divisor(0, 5, (0, 0)))
        assert shared.verdict is EffectivityVerdict.UNKNOWN
        assert all(c.effectivity is shared for c in unknown)
