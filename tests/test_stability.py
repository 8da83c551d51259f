import hypothesis.strategies as st
import pytest
from hypothesis import given

from ruledmoduli import (
    BoxTooLargeError,
    EffectivityVerdict,
    IntegerOverflowError,
    Polarization,
    SearchBox,
    StabilityOutcome,
    SurfaceConfig,
    default_box,
    destabilizer_search,
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

    def test_rejects_negative_length(self):
        cfg = SurfaceConfig(0, 1, 0)
        pol = Polarization(cfg.divisor(1, 5))
        with pytest.raises(ValueError):
            destabilizer_search(cfg, cfg.zero(), cfg.zero(), -1, pol)

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

    def test_verdict_json(self):
        cfg, sub, quot, length, pol = worked_family(1, 1, 10)
        verdict = destabilizer_search(cfg, sub, quot, length, pol)
        doc = verdict.to_json()
        assert set(doc) == {"verdict", "candidates", "box", "notes"}
        assert doc["verdict"] == "stable_certified"
        for candidate in doc["candidates"]:
            assert candidate["slope_margin"][1] == 2
