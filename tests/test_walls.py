import gc
import random
from dataclasses import FrozenInstanceError
from math import isqrt

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from conftest import (
    brute_walls,
    configs,
    random_chern,
    random_polarization,
)
from ruledmoduli import (
    ChernData,
    ConfigMismatchError,
    DivisorClass,
    IntegerOverflowError,
    InvalidPolarizationError,
    NotApplicableError,
    Polarization,
    SearchBoundsError,
    SurfaceConfig,
    WallClass,
    certify_dv_zero,
    intersect,
    is_suitable,
    normalize_chern,
    wall_search,
)
from ruledmoduli.invariants import _subscheme_length_from_zeta
from ruledmoduli.walls import _slices, _wall_objects


@st.composite
def wall_inputs(draw):
    """A surface with g <= 2 and m <= 3, Chern data whose c1 has either
    fibre-degree parity, and a polarization passing the positivity checks."""
    cfg = draw(configs(max_genus=2, max_e=3, max_points=3))
    coeff = st.integers(-1, 2)
    c1 = cfg.divisor(draw(coeff), draw(coeff), tuple(draw(coeff) for _ in range(cfg.num_points)))
    chern = ChernData(c1, draw(st.integers(0, 12)))
    m, e = cfg.num_points, cfg.invariant_e
    p = draw(st.integers(2 if m else 1, 4))
    q = max(e * p, 0) + draw(st.integers(1, 6))
    exc = tuple(-draw(st.integers(1, p - 1)) for _ in range(m))
    try:
        pol = Polarization(cfg.divisor(p, q, exc))
    except InvalidPolarizationError:
        assume(False)
    return cfg, chern, pol


def strictly_increasing(walls):
    keys = [(w.zeta.a, w.zeta.b, w.zeta.exc) for w in walls]
    return all(x < y for x, y in zip(keys, keys[1:]))


def order_inputs(seed=11):
    """The anchor g=0, e=1, m=3, L=3C0+7F-sum Ei at c2 = 20 and 40, and a
    seeded draw per surface with g <= 2, e <= 2, m = 2-3 and c2 <= 40."""
    anchor = SurfaceConfig(0, 1, 3)
    pol = Polarization(anchor.divisor(3, 7, (-1, -1, -1)))
    cases = [(anchor, ChernData(anchor.divisor(0, 1, (1, 1, 1)), c2), pol) for c2 in (20, 40)]
    rng = random.Random(seed)
    for genus in range(3):
        for e in range(0 if genus == 0 else -1, 3):
            for m in (2, 3):
                cfg = SurfaceConfig(genus, e, m)
                cases.append((cfg, random_chern(rng, cfg, max_c2=40), random_polarization(rng, cfg)))
    return cases


ORDER_INPUTS = order_inputs()


def first_witness(search):
    if search.walls:
        return search.walls[0]
    return search.boundary[0] if search.boundary else None


@pytest.fixture
def quadric():
    """The g = 0, e = 0, m = 0 surface with c1 = F, c2 = 2 used throughout."""
    cfg = SurfaceConfig(0, 0, 0)
    return cfg, ChernData(cfg.fiber(), 2)


class TestPolarization:
    def test_accepts_ample_checks(self):
        cfg = SurfaceConfig(0, 0, 0)
        pol = Polarization(cfg.divisor(1, 3))
        assert pol.checks == {"L.L": 6, "L.F": 1, "L.C0": 3}

    def test_rejects_nonpositive_checks(self):
        cfg = SurfaceConfig(0, 1, 1)
        with pytest.raises(InvalidPolarizationError):
            Polarization(cfg.divisor(2, 3, (1,)))  # L.E1 = -1
        with pytest.raises(InvalidPolarizationError):
            Polarization(cfg.divisor(1, 2, (-1,)))  # L.(F-E1) = 0
        with pytest.raises(InvalidPolarizationError):
            Polarization(cfg.divisor(0, 1))  # L.F = 0, L.L = 0


class TestEnumeration:
    def test_no_wall_when_polarization_is_fiber_heavy(self, quadric):
        cfg, chern = quadric
        assert wall_search(cfg, chern, Polarization(cfg.divisor(1, 3))).walls == ()

    def test_single_wall_when_section_heavy(self, quadric):
        cfg, chern = quadric
        walls = wall_search(cfg, chern, Polarization(cfg.divisor(3, 1))).walls
        assert len(walls) == 1
        wall = walls[0]
        assert wall.zeta == cfg.divisor(2, -1)
        assert wall.zeta_sq == -4
        assert wall.ell == 1
        assert wall.zF == 2
        assert wall.zL == -1

    def test_empty_window_when_discriminant_nonpositive(self):
        cfg = SurfaceConfig(0, 1, 0)
        chern = ChernData(cfg.divisor(2, 1), 0)  # 4*c2 <= c1^2
        assert wall_search(cfg, chern, Polarization(cfg.divisor(1, 3))).walls == ()

    def test_boundary_wall_reported_separately(self, quadric):
        cfg, chern = quadric
        search = wall_search(cfg, chern, Polarization(cfg.divisor(2, 1)))
        assert search.walls == ()
        assert [w.zeta for w in search.boundary] == [cfg.divisor(2, -1)]
        assert search.boundary[0].zL == 0

    def test_returned_walls_satisfy_the_definition(self, quadric):
        cfg, chern = quadric
        pol = Polarization(cfg.divisor(3, 1))
        c1 = chern.c1
        window_low = intersect(c1, c1) - 4 * chern.c2
        for wall in wall_search(cfg, chern, pol).walls:
            diff = wall.zeta - c1
            assert diff.a % 2 == 0 and diff.b % 2 == 0
            assert all(c % 2 == 0 for c in diff.exc)
            assert window_low <= intersect(wall.zeta, wall.zeta) < 0
            assert intersect(wall.zeta, cfg.fiber()) > 0
            assert intersect(wall.zeta, pol.cls) < 0
            assert wall.ell >= 0
            lf = intersect(pol.cls, cfg.fiber())
            xi = lf * wall.zeta - intersect(pol.cls, wall.zeta) * cfg.fiber()
            assert intersect(xi, xi) < 0

    def test_deterministic_and_sorted(self, quadric):
        # the order rests on how the walls are collected, not on a sort, so
        # check it where one a holds several slices: m = 2-3, several a
        cfg, chern = quadric
        cases = [(cfg, chern, Polarization(cfg.divisor(3, 1))), *ORDER_INPUTS]
        several_a = 0
        for cfg, chern, pol in cases:
            first = wall_search(cfg, chern, pol)
            assert first == wall_search(cfg, chern, pol)
            assert strictly_increasing(first.walls)
            assert strictly_increasing(first.boundary)
            assert strictly_increasing(is_suitable(cfg, chern, pol).boundary)
            several_a += len({w.zeta.a for w in first.walls + first.boundary}) > 1
        assert several_a >= 5

    def test_monotone_in_c2(self, quadric):
        cfg, _ = quadric
        pol = Polarization(cfg.divisor(3, 1))
        previous: set = set()
        for c2 in range(1, 9):
            walls = wall_search(cfg, ChernData(cfg.fiber(), c2), pol).walls
            current = {(w.zeta.a, w.zeta.b, w.zeta.exc) for w in walls}
            assert previous <= current
            previous = current

    def test_budget_exhaustion_raises(self, quadric):
        cfg, chern = quadric
        for query in (wall_search, is_suitable, certify_dv_zero):
            with pytest.raises(SearchBoundsError) as info:
                query(cfg, chern, Polarization(cfg.divisor(3, 1)), max_candidates=0)
            assert info.value.budget == 0

    def test_budget_must_lie_in_the_64_bit_range(self, quadric):
        # an unchecked budget of 10^30 used to run as if it were finite
        cfg, chern = quadric
        for query in (wall_search, is_suitable, certify_dv_zero):
            with pytest.raises(IntegerOverflowError, match="^max_candidates 9223372036854775808 "):
                query(cfg, chern, Polarization(cfg.divisor(3, 1)), max_candidates=2**63)

    @pytest.mark.parametrize(
        "query, budget, passes",
        [
            (is_suitable, 483, False),
            (is_suitable, 484, True),
            (certify_dv_zero, 483, False),
            (certify_dv_zero, 484, True),
            # 484 exc prefixes + 1,232 walls + 132 boundary classes walked
            (wall_search, 484, False),
            (wall_search, 1847, False),
            (wall_search, 1848, True),
        ],
    )
    def test_budget_counts_prefixes_and_walked_classes(self, query, budget, passes):
        cfg = SurfaceConfig(0, 1, 3)
        chern = ChernData(cfg.divisor(0, 1, (1, 1, 1)), 20)
        pol = Polarization(cfg.divisor(3, 7, (-1, -1, -1)))
        if passes:
            query(cfg, chern, pol, max_candidates=budget)
        else:
            with pytest.raises(SearchBoundsError) as info:
                query(cfg, chern, pol, max_candidates=budget)
            assert info.value.budget == budget

    @pytest.mark.parametrize(
        "m, c1, l_class, least",
        [
            # m = 0: the empty prefix of each of 3 layers is the slice;
            # 13 walls + 1 boundary class walked
            (0, (0, 0, ()), (3, 4, ()), (3, 3, 17)),
            # m = 1: 15 prefixes; 54 walls + 4 boundary classes walked
            (1, (0, 1, (1,)), (3, 7, (-1,)), (15, 15, 73)),
        ],
    )
    def test_least_passing_budget_for_few_exceptional_curves(self, m, c1, l_class, least):
        cfg = SurfaceConfig(0, 1, m)
        chern, pol = ChernData(cfg.divisor(*c1), 20), Polarization(cfg.divisor(*l_class))
        for query, budget in zip((is_suitable, certify_dv_zero, wall_search), least):
            query(cfg, chern, pol, max_candidates=budget)
            with pytest.raises(SearchBoundsError) as info:
                query(cfg, chern, pol, max_candidates=budget - 1)
            assert info.value.budget == budget - 1

    @given(wall_inputs())
    def test_slice_coefficients_lie_within_the_layer_bound(self, data):
        # |p*c_i - a*r_i| <= p*sqrt(disc) and -p < r_i < 0 give
        # |c_i| < isqrt(disc) + 1 + a, the bound each layer is checked against
        cfg, chern, pol = data
        bound = isqrt(chern.discriminant) + 1 if chern.discriminant > 0 else 0
        for a, exc, *_ in _slices(cfg, chern, pol, 2_000_000, walk_runs=False):
            assert all(abs(c) < bound + a for c in exc)

    def test_rejects_data_on_another_surface(self, quadric):
        cfg, chern = quadric
        other = SurfaceConfig(0, 1, 0)
        pol = Polarization(cfg.divisor(3, 1))
        for query in (wall_search, is_suitable, certify_dv_zero):
            with pytest.raises(ConfigMismatchError, match="Chern data"):
                query(cfg, ChernData(other.fiber(), 2), pol)
            with pytest.raises(ConfigMismatchError, match="polarization"):
                query(cfg, chern, Polarization(other.divisor(1, 3)))

    def test_out_of_range_walls_raise_in_every_query(self):
        # the first slice (a = 2) holds walls with zeta.L near -15 * 2^61
        cfg = SurfaceConfig(0, 0, 0)
        chern = ChernData(cfg.fiber(), 16)
        pol = Polarization(cfg.divisor(2**61, 1))
        for query in (wall_search, is_suitable, certify_dv_zero):
            with pytest.raises(IntegerOverflowError):
                query(cfg, chern, pol)

    @given(wall_inputs())
    def test_emitted_classes_are_checked_ones_of_nonnegative_length(self, data):
        cfg, chern, pol = data
        search = wall_search(cfg, chern, pol)
        assert search.excluded_negative_length == 0
        for wall in search.walls + search.boundary:
            assert wall.ell >= 0
            zeta = wall.zeta
            checked = cfg.divisor(zeta.a, zeta.b, zeta.exc)
            assert zeta == checked and hash(zeta) == hash(checked)
            # the kernel's closed forms agree with the object-level reference
            assert wall.ell == _subscheme_length_from_zeta(chern, zeta)
            assert wall.zeta_sq == intersect(zeta, zeta)
            assert wall.zF == intersect(zeta, cfg.fiber())
            assert wall.zL == intersect(zeta, pol.cls)

    def test_matches_brute_force_spot_checks(self):
        rng = random.Random(7)
        for genus, e, m in [(0, 0, 0), (0, 2, 1), (1, 1, 2), (2, 3, 2), (1, -1, 1)]:
            cfg = SurfaceConfig(genus, e, m)
            for _ in range(6):
                chern = random_chern(rng, cfg)
                pol = random_polarization(rng, cfg)
                search = wall_search(cfg, chern, pol)
                got = tuple((w.zeta.a, w.zeta.b, w.zeta.exc) for w in search.walls)
                got_boundary = tuple(
                    (w.zeta.a, w.zeta.b, w.zeta.exc) for w in search.boundary
                )
                assert (got, got_boundary) == brute_walls(cfg, chern, pol)

    def test_builds_with_the_collector_paused_and_restores_its_state(self):
        # a running collector would start about 30 collections in this
        # search, each walking the walls built so far
        cfg = SurfaceConfig(0, 1, 3)
        chern = ChernData(cfg.divisor(0, 1, (1, 1, 1)), 40)
        pol = Polarization(cfg.divisor(3, 7, (-1, -1, -1)))
        started = []

        def record(phase, info):
            if phase == "start":
                started.append(info["generation"])

        enabled, threshold = gc.isenabled(), gc.get_threshold()
        try:
            gc.enable()
            gc.collect()  # no collection is due when the call starts
            gc.callbacks.append(record)
            search = wall_search(cfg, chern, pol)
            assert not started
            assert gc.isenabled()
            gc.callbacks.remove(record)
            assert len(search.walls) == 9285
            gc.disable()
            wall_search(cfg, chern, pol)
            assert not gc.isenabled()
            gc.enable()
            with pytest.raises(SearchBoundsError):  # raised mid-build, after some walls
                wall_search(cfg, chern, pol, max_candidates=5000)
            assert gc.isenabled()
        finally:
            if record in gc.callbacks:
                gc.callbacks.remove(record)
            if not enabled:
                gc.disable()
        assert gc.get_threshold() == threshold


class TestWallClass:
    def test_slotted_frozen_and_equal_to_a_constructed_one(self):
        cfg = SurfaceConfig(0, 1, 2)
        zeta = cfg.divisor(2, -1, (1, -1))
        built = WallClass(zeta, -8, 1, 2, -3)
        fast = _wall_objects(cfg)(2, (1, -1))(-1, -8, 1, -3)
        assert fast == built and hash(fast) == hash(built)
        assert fast != WallClass(zeta, -8, 1, 2, -1)
        for wall in (built, fast):
            assert not hasattr(wall, "__dict__")
            with pytest.raises(FrozenInstanceError):
                wall.zL = 0
            # a new attribute has no slot; CPython before 3.12 raises
            # TypeError from the frozen __setattr__ of a slotted dataclass
            with pytest.raises((AttributeError, TypeError)):
                wall.note = "walls take no new attributes"


class TestSuitability:
    def test_fiber_heavy_is_suitable(self, quadric):
        cfg, chern = quadric
        verdict = is_suitable(cfg, chern, Polarization(cfg.divisor(1, 3)))
        assert bool(verdict) and verdict.witness is None

    def test_separating_wall_blocks(self, quadric):
        cfg, chern = quadric
        verdict = is_suitable(cfg, chern, Polarization(cfg.divisor(3, 1)))
        assert not verdict
        assert verdict.witness.zeta == cfg.divisor(2, -1)

    def test_boundary_blocks_but_is_reported(self, quadric):
        cfg, chern = quadric
        verdict = is_suitable(cfg, chern, Polarization(cfg.divisor(2, 1)))
        assert not verdict
        assert verdict.boundary and verdict.boundary[0].zL == 0

    def test_vacuous_when_window_empty(self):
        cfg = SurfaceConfig(0, 1, 0)
        chern = ChernData(cfg.divisor(2, 1), 0)
        assert bool(is_suitable(cfg, chern, Polarization(cfg.divisor(1, 3))))


class TestDecisionsAgreeWithEnumeration:
    @given(wall_inputs())
    def test_witness_and_boundary(self, data):
        cfg, chern, pol = data
        search = wall_search(cfg, chern, pol)
        verdict = is_suitable(cfg, chern, pol)
        assert verdict.witness == first_witness(search)
        assert verdict.boundary == search.boundary
        assert verdict.suitable == (verdict.witness is None)
        if chern.c1.a % 2 == 0:
            normalized = wall_search(cfg, normalize_chern(chern), pol)
            certificate = certify_dv_zero(cfg, chern, pol)
            assert certificate.separating_wall == first_witness(normalized)
            assert certificate.boundary == normalized.boundary
            assert certificate.certified == (certificate.separating_wall is None)

    def test_anchor(self):
        cfg = SurfaceConfig(0, 1, 3)
        chern = ChernData(cfg.divisor(0, 1, (1, 1, 1)), 80)
        pol = Polarization(cfg.divisor(3, 7, (-1, -1, -1)))
        verdict = is_suitable(cfg, chern, pol)
        search = wall_search(cfg, chern, pol)
        assert not verdict
        assert verdict.witness == search.walls[0]
        assert len(verdict.boundary) == len(search.boundary) == 2492


class TestCertifyDvZero:
    def test_certified(self, quadric):
        cfg, chern = quadric
        certificate = certify_dv_zero(cfg, chern, Polarization(cfg.divisor(1, 3)))
        assert certificate.certified and certificate.d_value == 0

    def test_witness_on_failure(self, quadric):
        cfg, chern = quadric
        certificate = certify_dv_zero(cfg, chern, Polarization(cfg.divisor(3, 1)))
        assert not certificate.certified
        assert certificate.d_value is None
        assert certificate.separating_wall.zeta == cfg.divisor(2, -1)

    def test_odd_fiber_degree_is_not_applicable(self):
        cfg = SurfaceConfig(0, 0, 0)
        chern = ChernData(cfg.divisor(1, 1), 2)
        with pytest.raises(NotApplicableError):
            certify_dv_zero(cfg, chern, Polarization(cfg.divisor(1, 3)))

    def test_unnormalized_even_input_is_normalized_first(self, quadric):
        cfg, chern = quadric
        from ruledmoduli import chern_twist

        twisted = chern_twist(chern, cfg.divisor(1, -2))
        for pol_cls in (cfg.divisor(1, 3), cfg.divisor(3, 1)):
            pol = Polarization(pol_cls)
            assert (
                certify_dv_zero(cfg, twisted, pol).certified
                == certify_dv_zero(cfg, chern, pol).certified
            )
