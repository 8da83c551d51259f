import itertools
import json
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from conftest import (
    brute_effective_decomposition,
    config_with_divisors,
    configs,
    gram_product,
    rebuild_from_decomposition,
)
from ruledmoduli.errors import INT64_MAX, INT64_MIN
from ruledmoduli.cli import _divisor_doc, _parse
from ruledmoduli.lattice import pairing
from ruledmoduli import (
    ConfigMismatchError,
    DivisorClass,
    Effectivity,
    EffectivityVerdict,
    IntegerOverflowError,
    SurfaceConfig,
    UnsupportedSurfaceError,
    canonical_class,
    effectivity,
    euler_char,
    h0_hirzebruch,
    intersect,
)


class TestIntersection:
    def test_minimal_section_square(self):
        cfg = SurfaceConfig(0, 2, 0)
        assert intersect(cfg.minimal_section(), cfg.minimal_section()) == -2

    def test_basis_pairings(self):
        cfg = SurfaceConfig(0, 1, 2)
        f, c0 = cfg.fiber(), cfg.minimal_section()
        assert intersect(f, f) == 0
        assert intersect(c0, f) == 1
        assert intersect(cfg.exceptional(1), cfg.exceptional(1)) == -1
        assert intersect(cfg.exceptional(1), cfg.exceptional(2)) == 0
        assert intersect(cfg.exceptional(1), f) == 0
        assert intersect(cfg.exceptional(1), c0) == 0

    def test_term_by_term_expansion(self):
        cfg = SurfaceConfig(0, 1, 2)
        d = cfg.divisor(1, -10, (-1, -1))
        assert intersect(d, d) == -1 - 20 - 2 == -23

    def test_rejects_config_mismatch(self):
        d1 = SurfaceConfig(0, 1, 0).zero()
        d2 = SurfaceConfig(0, 2, 0).zero()
        with pytest.raises(ConfigMismatchError):
            intersect(d1, d2)
        with pytest.raises(ConfigMismatchError):
            d1 + d2
        with pytest.raises(ConfigMismatchError):
            euler_char(d2.config, d1)
        with pytest.raises(ConfigMismatchError):
            h0_hirzebruch(d2.config, d1)

    def test_overflow_is_an_error_not_a_wrap(self):
        cfg = SurfaceConfig(0, 1, 0)
        big = cfg.divisor(2**40, 2**40)
        with pytest.raises(IntegerOverflowError):
            intersect(big, big)
        with pytest.raises(IntegerOverflowError):
            cfg.divisor(2**63, 0)

    @given(config_with_divisors(count=3))
    def test_symmetry_and_bilinearity(self, data):
        _, x, y, z = data
        assert intersect(x, y) == intersect(y, x) == gram_product(x, y)
        for s, t in [(2, -3), (0, 1), (-1, -1), (5, 4)]:
            assert intersect(s * x + t * y, z) == s * intersect(x, z) + t * intersect(y, z)
        assert x - y == x + (-y)


F0, F0_1 = SurfaceConfig(0, 0, 0), SurfaceConfig(0, 0, 1)
EDGE = st.one_of(
    st.integers(INT64_MIN, INT64_MIN + 2),
    st.integers(INT64_MAX - 2, INT64_MAX),
    st.integers(-2, 2),
    st.integers(INT64_MIN, INT64_MAX),
)


@st.composite
def edge_pairs(draw):
    """Two classes with coordinates at or near the 64-bit edges; the second
    lives on another surface about one time in five."""
    cfg = draw(configs(max_points=2))
    other = cfg
    if draw(st.integers(0, 4)) == 0:
        other = SurfaceConfig(cfg.genus, cfg.invariant_e + 1, cfg.num_points)
    x, y = (
        c.divisor(draw(EDGE), draw(EDGE), tuple(draw(EDGE) for _ in range(c.num_points)))
        for c in (cfg, other)
    )
    return x, y


class TestSubtraction:
    """x - y is one class: only its own coordinates are range-checked."""

    @given(edge_pairs())
    # at -2^63: (2^63 - 1)C0 is in range, 2^63 C0 is not, a mismatch wins
    @example((F0.divisor(-1), F0.divisor(INT64_MIN)))
    @example((F0.divisor(0), F0.divisor(INT64_MIN)))
    @example((F0_1.divisor(exc=(-1,)), F0_1.divisor(exc=(INT64_MIN,))))
    @example((SurfaceConfig(0, 1, 0).divisor(0), F0.divisor(INT64_MIN)))
    def test_only_the_difference_is_range_checked(self, pair):
        x, y = pair
        if x.config != y.config:
            with pytest.raises(ConfigMismatchError):
                x - y
            return
        coords = (x.a - y.a, x.b - y.b, *(p - q for p, q in zip(x.exc, y.exc)))
        outside = [c for c in coords if not INT64_MIN <= c <= INT64_MAX]
        if outside:
            # the first coordinate of the true difference that leaves the range
            with pytest.raises(IntegerOverflowError, match=f" {outside[0]} exceeds"):
                x - y
            return
        d = x - y
        assert (d.a, d.b, *d.exc) == coords
        try:
            assert x + (-y) == d
        except IntegerOverflowError:
            assert INT64_MIN in (y.a, y.b, *y.exc)

    def test_builds_one_class(self, monkeypatch):
        cfg = SurfaceConfig(1, 0, 2)
        x, y = cfg.divisor(1, 2, (3, 4)), cfg.divisor(-5, 6, (7, -8))
        built = []
        post_init = DivisorClass.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(DivisorClass, "__post_init__", counting)
        d = x - y
        assert built == [d]
        assert d == DivisorClass(6, -4, (-4, 12), cfg)


class TestCanonicalClass:
    def test_frozen_values(self):
        assert canonical_class(SurfaceConfig(0, 0, 0)) == SurfaceConfig(0, 0, 0).divisor(-2, -2)
        assert canonical_class(SurfaceConfig(1, 1, 1)) == SurfaceConfig(1, 1, 1).divisor(-2, -1, (1,))

    @given(configs())
    def test_adjunction_self_checks(self, cfg):
        k = canonical_class(cfg)
        f, c0 = cfg.fiber(), cfg.minimal_section()
        # each curve has 2*genus(curve) - 2 = C^2 + K.C
        assert intersect(k, f) == -2 and intersect(f, f) == 0
        assert intersect(k, c0) == cfg.invariant_e + 2 * cfg.genus - 2
        assert intersect(c0, c0) == -cfg.invariant_e
        for i in range(1, cfg.num_points + 1):
            ei = cfg.exceptional(i)
            assert intersect(k, ei) == -1 and intersect(ei, ei) == -1


class TestEulerChar:
    def test_structure_sheaf(self):
        for g in range(4):
            cfg = SurfaceConfig(g, 1, 0)
            assert euler_char(cfg, cfg.zero()) == 1 - g

    @pytest.mark.parametrize("e", [0, 1, 3])
    def test_negative_fiber_multiple(self, e):
        # chi(-(2n+1)F) = -2n, independent of e; here n = 3
        cfg = SurfaceConfig(0, e, 0)
        assert euler_char(cfg, cfg.divisor(b=-7)) == -6

    @pytest.mark.parametrize("e", [-1, 0, 2])
    def test_genus_one_closed_form(self, e):
        # chi((2r1 - eta)F + sum (2l_i - 1)Ei)
        #   = 1 - g + 2r1 - eta - sum (1 - 2l_i)(1 - l_i)
        cfg = SurfaceConfig(1, e, 2)
        r1, eta, ells = -3, 0, (0, 1)
        d = cfg.divisor(b=2 * r1 - eta, exc=tuple(2 * li - 1 for li in ells))
        closed_form = 1 - 1 + 2 * r1 - eta - sum((1 - 2 * li) * (1 - li) for li in ells)
        assert euler_char(cfg, d) == closed_form == -7

    def test_only_chi_is_range_checked(self):
        # D - K = C0 + (2^63 + 2)F is out of range, but D.(D - K) = -2 and chi = 0
        cfg = SurfaceConfig(0, 1, 0)
        d = cfg.divisor(-1, INT64_MAX)
        assert euler_char(cfg, d) == 0
        # chi(C0 + bF) = 2b + 1 on F_1: the top of the range at b = 2^62 - 1,
        # where D.(D - K) = 2^64 - 4 is not; one past it raises
        assert euler_char(cfg, cfg.divisor(1, 2**62 - 1)) == INT64_MAX
        with pytest.raises(IntegerOverflowError, match="Euler characteristic 9223372036854775809"):
            euler_char(cfg, cfg.divisor(1, 2**62))

    def test_canonical_class_out_of_range(self):
        # K = -2C0 + (2g - 2 - e)F leaves the range at e = 2^63 - 1 on g = 0,
        # but D.K = a(2g - 2 + e) - 2b - sum(ci) is computed on ints
        cfg = SurfaceConfig(0, INT64_MAX, 0)
        with pytest.raises(IntegerOverflowError, match="F coefficient -9223372036854775809"):
            canonical_class(cfg)
        assert euler_char(cfg, cfg.zero()) == 1
        assert euler_char(cfg, cfg.fiber()) == 2
        assert euler_char(cfg, cfg.divisor(b=-7)) == -6

    def test_closed_form_matches_the_canonical_class(self):
        # wherever K is in range, chi = 1 - g + (D.D - D.K)/2 with D.K paired
        # against canonical_class, on small classes and at the edge of e
        for genus in range(3):
            edge = 2 * genus - 2 - INT64_MIN  # the largest e with K in range
            for e in (*range(0 if genus == 0 else -2, 4), edge - 1, edge):
                for m in range(3):
                    cfg = SurfaceConfig(genus, e, m)
                    k = canonical_class(cfg)
                    for a in range(-2, 3):
                        for b in range(-3, 4):
                            for exc in itertools.product(range(-1, 2), repeat=m):
                                d = cfg.divisor(a, b, exc)
                                chi = 1 - genus + (pairing(d, d) - pairing(d, k)) // 2
                                if INT64_MIN <= chi <= INT64_MAX:
                                    assert euler_char(cfg, d) == chi
                                else:
                                    with pytest.raises(IntegerOverflowError):
                                        euler_char(cfg, d)

    @given(config_with_divisors())
    def test_riemann_roch_parity(self, data):
        cfg, d = data
        pairing = intersect(d, d - canonical_class(cfg))
        assert pairing % 2 == 0
        assert euler_char(cfg, d) == (1 - cfg.genus) + pairing // 2


class TestEffectivity:
    def test_zero_is_effective_with_empty_witness(self):
        verdict = effectivity(SurfaceConfig(0, 1, 0).zero())
        assert verdict.verdict is EffectivityVerdict.EFFECTIVE
        assert verdict.decomposition == {}

    def test_certified_verdicts_carry_their_witness(self):
        with pytest.raises(ValueError, match="decomposition"):
            Effectivity(EffectivityVerdict.EFFECTIVE)
        with pytest.raises(ValueError, match="violated condition"):
            Effectivity(EffectivityVerdict.NOT_EFFECTIVE)

    def test_negative_fiber_is_not_effective(self):
        cfg = SurfaceConfig(0, 1, 0)
        verdict = effectivity(-cfg.fiber())
        assert verdict.verdict is EffectivityVerdict.NOT_EFFECTIVE
        assert verdict.violated is not None

    def test_fiber_transform_witness(self):
        cfg = SurfaceConfig(0, 1, 1)
        verdict = effectivity(cfg.fiber_transform(1))
        assert verdict.verdict is EffectivityVerdict.EFFECTIVE
        assert verdict.decomposition == {"F-E1": 1}

    def test_outside_the_cone_model_is_unknown(self):
        # C0 - E1 is genuinely effective when e = 0 (the second ruling moves)
        # and genuinely not when e = 1; the cone model must say UNKNOWN both
        # times rather than guess.
        for e in (0, 1):
            cfg = SurfaceConfig(0, e, 1)
            d = cfg.minimal_section() - cfg.exceptional(1)
            assert effectivity(d).verdict is EffectivityVerdict.UNKNOWN

    def test_positive_genus_has_no_pushforward_rule(self):
        cfg = SurfaceConfig(1, 0, 0)
        assert effectivity(-cfg.fiber() + cfg.minimal_section() * 0).verdict is (
            EffectivityVerdict.UNKNOWN
        )

    @given(config_with_divisors(lo=-3, hi=3))
    def test_matches_brute_force_cone_membership(self, data):
        cfg, d = data
        verdict = effectivity(d)
        witness = brute_effective_decomposition(d)
        if verdict.verdict is EffectivityVerdict.EFFECTIVE:
            assert witness is not None
            assert rebuild_from_decomposition(cfg, verdict.decomposition) == d
        else:
            assert witness is None


class TestHirzebruchSections:
    def test_structure_sheaf(self):
        cfg = SurfaceConfig(0, 1, 0)
        assert h0_hirzebruch(cfg, cfg.zero()) == 1

    def test_pushforward_splitting(self):
        cfg = SurfaceConfig(0, 1, 0)
        assert h0_hirzebruch(cfg, cfg.divisor(1, 1)) == (1 + 1) + (1 - 1 + 1) == 3

    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_general_subscheme_residual(self, e):
        # h0((2n+1)F) - 2n = 2 for n = 3
        cfg = SurfaceConfig(0, e, 0)
        assert h0_hirzebruch(cfg, cfg.divisor(b=7)) - 6 == 2

    def test_requires_hirzebruch(self):
        with pytest.raises(UnsupportedSurfaceError):
            h0_hirzebruch(SurfaceConfig(1, 1, 0), SurfaceConfig(1, 1, 0).zero())
        with pytest.raises(UnsupportedSurfaceError):
            h0_hirzebruch(SurfaceConfig(0, 1, 1), SurfaceConfig(0, 1, 1).zero())

    @given(st.integers(0, 5), st.integers(0, 9), st.integers(0, 4))
    def test_dominates_euler_char_and_is_monotone(self, a, b, e):
        cfg = SurfaceConfig(0, e, 0)
        d = cfg.divisor(a, b)
        assert h0_hirzebruch(cfg, d) >= euler_char(cfg, d)
        assert h0_hirzebruch(cfg, d + cfg.fiber()) >= h0_hirzebruch(cfg, d)

    @given(st.integers(0, 6), st.integers(0, 9))
    def test_equals_euler_char_on_the_quadric(self, a, b):
        # e = 0, a, b >= 0: no truncation and no higher cohomology
        cfg = SurfaceConfig(0, 0, 0)
        d = cfg.divisor(a, b)
        assert h0_hirzebruch(cfg, d) == euler_char(cfg, d) == (a + 1) * (b + 1)

    def test_closed_form_matches_the_splitting_sum(self):
        # the count is a closed form; the sum over the pushforward's summands
        # O(b - k*e), k = 0..a, stays the reference
        for e in range(5):
            cfg = SurfaceConfig(0, e, 0)
            for a in range(-3, 9):
                for b in range(-6, 15):
                    expected = sum(max(0, b - k * e + 1) for k in range(a + 1))
                    assert h0_hirzebruch(cfg, cfg.divisor(a, b)) == expected

    def test_out_of_range_count_is_an_error(self):
        # 3C0 + 2^62 F on F_0 has (3 + 1) * (2^62 + 1) sections
        cfg = SurfaceConfig(0, 0, 0)
        with pytest.raises(IntegerOverflowError):
            h0_hirzebruch(cfg, cfg.divisor(3, 2**62))


class TestHodgeIndexSignature:
    @given(config_with_divisors(count=2, lo=-6, hi=6))
    def test_orthogonal_complement_is_negative(self, data):
        _, l_cls, zeta = data
        if intersect(l_cls, l_cls) <= 0:
            return
        assert intersect(l_cls, zeta) ** 2 >= intersect(l_cls, l_cls) * intersect(zeta, zeta)


class TestValidationAndJson:
    def test_config_invariants(self):
        with pytest.raises(ValueError):
            SurfaceConfig(-1, 0, 0)
        with pytest.raises(ValueError):
            SurfaceConfig(0, -2, 0)
        with pytest.raises(ValueError):
            SurfaceConfig(0, 0, -1)
        assert SurfaceConfig(1, -2, 0).rank == 2
        assert SurfaceConfig(2, 0, 3).rank == 5
        with pytest.raises(ValueError, match="exceptional index 0 outside 1..3"):
            SurfaceConfig(2, 0, 3).exceptional(0)

    def test_slotted_frozen_and_unchecked_equal_to_checked(self):
        cfg = SurfaceConfig(1, -1, 2)
        checked = cfg.divisor(3, -4, (5, -6))
        fast = DivisorClass._unchecked(3, -4, (5, -6), cfg)
        assert fast == checked and hash(fast) == hash(checked)
        assert {fast: 1}[checked] == 1
        assert fast != DivisorClass._unchecked(3, -4, (5, -5), cfg)
        for d in (checked, fast):
            assert not hasattr(d, "__dict__")
            with pytest.raises(FrozenInstanceError):
                d.a = 0
            # a new attribute has no slot; CPython before 3.12 raises
            # TypeError from the frozen __setattr__ of a slotted dataclass
            with pytest.raises((AttributeError, TypeError)):
                d.note = "classes take no new attributes"

    def test_divisor_checks_an_explicit_exc(self):
        cfg = SurfaceConfig(0, 1, 2)
        assert cfg.divisor(1, 2) == cfg.divisor(1, 2, (0, 0))
        # an explicit empty exc is a wrong length, not a request for zeros
        for exc in ([], (), (0,)):
            with pytest.raises(ValueError, match="expected 2 exceptional coefficients"):
                cfg.divisor(1, 2, exc)
        assert SurfaceConfig(0, 1, 0).divisor(1, 2, []) == SurfaceConfig(0, 1, 0).divisor(1, 2)

    def test_constructor_range_checks_each_coordinate(self):
        cfg = SurfaceConfig(0, 0, 1)
        assert DivisorClass(1, 2, [3], cfg).exc == (3,)
        for coords, name in [((2**63, 0, (0,)), "C0"), ((0, -(2**63) - 1, (0,)), "F"),
                             ((0, 0, (2**63,)), "exceptional")]:
            with pytest.raises(IntegerOverflowError, match=f"{name} coefficient"):
                DivisorClass(*coords, cfg)

    def test_divisor_length_mismatch(self):
        with pytest.raises(ValueError):
            DivisorClass(0, 0, (1,), SurfaceConfig(0, 0, 0))

    def test_scalars_must_be_integers(self):
        with pytest.raises(TypeError):
            SurfaceConfig(0, 0, 0).fiber() * 1.5

    def test_round_trips(self):
        # the CLI is the only JSON reader and writer; what it writes it reads back
        cfg = SurfaceConfig(1, -1, 2)
        text = json.dumps({"genus": cfg.genus, "e": cfg.invariant_e, "points": cfg.num_points})
        assert _parse("config", text, "--config", None) == cfg
        d = cfg.divisor(3, -4, (5, -6))
        assert _parse("divisor", json.dumps(_divisor_doc(d)), "--divisor", cfg) == d

