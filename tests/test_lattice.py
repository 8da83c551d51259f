import itertools
import json
import re
from dataclasses import FrozenInstanceError
from enum import Enum
from types import ModuleType

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

import ruledmoduli
from conftest import (
    EDGE_INTS,
    brute_effective_decomposition,
    config_with_divisors,
    configs,
    gram_product,
    rebuild_from_decomposition,
)
from ruledmoduli.errors import INT64_MAX, INT64_MIN
from ruledmoduli.cli import _divisor_doc, _parse
from ruledmoduli.lattice import _canonical_term, _effectivity_run, pairing
from ruledmoduli import (
    ChernData,
    ConfigMismatchError,
    DivisorClass,
    Effectivity,
    EffectivityVerdict,
    ExtensionDatum,
    IntegerOverflowError,
    Polarization,
    SearchBox,
    SurfaceConfig,
    UnsupportedSurfaceError,
    c1f0_report,
    c1f1_report,
    canonical_class,
    certify_dv_zero,
    classify_structure,
    destabilizer_search,
    effectivity,
    euler_char,
    ext1_rr,
    family_dim_c1f0,
    family_dim_c1f1,
    h0_hirzebruch,
    intersect,
    is_suitable,
    maximize_family_dim,
    moduli_dim,
    pushforward_degree_bound,
    r0_generic,
    reference_family_dims,
    wall_search,
)
from ruledmoduli.invariants import _subscheme_length_from_zeta


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
        """Every surface check compares by identity first: a different surface
        is refused with its message, and an equal but distinct copy of the
        surface gives the same answer as the surface itself."""
        cfg, foreign, copy = SurfaceConfig(0, 1, 0), SurfaceConfig(0, 2, 0), SurfaceConfig(0, 1, 0)
        pair = f"classes live on different surfaces: {cfg} vs {foreign}"

        def calls(away):
            """One call per site, with a single argument on the surface ``away``."""
            d, d_away = cfg.divisor(1, 3), away.divisor(1, 3)
            chern, chern_away = ChernData(cfg.divisor(1, 1), 5), ChernData(away.divisor(1, 1), 5)
            pol, pol_away = Polarization(cfg.divisor(1, 4)), Polarization(away.divisor(1, 4))
            box = SearchBox(1, 1, 0)
            return [
                (lambda: intersect(d, d_away), pair),
                (lambda: d + d_away, pair),
                (lambda: d - d_away, pair),
                (lambda: euler_char(away, d), "divisor does not live on the given surface"),
                (lambda: h0_hirzebruch(away, d), "divisor does not live on the given surface"),
                (lambda: _subscheme_length_from_zeta(chern, away.divisor(1, 1)),
                 f"classes live on different surfaces: {away} vs {cfg}"),
                (lambda: moduli_dim(away, chern), "Chern data does not live on the given surface"),
                (lambda: classify_structure(away, chern), "Chern data does not live on the given surface"),
                (lambda: wall_search(cfg, chern_away, pol), "Chern data does not live on the given surface"),
                (lambda: wall_search(cfg, chern, pol_away), "polarization does not live on the given surface"),
                (lambda: destabilizer_search(cfg, d, d, 0, pol_away, box),
                 "polarization does not live on the given surface"),
            ]

        for (call, message), (same, _), (equal, _) in zip(calls(foreign), calls(cfg), calls(copy)):
            with pytest.raises(ConfigMismatchError, match=f"^{re.escape(message)}$"):
                call()
            assert equal() == same()

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
    """Two classes with coordinates at or near the 64-bit edges.  About one
    time in five the second lives on another surface, and one time in five
    on an equal but distinct copy of the first one's surface."""
    cfg = draw(configs(max_points=2))
    other = cfg
    pick = draw(st.integers(0, 4))
    if pick == 0:
        other = SurfaceConfig(cfg.genus, cfg.invariant_e + 1, cfg.num_points)
    elif pick == 1:
        other = SurfaceConfig(cfg.genus, cfg.invariant_e, cfg.num_points)
    x, y = (
        c.divisor(draw(EDGE), draw(EDGE), tuple(draw(EDGE) for _ in range(c.num_points)))
        for c in (cfg, other)
    )
    return x, y


def exact_or_overflow(build, coords):
    """``build()`` answers with exactly ``coords``, or raises the message that
    names the first of them outside the 64-bit range; returns the answer."""
    names = ["C0", "F"] + ["exceptional"] * (len(coords) - 2)
    for name, c in zip(names, coords):
        if not INT64_MIN <= c <= INT64_MAX:
            with pytest.raises(IntegerOverflowError,
                               match=f"^{name} coefficient {c} exceeds the signed 64-bit range$"):
                build()
            return None
    d = build()
    assert (d.a, d.b, *d.exc) == coords
    return d


def outcome(call):
    """A call's result, or the type and message of the domain error it raised."""
    try:
        return call()
    except (ConfigMismatchError, IntegerOverflowError) as exc:
        return type(exc), str(exc)


class TestSubtraction:
    """Each class operation builds one class and range-checks only its own
    coordinates; an equal copy of the surface combines like the surface."""

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
        same = DivisorClass._unchecked(y.a, y.b, y.exc, x.config)
        assert outcome(lambda: x - y) == outcome(lambda: x - same)
        coords = (x.a - y.a, x.b - y.b, *(p - q for p, q in zip(x.exc, y.exc)))
        d = exact_or_overflow(lambda: x - y, coords)
        if d is None:
            return
        try:
            assert x + (-y) == d
        except IntegerOverflowError:
            assert INT64_MIN in (y.a, y.b, *y.exc)

    @given(edge_pairs(), st.one_of(st.integers(-3, 3), EDGE))
    @example((F0.divisor(INT64_MIN), F0.divisor(INT64_MIN)), -1)
    @example((F0_1.divisor(1, exc=(INT64_MIN,)), F0_1.divisor(INT64_MAX, exc=(0,))), 2)
    def test_sum_negation_and_multiples_are_range_checked(self, pair, scalar):
        x, y = pair
        if x.config != y.config:
            with pytest.raises(ConfigMismatchError):
                x + y
        else:
            same = DivisorClass._unchecked(y.a, y.b, y.exc, x.config)
            assert outcome(lambda: x + y) == outcome(lambda: x + same)
            exact_or_overflow(lambda: x + y, (x.a + y.a, x.b + y.b, *map(sum, zip(x.exc, y.exc))))
        exact_or_overflow(lambda: -x, (-x.a, -x.b, *(-c for c in x.exc)))
        multiple = (scalar * x.a, scalar * x.b, *(scalar * c for c in x.exc))
        exact_or_overflow(lambda: scalar * x, multiple)
        exact_or_overflow(lambda: x * scalar, multiple)

    def test_builds_one_class(self, monkeypatch):
        # the constructor checks in __post_init__; the operators build through
        # DivisorClass._checked and never run __init__ or __post_init__
        cfg = SurfaceConfig(1, 0, 2)
        x, y = cfg.divisor(1, 2, (3, 4)), cfg.divisor(-5, 6, (7, -8))
        built = []
        post_init, checked = DivisorClass.__post_init__, DivisorClass._checked

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        def counting_checked(cls, *coords):
            built.append(checked(*coords))
            return built[-1]

        monkeypatch.setattr(DivisorClass, "__post_init__", counting_post_init)
        monkeypatch.setattr(DivisorClass, "_checked", classmethod(counting_checked))
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
        # chi = 1 - g + (D.D - D.K)/2 with D.K paired against K, on small
        # classes and at the edges of e: canonical_class wherever K is in
        # range, else K's coordinates unchecked (g = 0 at e = 2^63 - 1); an e
        # past the 64-bit range is refused by SurfaceConfig
        for genus in range(3):
            edge = 2 * genus - 2 - INT64_MIN  # the largest e with K in range
            for e in sorted({*range(0 if genus == 0 else -2, 4), edge - 1, edge, INT64_MAX}):
                for m in range(3):
                    if e > INT64_MAX:
                        with pytest.raises(IntegerOverflowError, match="^invariant_e"):
                            SurfaceConfig(genus, e, m)
                        continue
                    cfg = SurfaceConfig(genus, e, m)
                    k = canonical_class(cfg) if e <= edge else _canonical_term(cfg)
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

    @given(configs(max_genus=2), st.data())
    def test_closed_form_rule_decides_the_effective_verdict(self, cfg, data):
        a = data.draw(EDGE_INTS)
        exc = tuple(data.draw(EDGE_INTS) for _ in range(cfg.num_points))
        run = _effectivity_run(cfg.genus, a, exc)
        lo, need = (None, None) if run is None else run
        if lo is not None:  # no class is both NOT_EFFECTIVE and EFFECTIVE
            assert lo <= need
        # b at either end of the run, one either side of it, or anywhere
        ends = [end for end in (lo, need) if end is not None] or [0]
        near = [min(INT64_MAX, max(INT64_MIN, end + k)) for end in ends for k in (-1, 0, 1)]
        b = data.draw(st.sampled_from(near) | EDGE_INTS)
        verdict = effectivity(cfg.divisor(a, b, exc))
        if run is None or (lo is not None and b < lo):
            expected = EffectivityVerdict.NOT_EFFECTIVE
        elif b >= need:
            expected = EffectivityVerdict.EFFECTIVE
        else:
            expected = EffectivityVerdict.UNKNOWN
        assert verdict.verdict is expected
        if expected is EffectivityVerdict.EFFECTIVE:
            assert verdict.decomposition.get("F", 0) == b - need

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

    @pytest.mark.parametrize("bad", [0.5, 2.0, True, False, "1"])
    def test_coordinates_must_be_ints(self, bad):
        # effectivity would certify 0.5*C0 + 2F with the decomposition
        # {'C0': 0.5, 'F': 2}, so no such class may be built
        cfg = SurfaceConfig(0, 1, 1)
        for coords, name in [((bad, 0, (0,)), "C0"), ((0, bad, (0,)), "F"),
                             ((0, 0, (bad,)), "exceptional")]:
            message = f"^{name} coefficient must be an int, got {re.escape(repr(bad))}$"
            with pytest.raises(TypeError, match=message):
                DivisorClass(*coords, cfg)
            with pytest.raises(TypeError, match=message):
                cfg.divisor(*coords)
        # the first bad coordinate names the error, whatever its kind
        with pytest.raises(IntegerOverflowError, match="^C0 coefficient"):
            DivisorClass(2**63, bad, (0,), cfg)
        with pytest.raises(TypeError, match="^C0 coefficient"):
            DivisorClass(bad, 2**63, (0,), cfg)

    @pytest.mark.parametrize("bad", [0.5, 2.0, True, False, "1"])
    def test_chern_length_and_box_data_must_be_ints(self, bad):
        # c2 = 2.5 used to give moduli_dim 7.0, and a length of 0.5 an ext^1 of 0.5
        cfg = SurfaceConfig(0, 1, 0)
        f, pol = cfg.fiber(), Polarization(cfg.divisor(1, 10))
        calls = [
            (lambda: ChernData(f, bad), "c2"),
            (lambda: ext1_rr(cfg, f, f, bad), "subscheme length"),
            (lambda: destabilizer_search(cfg, -f, 2 * f, bad, pol, SearchBox(1, 1, 0)), "subscheme length"),
            (lambda: SearchBox(bad, 1, 0), "box bound"),
            (lambda: SearchBox(2, bad, 0), "box bound"),
            (lambda: SearchBox(2, 1, bad), "box bound"),
            (lambda: ExtensionDatum(1, 0, (bad,), ChernData(SurfaceConfig(0, 1, 1).fiber(), 1)), "q entry"),
            (lambda: family_dim_c1f0(0, 0, 1, 1, 0, 0, (bad,), 1), "ell entry"),
        ]
        for call, name in calls:
            with pytest.raises(TypeError, match=f"^{name} must be an int, got {re.escape(repr(bad))}$"):
                call()
        # the surface, the extension datum and the family counts gate each
        # integer argument where it enters, under its own name; ungated, a
        # bool passes as 0 or 1 and a float is refused only at a result
        entries = [
            (SurfaceConfig, (0, 1, 0), ("genus", "invariant_e", "num_points")),
            (SurfaceConfig(0, 1, 2).exceptional, (1,), ("exceptional index",)),
            (SurfaceConfig(0, 1, 2).fiber_transform, (1,), ("exceptional index",)),
            (lambda a, b, c: DivisorClass(a, b, (c,), SurfaceConfig(0, 1, 1)), (0, 0, 0),
             ("C0 coefficient", "F coefficient", "exceptional coefficient")),
            (lambda d, r: ExtensionDatum(d, r, (), ChernData(f, 1)), (1, 0), ("d", "r")),
            (lambda genus, eta, m, n, eps, r1, h0: family_dim_c1f0(genus, eta, m, n, eps, r1, (), h0),
             (0, 0, 0, 1, 0, 0, 1), ("genus", "eta", "m", "n", "eps", "r1", "h0")),
            (family_dim_c1f1, (0, 1, 0, 0, 1), ("genus", "e", "beta", "rho", "c2")),
            (maximize_family_dim, (0, 0, 0, 3, 0), ("genus", "eta", "m", "n", "eps")),
            (reference_family_dims, (1, 1), ("n", "invariant_e")),
            (lambda eta, n, eps, r1, h0: c1f0_report(cfg, eta, n, eps, r1, (), h0),
             (1, 1, 0, 0, 1), ("eta", "n", "eps", "r1", "h0")),
            (lambda beta, c2: c1f1_report(cfg, beta, c2), (0, 1), ("beta", "c2")),
            (r0_generic, (0, 1, 2), ("genus", "eta", "c2")),
            (lambda r, beta, genus, c2, qi: pushforward_degree_bound(r, beta, genus, c2, (qi,)),
             (0, 0, 0, 0, 1), ("r", "beta", "genus", "c2", "q entry")),
            *[(lambda n, query=query: query(cfg, ChernData(f, 2), pol, max_candidates=n),
               (100,), ("max_candidates",)) for query in (wall_search, is_suitable, certify_dv_zero)],
            (lambda n: destabilizer_search(cfg, -f, 2 * f, 0, pol, SearchBox(1, 1, 0), max_candidates=n),
             (100,), ("max_candidates",)),
        ]
        for entry_point, args, names in entries:
            entry_point(*args)
            for i, name in enumerate(names):
                with pytest.raises(TypeError, match=f"^{name} must be an int, got {re.escape(repr(bad))}$"):
                    entry_point(*args[:i], bad, *args[i + 1:])
        # every public name is an entry point above (a row, or a public name
        # that a row's lambda calls), takes no integer, or is built by the
        # package and never passed in: a new public callable needs a row
        takes_no_int = {
            "Polarization", "canonical_class", "chern_twist", "classify_structure", "default_box",
            "effectivity", "euler_char", "h0_hirzebruch", "intersect", "is_extension_unique", "moduli_dim",
            "normalize_chern", "slope_margin", "subscheme_length", "zeta_class",
        }
        records = {
            "Classification", "DestabilizerCandidate", "DvZeroCertificate", "Effectivity", "FamilyMaximizer",
            "FamilyReport", "ReferenceFamily", "StabilityVerdict", "Suitability", "VanishingAssumption",
            "WallClass", "WallSearch",
        }

        def called(call):
            if call.__name__ != "<lambda>":
                return {call.__name__}
            return {*call.__code__.co_names, *(default.__name__ for default in call.__defaults__ or ())}

        def exempt(value):  # modules, exceptions and enums
            kinds = (BaseException, Enum)
            return isinstance(value, ModuleType) or isinstance(value, type) and issubclass(value, kinds)

        covered = set().union(*map(called, [call for call, _ in calls] + [entry for entry, _, _ in entries]))
        public = {name for name in ruledmoduli.__all__ if not exempt(getattr(ruledmoduli, name))}
        listed = takes_no_int | records
        assert (public - covered - listed, listed - public) == (set(), set())

    def test_tracer_can_patch_the_constructor(self):
        # bench/tracer.py wraps both methods to count the classes built
        assert "__init__" in vars(DivisorClass)
        assert "__post_init__" in vars(DivisorClass)

    def test_divisor_length_mismatch(self):
        with pytest.raises(ValueError):
            DivisorClass(0, 0, (1,), SurfaceConfig(0, 0, 0))

    def test_scalars_must_be_integers(self):
        cfg = SurfaceConfig(0, 0, 0)
        with pytest.raises(TypeError):
            cfg.fiber() * 1.5
        # a scalar passes the integer gate: d * True used to return d, and
        # 2^70 * zero the zero class
        for bad in (True, False):
            for product in (lambda: cfg.fiber() * bad, lambda: bad * cfg.fiber()):
                with pytest.raises(TypeError, match="unsupported operand"):
                    product()
        for product in (lambda: 2**70 * cfg.zero(), lambda: cfg.zero() * 2**70):
            with pytest.raises(IntegerOverflowError, match=f"^scalar {2**70} exceeds the signed 64-bit range$"):
                product()

    def test_round_trips(self):
        # the CLI is the only JSON reader and writer; what it writes it reads back
        cfg = SurfaceConfig(1, -1, 2)
        text = json.dumps({"genus": cfg.genus, "e": cfg.invariant_e, "points": cfg.num_points})
        assert _parse("config", text, "--config", None) == cfg
        d = cfg.divisor(3, -4, (5, -6))
        assert _parse("divisor", json.dumps(_divisor_doc(d)), "--divisor", cfg) == d

