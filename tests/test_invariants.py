import json
import warnings

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from conftest import config_with_divisors
from ruledmoduli.cli import _divisor_doc, _parse
from ruledmoduli import (
    ChernData,
    ExtensionDatum,
    IntegerOverflowError,
    NegativeLengthWarning,
    ParityError,
    SurfaceConfig,
    chern_twist,
    is_extension_unique,
    normalize_chern,
    pushforward_degree_bound,
    r0_generic,
    subscheme_length,
    zeta_class,
)
from ruledmoduli.invariants import _subscheme_length_from_zeta


def odd_fiber_datum(genus, e, beta, rho, c2):
    """Extension datum of the odd-fibre normal form: sub = C0 - (c2-beta)F."""
    cfg = SurfaceConfig(genus, e, rho)
    c1 = cfg.divisor(a=1, b=beta, exc=(1,) * rho)
    return ExtensionDatum(d=1, r=beta - c2, q=(0,) * rho, chern=ChernData(c1, c2))


def even_fiber_datum(genus, e, eta, m, c2, r1, ells):
    cfg = SurfaceConfig(genus, e, m)
    c1 = cfg.divisor(b=eta, exc=(1,) * m)
    return ExtensionDatum(d=0, r=r1, q=tuple(ells), chern=ChernData(c1, c2))


class TestZetaClass:
    @pytest.mark.parametrize("genus,e,beta,rho,c2", [(0, 1, 0, 0, 4), (0, 2, 1, 2, 6), (2, 1, 1, 3, 9)])
    def test_odd_fiber_normal_form(self, genus, e, beta, rho, c2):
        datum = odd_fiber_datum(genus, e, beta, rho, c2)
        cfg = datum.config
        expected = cfg.divisor(a=1, b=beta - 2 * c2, exc=(-1,) * rho)
        assert zeta_class(datum) == expected

    def test_balanced_splitting_gives_zero(self):
        cfg = SurfaceConfig(0, 1, 1)
        chern = ChernData(cfg.divisor(2, 4, (2,)), 5)
        datum = ExtensionDatum(d=1, r=2, q=(1,), chern=chern)
        assert zeta_class(datum) == cfg.zero()

    def test_even_fiber_normal_form(self):
        datum = even_fiber_datum(0, 1, 1, 2, 6, r1=-2, ells=(0, 3))
        cfg = datum.config
        assert zeta_class(datum) == cfg.divisor(b=2 * (-2) - 1, exc=(-1, 5))

    @given(config_with_divisors(lo=-4, hi=4), st.integers(-8, 8), st.integers(0, 6),
           st.lists(st.integers(0, 4), max_size=3))
    def test_parity_congruent_to_c1(self, data, c2, d_extra, q_raw):
        cfg, c1 = data
        d = -(-c1.a // 2) + d_extra
        q = tuple((q_raw + [0, 0, 0])[: cfg.num_points])
        datum = ExtensionDatum(d=d, r=-3, q=q, chern=ChernData(c1, c2))
        diff = zeta_class(datum) - c1
        assert diff.a % 2 == 0 and diff.b % 2 == 0
        assert all(c % 2 == 0 for c in diff.exc)


class TestSubschemeLength:
    @pytest.mark.parametrize("genus,e,beta,rho,c2", [(0, 1, 0, 0, 3), (0, 0, 1, 1, 5), (1, 2, 1, 4, 8)])
    def test_odd_fiber_form_has_no_subscheme(self, genus, e, beta, rho, c2):
        assert subscheme_length(odd_fiber_datum(genus, e, beta, rho, c2)) == 0

    def test_even_fiber_specialization(self):
        datum = even_fiber_datum(0, 1, 0, 3, 7, r1=-4, ells=(0, 1, 2))
        expected = 7 + sum(li * (1 - li) for li in (0, 1, 2))
        assert subscheme_length(datum) == expected

    def test_balanced_case(self):
        cfg = SurfaceConfig(0, 1, 0)
        chern = ChernData(cfg.divisor(2, 2), 5)  # c1^2 = -4 + 8 = 4
        datum = ExtensionDatum(d=1, r=1, q=(), chern=chern)
        assert subscheme_length(datum) == 5 - 1

    def test_negative_length_warns_and_returns(self):
        datum = even_fiber_datum(0, 1, 0, 1, 2, r1=0, ells=(3,))
        with pytest.warns(NegativeLengthWarning):
            assert subscheme_length(datum) == 2 + 3 * (1 - 3)

    def test_parity_violation_raises(self):
        cfg = SurfaceConfig(0, 1, 0)
        chern = ChernData(cfg.fiber(), 2)
        with pytest.raises(ParityError):
            _subscheme_length_from_zeta(chern, cfg.divisor(1, 1))

    def test_parity_is_read_off_the_coordinates(self):
        # zeta - c1 = (2^64 - 2)C0 is out of range, but on F_0 both squares
        # vanish and the length is c2
        cfg = SurfaceConfig(0, 0, 0)
        datum = ExtensionDatum(d=-1, r=0, q=(), chern=ChernData(cfg.divisor(a=-(2**63)), 5))
        assert zeta_class(datum) == cfg.divisor(a=2**63 - 2)
        assert subscheme_length(datum) == 5

    def test_only_the_length_is_range_checked(self):
        # zeta = 2C0 + 2^61 F has zeta^2 = 2^63 on F_0; the length is c2 + 2^61
        cfg = SurfaceConfig(0, 0, 0)
        for c2, length in [(0, 2**61), (2**63 - 1 - 2**61, 2**63 - 1)]:
            datum = ExtensionDatum(d=1, r=2**60, q=(), chern=ChernData(cfg.zero(), c2))
            assert subscheme_length(datum) == length
        datum = ExtensionDatum(d=1, r=2**60, q=(), chern=ChernData(cfg.zero(), 2**63 - 2**61))
        with pytest.raises(IntegerOverflowError, match="subscheme length 9223372036854775808"):
            subscheme_length(datum)

    @given(st.integers(0, 3), st.integers(0, 1), st.integers(-6, 20),
           st.integers(-10, 10), st.lists(st.integers(0, 5), max_size=4))
    def test_specialization_identity(self, genus, eta, c2, r1, ells):
        m = len(ells)
        datum = even_fiber_datum(genus, 1 if genus else 0, eta, m, c2, r1, ells)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeLengthWarning)
            assert subscheme_length(datum) == c2 + sum(li * (1 - li) for li in ells)


class TestR0:
    def test_balanced_fiber_family(self):
        for n in range(1, 7):
            assert r0_generic(0, 1, 2 * n) == 1 - n

    def test_plain_ceiling(self):
        assert r0_generic(0, 0, 6) == -3

    def test_out_of_range_section_degree(self):
        # every argument is in range, the answer -3*2^62 + 1 is not
        with pytest.raises(IntegerOverflowError, match="section degree -13835058055282163711"):
            r0_generic(2**63 - 1, -(2**63), 2**63 - 1)
        # eta - c2 - genus may leave the range; only the section degree is checked
        assert r0_generic(1, -(2**63), 2**63 - 1) == -(2**63)
        with pytest.raises(IntegerOverflowError, match="section degree"):
            r0_generic(3, -(2**63), 2**63 - 1)

    def test_negative_genus_is_refused(self):
        # as SurfaceConfig and the family counts do
        with pytest.raises(ValueError, match="^genus must be >= 0, got -3$"):
            r0_generic(-3, 0, 0)

    @given(st.integers(0, 6), st.integers(-3, 3), st.integers(-10, 40))
    def test_bracket(self, genus, eta, c2):
        lower = eta - c2 - genus
        assert lower <= 2 * r0_generic(genus, eta, c2) <= lower + 1


class TestDegreeBound:
    def test_r0_always_admissible(self):
        for genus, beta, c2 in [(0, 0, 4), (2, 1, 9), (1, 0, 3)]:
            assert pushforward_degree_bound(r0_generic(genus, beta, c2), beta, genus, c2, ())

    def test_quadratic_correction(self):
        assert not pushforward_degree_bound(-1, 0, 0, 4, (3,))

    def test_boundary_case(self):
        assert pushforward_degree_bound(-3, 1, 2, 5, ())

    def test_rejects_negative_multiplicities(self):
        with pytest.raises(ValueError):
            pushforward_degree_bound(0, 0, 0, 0, (-1,))

    def test_rejects_negative_genus(self):
        with pytest.raises(ValueError, match="^genus must be >= 0, got -3$"):
            pushforward_degree_bound(0, 0, -3, 0)


class TestChernTwist:
    def test_zero_twist_is_identity(self):
        cfg = SurfaceConfig(0, 2, 1)
        chern = ChernData(cfg.divisor(1, 3, (2,)), 7)
        assert chern_twist(chern, cfg.zero()) == chern

    def test_exceptional_twist(self):
        cfg = SurfaceConfig(0, 0, 1)
        chern = ChernData(cfg.divisor(b=1, exc=(1,)), 4)
        twisted = chern_twist(chern, cfg.exceptional(1))
        assert twisted.c1 == cfg.divisor(b=1, exc=(3,))
        assert twisted.c2 == 2
        assert chern.discriminant == twisted.discriminant == 17

    def test_only_the_twisted_c2_is_range_checked(self):
        # c1.T = 2^63 on F_0 for c1 = 2^62 F and T = 2C0
        cfg = SurfaceConfig(0, 0, 0)
        t = cfg.divisor(2)
        twisted = chern_twist(ChernData(cfg.divisor(b=2**62), -1), t)
        assert twisted == ChernData(cfg.divisor(4, 2**62), 2**63 - 1)
        assert twisted.discriminant == -4
        with pytest.raises(IntegerOverflowError, match="twisted c2 9223372036854775808"):
            chern_twist(ChernData(cfg.divisor(b=2**62), 0), t)

    def test_only_the_discriminant_is_range_checked(self):
        # c1^2 = 2^63 on F_0 for c1 = 2C0 + 2^61 F
        cfg = SurfaceConfig(0, 0, 0)
        c1 = cfg.divisor(2, 2**61)
        assert ChernData(c1, 2**61).discriminant == 0
        assert ChernData(c1, 0).discriminant == -(2**63)
        with pytest.raises(IntegerOverflowError, match="discriminant -9223372036854775812"):
            ChernData(c1, -1).discriminant

    @given(config_with_divisors(count=2, lo=-5, hi=5), st.integers(-10, 30))
    def test_discriminant_invariance(self, data, c2):
        _, c1, t = data
        chern = ChernData(c1, c2)
        assert chern_twist(chern, t).discriminant == chern.discriminant

    @given(config_with_divisors(lo=-7, hi=7), st.integers(-10, 30))
    def test_normalize(self, data, c2):
        _, c1 = data
        normal = normalize_chern(ChernData(c1, c2))
        assert set(map(abs, (normal.c1.a, normal.c1.b, *normal.c1.exc))) <= {0, 1}
        assert normal.c1.a >= 0 and normal.c1.b >= 0
        assert normal.discriminant == ChernData(c1, c2).discriminant
        assert normalize_chern(normal) == normal


class TestExtensionUniqueness:
    def test_odd_fiber_is_unique(self):
        assert is_extension_unique(odd_fiber_datum(0, 1, 0, 0, 3))

    def test_balanced_is_not(self):
        assert not is_extension_unique(even_fiber_datum(0, 1, 0, 0, 3, r1=-1, ells=()))

    def test_strictness(self):
        cfg = SurfaceConfig(0, 1, 0)
        datum = ExtensionDatum(d=1, r=0, q=(), chern=ChernData(cfg.divisor(b=1), 2))
        assert is_extension_unique(datum)


class TestDatumValidation:
    def test_multiplicities_must_be_nonnegative(self):
        cfg = SurfaceConfig(0, 1, 1)
        with pytest.raises(ValueError):
            ExtensionDatum(d=0, r=0, q=(-1,), chern=ChernData(cfg.divisor(exc=(0,)), 1))

    def test_one_multiplicity_per_point(self):
        cfg = SurfaceConfig(0, 1, 2)
        with pytest.raises(ValueError, match="expected 2 multiplicities, got 1"):
            ExtensionDatum(d=0, r=0, q=(0,), chern=ChernData(cfg.zero(), 1))

    def test_d_convention(self):
        cfg = SurfaceConfig(0, 1, 0)
        with pytest.raises(ValueError):
            ExtensionDatum(d=0, r=0, q=(), chern=ChernData(cfg.divisor(a=1), 1))

    def test_round_trip(self):
        # the CLI is the only JSON reader and writer; a datum's fields read back whole
        datum = even_fiber_datum(1, 2, 1, 2, 9, r1=-3, ells=(0, 2))
        text = json.dumps({"d": datum.d, "r": datum.r, "q": list(datum.q),
                           "c1": _divisor_doc(datum.chern.c1), "c2": datum.chern.c2})
        assert _parse("datum", text, "--datum", datum.config) == datum


class TestDatumTwistInvariance:
    @given(config_with_divisors(lo=-3, hi=3), st.integers(-5, 20),
           st.integers(0, 4), st.lists(st.integers(0, 3), max_size=3))
    def test_zeta_and_length_survive_twisting_both_sides(self, data, c2, d_extra, t_raw):
        # twisting sub and quotient by the same T shifts (d, r, q) and the
        # Chern data together; the difference class and the length are blind
        # to the common twist
        cfg, c1 = data
        m = cfg.num_points
        t = cfg.divisor(1, -2, tuple((t_raw + [0, 0, 0])[:m]))
        d = -(-c1.a // 2) + d_extra
        q = tuple(abs(c) for c in c1.exc)
        datum = ExtensionDatum(d, -1, q, ChernData(c1, c2))
        shifted = ExtensionDatum(
            d + t.a,
            -1 + t.b,
            tuple(qi + ti for qi, ti in zip(q, t.exc)),
            chern_twist(datum.chern, t),
        )
        assume(all(qi >= 0 for qi in shifted.q))
        assert zeta_class(shifted) == zeta_class(datum)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeLengthWarning)
            assert subscheme_length(shifted) == subscheme_length(datum)
