import re

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

import ruledmoduli.families
from conftest import EDGE_INTS, config_with_divisors, configs
from ruledmoduli.lattice import _canonical_term, _effectivity_run
from ruledmoduli import (
    AssumptionViolatedError,
    ChernData,
    ConfigMismatchError,
    Dominance,
    FamilyReport,
    IntegerOverflowError,
    Rationality,
    StructureKind,
    SurfaceConfig,
    c1f0_report,
    c1f1_report,
    canonical_class,
    chern_twist,
    classify_structure,
    effectivity,
    ext1_rr,
    family_dim_c1f0,
    family_dim_c1f1,
    maximize_family_dim,
    moduli_dim,
    pushforward_degree_bound,
    r0_generic,
    reference_family_dims,
)


class TestModuliDim:
    def test_odd_fiber_closed_form(self):
        for genus, e, beta, rho, c2 in [(0, 1, 0, 2, 10), (2, 3, 1, 4, 7)]:
            cfg = SurfaceConfig(genus, e, rho)
            chern = ChernData(cfg.divisor(1, beta, (1,) * rho), c2)
            assert moduli_dim(cfg, chern) == 4 * c2 + e - 2 * beta + rho - 3 + 4 * genus

    def test_even_fiber_closed_form(self):
        for genus, eta, m, c2 in [(0, 0, 1, 6), (1, 1, 3, 9)]:
            cfg = SurfaceConfig(genus, 1, m)
            chern = ChernData(cfg.divisor(b=eta, exc=(1,) * m), c2)
            assert moduli_dim(cfg, chern) == 4 * c2 + 4 * genus - 3 + m

    def test_trivial_chern(self):
        cfg = SurfaceConfig(0, 0, 0)
        assert moduli_dim(cfg, ChernData(cfg.zero(), 0)) == -3

    def test_chern_data_on_another_surface(self):
        # the answer would mix the given surface's genus with another surface's class
        chern = ChernData(SurfaceConfig(0, 1, 0).divisor(1, 0), 5)
        for query in (moduli_dim, classify_structure):
            with pytest.raises(ConfigMismatchError, match="Chern data does not live on the given surface"):
                query(SurfaceConfig(1, 0, 0), chern)

    def test_only_the_dimension_is_range_checked(self):
        cfg = SurfaceConfig(0, 0, 0)
        # c1^2 = 2^63 = 4*c2
        assert moduli_dim(cfg, ChernData(cfg.divisor(2, 2**61), 2**61)) == -3
        # c1^2 = 6*(2^61 + 1): 4*c2 - c1^2 - 3 is 2^63 - 1, then 2^63 + 3
        c1 = cfg.divisor(3, 2**61 + 1)
        assert moduli_dim(cfg, ChernData(c1, 5 * 2**60 + 2)) == 2**63 - 1
        with pytest.raises(IntegerOverflowError, match="moduli dimension 9223372036854775811"):
            moduli_dim(cfg, ChernData(c1, 5 * 2**60 + 3))


class TestExt1:
    def test_worked_fiber_family(self):
        cfg = SurfaceConfig(0, 2, 0)
        value, assumptions = ext1_rr(cfg, cfg.divisor(b=-3), cfg.divisor(b=4), 6)
        assert value == 12
        assert assumptions[0].divisor == cfg.divisor(b=-7)
        assert not assumptions[0].twisted_by_ideal
        assert assumptions[1].twisted_by_ideal

    def test_odd_fiber_closed_form(self):
        genus, e, beta, rho, c2 = 1, 2, 1, 3, 5
        cfg = SurfaceConfig(genus, e, rho)
        sub = cfg.divisor(1, beta - c2)
        quot = cfg.divisor(0, c2, (1,) * rho)
        value, _ = ext1_rr(cfg, sub, quot, 0)
        assert value == 4 * c2 - 2 * beta + rho + 2 * genus + e - 2 == 23

    def test_linear_in_n_with_slope_four(self):
        cfg = SurfaceConfig(0, 1, 0)
        values = [
            ext1_rr(cfg, cfg.divisor(b=-n), cfg.divisor(b=n + 1), 2 * n)[0]
            for n in range(1, 9)
        ]
        assert values == [4 * n for n in range(1, 9)]

    def test_effective_assumption_class_is_rejected(self):
        # the difference slot: sub - quot = 0 on F_1
        cfg = SurfaceConfig(0, 1, 0)
        with pytest.raises(AssumptionViolatedError, match=re.escape(
            "vanishing assumed for 0, but the class is certified effective with witness {}"
        )):
            ext1_rr(cfg, cfg.divisor(b=2), cfg.divisor(b=2), 0)
        # the dual slot: K - (sub - quot) = F on F_0, although h^0(I_Z(F)) = 0
        # for a general Z of length 3 (ROADMAP item 9)
        cfg = SurfaceConfig(0, 0, 0)
        with pytest.raises(AssumptionViolatedError, match=re.escape(
            "vanishing assumed for F, but the class is certified effective with witness {'F': 1}"
        )):
            ext1_rr(cfg, cfg.zero(), cfg.divisor(2, 3), 3)

    @given(configs(max_genus=2), st.data())
    def test_raises_exactly_when_an_assumption_class_passes_the_rule(self, cfg, data):
        def draw_class():
            coords = [data.draw(EDGE_INTS) for _ in range(cfg.rank)]
            return cfg.divisor(coords[0], coords[1], coords[2:])

        sub, quot = draw_class(), draw_class()
        try:
            difference = sub - quot
            dual = _canonical_term(cfg) - difference
        except IntegerOverflowError:
            assume(False)
        runs = [_effectivity_run(cfg.genus, cls.a, cls.exc) for cls in (difference, dual)]
        passing = [
            cls for cls, run in zip((difference, dual), runs) if run is not None and cls.b >= run[1]
        ]
        if passing:
            first = re.escape(str(passing[0]))
            with pytest.raises(AssumptionViolatedError, match=f"^vanishing assumed for {first}, but"):
                ext1_rr(cfg, sub, quot, 1)
        else:
            try:
                ext1_rr(cfg, sub, quot, 1)
            except IntegerOverflowError as err:  # the answer, not a screen
                assert "Euler characteristic" in str(err) or "ext^1 dimension" in str(err)

    def test_effectivity_is_built_only_for_a_witness(self, monkeypatch):
        calls = []

        def counted(d):
            calls.append(d)
            return effectivity(d)

        monkeypatch.setattr(ruledmoduli.families, "effectivity", counted)
        f2, f0m1, g1m3 = SurfaceConfig(0, 2, 0), SurfaceConfig(0, 0, 1), SurfaceConfig(1, 2, 3)
        # neither vanishing class is certified effective
        ext1_rr(f2, f2.divisor(b=-3), f2.divisor(b=4), 6)
        c1f0_report(f0m1, eta=0, n=3, eps=0, r1=-3, ell=(0,), h0=1)
        c1f1_report(g1m3, beta=1, c2=5)
        reference_family_dims(2)
        assert calls == []
        f1, f0 = SurfaceConfig(0, 1, 0), SurfaceConfig(0, 0, 0)
        raising = [
            lambda: ext1_rr(f1, f1.divisor(b=2), f1.divisor(b=2), 0),
            lambda: ext1_rr(f0, f0.zero(), f0.divisor(2, 3), 3),
            lambda: c1f0_report(f1, eta=0, n=1, eps=0, r1=1, ell=(), h0=1),
            lambda: c1f1_report(f1, beta=4, c2=1),
        ]
        for call in raising:
            calls.clear()
            with pytest.raises(AssumptionViolatedError):
                call()
            assert len(calls) == 1

    def test_rejects_negative_length(self):
        cfg = SurfaceConfig(0, 1, 0)
        with pytest.raises(ValueError):
            ext1_rr(cfg, cfg.divisor(b=-1), cfg.divisor(b=2), -1)

    def test_canonical_class_is_only_a_term(self):
        # K = -2C0 + (-2^63 - 1)F is out of range, the dual class K + 3F is not
        cfg = SurfaceConfig(0, 2**63 - 1, 0)
        with pytest.raises(IntegerOverflowError, match="^F coefficient -9223372036854775809 "):
            canonical_class(cfg)
        value, (difference, dual) = ext1_rr(cfg, cfg.divisor(b=-1), cfg.divisor(b=2), 2)
        assert value == 4
        assert (difference.divisor, dual.divisor) == (cfg.divisor(b=-3), cfg.divisor(-2, 2 - 2**63))
        assert reference_family_dims(1, invariant_e=2**63 - 1) == (5, 4, 3)
        # a dual class out of range is still an error: -3C0 + (-2^63 - 1)F here
        with pytest.raises(IntegerOverflowError, match="^F coefficient -9223372036854775809 "):
            c1f1_report(cfg, beta=0, c2=0)


class TestFamilyDimEvenFiber:
    def test_concrete_evaluation(self):
        # g=0, eta=0, m=1, n=3, eps=0, r1=-3, ells=(0,), h0=1
        assert family_dim_c1f0(0, 0, 1, 3, 0, -3, (0,), 1) == 6 - 1 + 1 + 18 - 1 == 23

    def test_multiplicity_and_section_penalties(self):
        base = family_dim_c1f0(0, 0, 2, 3, 0, -3, (0, 0), 1)
        assert family_dim_c1f0(0, 0, 2, 3, 0, -3, (1, 0), 1) == base - 1
        assert family_dim_c1f0(0, 0, 2, 3, 0, -3, (0, 0), 2) == base - 1
        assert family_dim_c1f0(0, 0, 2, 3, 0, -2, (0, 0), 1) == base - 2

    def test_validation(self):
        with pytest.raises(ValueError):
            family_dim_c1f0(0, 0, 1, 3, 0, -3, (-1,), 1)
        with pytest.raises(ValueError):
            family_dim_c1f0(0, 0, 1, 3, 0, -3, (0,), 0)
        with pytest.raises(ValueError):
            family_dim_c1f0(0, 0, 2, 3, 0, -3, (0,), 1)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((-4, 0, 0, 0, 9), "genus must be >= 0, got -4"),
            ((0, 0, -1, 1, 0), "need m >= 0, n >= 0 and eps in {0, 1}"),
            ((0, 0, 0, -2, 5), "need m >= 0, n >= 0 and eps in {0, 1}"),
            ((0, 0, 0, 1, 2), "need m >= 0, n >= 0 and eps in {0, 1}"),
        ],
    )
    def test_refuses_what_the_maximizer_refuses(self, args, message):
        # one gate for both even-fibre counts, genus first: family_dim_c1f0(-4, ..., eps=9)
        # returned 13, and the CLI printed a report for n = -2, eps = 5
        m = max(args[2], 0)
        for call in (lambda: family_dim_c1f0(*args, -3, (0,) * m, 1), lambda: maximize_family_dim(*args)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    @given(
        st.integers(0, 3),
        st.integers(0, 1),
        st.integers(1, 10),
        st.integers(0, 1),
        st.integers(-8, -1),
        st.lists(st.integers(0, 3), max_size=3),
    )
    def test_matches_parameter_count(self, genus, eta, n, eps, r1, ells):
        # dim = ext1 + 2*dim Pic0 + 2*length - h0, eliminated through the
        # length identity; rebuilt here from the raw ingredients
        assume(2 * n + eps + sum(li * (1 - li) for li in ells) >= 0)
        m = len(ells)
        cfg = SurfaceConfig(genus, 1 if genus else 0, m)
        from ruledmoduli import ExtensionDatum, subscheme_length

        c2 = 2 * n + eps
        chern = ChernData(cfg.divisor(b=eta, exc=(1,) * m), c2)
        length = subscheme_length(ExtensionDatum(0, r1, tuple(ells), chern))
        sub = cfg.divisor(b=r1, exc=tuple(ells))
        quot = cfg.divisor(b=eta - r1, exc=tuple(1 - li for li in ells))
        ext1, _ = ext1_rr(cfg, sub, quot, length)
        for h0 in (1, 2):
            assert (
                family_dim_c1f0(genus, eta, m, n, eps, r1, ells, h0)
                == ext1 + 2 * genus + 2 * length - h0
            )


class TestFamilyDimOddFiber:
    def test_concrete_evaluation(self):
        assert family_dim_c1f1(0, 1, 0, 2, 10) == 40

    @pytest.mark.parametrize("genus, rho", [(-1, -3), (-1, 0), (0, -3)])
    def test_refuses_negative_genus_and_rho(self, genus, rho):
        # family_dim_c1f1(-1, 0, 0, -3, 0) returned -10
        with pytest.raises(ValueError) as info:
            family_dim_c1f1(genus, 0, 0, rho, 0)
        assert str(info.value) == f"need genus >= 0 and rho >= 0, got genus {genus} and rho {rho}"

    def test_identities(self):
        for genus, e, beta, rho, c2 in [(0, 0, 0, 0, 5), (1, 2, 1, 3, 5), (3, 4, 1, 5, 12)]:
            cfg = SurfaceConfig(genus, e, rho)
            sub = cfg.divisor(1, beta - c2)
            quot = cfg.divisor(0, c2, (1,) * rho)
            ext1, _ = ext1_rr(cfg, sub, quot, 0)
            value = family_dim_c1f1(genus, e, beta, rho, c2)
            assert value == ext1 + 2 * genus - 1
            chern = ChernData(cfg.divisor(1, beta, (1,) * rho), c2)
            assert value == moduli_dim(cfg, chern)


class TestReferenceFamily:
    def test_frozen_values(self):
        assert reference_family_dims(1) == (5, 4, 3)
        assert reference_family_dims(3) == (21, 12, 3)

    def test_matches_moduli_dimension(self):
        cfg = SurfaceConfig(0, 1, 0)
        for n in range(1, 51):
            dims = reference_family_dims(n)
            assert dims.family_dim == 8 * n - 3
            assert dims.ext1 == 4 * n
            assert dims.h0_twist == 3
            assert dims.family_dim == moduli_dim(cfg, ChernData(cfg.fiber(), 2 * n))

    def test_independent_of_the_invariant(self):
        for e in (1, 2, 3):
            assert reference_family_dims(5, invariant_e=e) == (37, 20, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            reference_family_dims(0)
        with pytest.raises(ValueError):
            reference_family_dims(3, invariant_e=0)

    def test_out_of_range_dimension_is_an_error(self):
        # ext^1 = 4n = 2^63 - 4 is in range, dim = 8n - 3 is not
        n = 2**61 - 1
        with pytest.raises(IntegerOverflowError, match="family dimension 18446744073709551605 "):
            reference_family_dims(n)


class TestMaximizer:
    def test_balanced_fiber_argmax(self):
        for n in (1, 2, 5):
            result = maximize_family_dim(0, 1, 0, n, 0)
            assert result.r1 == 1 - n
            assert result.ell == () and result.h0 == 1

    def test_zero_defect_value_hits_the_cap(self):
        result = maximize_family_dim(0, 0, 1, 3, 0)
        assert result == (-3, (0,), 1, 22)
        assert result.value == moduli_dim(
            SurfaceConfig(0, 0, 1),
            ChernData(SurfaceConfig(0, 0, 1).divisor(exc=(1,)), 6),
        )

    def test_unit_defect_value_sits_below_the_cap(self):
        result = maximize_family_dim(0, 1, 0, 3, 0)
        cap = 4 * 6 + 0 - 3 + 0
        assert result.value == cap - 1

    def test_value_at_the_top_of_the_64_bit_range(self):
        # c2 = 2^61 puts the cap at 2^63 - 1; only the returned values are range-checked
        result = maximize_family_dim(0, 0, 2, 2**60, 0)
        assert result == (-(2**60), (0, 0), 1, 2**63 - 1)

    def test_argmax_is_feasible_and_extremal(self):
        result = maximize_family_dim(1, 1, 2, 4, 1)
        c2 = 2 * 4 + 1
        assert result.r1 == r0_generic(1, 1, c2)
        assert pushforward_degree_bound(result.r1, 1, 1, c2, result.ell)
        assert not pushforward_degree_bound(result.r1 - 1, 1, 1, c2, result.ell)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((-3, 0, 0, 1, 0), "genus must be >= 0, got -3"),
            ((0, 0, -1, 1, 0), "need m >= 0, n >= 0 and eps in {0, 1}"),
            ((0, 0, 0, -1, 0), "need m >= 0, n >= 0 and eps in {0, 1}"),
            ((0, 0, 0, 1, 2), "need m >= 0, n >= 0 and eps in {0, 1}"),
        ],
    )
    def test_rejects_out_of_range_parameters(self, args, message):
        with pytest.raises(ValueError) as info:
            maximize_family_dim(*args)
        assert str(info.value) == message


class TestClassification:
    def test_odd_fiber_rational_over_a_line(self):
        cfg = SurfaceConfig(0, 0, 0)
        result = classify_structure(cfg, ChernData(cfg.divisor(1, 1), 5))
        assert result.kind is StructureKind.ODD_FIBER
        assert result.rationality is Rationality.RATIONAL
        assert result.hilbert_exponent == 0

    def test_even_fiber_genus_zero_is_stably_rational(self):
        cfg = SurfaceConfig(0, 0, 1)
        result = classify_structure(cfg, ChernData(cfg.divisor(b=1, exc=(1,)), 7))
        assert result.kind is StructureKind.EVEN_FIBER_GENUS_ZERO
        assert result.rationality is Rationality.STABLY_RATIONAL
        assert result.hilbert_exponent == 7

    def test_even_fiber_positive_genus_is_dominated(self):
        cfg = SurfaceConfig(2, 1, 0)
        result = classify_structure(cfg, ChernData(cfg.fiber(), 4))
        assert result.kind is StructureKind.EVEN_FIBER_POSITIVE_GENUS
        assert result.rationality is Rationality.UNKNOWN

    def test_undetermined_exponent_when_normalized_c2_is_negative(self):
        cfg = SurfaceConfig(0, 0, 0)
        result = classify_structure(cfg, ChernData(cfg.divisor(0, 2), -3))
        assert result.hilbert_exponent is None

    @given(config_with_divisors(count=2, lo=-4, hi=4), st.integers(-5, 25))
    def test_twist_invariance(self, data, c2):
        cfg, c1, t = data
        chern = ChernData(c1, c2)
        assert classify_structure(cfg, chern) == classify_structure(
            cfg, chern_twist(chern, t)
        )


class TestFamilyReports:
    def test_even_fiber_report_flags_excess(self):
        cfg = SurfaceConfig(0, 0, 1)
        report = c1f0_report(cfg, eta=0, n=3, eps=0, r1=-3, ell=(0,), h0=1)
        assert report.family_dim == 23
        assert report.moduli_dim == 22
        assert report.ext1 == 12
        assert report.dominance is Dominance.EXCEEDS
        assert len(report.assumptions) == 2

    def test_odd_fiber_report_is_equal(self):
        cfg = SurfaceConfig(1, 2, 3)
        report = c1f1_report(cfg, beta=1, c2=5)
        assert report.family_dim == report.moduli_dim == 24
        assert report.ext1 == 23
        assert report.dominance is Dominance.EQUAL

    def test_dominance_derivation(self):
        assert FamilyReport(3, 5, 1).dominance is Dominance.STRICTLY_LESS
        assert FamilyReport(5, 5, 1).dominance is Dominance.EQUAL
        assert FamilyReport(6, 5, 1).dominance is Dominance.EXCEEDS
