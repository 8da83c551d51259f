"""Acceptance suite: every criterion is exact integer arithmetic, zero tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s`` or in the
captured output of a failing run).  Randomized criteria use fixed seeds so
the suite is deterministic.
"""

import random
import warnings

from conftest import brute_walls, random_chern, random_polarization
from ruledmoduli import (
    ChernData,
    ExtensionDatum,
    NegativeLengthWarning,
    Polarization,
    SearchBox,
    StabilityOutcome,
    SurfaceConfig,
    canonical_class,
    chern_twist,
    classify_structure,
    destabilizer_search,
    ext1_rr,
    family_dim_c1f0,
    family_dim_c1f1,
    intersect,
    maximize_family_dim,
    moduli_dim,
    pushforward_degree_bound,
    reference_family_dims,
    slope_margin,
    subscheme_length,
    wall_search,
)


def report(number: int, description: str):
    def decorator(check):
        def wrapper():
            try:
                check()
            except BaseException:
                print(f"FAIL criterion {number}: {description}")
                raise
            print(f"PASS criterion {number}: {description}")

        wrapper.__name__ = check.__name__
        return wrapper

    return decorator


ODD_FIBER_GRID = [
    (g, e, beta, rho, c2)
    for g in range(4)
    for e in range(5)
    for beta in (0, 1)
    for rho in range(6)
    for c2 in range(1, 31)
]


@report(1, "worked family reproduces (8n-3, 4n, 3) for n in [1, 20]")
def test_criterion_1_worked_family():
    for n in range(1, 21):
        dims = reference_family_dims(n)
        assert dims.family_dim == 8 * n - 3
        assert dims.ext1 == 4 * n
        assert dims.h0_twist == 3


@report(2, "odd-fibre identities: ext1, family dim and moduli dim agree on the grid")
def test_criterion_2_odd_fiber_identities():
    for g, e, beta, rho, c2 in ODD_FIBER_GRID:
        cfg = SurfaceConfig(g, e, rho)
        sub = cfg.divisor(1, beta - c2)
        quot = cfg.divisor(0, c2, (1,) * rho)
        ext1, _ = ext1_rr(cfg, sub, quot, 0)
        assert ext1 == 4 * c2 - 2 * beta + rho + 2 * g + e - 2
        family = family_dim_c1f1(g, e, beta, rho, c2)
        assert family == ext1 + 2 * g - 1
        chern = ChernData(cfg.divisor(1, beta, (1,) * rho), c2)
        assert family == moduli_dim(cfg, chern)


@report(3, "even-fibre maximizer returns (r0, 0, 1) with the parity-defect value")
def test_criterion_3_maximizer():
    for g in range(3):
        for eta in (0, 1):
            for m in range(5):
                for n in range(1, 11):
                    for eps in (0, 1):
                        c2 = 2 * n + eps
                        result = maximize_family_dim(g, eta, m, n, eps)
                        r0 = -((c2 + g - eta) // 2)
                        delta = 2 * r0 - (eta - c2 - g)
                        cap = 4 * c2 + 4 * g - 3 + m
                        assert delta in (0, 1)
                        assert result.r1 == r0
                        assert result.ell == (0,) * m and result.h0 == 1
                        assert result.value <= cap
                        assert (result.value == cap) == (delta == 0)
                        assert result.value == cap - delta
                        # uniqueness: every neighbor decreases the count by its exact slope
                        base = family_dim_c1f0(g, eta, m, n, eps, r0, result.ell, 1)
                        assert family_dim_c1f0(g, eta, m, n, eps, r0 + 1, result.ell, 1) == base - 2
                        assert family_dim_c1f0(g, eta, m, n, eps, r0, result.ell, 2) == base - 1
                        if m:
                            bumped = (1,) + (0,) * (m - 1)
                            assert family_dim_c1f0(g, eta, m, n, eps, r0, bumped, 1) == base - 1
                        # r0 is the least admissible section degree
                        assert pushforward_degree_bound(r0, eta, g, c2, result.ell)
                        assert not pushforward_degree_bound(r0 - 1, eta, g, c2, result.ell)


@report(4, "subscheme length specializes to c2 + sum l_i(1 - l_i) on 1000 fuzzed tuples")
def test_criterion_4_length_specialization():
    rng = random.Random(41)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeLengthWarning)
        for _ in range(1000):
            g = rng.randint(0, 3)
            e = rng.randint(0, 3) if g == 0 else rng.randint(-2, 3)
            m = rng.randint(0, 4)
            eta = rng.randint(0, 1)
            c2 = rng.randint(-5, 30)
            r1 = rng.randint(-12, 12)
            ells = tuple(rng.randint(0, 5) for _ in range(m))
            cfg = SurfaceConfig(g, e, m)
            chern = ChernData(cfg.divisor(b=eta, exc=(1,) * m), c2)
            datum = ExtensionDatum(0, r1, ells, chern)
            assert subscheme_length(datum) == c2 + sum(li * (1 - li) for li in ells)


@report(5, "wall enumeration equals the brute-force box scan with random polarizations")
def test_criterion_5_wall_oracle():
    rng = random.Random(420)
    checked = 0
    for g in range(3):
        for e in range(4):
            for m in range(3):
                cfg = SurfaceConfig(g, e, m)
                for _ in range(20):
                    chern = random_chern(rng, cfg, max_c2=10)
                    pol = random_polarization(rng, cfg)
                    search = wall_search(cfg, chern, pol)
                    got = tuple(
                        (w.zeta.a, w.zeta.b, w.zeta.exc) for w in search.walls
                    )
                    got_boundary = tuple(
                        (w.zeta.a, w.zeta.b, w.zeta.exc) for w in search.boundary
                    )
                    expected = brute_walls(cfg, chern, pol)
                    assert (got, got_boundary) == expected, (cfg, chern, pol.cls)
                    checked += 1
    assert checked == 3 * 4 * 3 * 20


@report(6, "Hodge expansion xi^2 = (L.F)^2 z^2 - 2(L.F)(z.L)(z.F) <= 0 on 1000 fuzzed pairs")
def test_criterion_6_hodge_identity():
    rng = random.Random(607)
    done = 0
    while done < 1000:
        g = rng.randint(0, 3)
        e = rng.randint(0, 4) if g == 0 else rng.randint(-2, 4)
        m = rng.randint(0, 3)
        cfg = SurfaceConfig(g, e, m)

        def draw():
            return cfg.divisor(
                rng.randint(-8, 8), rng.randint(-8, 8),
                tuple(rng.randint(-8, 8) for _ in range(m)),
            )

        l_cls = draw()
        if intersect(l_cls, l_cls) <= 0:
            continue
        zeta = draw()
        lf = intersect(l_cls, cfg.fiber())
        xi = lf * zeta - intersect(l_cls, zeta) * cfg.fiber()
        xi_sq = intersect(xi, xi)
        assert xi_sq == lf * lf * intersect(zeta, zeta) - 2 * lf * intersect(
            zeta, l_cls
        ) * intersect(zeta, cfg.fiber())
        assert xi_sq <= 0
        assert intersect(xi, l_cls) == 0
        done += 1


@report(7, "adjunction self-checks and Riemann-Roch parity on the odd-fibre grid configs")
def test_criterion_7_adjunction_suite():
    rng = random.Random(700)
    seen = set()
    for g, e, _, rho, _ in ODD_FIBER_GRID:
        if (g, e, rho) in seen:
            continue
        seen.add((g, e, rho))
        cfg = SurfaceConfig(g, e, rho)
        k = canonical_class(cfg)
        assert intersect(k, cfg.fiber()) == -2
        assert intersect(cfg.fiber(), cfg.fiber()) == 0
        assert intersect(k, cfg.minimal_section()) == e + 2 * g - 2
        assert intersect(cfg.minimal_section(), cfg.minimal_section()) == -e
        for i in range(1, rho + 1):
            assert intersect(k, cfg.exceptional(i)) == -1
            assert intersect(cfg.exceptional(i), cfg.exceptional(i)) == -1
        for _ in range(20):
            d = cfg.divisor(
                rng.randint(-9, 9), rng.randint(-9, 9),
                tuple(rng.randint(-9, 9) for _ in range(rho)),
            )
            assert intersect(d, d - k) % 2 == 0


@report(8, "discriminant, slope margin and classification are twist invariant (500 fuzzed)")
def test_criterion_8_twist_invariance():
    rng = random.Random(808)
    for _ in range(500):
        g = rng.randint(0, 3)
        e = rng.randint(0, 4) if g == 0 else rng.randint(-2, 4)
        m = rng.randint(0, 3)
        cfg = SurfaceConfig(g, e, m)

        def draw(lo=-6, hi=6):
            return cfg.divisor(
                rng.randint(lo, hi), rng.randint(lo, hi),
                tuple(rng.randint(lo, hi) for _ in range(m)),
            )

        c1, t, a_cls, l_cls = draw(), draw(), draw(), draw()
        chern = ChernData(c1, rng.randint(-10, 30))
        twisted = chern_twist(chern, t)
        assert twisted.discriminant == chern.discriminant
        assert slope_margin(a_cls + t, c1 + 2 * t, l_cls) == slope_margin(a_cls, c1, l_cls)
        assert classify_structure(cfg, twisted) == classify_structure(cfg, chern)


@report(9, "worked family is box-certified stable; crossing the wall breaks certification")
def test_criterion_9_stability_certification():
    for n in range(1, 11):
        for e in (1, 2, 3):
            cfg = SurfaceConfig(0, e, 0)
            sub, quot = cfg.divisor(b=-n), cfg.divisor(b=n + 1)
            box = SearchBox(n + 3, n + 3, n + 3)
            for w in (2 * n + 2 * e + 3, 2 * n + 2 * e + 10):
                pol = Polarization(cfg.divisor(1, w))
                verdict = destabilizer_search(cfg, sub, quot, 2 * n, pol, box)
                assert verdict.verdict is StabilityOutcome.STABLE_CERTIFIED, (n, e, w)
    # the criterion-5 fixture: c1 = F, c2 = 2 with L = 3C0 + F on the wall side
    cfg = SurfaceConfig(0, 0, 0)
    pol = Polarization(cfg.divisor(3, 1))
    sub = cfg.minimal_section()
    quot = cfg.fiber() - cfg.minimal_section()
    verdict = destabilizer_search(cfg, sub, quot, 1, pol, SearchBox(5, 5, 5))
    assert verdict.verdict is not StabilityOutcome.STABLE_CERTIFIED
