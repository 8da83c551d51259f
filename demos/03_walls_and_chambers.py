#!/usr/bin/env python3
"""Walls separating the fibre ray from a polarization, suitability, and the
balanced-splitting certificate.
"""

from ruledmoduli import (
    ChernData,
    Polarization,
    SurfaceConfig,
    certify_dv_zero,
    intersect,
    is_suitable,
    wall_search,
)


def main():
    print("=" * 64)
    print("Wall-and-chamber data for c1 = F, c2 = 2 on the quadric")
    print("=" * 64)

    cfg = SurfaceConfig(genus=0, invariant_e=0, num_points=0)
    chern = ChernData(cfg.fiber(), 2)

    for p, q in [(1, 3), (2, 1), (3, 1)]:
        pol = Polarization(cfg.divisor(p, q))
        search = wall_search(cfg, chern, pol)
        print(f"\nL = {pol.cls}   (L.L = {pol.checks['L.L']})")
        if not search.walls and not search.boundary:
            print("  no separating wall: L lives in the fibre-side chamber")
        for wall in search.walls:
            print(f"  separating wall zeta = {wall.zeta}: zeta^2 = {wall.zeta_sq}, "
                  f"length = {wall.ell}, zeta.L = {wall.zL}")
        for wall in search.boundary:
            print(f"  boundary wall zeta = {wall.zeta}: zeta.L = 0 (chamber face)")
        verdict = is_suitable(cfg, chern, pol)
        print(f"  suitable: {verdict.suitable}")
        certificate = certify_dv_zero(cfg, chern, pol)
        if certificate.certified:
            print("  certified: stable bundles restrict to a general fibre as O + O")
        else:
            print(f"  not certified; witness {certificate.separating_wall.zeta}")

    print("\nthe Hodge-index mechanism behind the certificate:")
    l_cls, zeta = cfg.divisor(3, 1), cfg.divisor(2, -1)
    lf = intersect(l_cls, cfg.fiber())
    xi = lf * zeta - intersect(l_cls, zeta) * cfg.fiber()
    xi_sq = intersect(xi, xi)
    print(f"  xi = (L.F) zeta - (L.zeta) F = {xi}, xi.L = 0, xi^2 = {xi_sq} < 0")
    print("  a positive fibre degree would force such a wall, so none may exist")


if __name__ == "__main__":
    main()
