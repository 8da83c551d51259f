"""Shared strategies and independent oracles for the test suite.

The oracles deliberately avoid the library's own shortcuts: the pairing is
recomputed through an explicit Gram matrix, effectivity witnesses are found
by searching actual nonnegative generator combinations, and walls are found
by scanning a rectangular coefficient box and testing the defining
inequalities one candidate at a time.
"""

from __future__ import annotations

import random
from itertools import product
from math import isqrt

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings

from ruledmoduli import ChernData, DivisorClass, Polarization, SurfaceConfig
from ruledmoduli.errors import INT64_MAX, INT64_MIN

settings.register_profile(
    "suite",
    max_examples=80,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
settings.load_profile("suite")


def configs(max_genus: int = 3, max_e: int = 4, max_points: int = 3):
    def build(genus: int, e: int, m: int) -> SurfaceConfig:
        if genus == 0:
            e = abs(e)
        return SurfaceConfig(genus, e, m)

    return st.builds(
        build,
        st.integers(0, max_genus),
        st.integers(-2, max_e),
        st.integers(0, max_points),
    )


# coordinates small, anywhere in the 64-bit range, or at its edges
EDGE_INTS = st.one_of(
    st.integers(-3, 3),
    st.integers(INT64_MIN, INT64_MAX),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX]),
)


@st.composite
def config_with_divisors(draw, count: int = 1, lo: int = -9, hi: int = 9):
    """Draw a surface plus ``count`` divisor classes on it."""
    cfg = draw(configs())
    coeff = st.integers(lo, hi)
    divisors = tuple(
        DivisorClass(
            draw(coeff),
            draw(coeff),
            tuple(draw(coeff) for _ in range(cfg.num_points)),
            cfg,
        )
        for _ in range(count)
    )
    return (cfg, *divisors)


def gram_product(d1: DivisorClass, d2: DivisorClass) -> int:
    """Pairing via an explicit Gram matrix, independent of the closed form."""
    cfg = d1.config
    size = cfg.num_points + 2
    gram = [[0] * size for _ in range(size)]
    gram[0][0] = -cfg.invariant_e
    gram[0][1] = gram[1][0] = 1
    for i in range(cfg.num_points):
        gram[2 + i][2 + i] = -1
    v1 = [d1.a, d1.b, *d1.exc]
    v2 = [d2.a, d2.b, *d2.exc]
    return sum(
        v1[i] * gram[i][j] * v2[j] for i in range(size) for j in range(size)
    )


def brute_effective_decomposition(d: DivisorClass):
    """Search nonnegative combinations s*C0 + t*F + sum(u_i Ei + v_i (F-Ei)).

    Once the F-Ei multiplicities v are fixed, the remaining generator
    coefficients are forced by the coordinates, so scanning all v vectors up
    to the obvious budget is a complete search.  Returns a decomposition
    dict or None.
    """
    cfg = d.config
    m = cfg.num_points
    budget = max(0, d.b)
    for v in product(range(budget + 1), repeat=m):
        s = d.a
        t = d.b - sum(v)
        u = [c + vi for c, vi in zip(d.exc, v)]
        if s < 0 or t < 0 or any(ui < 0 for ui in u):
            continue
        decomposition = {}
        if s:
            decomposition["C0"] = s
        if t:
            decomposition["F"] = t
        for i in range(m):
            if u[i]:
                decomposition[f"E{i + 1}"] = u[i]
            if v[i]:
                decomposition[f"F-E{i + 1}"] = v[i]
        return decomposition
    return None


def rebuild_from_decomposition(cfg: SurfaceConfig, decomposition: dict) -> DivisorClass:
    total = cfg.zero()
    for name, mult in decomposition.items():
        if name == "C0":
            generator = cfg.minimal_section()
        elif name == "F":
            generator = cfg.fiber()
        elif name.startswith("F-E"):
            generator = cfg.fiber_transform(int(name[3:]))
        else:
            generator = cfg.exceptional(int(name[1:]))
        total = total + mult * generator
    return total


def brute_walls(config: SurfaceConfig, chern: ChernData, pol: Polarization):
    """Brute-force wall scan over a rectangular box with a +2 safety margin.

    Every candidate in the box is tested directly against the definition:
    parity with c1, the square window, zeta.F > 0, and the sign of zeta.L.
    Returns (separating, boundary) as sorted coefficient tuples.
    """
    e = config.invariant_e
    m = config.num_points
    c1 = chern.c1
    c1_sq = gram_product(c1, c1)
    disc = 4 * chern.c2 - c1_sq
    if disc <= 0:
        return (), ()
    window_low = c1_sq - 4 * chern.c2

    L = pol.cls
    p = gram_product(L, config.fiber())
    l_sq = gram_product(L, L)
    a_box = isqrt(p * p * disc // l_sq) + 2
    t_box = isqrt(p * p * disc)
    c_boxes = [
        (a_box * abs(r) + t_box) // p + 2 for r in L.exc
    ]

    separating, boundary = [], []
    a_start = 1 if c1.a % 2 else 2
    for a in range(a_start, a_box + 1, 2):
        exc_ranges = []
        for i, cb in enumerate(c_boxes):
            start = -cb + ((c1.exc[i] + cb) % 2)
            exc_ranges.append(range(start, cb + 1, 2))
        for exc in product(*exc_ranges):
            x = e * a * a + sum(c * c for c in exc)
            b_lo = (window_low + x) // (2 * a) - 2
            b_hi = -((-x) // (2 * a)) + 2
            b = b_lo + ((c1.b - b_lo) % 2)
            while b <= b_hi:
                z_sq = -e * a * a + 2 * a * b - sum(c * c for c in exc)
                if window_low <= z_sq < 0:
                    zeta = DivisorClass(a, b, exc, config)
                    z_l = gram_product(zeta, L)
                    if z_l < 0:
                        separating.append((a, b, exc))
                    elif z_l == 0:
                        boundary.append((a, b, exc))
                b += 2
    return tuple(sorted(separating)), tuple(sorted(boundary))


def random_polarization(rng: random.Random, config: SurfaceConfig) -> Polarization:
    """Draw a valid polarization with moderate coefficients."""
    m = config.num_points
    e = config.invariant_e
    for _ in range(200):
        p = rng.randint(2 if m else 1, 4)
        q = max(e * p, 0) + rng.randint(1, 6)
        exc = tuple(-rng.randint(1, p - 1) for _ in range(m)) if m else ()
        cls = DivisorClass(p, q, exc, config)
        l_sq = gram_product(cls, cls)
        if l_sq < 2:
            continue
        try:
            return Polarization(cls)
        except Exception:
            continue
    raise AssertionError(f"could not sample a polarization on {config}")


def random_chern(rng: random.Random, config: SurfaceConfig, max_c2: int = 10) -> ChernData:
    c1 = DivisorClass(
        rng.randint(0, 1),
        rng.randint(0, 1),
        tuple(rng.randint(0, 1) for _ in range(config.num_points)),
        config,
    )
    return ChernData(c1, rng.randint(1, max_c2))
