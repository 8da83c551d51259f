"""Independent output checks for the benchmark.

Nothing here calls into ``ruledmoduli``: classes are read as plain
coordinate vectors (a, b, c_1..c_m) and every quantity is recomputed from
first principles.  The pairing goes through an explicit Gram matrix, walls
are re-tested against their definition one at a time, and completeness is
checked by scanning a rectangular box that contains every wall, and, for a
stability search, every point of the box it was asked to search.

Each check returns a list of mismatch descriptions; an empty list passes.
The expected constants live at module level so the harness self-test can
swap in a wrong value and watch the failure count rise.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import isqrt

# the ROADMAP anchor: g=0, e=1, m=3, L=3C0+7F-sum(Ei), c1=F+sum(Ei), c2=80
ANCHOR_WALLS = 66_993
ANCHOR_BOUNDARY = 2_492


def worked_family(n: int) -> tuple[int, int, int]:
    """(family dim, ext^1, h^0 of the twist) of the worked family: (8n-3, 4n, 3)."""
    return 8 * n - 3, 4 * n, 3


def vec(d) -> tuple[int, ...]:
    """Coordinates (a, b, c_1..c_m) of a divisor class or its JSON form."""
    if isinstance(d, dict):
        return (d["a"], d["b"], *d["exc"])
    return (d.a, d.b, *d.exc)


def gram(e: int, m: int) -> list[list[int]]:
    size = m + 2
    g = [[0] * size for _ in range(size)]
    g[0][0] = -e
    g[0][1] = g[1][0] = 1
    for i in range(m):
        g[2 + i][2 + i] = -1
    return g


@lru_cache(maxsize=None)
def _gram_entries(e: int, m: int) -> tuple[tuple[int, int, int], ...]:
    return tuple(
        (i, j, x) for i, row in enumerate(gram(e, m)) for j, x in enumerate(row) if x
    )


def pair(e: int, u, v) -> int:
    """Intersection number of two coordinate vectors via the Gram matrix."""
    return sum(u[i] * x * v[j] for i, j, x in _gram_entries(e, len(u) - 2))


def add(*vs) -> tuple[int, ...]:
    return tuple(sum(xs) for xs in zip(*vs))


def scale(k: int, v) -> tuple[int, ...]:
    return tuple(k * x for x in v)


def canonical(g: int, e: int, m: int) -> tuple[int, ...]:
    return (-2, 2 * g - 2 - e, *([1] * m))


def chi(g: int, e: int, d) -> int:
    """Riemann-Roch: chi(D) = 1 - g + D.(D - K)/2."""
    k = canonical(g, e, len(d) - 2)
    twice = pair(e, d, add(d, scale(-1, k)))
    return 1 - g + twice // 2


def certainly_effective(d) -> bool:
    """Membership in the cone spanned by C0, F, Ei and F - Ei."""
    return d[0] >= 0 and d[1] >= sum(max(0, -c) for c in d[2:])


def certainly_not_effective(g: int, d) -> bool:
    """Negative fibre degree, or on a rational surface a negative F-coefficient."""
    return d[0] < 0 or (g == 0 and d[1] < 0)


def generator(name: str, m: int) -> tuple[int, ...]:
    v = [0] * (m + 2)
    if name == "C0":
        v[0] = 1
    elif name == "F":
        v[1] = 1
    elif name.startswith("F-E"):
        v[1] = 1
        v[1 + int(name[3:])] = -1
    else:
        v[1 + int(name[1:])] = 1
    return tuple(v)


def check_effectivity(g: int, d, verdict: str, decomposition, what: str) -> list[str]:
    """An effectivity answer against the cone and the two obstructions."""
    m = len(d) - 2
    if verdict == "effective":
        if decomposition is None:
            return [f"{what}: effective without a decomposition"]
        if any(mult <= 0 for mult in decomposition.values()):
            return [f"{what}: decomposition has a nonpositive multiplicity"]
        total = add((0,) * (m + 2), *(scale(k, generator(n, m)) for n, k in decomposition.items()))
        return [] if total == tuple(d) else [f"{what}: decomposition sums to {total}, not {d}"]
    if verdict == "not_effective":
        if certainly_effective(d) or not certainly_not_effective(g, d):
            return [f"{what}: {d} reported not effective without an obstruction"]
        return []
    if certainly_effective(d) or certainly_not_effective(g, d):
        return [f"{what}: {d} reported unknown but is decidable"]
    return []


# --- walls ---------------------------------------------------------------


@lru_cache(maxsize=64)
def _square(e: int, d: tuple) -> int:
    return pair(e, d, d)


def wall_tuple(doc: dict) -> tuple:
    """The JSON form of a wall as (zeta, zeta^2, ell, zeta.F, zeta.L)."""
    return (vec(doc["zeta"]), doc["zeta_sq"], doc["ell"], doc["zF"], doc["zL"])


def wall_defects(e: int, c1, c2: int, L, wall: tuple) -> list[str]:
    """Re-test one emitted wall (zeta, zeta^2, ell, zeta.F, zeta.L) against
    the definition."""
    z = wall[0]
    out = []
    if any((x - y) % 2 for x, y in zip(z, c1)):
        out.append("not congruent to c1 mod 2")
    z_sq = pair(e, z, z)
    c1_sq = _square(e, tuple(c1))
    if not c1_sq - 4 * c2 <= z_sq < 0:
        out.append(f"zeta^2 = {z_sq} outside the window")
    z_f = pair(e, z, (0, 1, *([0] * (len(z) - 2))))
    z_l = pair(e, z, L)
    if z_f <= 0:
        out.append(f"zeta.F = {z_f} not positive")
    if z_l > 0:
        out.append(f"zeta.L = {z_l} positive")
    ell = c2 + (z_sq - c1_sq) // 4
    if ell < 0:
        out.append(f"length {ell} negative")
    if tuple(wall[1:]) != (z_sq, ell, z_f, z_l):
        out.append(f"reported {wall[1:]}, recomputed {(z_sq, ell, z_f, z_l)}")
    return [f"wall {z}: {d}" for d in out]


def brute_walls(e: int, c1, c2: int, L) -> tuple[list, list]:
    """Every wall in a box that provably contains them, tested one by one.

    Returns (separating, boundary) coordinate tuples, sorted, with the
    negative-length classes left out as the library does.
    """
    m = len(c1) - 2
    fiber = (0, 1, *([0] * m))
    c1_sq = pair(e, c1, c1)
    disc = 4 * c2 - c1_sq
    if disc <= 0:
        return [], []
    p = pair(e, L, fiber)
    l_sq = pair(e, L, L)
    a_box = isqrt(p * p * disc // l_sq) + 2
    separating, boundary = [], []
    for a in range(1, a_box + 1):
        # Hodge index: sum((p*c_i - a*r_i)^2) <= p^2*disc - a^2*L^2, so each
        # |p*c_i - a*r_i| is at most t; the box adds a margin of 2
        t = isqrt(max(0, p * p * disc - a * a * l_sq))
        ranges = [range((a * r - t) // p - 2, (a * r + t) // p + 3) for r in L[2:]]
        for exc in product(*ranges):
            x = e * a * a + sum(c * c for c in exc)
            for b in range((c1_sq - 4 * c2 + x) // (2 * a) - 2, -((-x) // (2 * a)) + 3):
                z = (a, b, *exc)
                if any((u - w) % 2 for u, w in zip(z, c1)):
                    continue
                z_sq = pair(e, z, z)
                if not c1_sq - 4 * c2 <= z_sq < 0 or c2 + (z_sq - c1_sq) // 4 < 0:
                    continue
                z_l = pair(e, z, L)
                if z_l < 0:
                    separating.append(z)
                elif z_l == 0:
                    boundary.append(z)
    return sorted(separating), sorted(boundary)


def check_wall_search(e: int, c1, c2: int, L, doc: dict, brute: bool) -> list[str]:
    """A wall search result: ``doc["walls"]`` and ``doc["boundary"]`` are
    iterables of ``wall_tuple``s, each read once.  Every wall is re-tested
    and the order checked; when ``brute`` is set, the lists are compared
    with the box scan."""
    out = []
    scanned = dict(zip(("walls", "boundary"), brute_walls(e, c1, c2, L))) if brute else {}
    for key in ("walls", "boundary"):
        previous, count, keys = None, 0, []
        for w in doc[key]:
            out += wall_defects(e, c1, c2, L, w)
            if (w[4] == 0) != (key == "boundary"):
                out.append(f"{key}: wall {w[0]} filed under the wrong list")
            if previous is not None and not previous < w[0]:
                out.append(f"{key}: not strictly sorted at {w[0]}")
            previous = w[0]
            count += 1
            if brute:
                keys.append(w[0])
        if brute and keys != scanned[key]:
            out.append(f"{key} differ from the box scan ({count} vs {len(scanned[key])})")
    return out


def check_decision(search: dict, decided: bool, witness: tuple | None, what: str) -> list[str]:
    """A yes/no wall query against the full search on the same input, given
    as its wall and boundary counts and its first wall and boundary class:
    no walls and no boundary means yes; otherwise the witness is the first
    wall, or the first boundary class when no wall strictly separates."""
    expected = search["first_wall"] if search["walls"] else search["first_boundary"]
    out = []
    if decided != (expected is None):
        out.append(f"{what}: answered {decided} with {search['walls']} walls, "
                   f"{search['boundary']} boundary")
    if witness != expected:
        out.append(f"{what}: witness {witness} is not the first wall {expected}")
    return out


# --- stability -------------------------------------------------------------


def destabilizer_candidates(g: int, e: int, sub, quot, L, bounds):
    """Yield every (A, branch) a search of the box must record: A with
    2 A.L - c1.L >= 0 whose branch class X - A (X = sub on branch 1, quot on
    branch 2) is not certainly non-effective."""
    c1_l = pair(e, add(sub, quot), L)
    for a in product(*(range(-bound, bound + 1) for bound in bounds)):
        if 2 * pair(e, a, L) < c1_l:
            continue
        for branch, x in ((1, sub), (2, quot)):
            d = add(x, scale(-1, a))
            if certainly_effective(d) or not certainly_not_effective(g, d):
                yield a, branch


def check_stability(g: int, e: int, sub, quot, L, box, verdict: str, candidates) -> list[str]:
    """A destabilizer-search result against the definitions: its verdict,
    and its candidates in JSON form, an iterable read once.

    The candidates are exactly those of a scan of ``box``; each carries the
    doubled margin 2 A.L - c1.L >= 0 recomputed through the Gram matrix, its
    branch class X - A has a sound effectivity answer, and only a search on
    a Hirzebruch surface (genus 0, no blowups), where sections are counted
    exactly, prunes.  The verdict agrees with the candidate list.  A
    reported destabilizer is therefore certified here independently of the
    library, and a search that skips part of the box fails.
    """
    out = []
    c1 = add(sub, quot)
    c1_l = pair(e, c1, L)
    m = len(sub) - 2
    recorded, count = set(), 0
    found = inconclusive = False
    for cand in candidates:
        a = vec(cand["a"])
        recorded.add((a, cand["branch"]))
        count += 1
        margin = 2 * pair(e, a, L) - c1_l
        if cand["slope_margin"] != [margin, 2] or margin < 0:
            out.append(f"candidate {a}: margin {cand['slope_margin']}, recomputed {margin}")
        x = sub if cand["branch"] == 1 else quot
        eff = cand["effectivity"]
        out += check_effectivity(
            g, add(x, scale(-1, a)), eff["verdict"], eff["decomposition"], f"candidate {a}"
        )
        if eff["verdict"] == "not_effective":
            out.append(f"candidate {a}: a not-effective branch was recorded")
        if cand["pruned"] and (g or m):
            out.append(f"candidate {a}: pruned without exact section counts")
        if not cand["pruned"]:
            found |= eff["verdict"] == "effective"
            inconclusive |= eff["verdict"] == "unknown"
    # every scanned candidate recorded, and nothing else: no extra, no repeat
    bounds = (box["a"], box["b"], *([box["exc"]] * m))
    scanned = missing = 0
    for key in destabilizer_candidates(g, e, sub, quot, L, bounds):
        scanned += 1
        missing += key not in recorded
    if missing or count != scanned:
        out.append(f"candidates differ from the box scan: {count} recorded, {scanned} scanned, "
                   f"{missing} of those missing")
    implied = "destabilizer_found" if found else ("inconclusive" if inconclusive else "stable_certified")
    if verdict != implied:
        out.append(f"verdict {verdict} but the candidates say {implied}")
    return out
