"""geometry: exhaustive arc/cap searches plus seeded completeness and
extension queries on random partial arcs and caps.

Why: the same ``geometry`` and ``oracle.enumerate_points`` code is used two
ways.  A search runs a depth-first search over one candidate list, while
each query re-enumerates the points 1 + l times (l ring components).  A
points cache would help the queries but not the searches.

Query sets come from a seeded greedy pass over all points in random order,
which ends in a complete set; its first half, and the set without its last
point, are incomplete.  Half the queries get complete sets, half incomplete
ones, and the set sizes are fixed by the greedy pass.  Searches are
checked against ``max_*_size_formula`` and by re-checking the result; queries
by the known completeness and by re-checking every extension point, with the
independent rank arithmetic in ``refmath``.
"""

from __future__ import annotations

import itertools

import ringspace as rs

import gen
import harness
import refmath
from harness import Op

# (ring spec, ambient dimension) of the query spaces
SPACES = [("Z6", 3), ("Z12", 3), ("Z5", 4), ("Z3", 4), ("Z2xZ3", 4)]
SEARCHES = [("cap", 4, "Z3"), ("arc", 4, "Z7"), ("arc", 4, "Z6"), ("arc", 3, "Z12")]
RINGS = sorted({s for s, _ in SPACES} | {s for _, _, s in SEARCHES})
KINDS = ("arc", "cap")
BUDGET = 10**7
TRACE_ROUNDS = 2
FIXED_REPEATS = 1
PEAK_RSS = harness.self_rss_mb


def _rank_ok(points, ring, want: int) -> bool:
    return all(
        refmath.rank_mod_p([p.canons[ci][0] for p in points], comp.prime) == want
        for ci, comp in enumerate(ring.components)
    )


def admits(kind: str, pts: list, cand, ring, n: int) -> bool:
    """pts plus cand is still an arc (every n points span) or cap (every 3)."""
    size = n if kind == "arc" else 3
    if len(pts) + 1 <= size:
        return _rank_ok(pts + [cand], ring, len(pts) + 1)
    return all(_rank_ok(list(sub) + [cand], ring, size) for sub in itertools.combinations(pts, size - 1))


def is_set(kind: str, pts: list, ring, n: int) -> bool:
    size = n if kind == "arc" else 3
    if len(pts) < size:
        return _rank_ok(pts, ring, len(pts))
    return all(_rank_ok(list(sub), ring, size) for sub in itertools.combinations(pts, size))


def greedy_complete(rng, kind: str, points: list, ring, n: int) -> list:
    order = list(points)
    rng.shuffle(order)
    chosen: list = []
    for p in order:
        if admits(kind, chosen, p, ring, n):
            chosen.append(p)
    return chosen


def prepare(seed: int) -> dict:
    rings = {spec: rs.parse_ring(spec) for spec in RINGS}
    points = {(spec, n): rs.enumerate_points(n, rings[spec], BUDGET) for spec, n in SPACES}
    return {
        "seed": seed,
        "rings": rings,
        "points": points,
        "details": {"query sets complete": 0, "query sets incomplete": 0},
    }


def fixed_ops(state: dict) -> list[Op]:
    ops = []
    for kind, n, spec in SEARCHES:
        ring = state["rings"][spec]
        search = rs.search_max_arc if kind == "arc" else rs.search_max_cap
        formula = rs.max_arc_size_formula if kind == "arc" else rs.max_cap_size_formula
        want = formula(n, ring)

        def check(ps, kind=kind, ring=ring, n=n, want=want) -> bool:
            return len(ps.points) == want and is_set(kind, list(ps.points), ring, n)

        ops.append(Op(
            f"search max {kind} {spec}^{n}",
            lambda search=search, n=n, ring=ring: search(n, ring, BUDGET),
            check,
            subspaces=lambda ps: len(ps.points),
            op=False,
            fixed=True,
        ))
    return ops


def _queries(state: dict, i: int, spec: str, n: int, kind: str) -> list[Op]:
    ring = state["rings"][spec]
    rng = gen.rng_for("geometry", state["seed"], i, spec, n, kind)
    full = greedy_complete(rng, kind, state["points"][(spec, n)], ring, n)
    half = rs.PointSet.of(ring, n, full[: (len(full) + 1) // 2])
    near = rs.PointSet.of(ring, n, full[:-1])
    details = state["details"]
    details["query sets complete"] += 2
    details["query sets incomplete"] += 2
    complete_ps = rs.PointSet.of(ring, n, full)
    is_complete = rs.is_complete_arc if kind == "arc" else rs.is_complete_cap
    extend = rs.extend_arc if kind == "arc" else rs.extend_cap
    name = f"{kind} {spec}^{n}"

    def extensions_ok(ext) -> bool:
        return full[-1].canons in {p.canons for p in ext} and all(
            admits(kind, list(near.points), p, ring, n) for p in ext
        )

    return [
        Op(f"is_complete {name} complete", lambda: is_complete(complete_ps, BUDGET), lambda r: r is True),
        Op(f"is_complete {name} half", lambda: is_complete(half, BUDGET), lambda r: r is False),
        Op(f"extend {name} complete", lambda: extend(complete_ps, BUDGET), lambda r: r == []),
        Op(f"extend {name} one short", lambda: extend(near, BUDGET), extensions_ok),
    ]


def round_ops(state: dict, i: int) -> list[Op]:
    return [op for spec, n in SPACES for kind in KINDS for op in _queries(state, i, spec, n, kind)]
