"""algebra: seeded random matrix and subspace operations over a ring mix.

Why: it uses ``zps`` the opposite way from ``enumerate``: Howell forms and
kernels on wider matrices, with deep chains (Z64) and many components
(Z720720 has six).  A kernel specialised for tiny matrices that hurts large
ones shows up here.  Every result is checked against its postcondition with
the independent arithmetic in ``refmath``.

The fixed job is the dimension formula status of every ordered pair of
subspaces of Z4^3, the same work on every seed.
"""

from __future__ import annotations

import ringspace as rs

import gen
import harness
import refmath
from harness import Op

# ring spec -> ambient dimension n
RINGS = {"Z12": 3, "Z8": 6, "Z2xZ9": 6, "Z64": 8, "Z720720": 8}
SWEEP = ("Z4", 3)
FIXED_REPEATS = 3
BUDGET = 10**7
TRACE_ROUNDS = 50
PEAK_RSS = harness.self_rss_mb


def prepare(seed: int) -> dict:
    z4 = rs.parse_ring(SWEEP[0])
    sweep = [s for m in range(SWEEP[1] + 1) for s in rs.enumerate_subspaces(m, SWEEP[1], z4, BUDGET)]
    return {
        "seed": seed,
        "rings": {spec: rs.parse_ring(spec) for spec in RINGS},
        "sweep": sweep,
        "details": {"dimension formula pairs": 0, "dimension formula fails": 0},
    }


def _status_ok(st, a, b) -> bool:
    stack = rs.Matrix(a.ring, a.dim + b.dim, a.ambient, tuple(x + y for x, y in zip(a.canons, b.canons)))
    return (
        st.dim_a == a.dim
        and st.dim_b == b.dim
        and st.dim_join == refmath.mccoy_rank(stack)
        and st.formula_holds == (st.dim_join == a.dim + b.dim - st.dim_meet)
        and st.formula_holds == st.join_is_subspace == st.meet_is_subspace
    )


def fixed_ops(state: dict) -> list[Op]:
    subs = state["sweep"]

    def call():
        return [rs.dimension_formula_status(a, b) for a in subs for b in subs]

    def check(res) -> bool:
        pairs = [(a, b) for a in subs for b in subs]
        return len(res) == len(pairs) and all(_status_ok(st, a, b) for st, (a, b) in zip(res, pairs))

    return [Op("dimension formula sweep Z4^3", call, check, op=False, fixed=True)]


def _orthogonal(d, s) -> bool:
    return all(
        sum(x * y for x, y in zip(u, v)) % comp.order == 0
        for dc, sc, comp in zip(d.canons, s.canons, s.ring.components)
        for u in dc
        for v in sc
    )


def _ring_ops(state: dict, i: int, spec: str) -> list[Op]:
    ring, n = state["rings"][spec], RINGS[spec]
    rng = gen.rng_for("algebra", state["seed"], i, spec)
    m = rng.randint(1, n - 1)
    a_mat = gen.full_rank(rng, ring, m, n)
    square = gen.full_rank(rng, ring, n, n)
    rows = rng.randint(1, n)
    low = gen.low_rank(rng, ring, rows, n, rng.randint(0, rows))
    a = gen.subspace(rng, ring, rng.randint(1, n - 1), n)
    b = gen.subspace(rng, ring, rng.randint(1, n - 1), n)
    holds = rs.dimension_formula_status(a, b).formula_holds
    k = max(1, n // 3)
    space = rs.SingularSpace(ring, n - k, k)
    tp = gen.typed_subspace(rng, space, rng.randint(1, n - 1))
    p_sub = tp.subspace
    details = state["details"]
    eye_m = refmath.identity(m)
    eye_n = refmath.identity(n)

    def completion_ok(s) -> bool:
        return (
            all(r == e + [0] * (n - m) for prod in refmath.product(a_mat, s) for r, e in zip(prod, eye_m))
            and refmath.mccoy_rank(s) == n
        )

    def status_ok(st) -> bool:
        details["dimension formula pairs"] += 1
        details["dimension formula fails"] += not st.formula_holds
        details["dimension formula fail share"] = (
            details["dimension formula fails"] / details["dimension formula pairs"]
        )
        return _status_ok(st, a, b)

    def type_ok(t) -> bool:
        return (
            t.m == a.dim
            and 0 <= t.t <= min(a.dim, k)
            and all(
                not any(row[: n - k]) and refmath.in_row_span(row, canon, piv, comp.order)
                for h, canon, piv, comp in zip(t.tail_meet.howells, a.canons, a.pivots, ring.components)
                for row in h
            )
        )

    def transform_ok(res) -> bool:
        trans, target = res
        free = p_sub.dim - tp.t
        canon = tuple(
            tuple(int(j == (r if r < free else n - k + r - free)) for j in range(n))
            for r in range(p_sub.dim)
        )
        return (
            all(not any(row[: n - k]) for c in trans.comps for row in c[n - k :])
            and refmath.mccoy_rank(trans) == n
            and all(c == canon for c in target.canons)
            and refmath.spans_inside(refmath.product(p_sub.display, trans), target)
        )

    ops = [
        Op(f"mccoy_rank {spec}", lambda: rs.mccoy_rank(low), lambda r: r == refmath.mccoy_rank(low)),
        Op(f"completion {spec}", lambda: rs.completion(a_mat), completion_ok),
        Op(
            f"gl_inverse {spec}",
            lambda: rs.gl_inverse(square),
            lambda inv: all(p == eye_n for p in refmath.product(square, inv)),
        ),
        Op(
            f"extend_to_basis {spec}",
            lambda: rs.extend_to_basis(a_mat),
            lambda e: all(c[:m] == ac for c, ac in zip(e.comps, a_mat.comps)) and refmath.mccoy_rank(e) == n,
        ),
        Op(
            f"Subspace.from_matrix {spec}",
            lambda: rs.Subspace.from_matrix(a_mat),
            lambda s: s.dim == m and refmath.canonical_ok(s) and refmath.spans_inside(a_mat.comps, s),
            subspaces=lambda s: 1,
        ),
        Op(f"dimension_formula_status {spec}", lambda: rs.dimension_formula_status(a, b), status_ok),
        Op(
            f"dual {spec}",
            lambda: rs.dual(a),
            lambda d: d.dim == n - a.dim and refmath.canonical_ok(d) and _orthogonal(d, a),
            subspaces=lambda s: 1,
        ),
        Op(
            f"duality_laws {spec}",
            lambda: rs.duality_laws(a, b),
            (lambda laws: laws.meet_law_holds and laws.join_law_holds) if holds else None,
            raises=None if holds else rs.HypothesisNotMetError,
        ),
        Op(f"type_of {spec}", lambda: rs.type_of(a, space), type_ok),
        Op(
            f"canonical_mt_transform {spec}",
            lambda: rs.canonical_mt_transform(tp),
            transform_ok,
            subspaces=lambda r: 1,
        ),
    ]
    return ops


def round_ops(state: dict, i: int) -> list[Op]:
    return [op for spec in RINGS for op in _ring_ops(state, i, spec)]
