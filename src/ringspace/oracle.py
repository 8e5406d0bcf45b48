"""Brute-force enumeration oracles.

Everything here recounts objects by direct enumeration so the closed
formulas in ``counting`` can be checked against an independent route.  The
enumerators never consult the formulas.  Points and subspaces come from
``subspace.subspaces``, which builds each one as its own canonical form from
its pivot shape, in canonical order, so nothing is reduced, deduplicated or
sorted afterwards.  The (m, t)-subspaces of a singular space are built from
the (m, t) pivot shapes alone, so none is typed.  The subspace budget
still counts the (parent, point) pairs of a scan that grows each subspace
by every point, so calls raise at the same budgets as that scan did.
``mccoy_rank_oracle`` likewise checks ``matrix.mccoy_rank`` against the
definition of the McCoy rank.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from . import zps
from .counting import (
    count_full_rank,
    count_gl,
    count_mt_subspaces,
    count_subspaces,
    count_subspaces_in,
    count_subspaces_over,
)
from .errors import DEFAULT_BUDGET, BudgetExceededError, charge
from .matrix import Matrix, completion, extend_to_basis, mccoy_rank, right_inverse
from .ring import Element, Ring, parse_ring
from .subspace import (
    Subspace,
    dimension_formula_status,
    dual,
    points,
    shape_count,
    subspaces,
)


def iter_vectors(n: int, ring: Ring) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All |R|^n vectors of R^n, one residue row per component."""
    spaces = [
        itertools.product(range(c.order), repeat=n) for c in ring.components
    ]
    return itertools.product(*spaces)


def _is_unimodular_vector(rows: Sequence[Sequence[int]], ring: Ring) -> bool:
    return all(
        any(x % c.prime for x in row) for row, c in zip(rows, ring.components)
    )


def enumerate_points(n: int, ring: Ring, budget: int = DEFAULT_BUDGET) -> list[Subspace]:
    """All 1-subspaces of R^n, sorted by canonical representative.

    The budget is charged |R|^n, the size of R^n, before ``subspace.points``
    lists them.
    """
    charge(ring.order**n, budget)
    return points(n, ring)


def extend_subspace(sub: Subspace, pt: Subspace) -> Subspace | None:
    """Join with a point when the result is free of one higher dimension."""
    ring = sub.ring
    n = sub.ambient
    reduced = []
    for canon, piv, ptc, comp in zip(sub.canons, sub.pivots, pt.canons, ring.components):
        red = zps.reduce_against(ptc[0], canon, piv, comp.order)
        if not any(x % comp.prime for x in red):
            return None  # residue rank would not grow in this component
        reduced.append(red)
    canons = []
    pivots = []
    for canon, red, comp in zip(sub.canons, reduced, ring.components):
        rows, piv = zps.rref_unit(canon + (tuple(red),), n, comp.prime, comp.order)
        canons.append(rows)
        pivots.append(piv)
    return Subspace(ring, n, sub.dim + 1, tuple(canons), tuple(pivots))


def enumerate_subspaces(
    m: int, n: int, ring: Ring, budget: int = DEFAULT_BUDGET
) -> list[Subspace]:
    """All m-subspaces of R^n, sorted by canonical form.

    ``subspace.subspaces`` builds each one from its pivot shape, already in
    this order, after ``_charge_levels`` has charged the budget.
    """
    if m < 0 or m > n:
        return []
    _charge_levels(m, n, ring, budget)
    return subspaces(m, n, ring)


def enumerate_mt_subspaces(
    m: int, t: int, n: int, k: int, ring: Ring, budget: int = DEFAULT_BUDGET
) -> list[Subspace]:
    """All (m, t)-subspaces of the singular space R^{n+k}, sorted by canonical form.

    The budget is charged as for every m-subspace of R^{n+k}, whatever t
    is.  Then ``subspace.subspaces`` builds only the (m, t) pivot shapes:
    by ``singular.type_of``, P has type (m, t) exactly when, in every
    component, P has t rows with pivot at column n or later and those rows
    vanish before column n, so these shapes give each (m, t)-subspace once
    and no subspace is typed.
    """
    if m < 0 or m > n + k:
        return []
    _charge_levels(m, n + k, ring, budget)
    return subspaces(m, n + k, ring, tail=(n, t))


def _charge_levels(m: int, n: int, ring: Ring, budget: int) -> None:
    """Charge the budget for listing the m-subspaces of R^n, before any is built.

    The units are those of the older scan that grew each (m-1)-subspace by
    every point: |R|^n for listing the points, then level by level the
    running total of (parent, point) pairs.  So a call raises at the same
    budgets as that scan did, and a refused call builds nothing.  The level
    sizes are read off ``subspace.shapes``.  The zero subspace costs
    nothing.
    """
    if m == 0:
        return
    charge(ring.order**n, budget)
    n_points = shape_count(1, n, ring)
    spent = 0
    for k in range(m):
        spent += shape_count(k, n, ring) * n_points
        charge(spent, budget)


def count_full_rank_enumerated(
    m: int, n: int, ring: Ring, budget: int = DEFAULT_BUDGET
) -> int:
    """Count full-McCoy-rank m x n matrices by scanning all of them.

    The budget is charged the |R|^(mn) matrices before the scan starts.  A
    matrix has full McCoy rank when each component's matrix has full rank
    mod p.  So each component lists a full-rank flag for each of its own
    |R_i|^(mn) matrices, taking each rank once, and the scan walks the
    product of those flag lists: one tuple of flags per matrix over R, which
    counts when all of them hold.
    """
    if m < 0 or n < 0 or m > n:
        return 0
    if m == 0:
        return 1
    charge(ring.order ** (m * n), budget)
    flags = [
        [
            zps.rank_mod_p([flat[i * n : (i + 1) * n] for i in range(m)], n, c.prime) == m
            for flat in itertools.product(range(c.order), repeat=m * n)
        ]
        for c in ring.components
    ]
    return sum(map(all, itertools.product(*flags)))


def brute_force_dim(gens: Matrix, budget: int = DEFAULT_BUDGET) -> int:
    """Dimension of the module spanned by the rows of ``gens``, by definition.

    Enumerates the whole span, then searches for the largest family of
    unimodular vectors whose stack has full McCoy rank.  The budget counts
    coefficient vectors, charged before the span is built, then families
    tried.
    """
    ring = gens.ring
    n = gens.cols
    spent = ring.order**gens.rows
    charge(spent, budget)
    span: set[tuple] = set()
    for coeffs in iter_vectors(gens.rows, ring):
        vec = []
        for comp_rows, crow, comp in zip(gens.comps, coeffs, ring.components):
            pe = comp.order
            row = tuple(
                sum(c * comp_rows[i][j] for i, c in enumerate(crow)) % pe
                for j in range(n)
            )
            vec.append(row)
        span.add(tuple(vec))
    candidates = [v for v in span if _is_unimodular_vector(v, ring)]
    for k in range(min(n, len(candidates)), 0, -1):
        for family in itertools.combinations(candidates, k):
            spent += 1
            charge(spent, budget)
            comps = tuple(
                tuple(v[ci] for v in family) for ci in range(ring.ell)
            )
            if mccoy_rank(Matrix(ring, k, n, comps)) == k:
                return k
    return 0


def _det(a: Matrix, idx_rows: Sequence[int], idx_cols: Sequence[int]) -> Element:
    """Exact determinant of a square submatrix by cofactor expansion."""
    k = len(idx_rows)
    parts = []
    for c, comp in zip(a.comps, a.ring.components):
        pe = comp.order
        sub = [[c[i][j] for j in idx_cols] for i in idx_rows]

        def det(mat: list[list[int]]) -> int:
            if not mat:
                return 1
            if len(mat) == 1:
                return mat[0][0] % pe
            total = 0
            for col, x in enumerate(mat[0]):
                if x:
                    minor = [row[:col] + row[col + 1 :] for row in mat[1:]]
                    term = x * det(minor)
                    total = (total - term if col % 2 else total + term) % pe
            return total

        parts.append(det(sub) if k else 1 % pe)
    return Element(a.ring, tuple(parts))


# mccoy_rank_oracle scans every ring element against every minor, so it
# refuses rings and matrices past these sizes.
ORACLE_MAX_ORDER = 64
ORACLE_MAX_SIDE = 3


def mccoy_rank_oracle(a: Matrix) -> int:
    """Definitional McCoy rank: largest k whose k x k minors have trivial annihilator.

    Scans every ring element as an annihilator candidate, so it is guarded to
    rings of at most ORACLE_MAX_ORDER elements and matrices with a side of at
    most ORACLE_MAX_SIDE.
    """
    ring = a.ring
    if ring.order > ORACLE_MAX_ORDER or min(a.rows, a.cols) > ORACLE_MAX_SIDE:
        raise BudgetExceededError("oracle guard: ring or matrix too large")
    nonzero = [x for x in ring.elements() if not x.is_zero()]
    best = 0
    for k in range(1, min(a.rows, a.cols) + 1):
        minors = [
            _det(a, ri, ci)
            for ri in itertools.combinations(range(a.rows), k)
            for ci in itertools.combinations(range(a.cols), k)
        ]
        annihilated = any(
            all((x * mnr).is_zero() for mnr in minors) for x in nonzero
        )
        if annihilated:
            break
        best = k
    return best


# -- verification harness -----------------------------------------------------


@dataclass(frozen=True, slots=True)
class EnumerationReport:
    query: str
    formula_value: int
    enumerated_value: int
    match: bool


@dataclass(frozen=True, slots=True)
class SuiteItem:
    """One check: ``formula(*args)`` must equal ``enumerate(*args)``."""

    query: str
    formula: Callable[..., int]
    enumerate: Callable[..., int]
    args: tuple = ()


def _rings(*names: str) -> list[tuple[str, Ring]]:
    return [(name, parse_ring(name)) for name in names]


def _count_enumerated(m: int, n: int, ring: Ring) -> int:
    return len(enumerate_subspaces(m, n, ring))


def _count_inside(m1: int, m: int, n: int, ring: Ring) -> int:
    subs = enumerate_subspaces(m, n, ring)
    if not subs:
        return 0
    fixed = subs[0]
    return sum(1 for s in enumerate_subspaces(m1, n, ring) if fixed.contains(s))


def _count_over(m1: int, m: int, n: int, ring: Ring) -> int:
    subs = enumerate_subspaces(m1, n, ring)
    if not subs:
        return 0
    fixed = subs[0]
    return sum(1 for s in enumerate_subspaces(m, n, ring) if s.contains(fixed))


def _gl_enumerated(n: int, ring: Ring) -> int:
    return count_full_rank_enumerated(n, n, ring)


def _mt_enumerated(m: int, t: int, n: int, k: int, ring: Ring) -> int:
    return len(enumerate_mt_subspaces(m, t, n, k, ring))


# The rings whose subspace counts are checked up to n = 4, not 3; every such
# item fits DEFAULT_BUDGET (Z6^4 at m = 3 does not).
_N4_RINGS = {"Z2", "Z3", "Z4", "Z2xZ2"}


def counts_suite() -> list[SuiteItem]:
    items = [
        SuiteItem(
            f"subspaces m={m} n={n} over {name}",
            count_subspaces, _count_enumerated, (m, n, ring),
        )
        for name, ring in _rings("Z2", "Z3", "Z4", "Z6", "Z8", "Z9", "Z2xZ2", "Z12")
        for n in range(5 if name in _N4_RINGS else 4)
        for m in range(n + 1)
    ]
    for name, ring in _rings("Z4", "Z6"):
        for n in range(5 if name in _N4_RINGS else 4):
            for m in range(n + 1):
                for m1 in range(m + 1):
                    items += [
                        SuiteItem(
                            f"subspaces m1={m1} inside m={m} n={n} over {name}",
                            count_subspaces_in, _count_inside, (m1, m, n, ring),
                        ),
                        SuiteItem(
                            f"subspaces m={m} over m1={m1} n={n} in {name}",
                            count_subspaces_over, _count_over, (m1, m, n, ring),
                        ),
                    ]
        items += [
            SuiteItem(
                f"full-rank {m}x{n} matrices over {name}",
                count_full_rank, count_full_rank_enumerated, (m, n, ring),
            )
            for m, n in [(1, 1), (1, 2), (2, 2)]
        ]
        items.append(SuiteItem(f"GL_2 over {name}", count_gl, _gl_enumerated, (2, ring)))
    z2 = parse_ring("Z2")
    items += [
        SuiteItem(
            f"full-rank {m}x{n} matrices over Z2",
            count_full_rank, count_full_rank_enumerated, (m, n, z2),
        )
        for m, n in [(1, 3), (2, 3), (3, 3)]
    ]
    items += [
        SuiteItem(
            f"({m},{t})-subspaces of {name}^({n}+{k})",
            count_mt_subspaces, _mt_enumerated, (m, t, n, k, ring),
        )
        for name, ring in _rings("Z2", "Z4")
        for n in range(4)
        for k in range(1, 4 - n + 1)
        for m in range(n + k + 1)
        for t in range(min(m, k) + 1)
    ]
    return items


def _all_2x2(ring: Ring) -> int:
    return ring.order**4


def _matrices_2x2(ring: Ring) -> Iterator[Matrix]:
    for rows in iter_vectors(4, ring):
        yield Matrix(ring, 2, 2, tuple((r[:2], r[2:]) for r in rows))


def _rank_agreement(ring: Ring) -> int:
    return sum(mccoy_rank(a) == mccoy_rank_oracle(a) for a in _matrices_2x2(ring))


def _completion_sweep(ring: Ring) -> int:
    eye = Matrix.identity(ring, 2).comps
    ok = 0
    for a in _matrices_2x2(ring):
        if mccoy_rank(a) != 2:
            ok += 1  # vacuously fine; counted to keep totals aligned
        elif (
            a.mul(completion(a)).comps == eye
            and a.mul(right_inverse(a)).comps == eye
            # square case: extending a basis of R^2 returns the matrix itself
            and extend_to_basis(a).comps == a.comps
        ):
            ok += 1
    return ok


def _plane_subspaces(ring: Ring) -> int:
    """Subspaces of R^2 of every dimension."""
    return 2 + count_subspaces(1, 2, ring)


def _plane_pairs(ring: Ring) -> int:
    return _plane_subspaces(ring) ** 2


def _dim_formula_sweep(ring: Ring) -> int:
    subs = [s for m in range(3) for s in enumerate_subspaces(m, 2, ring)]
    for a in subs:
        for b in subs:
            # returning at all certifies the three-way equivalence;
            # the status function asserts it internally
            dimension_formula_status(a, b)
    return len(subs) ** 2


def _dual_sweep(ring: Ring) -> int:
    ok = 0
    for m in range(3):
        for s in enumerate_subspaces(m, 2, ring):
            d = dual(s)
            if d.dim == 2 - s.dim and dual(d) == s:
                ok += 1
    return ok


_ALGEBRA = [
    ("mccoy rank formula vs oracle, all 2x2 over {}", _all_2x2, _rank_agreement),
    ("completion postconditions, all 2x2 over {}", _all_2x2, _completion_sweep),
    ("dimension formula three-way equivalence, {}^2 pairs", _plane_pairs, _dim_formula_sweep),
    ("duality involution and dimension, {}^2", _plane_subspaces, _dual_sweep),
]


def algebra_suite() -> list[SuiteItem]:
    return [
        SuiteItem(query.format(name), formula, sweep, (ring,))
        for name, ring in _rings("Z4", "Z6")
        for query, formula, sweep in _ALGEBRA
    ]


# geometry is imported when these run, so ``singular enumerate`` and
# ``verify --suite counts`` do not load it.


def _max_size_known(kind: str, n: int, ring: Ring) -> int | None:
    from . import geometry

    return getattr(geometry, f"max_{kind}_size_formula")(n, ring)


def _max_size_found(kind: str, n: int, ring: Ring) -> int:
    from . import geometry

    return len(getattr(geometry, f"search_max_{kind}")(n, ring).points)


def geometry_suite() -> list[SuiteItem]:
    cases = [
        ("arc", "Z4", 2), ("arc", "Z6", 2), ("arc", "Z4", 3), ("arc", "Z6", 3),
        ("cap", "Z4", 3), ("cap", "Z6", 3), ("cap", "Z2", 4),
    ]
    return [
        SuiteItem(
            f"maximum {kind} size in {name}^{n}",
            _max_size_known, _max_size_found, (kind, n, parse_ring(name)),
        )
        for kind, name, n in cases
    ]


# In the order ``verify --suite`` lists them.
SUITES: dict[str, Callable[[], list[SuiteItem]]] = {
    "counts": counts_suite,
    "geometry": geometry_suite,
    "algebra": algebra_suite,
}


def verify_counts(suite: str = "default") -> list[EnumerationReport]:
    """Run a named suite's formula-vs-enumeration checks; every report should match.

    ``"default"`` runs the counts, algebra and geometry suites, in that order.
    """
    if suite != "default" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    names = ("counts", "algebra", "geometry") if suite == "default" else (suite,)
    items = [item for name in names for item in SUITES[name]()]
    reports = []
    for item in items:
        formula = item.formula(*item.args)
        enumerated = item.enumerate(*item.args)
        reports.append(EnumerationReport(item.query, formula, enumerated, formula == enumerated))
    return reports
