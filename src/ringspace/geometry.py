"""Arcs and caps in R^n for a finite commutative ring R.

Points are 1-subspaces.  A set of points is an arc when every n of them
span R^n (every size-n stack of representatives has full McCoy rank), and a
cap (n >= 3) when every 3 of them span a free 3-subspace.  Sets smaller
than the defining size are accepted when they are in general position.

Completeness is computed along two independent routes and cross-checked:
directly (no point extends the set) and via the residue-field projections
(the set is complete iff at least one component projection is complete over
its field).  Maximum sizes come from a fixed lookup table of known field
and ring values; configurations outside the table report None (unknown)
rather than extrapolate, and an exact backtracking search is available to
establish the value by exhaustion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import zps
from .errors import (
    BudgetExceededError,
    DomainError,
    NotACapError,
    NotAnArcError,
    RingMismatchError,
    ShapeMismatchError,
)
from .matrix import Matrix
from .oracle import DEFAULT_BUDGET, enumerate_points, point_sort_key
from .ring import LocalRing, Ring
from .subspace import Subspace


@dataclass(frozen=True, slots=True)
class PointSet:
    """A finite set of distinct points of R^n, kept canonically sorted."""

    ring: Ring
    ambient: int
    points: tuple[Subspace, ...]

    @classmethod
    def of(cls, ring: Ring, ambient: int, points: Iterable[Subspace]) -> "PointSet":
        seen: dict[tuple, Subspace] = {}
        for p in points:
            if p.ring != ring or p.ambient != ambient:
                raise RingMismatchError("point from a different space")
            if p.dim != 1:
                raise ShapeMismatchError("points must be 1-subspaces")
            seen.setdefault(p.canons, p)
        ordered = tuple(sorted(seen.values(), key=point_sort_key))
        return cls(ring, ambient, ordered)

    @classmethod
    def from_rows(cls, ring: Ring, rows: Sequence[Sequence[object]]) -> "PointSet":
        pts = [
            Subspace.from_matrix(Matrix.from_entries(ring, [row])) for row in rows
        ]
        ambient = pts[0].ambient if pts else 0
        return cls.of(ring, ambient, pts)

    def __len__(self) -> int:
        return len(self.points)


def _stack_has_rank(points: Sequence[Subspace], ring: Ring, n: int, want: int) -> bool:
    for ci, comp in enumerate(ring.components):
        rows = [p.canons[ci][0] for p in points]
        if zps.rank_mod_p(rows, n, comp.prime) != want:
            return False
    return True


@dataclass(frozen=True, slots=True)
class _Kind:
    """What tells arcs from caps; the algorithms below are shared."""

    name: str
    article: str
    min_ambient: int
    fixed_size: int | None  # points that must be independent; None means n
    error: type[DomainError]

    def size(self, n: int) -> int:
        return n if self.fixed_size is None else self.fixed_size

    def check_ambient(self, n: int) -> None:
        if n < self.min_ambient:
            raise ShapeMismatchError(
                f"{self.name}s need ambient dimension >= {self.min_ambient}"
            )

    def require(self, member: bool) -> None:
        if not member:
            raise self.error(f"input is not {self.article} {self.name}")


_ARC = _Kind("arc", "an", 2, None, NotAnArcError)
_CAP = _Kind("cap", "a", 3, 3, NotACapError)


def _in_general_position(ps: PointSet, kind: _Kind) -> bool:
    kind.check_ambient(ps.ambient)
    k = kind.size(ps.ambient)
    pts = ps.points
    if len(pts) < k:
        return _stack_has_rank(pts, ps.ring, ps.ambient, len(pts))
    return all(
        _stack_has_rank(subset, ps.ring, ps.ambient, k)
        for subset in itertools.combinations(pts, k)
    )


def is_arc(ps: PointSet) -> bool:
    """Every n points span R^n; smaller sets must be in general position."""
    return _in_general_position(ps, _ARC)


def is_cap(ps: PointSet) -> bool:
    """Every 3 points span a free 3-subspace; needs ambient dimension >= 3."""
    return _in_general_position(ps, _CAP)


def project_point_set(ps: PointSet, i: int) -> PointSet:
    """Image of the point set over the residue field of component i.

    A collision between projected points means the input was not in general
    position; that is reported as an error rather than merged silently.
    """
    comp = ps.ring.components[i]
    field = Ring((LocalRing(comp.prime, 1),))
    p = comp.prime
    out = {}
    for pt in ps.points:
        row = tuple(x % p for x in pt.canons[i][0])
        canon, piv = zps.rref_unit((row,), ps.ambient, p, p)
        key = (canon,)
        if key in out:
            raise DomainError("projected points collide; set is degenerate")
        out[key] = Subspace(field, ps.ambient, 1, key, (piv,))
    return PointSet.of(field, ps.ambient, out.values())


def _admits(ps: PointSet, cand: Subspace, k: int) -> bool:
    """Adding cand keeps every k points (all, when fewer) in general position."""
    pts = ps.points
    if len(pts) + 1 <= k:
        return _stack_has_rank(pts + (cand,), ps.ring, ps.ambient, len(pts) + 1)
    return all(
        _stack_has_rank(subset + (cand,), ps.ring, ps.ambient, k)
        for subset in itertools.combinations(pts, k - 1)
    )


def _extensions(ps: PointSet, k: int, budget: int) -> Iterator[Subspace]:
    """Points, in canonical order, whose addition keeps the set admissible."""
    existing = {p.canons for p in ps.points}
    for cand in enumerate_points(ps.ambient, ps.ring, budget):
        if cand.canons not in existing and _admits(ps, cand, k):
            yield cand


# _extend, _is_complete and _search_max take the public is_arc / is_cap as an
# argument, looked up when the public function runs, so rebinding the module
# attribute (a mock, a tracer) reaches every caller.


def _extend(ps: PointSet, kind: _Kind, is_kind, budget: int) -> list[Subspace]:
    kind.require(is_kind(ps))
    return list(_extensions(ps, kind.size(ps.ambient), budget))


def _is_complete(ps: PointSet, kind: _Kind, is_kind, budget: int) -> bool:
    kind.require(is_kind(ps))
    k = kind.size(ps.ambient)
    direct = not any(_extensions(ps, k, budget))
    by_projection = any(
        not any(_extensions(project_point_set(ps, i), k, budget))
        for i in range(ps.ring.ell)
    )
    if direct != by_projection:
        raise AssertionError("completeness criteria disagree; this is a bug")
    return direct


def extend_arc(ps: PointSet, budget: int = DEFAULT_BUDGET) -> list[Subspace]:
    """All points that extend the arc, in canonical order."""
    return _extend(ps, _ARC, is_arc, budget)


def extend_cap(ps: PointSet, budget: int = DEFAULT_BUDGET) -> list[Subspace]:
    return _extend(ps, _CAP, is_cap, budget)


def is_complete_arc(ps: PointSet, budget: int = DEFAULT_BUDGET) -> bool:
    """No point extends the arc.

    Computed both directly and through the component projections (complete
    iff some residue-field image is complete); the two answers are required
    to agree.
    """
    return _is_complete(ps, _ARC, is_arc, budget)


def is_complete_cap(ps: PointSet, budget: int = DEFAULT_BUDGET) -> bool:
    return _is_complete(ps, _CAP, is_cap, budget)


# -- known maximum sizes -------------------------------------------------------


def _field_arc_rows(n: int, qs: Sequence[int]) -> list[int]:
    """Applicable table rows for the maximum arc size, by global conditions."""
    vals = []
    if n == 2:
        vals.append(min(q + 1 for q in qs))
    if n == 3:
        vals.append(min(q + (3 + (-1) ** q) // 2 for q in qs))
    if n == 4 and all(q > 3 for q in qs):
        vals.append(min(q + 1 for q in qs))
    if n == 5 and all(q >= 5 for q in qs):
        vals.append(min(q + 1 for q in qs))
    if n >= 3 and all(q <= n for q in qs):
        vals.append(n + 1)
    return vals


def _field_cap_rows(n: int, qs: Sequence[int]) -> list[int]:
    vals = []
    if n >= 3 and all(q == 2 for q in qs):
        vals.append(2 ** (n - 1))
    if n == 3:
        vals.append(min(q + (3 + (-1) ** q) // 2 for q in qs))
    if n == 4 and all(q > 2 for q in qs):
        vals.append(min(q * q + 1 for q in qs))
    if n == 5 and all(q == 3 for q in qs):
        vals.append(20)
    if n == 6 and all(q == 3 for q in qs):
        vals.append(56)
    if n == 5 and all(q == 4 for q in qs):
        vals.append(41)
    return vals


def _max_size(n: int, ring: Ring, kind: _Kind, table_rows) -> int | None:
    kind.check_ambient(n)
    vals = table_rows(n, [c.prime for c in ring.components])
    if not vals:
        return None
    if len(set(vals)) != 1:
        raise AssertionError("table rows must agree where they overlap")
    return vals[0]


def max_arc_size_formula(n: int, ring: Ring) -> int | None:
    """Known maximum arc size in R^n, or None outside the table's validity.

    The size over R is the minimum of the residue-field values; each table
    row applies only under its stated condition on all component fields.
    """
    return _max_size(n, ring, _ARC, _field_arc_rows)


def max_cap_size_formula(n: int, ring: Ring) -> int | None:
    """Known maximum cap size in R^n, or None outside the table's validity."""
    return _max_size(n, ring, _CAP, _field_cap_rows)


# -- exact search ----------------------------------------------------------------


def _unit_rows(count: int, n: int) -> list[list[int]]:
    return [[1 if j == i else 0 for j in range(n)] for i in range(count)]


def _search(
    base: list[Subspace],
    candidates: list[Subspace],
    k: int,
    ring: Ring,
    n: int,
    budget: int,
) -> list[Subspace]:
    """Exhaustive depth-first search for a maximum admissible superset of base.

    Candidates are consumed in canonical order, so the first maximum found
    is deterministic.  Budget counts search nodes.

    The search forward-checks (Haralick & Elliott 1980): each node's
    candidates are exactly those admissible to ``current``, as the caller's
    root list is for ``base``.  Picking x keeps those later candidates c
    for which every k-point set through both x and c has full rank:
    ``current + (x, c)`` itself while it has at most k points, else
    ``S + (x, c)`` for every (k-2)-subset S of ``current``.  The k-point
    sets without x were checked when c entered the candidates.

    Points are indexed into one pool, base then candidates, so a bit's
    position is its canonical order, and a node's candidates are an int
    mask taken lowest bit first (Östergård 2002 keeps clique candidates the
    same way).  The nodes and their order, hence the node count and what
    the budget means, are those of testing every later candidate against
    all of ``current``.

    Each through-stack ``S + (x,)`` is keyed by its pool indices, which are
    sorted because ``current`` holds increasing indices and x exceeds them.
    A memo that lives for this one call holds, per stack, its rows reduced
    mod p in every component, the candidate bits tested against it so far
    and those that passed; a later query tests only bits it has not seen.
    The memo has one entry per distinct stack visited.
    """
    pool = base + candidates
    primes = [c.prime for c in ring.components]
    rows = [[canon[0] for canon in pt.canons] for pt in pool]
    memo: dict[tuple[int, ...], list] = {}

    def admissible(stack: tuple[int, ...], rest: int) -> int:
        """The bits c of rest (or more) for which stack + (c,) has full rank."""
        entry = memo.get(stack)
        if entry is None:
            reduced = []
            for ci, p in enumerate(primes):
                basis = ()
                for i in stack:
                    basis = zps.echelon_add_mod_p(basis, rows[i][ci], p)
                    if basis is None:
                        break
                reduced.append(basis)
            entry = memo[stack] = [tuple(reduced), 0, 0]
        reduced, tested, passed = entry
        untested = rest & ~tested
        if untested and None not in reduced:
            entry[1] = tested | untested
            while untested:
                low = untested & -untested
                untested ^= low
                crows = rows[low.bit_length() - 1]
                if all(
                    zps.echelon_add_mod_p(basis, row, p) is not None
                    for basis, row, p in zip(reduced, crows, primes)
                ):
                    passed |= low
            entry[2] = passed
        return passed

    best: tuple[int, ...] = tuple(range(len(base)))
    nodes = 0

    def dfs(current: tuple[int, ...], cands: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError("search budget exhausted")
        if len(current) > len(best):
            best = current
        subsets = list(itertools.combinations(current, min(len(current), k - 2)))
        while cands:
            low = cands & -cands
            cands ^= low
            x = low.bit_length() - 1
            rest = cands
            for s in subsets:
                if not rest:
                    break
                rest &= admissible(s + (x,), rest)
            dfs(current + (x,), rest)

    dfs(best, ((1 << len(candidates)) - 1) << len(base))
    return [pool[i] for i in best]


def _search_max(
    base_rows: list[list[int]], n: int, ring: Ring, kind: _Kind, is_kind, budget: int
) -> PointSet:
    base = [Subspace.from_matrix(Matrix.from_entries(ring, [row])) for row in base_rows]
    base_set = PointSet.of(ring, n, base)
    if not is_kind(base_set):
        raise AssertionError("the pinned frame is not admissible; this is a bug")
    k = kind.size(n)
    pinned = {p.canons for p in base}
    candidates = [
        c
        for c in enumerate_points(n, ring, budget)
        if c.canons not in pinned and _admits(base_set, c, k)
    ]
    best = _search(list(base_set.points), candidates, k, ring, n, budget)
    return PointSet.of(ring, n, best)


def search_max_arc(
    n: int, ring: Ring, budget: int = 10**7
) -> PointSet:
    """A maximum arc of R^n found by exhaustive symmetry-reduced search.

    Any arc larger than n points can be carried by a change of basis onto
    one containing the n coordinate points and the all-ones point, and arcs
    of at most n points always extend, so the search pins that frame and
    only chooses the remaining points.  The result is therefore a true
    maximum, not a heuristic.
    """
    _ARC.check_ambient(n)
    return _search_max(_unit_rows(n, n) + [[1] * n], n, ring, _ARC, is_arc, budget)


def search_max_cap(
    n: int, ring: Ring, budget: int = 10**7
) -> PointSet:
    """A maximum cap of R^n by exhaustive search with the first 3 points pinned.

    Any cap of 3 or more points can be carried onto one containing the
    first three coordinate points, and {e1, e2, e3} is itself a cap, so
    pinning them preserves the maximum size.
    """
    _CAP.check_ambient(n)
    return _search_max(_unit_rows(3, n), n, ring, _CAP, is_cap, budget)
