"""Arcs and caps in R^n for a finite commutative ring R.

Points are 1-subspaces.  A set of points is an arc when every n of them
span R^n (every size-n stack of representatives has full McCoy rank), and a
cap (n >= 3) when every 3 of them span a free 3-subspace.  Sets smaller
than the defining size are accepted when they are in general position.

Every query reduces each stack of points once per component with
``zps.echelon_add_mod_p``.  A point c extends a set exactly when, in every
component, c mod p lies outside the span of every (k-1)-subset of the set
(all of it, when it has fewer than k points), k being n for arcs and 3 for
caps: the set's hyperplanes, or its secant lines.  So the extension queries
cover spans instead of testing points: each stack's span points are marked
blocked once, and a point is kept when its residue key is blocked in no
component, so the kept points are a product over components and only they
are built (the covering view of complete caps in Hirschfeld, *Projective
Geometries over Finite Fields*, 1998).  The residue of a canonical row
needs no reduction to serve as a key: only non-units lie left of its unit
pivot 1, so mod p it is already 1 at its first nonzero entry, which is how
the span points are normalised too.

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
from typing import Iterable, Sequence

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
from .oracle import DEFAULT_BUDGET, point_sort_key
from .oracle import _Budget, _canonical_rows, _point_product
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


def _rows(points: Iterable[Subspace]) -> list[list[tuple[int, ...]]]:
    """Each point's canonical row in every component."""
    return [[canon[0] for canon in pt.canons] for pt in points]


def _reduce(stack: Sequence[Sequence[tuple[int, ...]]], primes: Sequence[int]) -> tuple:
    """A stack of points (as ``_rows``) reduced mod p once per component.

    Gives one ``zps.echelon_add_mod_p`` basis per component, or None in a
    component where the stack's rows are dependent.
    """
    reduced = []
    for ci, p in enumerate(primes):
        basis = ()
        for rows in stack:
            basis = zps.echelon_add_mod_p(basis, rows[ci], p)
            if basis is None:
                break
        reduced.append(basis)
    return tuple(reduced)


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
    """Every k points (all, when fewer) are independent in every component.

    Each (k-1)-subset S is reduced once and only the points after max(S)
    are tested against it, so each k-subset is checked exactly once.
    """
    kind.check_ambient(ps.ambient)
    k = kind.size(ps.ambient)
    primes = [c.prime for c in ps.ring.components]
    rows = _rows(ps.points)
    if len(rows) < k:
        return None not in _reduce(rows, primes)
    for subset in itertools.combinations(range(len(rows) - 1), k - 1):
        reduced = _reduce([rows[i] for i in subset], primes)
        if None in reduced:
            return False
        for crows in rows[subset[-1] + 1 :]:
            if any(
                zps.echelon_add_mod_p(basis, row, p) is None
                for basis, row, p in zip(reduced, crows, primes)
            ):
                return False
    return True


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
        # a canonical row's residue is 1 at its pivot and 0 left of it:
        # already its own RREF over F_p
        key = ((tuple([x % p for x in pt.canons[i][0]]),),)
        if key in out:
            raise DomainError("projected points collide; set is degenerate")
        out[key] = Subspace(field, ps.ambient, 1, key, (pt.pivots[i],))
    return PointSet.of(field, ps.ambient, out.values())


def _extensions(ps: PointSet, k: int, budget: int) -> list[Subspace]:
    """Points, in canonical order, whose addition keeps the set admissible.

    Covers spans as the module docstring says: the span points mod p of
    each stack go into its component's blocked set, and the points kept are
    the product over components of the canonical rows whose residue key is
    not blocked, so only they are built.  The set's own points are blocked
    by the stacks that hold them.  A stack that is dependent in some
    component admits nothing.  The budget is charged |R|^n, as for listing
    every point, before any work starts.
    """
    n = ps.ambient
    ring = ps.ring
    _Budget(budget).spend(ring.order**n)
    primes = [c.prime for c in ring.components]
    rows = _rows(ps.points)
    blocked: list[set[tuple[int, ...]]] = [set() for _ in primes]
    for stack in itertools.combinations(rows, min(len(rows), k - 1)):
        for basis, p, keys in zip(_reduce(stack, primes), primes, blocked):
            if basis is None:
                return []
            keys.update(zps.span_points_mod_p(basis, p))
    per_comp = [
        [
            (row, piv)
            for row, piv in _canonical_rows(n, c.prime, c.order)
            if tuple([x % c.prime for x in row]) not in keys
        ]
        for c, keys in zip(ring.components, blocked)
    ]
    return _point_product(n, ring, per_comp)


# _extend, _is_complete and _search_max take the public is_arc / is_cap as an
# argument, looked up when the public function runs, so rebinding the module
# attribute (a mock, a tracer) reaches every caller.


def _extend(ps: PointSet, kind: _Kind, is_kind, budget: int) -> list[Subspace]:
    kind.require(is_kind(ps))
    return list(_extensions(ps, kind.size(ps.ambient), budget))


def _is_complete(ps: PointSet, kind: _Kind, is_kind, budget: int) -> bool:
    kind.require(is_kind(ps))
    k = kind.size(ps.ambient)
    direct = not _extensions(ps, k, budget)
    by_projection = any(
        not _extensions(project_point_set(ps, i), k, budget)
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


SEARCH_BUDGET = 10**7


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
    rows = _rows(pool)
    memo: dict[tuple[int, ...], list] = {}

    def admissible(stack: tuple[int, ...], rest: int) -> int:
        """The bits c of rest (or more) for which stack + (c,) has full rank."""
        entry = memo.get(stack)
        if entry is None:
            entry = memo[stack] = [_reduce([rows[i] for i in stack], primes), 0, 0]
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
    frame: Sequence[Sequence[int]], ring: Ring, kind: _Kind, is_kind, budget: int
) -> PointSet:
    base_set = PointSet.from_rows(ring, frame)
    if not is_kind(base_set):
        raise AssertionError("the pinned frame is not admissible; this is a bug")
    n = base_set.ambient
    k = kind.size(n)
    candidates = _extensions(base_set, k, budget)
    best = _search(list(base_set.points), candidates, k, ring, n, budget)
    return PointSet.of(ring, n, best)


def search_max_arc(n: int, ring: Ring, budget: int = SEARCH_BUDGET) -> PointSet:
    """A maximum arc of R^n found by exhaustive symmetry-reduced search.

    Any arc larger than n points can be carried by a change of basis onto
    one containing the n coordinate points and the all-ones point, and arcs
    of at most n points always extend, so the search pins that frame and
    only chooses the remaining points.  The result is therefore a true
    maximum, not a heuristic.
    """
    _ARC.check_ambient(n)
    return _search_max(zps.identity(n) + ((1,) * n,), ring, _ARC, is_arc, budget)


def search_max_cap(n: int, ring: Ring, budget: int = SEARCH_BUDGET) -> PointSet:
    """A maximum cap of R^n by exhaustive search with the first 3 points pinned.

    Any cap of 3 or more points can be carried onto one containing the
    first three coordinate points, and {e1, e2, e3} is itself a cap, so
    pinning them preserves the maximum size.
    """
    _CAP.check_ambient(n)
    return _search_max(zps.identity(n)[:3], ring, _CAP, is_cap, budget)
