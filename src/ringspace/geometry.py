"""Arcs and caps in R^n for a finite commutative ring R.

Points are 1-subspaces.  A set of points is an arc when every n of them
span R^n (every size-n stack of representatives has full McCoy rank), and a
cap (n >= 3) when every 3 of them span a free 3-subspace.  Sets smaller
than the defining size are accepted when they are in general position.

Every query reduces each stack of points once per component with
``zps.echelon_add_mod_p``.  Let k be n for arcs and 3 for caps.  The
membership test and the search ask whether S + (x, c) is independent mod p
for a (k-2)-subset S: reduced against S by ``zps.remainder_mod_p``, a
point leaves a class key (the remainder, scaled to 1 at its first nonzero
entry) or none (it lies in the span of S), and S + (x, c) is dependent exactly when x or c has no key or
both have the same one.  The classes are the flats one dimension above
span(S): the lines through a point for caps, the hyperplanes through an
(n-2)-set for arcs.

The extension queries cover spans instead of testing points: a point c
extends a set exactly when, in every component, c mod p lies outside the
span of every (k-1)-subset of the set (all of it, when it has fewer than k
points), that is its hyperplanes or its secant lines.  The stacks are
walked in combination order, so each prefix of a stack is reduced once and
shared by the stacks that start with it, and each span point of a stack is
built once and marked blocked.  A point is kept when its residue key is
blocked in no component, so the kept points are a product over components
and only they are built (the covering view of complete caps in Hirschfeld,
*Projective Geometries over Finite Fields*, 1998).  The residue of a
canonical row needs no reduction to serve as a key: only non-units lie left
of its unit pivot 1, so mod p it is already 1 at its first nonzero entry,
which is how the span points are normalised too.

Completeness is computed along two independent routes and cross-checked:
directly (no point extends the set) and via the residue-field projections
(the set is complete iff at least one component projection is complete over
its field).  Maximum sizes come from a fixed lookup table of known field
and ring values; configurations outside the table report None (unknown)
rather than extrapolate, and an exact backtracking search is available to
establish the value by exhaustion.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import zps
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    DomainError,
    InternalError,
    NotACapError,
    NotAnArcError,
    RingMismatchError,
    ShapeMismatchError,
    charge,
)
from .matrix import Matrix
from .ring import LocalRing, Ring
from .subspace import Subspace, point_sort_key, points


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


def _keys(stack, later, primes: Sequence[int]) -> list[list] | None:
    """Each later point's class key over the stack, per component.

    The stack and the later points are as ``_rows``.  A key is the row that
    ``zps.remainder_mod_p`` leaves for the point against the stack's basis,
    or None when the point lies in the stack's span, so two points outside
    the span share a key in a component exactly when the stack plus both is
    dependent there.  None when the stack itself is dependent somewhere.
    """
    out = []
    for ci, (basis, p) in enumerate(zip(_reduce(stack, primes), primes)):
        if basis is None:
            return None
        added = [zps.remainder_mod_p(basis, rows[ci], p) for rows in later]
        out.append([None if a is None else a[1] for a in added])
    return out


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

    A k-subset is checked from its first k-2 points S: S is independent and
    the later points have distinct class keys over S.  Each S with two or
    more points after it has its keys taken once, so each k-subset is
    checked exactly once.
    """
    kind.check_ambient(ps.ambient)
    k = kind.size(ps.ambient)
    primes = [c.prime for c in ps.ring.components]
    rows = _rows(ps.points)
    if len(rows) < k:
        return None not in _reduce(rows, primes)
    for subset in itertools.combinations(range(len(rows) - 2), k - 2):
        later = rows[subset[-1] + 1 :] if subset else rows
        keys = _keys([rows[i] for i in subset], later, primes)
        if keys is None or any(
            None in ckeys or len(set(ckeys)) < len(ckeys) for ckeys in keys
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

    Covers spans as the module docstring says: ``_cover`` gives each
    component's blocked set, and the points kept are the product over
    components of the canonical rows whose residue key is not blocked, so
    only they are built.  The set's own points are blocked by the stacks
    that hold them.  The set must be admissible.  The budget is charged
    |R|^n, as for listing every point, before any work starts.
    """
    n = ps.ambient
    ring = ps.ring
    charge(ring.order**n, budget)
    rows = _rows(ps.points)
    size = min(len(rows), k - 1)
    blocked = [_cover(rows, ci, c.prime, size) for ci, c in enumerate(ring.components)]
    return points(n, ring, blocked)


def _cover(rows, ci: int, p: int, size: int) -> set[tuple[int, ...]]:
    """The span points mod p, in component ci, of every size-subset of rows.

    The subsets are walked in combination order and each prefix is reduced
    once with ``zps.echelon_add_mod_p``, so N rows and size 2 (a cap's
    secants) make N-1 + C(N,2) calls.  A dependent subset raises
    InternalError: every caller passes an admissible set.
    """
    keys: set[tuple[int, ...]] = set()

    def walk(basis, start: int, left: int) -> None:
        if not left:
            keys.update(zps.span_points_mod_p(basis, p))
            return
        for i in range(start, len(rows) - left + 1):
            grown = zps.echelon_add_mod_p(basis, rows[i][ci], p)
            if grown is None:
                raise InternalError("a stack of the set is dependent; this is a bug")
            walk(grown, i + 1, left - 1)

    walk((), 0, size)
    return keys


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
        raise InternalError("completeness criteria disagree; this is a bug")
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
    return vals


def _max_size(n: int, ring: Ring, kind: _Kind, table_rows) -> int | None:
    kind.check_ambient(n)
    vals = table_rows(n, [c.prime for c in ring.components])
    if not vals:
        return None
    if len(set(vals)) != 1:
        raise InternalError("table rows must agree where they overlap")
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
    ``S + (x, c)`` for every (k-2)-subset S of ``current`` (all of it while
    it is smaller).  The k-point sets without x were checked when c entered
    the candidates.

    Points are indexed into one pool, base then candidates, so a bit's
    position is its canonical order, and a node's candidates are an int
    mask taken lowest bit first (Östergård 2002 keeps clique candidates the
    same way).  For each S met, the pool points after it are split into
    their class keys over S (module docstring), and each gets one conflict
    row: the union over components of its class, kept for this one call.
    The child for x drops every candidate in x's row for some S.

    The search stops a node's loop as soon as ``current`` plus every
    candidate left, x included, is no larger than ``best``: no later
    sibling's subtree can then hold a larger set.  ``best`` changes only to
    a strictly larger set and the nodes kept are visited in the same order,
    so the first maximum found, and the result, are those of the search
    without this bound.  The node count, and so where the budget runs out,
    is that of the bounded search: at most the nodes of testing every later
    candidate against all of ``current``.  A child's candidates are
    filtered only until the bound is sure to stop it at once; it then gets
    a superset of them, which stops it all the same, and the rows of the
    remaining S are not built for it.
    """
    pool = base + candidates
    primes = [c.prime for c in ring.components]
    rows = _rows(pool)

    @functools.cache
    def through(s: tuple[int, ...]) -> list[int]:
        """Each pool point's conflict row over s: the union over components
        of its class mask, 0 for the points up to s.

        s lies in ``current``, which is admissible, and the candidates are
        admissible to it, so s is independent and no candidate lies in its
        span: every key that reaches a candidate's row is a class key.
        """
        start = s[-1] + 1 if s else 0
        conf = [0] * len(pool)
        for ckeys in _keys([rows[i] for i in s], rows[start:], primes):
            classes: dict[tuple[int, ...], int] = {}
            for i, key in enumerate(ckeys, start):
                classes[key] = classes.get(key, 0) | 1 << i
            for i, key in enumerate(ckeys, start):
                conf[i] |= classes[key]
        return conf

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
        while len(current) + cands.bit_count() > len(best):
            low = cands & -cands
            cands ^= low
            x = low.bit_length() - 1
            rest = cands
            # the child returns at once when at most this many are left
            spare = max(len(best) - len(current) - 1, 0)
            for s in subsets:
                if rest.bit_count() <= spare:
                    break
                rest &= ~through(s)[x]
            dfs(current + (x,), rest)

    dfs(best, ((1 << len(candidates)) - 1) << len(base))
    return [pool[i] for i in best]


def _search_max(
    frame: Sequence[Sequence[int]], ring: Ring, kind: _Kind, is_kind, budget: int
) -> PointSet:
    """A largest admissible set of R^n that holds the pinned frame.

    The caller charges the |R|^n that ``_extensions`` charges before it
    builds the frame, so a budget that refuses the search refuses before
    the frame is built and checked, which costs about n^2.
    """
    base_set = PointSet.from_rows(ring, frame)
    if not is_kind(base_set):
        raise InternalError("the pinned frame is not admissible; this is a bug")
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
    charge(ring.order**n, budget)
    return _search_max(zps.identity(n) + ((1,) * n,), ring, _ARC, is_arc, budget)


def search_max_cap(n: int, ring: Ring, budget: int = SEARCH_BUDGET) -> PointSet:
    """A maximum cap of R^n by exhaustive search with the first 3 points pinned.

    Any cap of 3 or more points can be carried onto one containing the
    first three coordinate points, and {e1, e2, e3} is itself a cap, so
    pinning them preserves the maximum size.
    """
    _CAP.check_ambient(n)
    charge(ring.order**n, budget)
    return _search_max(zps.identity(n)[:3], ring, _CAP, is_cap, budget)
