"""Arcs and caps in R^n for a finite commutative ring R.

Points are 1-subspaces.  A set of points is an arc when every n of them
span R^n (every size-n stack of representatives has full McCoy rank), and a
cap (n >= 3) when every 3 of them span a free 3-subspace.  Sets smaller
than the defining size are accepted when they are in general position.

Every query reduces each stack of points once per component: the walk
below grows shared prefixes with ``zps.echelon_add_mod_p``, and the search
reduces a whole stack with ``zps.echelon_mod_p``.  Let k be n for arcs and
3 for caps.  The membership test and the search ask whether S + (x, c) is
independent mod p for a (k-2)-subset S: reduced against S by
``zps.remainder_mod_p``, a point leaves a class key (the remainder, scaled
to 1 at its first nonzero entry) or none (it lies in the span of S), and
S + (x, c) is dependent exactly when x or c has no key or both have the
same one.  The classes are the flats one dimension above span(S): the
lines through a point for caps, the hyperplanes through an (n-2)-set for
arcs.

The extension and completeness queries cover spans instead of testing
points: a point c extends a set exactly when, in every component, c mod p
lies outside the span of every (k-1)-subset of the set (all of it, when it
has fewer than k points), that is its hyperplanes or its secant lines.
One walk (``_walk``) serves both the membership test and the cover.  It
takes the (k-2)-subsets S in combination order, so each prefix is reduced
once and shared by the subsets that start with it, and it reduces each
point after S against S once.  The keys decide membership, and S's basis
plus a point's remainder is the basis of that (k-1)-subset, whose span
points the walk builds there, once, as the component's blocked keys.  The
budget is charged before any span is built, and a query it refuses is
walked for membership only.  A point is kept when its residue key is
blocked in no component, so the kept points are a product over components,
and the extension queries build only them (the covering view of complete
caps in Hirschfeld, *Projective Geometries over Finite Fields*, 1998).  The
residue of a canonical row needs no reduction to serve as a key: only
non-units lie left of its unit pivot 1, so mod p it is already 1 at its
first nonzero entry, which is how the span points are normalised too.

Completeness is computed along two routes and cross-checked, and neither
builds a point.  Directly, no point extends the set exactly when the kept
points' product is empty, that is when some component has no canonical row
over Z_{p^s} whose residue key is unblocked; that scan reads the rows
``shapes`` allows.  Via the residue-field projections, the set is complete
iff at least one component projection is complete over its field.  A
projection holds the set's residue rows, so it blocks the same keys as the
set does in that component, and it is complete when those keys, each a
normalised point of PG(n-1, p), number all (p^n - 1)/(p - 1) of them; so
this route counts the keys and builds no projection
(``project_point_set``).  What the two routes check against each other is
a scan of canonical ring rows against a count of field points.

Maximum sizes are the least over R's residue fields.  Admissibility reads
residue keys only, and every subset of an admissible set is admissible:
a set over R maps onto an admissible set in each residue field, and
maximal field sets, each cut to the smallest size, pair up by CRT into an
admissible set over R.  A maximum arc of F_p^n has max(n, p) + 1
points: n + 1 for n >= p (Bush, *Ann. Math. Stat.* 23, 1952), and p + 1
for n <= p, the MDS conjecture, which Ball proved for prime fields
(*J. Eur. Math. Soc.* 14, 2012).  A maximum cap of F_p^n has 2^(n-1)
points for p = 2, p + 1 at n = 3 (Segre's bound), p^2 + 1 at n = 4 (Bose
1947; Qvist 1952), and 20 and 56 in F_3^5 and F_3^6 (Pellegrino 1970;
Hill 1973); other caps are unknown (None).  An exact backtracking search
establishes a value by exhaustion.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, NoReturn, Sequence

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
    charge_power,
)
from .matrix import Matrix
from .ring import LocalRing, Ring
from .subspace import Subspace, point_sort_key, points, shapes


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

    def reject(self) -> NoReturn:
        raise self.error(f"input is not {self.article} {self.name}")


_ARC = _Kind("arc", "an", 2, None, NotAnArcError)
_CAP = _Kind("cap", "a", 3, 3, NotACapError)


def _walk(ps: PointSet, k: int, keep: bool) -> list[set[tuple[int, ...]]] | None:
    """Each component's span keys of every (k-1)-subset of the set, or None
    when the set is not in general position.

    A set with fewer than k points stands for its one subset of them all.
    In each component the (k-2)-subsets S with a point after them are
    walked in combination order, so each prefix is reduced once with
    ``zps.echelon_add_mod_p``, and each later point is reduced against S
    once by ``zps.remainder_mod_p``.  A point that leaves no remainder, or
    the remainder an earlier point left, makes a k-subset through S
    dependent (module docstring), so every k-subset is checked, from its
    first k-2 points.  Otherwise S's basis plus the remainder is the basis
    of that (k-1)-subset, and when ``keep`` is set its points from
    ``zps.span_points_mod_p`` join the component's keys; the sets are empty
    otherwise, and no span is built.
    """
    out = []
    for ci, comp in enumerate(ps.ring.components):
        p = comp.prime
        rows = [pt.canons[ci][0] for pt in ps.points]
        keys: set[tuple[int, ...]] = set()

        def walk(basis, start: int, left: int) -> bool:
            if left:
                for i in range(start, len(rows) - left):
                    grown = zps.echelon_add_mod_p(basis, rows[i], p)
                    if grown is None or not walk(grown, i + 1, left - 1):
                        return False
                return True
            seen = set()
            for row in rows[start:]:
                added = zps.remainder_mod_p(basis, row, p)
                if added is None or added[1] in seen:
                    return False
                seen.add(added[1])
                if keep:
                    keys.update(zps.span_points_mod_p(basis + (added,), p))
            return True

        if rows and not walk((), 0, min(k - 2, len(rows) - 1)):
            return None
        out.append(keys)
    return out


def is_arc(ps: PointSet) -> bool:
    """Every n points span R^n; smaller sets must be in general position."""
    _ARC.check_ambient(ps.ambient)
    return _walk(ps, ps.ambient, False) is not None


def is_cap(ps: PointSet) -> bool:
    """Every 3 points span a free 3-subspace; needs ambient dimension >= 3."""
    _CAP.check_ambient(ps.ambient)
    return _walk(ps, 3, False) is not None


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


def _dependent_stack() -> NoReturn:
    raise InternalError("a stack of the set is dependent; this is a bug")


def _blocked(
    ps: PointSet, k: int, budget: int, reject: Callable[[], NoReturn]
) -> list[set[tuple[int, ...]]]:
    """Each component's span points of every (k-1)-subset of the set.

    They are the keys ``_walk`` builds when it keeps them.  ``reject``
    raises when the set is not admissible.  The budget is charged |R|^n, as
    for listing every point, before ``_walk`` builds any span: a refused set
    is walked for admission only, so it still raises ``reject``'s error
    first when it is not admissible.
    """
    try:
        charge_power(ps.ring.order, ps.ambient, budget)
    except BudgetExceededError:
        if _walk(ps, k, False) is None:
            reject()
        raise
    blocked = _walk(ps, k, True)
    if blocked is None:
        reject()
    return blocked


def _extensions(
    ps: PointSet,
    k: int,
    budget: int,
    reject: Callable[[], NoReturn] = _dependent_stack,
) -> list[Subspace]:
    """Points, in canonical order, whose addition keeps an admissible set admissible.

    The points kept are the product over components of the canonical rows
    whose residue key is not blocked, so only they are built.  The set's
    own points are blocked by the stacks that hold them.  A set that is not
    admissible raises InternalError unless ``reject`` says otherwise: the
    search only passes admissible ones.
    """
    return points(ps.ambient, ps.ring, _blocked(ps, k, budget, reject))


# The queries below walk the set once with ``_walk`` and read both the
# admission test and the spans off that walk; they do not call the public
# is_arc / is_cap, so rebinding those (a mock, a tracer) does not reach them.


def extend_arc(ps: PointSet, budget: int = DEFAULT_BUDGET) -> list[Subspace]:
    """All points that extend the arc, in canonical order."""
    _ARC.check_ambient(ps.ambient)
    return _extensions(ps, ps.ambient, budget, _ARC.reject)


def extend_cap(ps: PointSet, budget: int = DEFAULT_BUDGET) -> list[Subspace]:
    _CAP.check_ambient(ps.ambient)
    return _extensions(ps, 3, budget, _CAP.reject)


def _covered(n: int, comp: LocalRing, keys: set[tuple[int, ...]]) -> bool:
    """Every canonical row of Z_{p^s}^n has its residue key in ``keys``.

    The rows are taken lazily from ``shapes``, and the scan stops at the
    first row that is left unblocked.  It reads fewer rows than the |R|^n
    that ``_blocked`` charged.
    """
    p = comp.prime
    return all(
        tuple([x % p for x in row]) in keys
        for _, (shape,) in shapes(1, n, comp)
        for row in itertools.product(*shape)
    )


def _is_complete(ps: PointSet, kind: _Kind, budget: int) -> bool:
    """Whether no point extends the set, by two routes that must agree.

    Both read the keys of one ``_blocked`` call and build no point, no
    projection included; the cross-check compares a scan of canonical ring
    rows (``_covered``) with a count of field points (module docstring).
    """
    kind.check_ambient(ps.ambient)
    n = ps.ambient
    blocked = _blocked(ps, kind.size(n), budget, kind.reject)
    comps = ps.ring.components
    direct = any(_covered(n, c, keys) for c, keys in zip(comps, blocked))
    by_projection = any(
        len(keys) == (c.prime**n - 1) // (c.prime - 1) for c, keys in zip(comps, blocked)
    )
    if direct != by_projection:
        raise InternalError("completeness criteria disagree; this is a bug")
    return direct


def is_complete_arc(ps: PointSet, budget: int = DEFAULT_BUDGET) -> bool:
    """No point extends the arc.

    Computed both directly, by scanning the canonical rows, and through the
    component projections (complete iff some residue-field image is
    complete), by counting each component's blocked keys; the two answers
    are required to agree.
    """
    return _is_complete(ps, _ARC, budget)


def is_complete_cap(ps: PointSet, budget: int = DEFAULT_BUDGET) -> bool:
    return _is_complete(ps, _CAP, budget)


# -- known maximum sizes -------------------------------------------------------


def _field_cap(n: int, p: int) -> int | None:
    """Maximum cap size in F_p^n, or None where it is unknown."""
    if p == 2:
        return 2 ** (n - 1)
    if n == 3:
        return p + 1
    if n == 4:
        return p * p + 1
    return {(5, 3): 20, (6, 3): 56}.get((n, p))


def max_arc_size_formula(n: int, ring: Ring) -> int:
    """Maximum arc size in R^n: max(n, p) + 1 for the least prime p of R."""
    _ARC.check_ambient(n)
    return max(n, min(c.prime for c in ring.components)) + 1


def max_cap_size_formula(n: int, ring: Ring) -> int | None:
    """Maximum cap size in R^n, the least over R's primes, or None when
    some prime's value is unknown."""
    _CAP.check_ambient(n)
    sizes = [_field_cap(n, c.prime) for c in ring.components]
    return None if None in sizes else min(sizes)


# -- exact search ----------------------------------------------------------------


SEARCH_BUDGET = 10**7


def _search(
    base: list[Subspace],
    candidates: list[Subspace],
    k: int,
    ring: Ring,
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
    same way).  For each S met, S is reduced and the pool points after it
    are keyed over S by the two kernels ``_walk`` calls (module docstring),
    and each point gets one conflict row: the union over components of its
    class, kept for this one call.
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
    comps = [
        ([pt.canons[ci][0] for pt in pool], c.prime)
        for ci, c in enumerate(ring.components)
    ]

    @functools.cache
    def through(s: tuple[int, ...]) -> list[int]:
        """Each pool point's conflict row over s: the union over components
        of its class mask, 0 for the points up to s.

        In each component s's rows are reduced once, to the basis
        ``zps.echelon_mod_p`` gives, and each later point is keyed against
        it by ``zps.remainder_mod_p``, as ``_walk`` keys its points.  s lies
        in ``current``, which is admissible, so it is independent, and the
        candidates are admissible to it, so none lies in its span: every key
        that reaches a candidate's row is a class key.
        """
        start = s[-1] + 1 if s else 0
        conf = [0] * len(pool)
        for rows, p in comps:
            basis = zps.echelon_mod_p([rows[i] for i in s], p)[1]
            keys = [zps.remainder_mod_p(basis, row, p) for row in rows[start:]]
            classes: dict[tuple | None, int] = {}
            for i, key in enumerate(keys, start):
                classes[key] = classes.get(key, 0) | 1 << i
            for i, key in enumerate(keys, start):
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
    frame: Sequence[Sequence[int]], ring: Ring, kind: _Kind, budget: int
) -> PointSet:
    """A largest admissible set of R^n that holds the pinned frame.

    The caller charges the |R|^n that ``_extensions`` charges before it
    builds the frame, so a budget that refuses the search refuses before
    the frame is built and checked, which costs about n^2.  ``_extensions``
    checks the frame as it walks it, and raises InternalError if the frame
    is not admissible.
    """
    base_set = PointSet.from_rows(ring, frame)
    n = base_set.ambient
    k = kind.size(n)
    candidates = _extensions(base_set, k, budget)
    best = _search(list(base_set.points), candidates, k, ring, budget)
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
    charge_power(ring.order, n, budget)
    return _search_max(zps.identity(n) + ((1,) * n,), ring, _ARC, budget)


def search_max_cap(n: int, ring: Ring, budget: int = SEARCH_BUDGET) -> PointSet:
    """A maximum cap of R^n by exhaustive search with the first 3 points pinned.

    Any cap of 3 or more points can be carried onto one containing the
    first three coordinate points, and {e1, e2, e3} is itself a cap, so
    pinning them preserves the maximum size.
    """
    _CAP.check_ambient(n)
    charge_power(ring.order, n, budget)
    return _search_max(zps.identity(n)[:3], ring, _CAP, budget)
