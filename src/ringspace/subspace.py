"""Free subspaces of R^n and general row modules.

A subspace is a free direct summand of R^n presented by m unimodular rows;
its canonical form is the componentwise unit-pivot reduced echelon matrix,
so equality of subspaces is equality of canonical forms.  A LinearSubset is
any finitely generated submodule, canonicalized per component by Howell
normal form.  A pair's meet and join both come from one Howell form per
component, also when only one of them is asked for, and land in
LinearSubset.  Each can be promoted back to Subspace exactly when the module
is free with a unimodular basis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from . import zps
from .errors import (
    HypothesisNotMetError,
    InternalError,
    NotASubspaceError,
    RingMismatchError,
    ShapeMismatchError,
)
from .matrix import Matrix
from .ring import LocalRing, Ring

Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True, slots=True, init=False)
class Subspace:
    """A free m-dimensional direct summand of R^n in canonical form.

    The enumerators build subspaces by the million, so ``__init__`` is
    written out: the generated one of a frozen dataclass sets each field
    with ``object.__setattr__``, which costs about twice as much as calling
    the slot's own member descriptor.  Assignment still raises
    FrozenInstanceError, and eq, hash and repr are the generated ones.
    """

    ring: Ring
    ambient: int
    dim: int
    canons: tuple[Rows, ...]
    pivots: tuple[tuple[int, ...], ...]

    def __init__(
        self, ring: Ring, ambient: int, dim: int, canons: tuple[Rows, ...],
        pivots: tuple[tuple[int, ...], ...],
    ) -> None:
        _set_ring(self, ring)
        _set_ambient(self, ambient)
        _set_dim(self, dim)
        _set_canons(self, canons)
        _set_pivots(self, pivots)

    @classmethod
    def from_matrix(cls, a: Matrix) -> "Subspace":
        """Canonicalize a matrix of unimodular rows into a subspace."""
        if a.rows > a.cols:
            raise ShapeMismatchError("more rows than ambient dimension")
        canons = []
        pivots = []
        for c, comp in zip(a.comps, a.ring.components):
            rows, piv = zps.rref_unit(c, a.cols, comp.prime, comp.order)
            canons.append(rows)
            pivots.append(piv)
        return cls(a.ring, a.cols, a.rows, tuple(canons), tuple(pivots))

    @classmethod
    def zero(cls, ring: Ring, n: int) -> "Subspace":
        ell = ring.ell
        return cls(ring, n, 0, ((),) * ell, ((),) * ell)

    @property
    def display(self) -> Matrix:
        """A representative matrix whose component images are the canonical forms."""
        return Matrix(self.ring, self.dim, self.ambient, self.canons)

    def contains_vector(self, comps_row: tuple[tuple[int, ...], ...]) -> bool:
        """Membership of a vector given as one residue row per component."""
        return not any(
            any(zps.reduce_against(row, canon, piv, comp.order))
            for row, canon, piv, comp in zip(
                comps_row, self.canons, self.pivots, self.ring.components
            )
        )

    def contains(self, other: "Subspace") -> bool:
        if self.ring != other.ring or self.ambient != other.ambient:
            raise RingMismatchError("subspaces of different spaces")
        return all(self.contains_vector(vec) for vec in zip(*other.canons))


# from the class the decorator returns: slots=True replaces the one defined
_set_ring, _set_ambient, _set_dim, _set_canons, _set_pivots = (
    Subspace.ring.__set__, Subspace.ambient.__set__, Subspace.dim.__set__,
    Subspace.canons.__set__, Subspace.pivots.__set__,
)


def point_sort_key(p: Subspace):
    """A point's canonical rows read column by column, all components per column."""
    return tuple(zip(*[c[0] for c in p.canons]))


def shapes(m: int, n: int, comp: LocalRing, tail: tuple[int, int] | None = None):
    """Per pivot set of m columns, the values each canonical row may take.

    An m-subspace's canonical form over Z_{p^s} has increasing pivots, and
    its row with pivot c is 1 at c, 0 at the other pivots, a multiple of p
    left of c and anything right of c.  Yields (pivots, shape), where
    ``shape[i][j]`` lists the values of row i in column j; every choice of
    values gives a different matrix, and each is its own canonical form.

    ``tail=(split, t)`` keeps the pivot sets with exactly t pivots at or
    after ``split`` and pins those t rows to 0 before ``split``.  A subspace
    has type (m, t) in the singular space with its tail from column
    ``split`` exactly when, in every component, t of its rows have their
    pivot at or after ``split`` and vanish before it (``singular.type_of``),
    so these shapes give each (m, t)-subspace once.
    """
    p, pe = comp.prime, comp.order
    split, t = tail or (n, 0)
    for pivs in itertools.combinations(range(n), m):
        if sum(c >= split for c in pivs) != t:
            continue
        yield pivs, [
            [
                (1,) if j == c else (0,) if j in pivs or j < split <= c
                else range(0, pe, p) if j < c else range(pe)
                for j in range(n)
            ]
            for c in pivs
        ]


def shape_count(m: int, n: int, ring: Ring) -> int:
    """The number of m-subspaces of R^n, read off ``shapes`` without building any."""
    return math.prod(
        sum(
            math.prod(len(vals) for row in shape for vals in row)
            for _, shape in shapes(m, n, comp)
        )
        for comp in ring.components
    )


def subspaces(
    m: int, n: int, ring: Ring, blocked: list[set[tuple[int, ...]]] | None = None,
    tail: tuple[int, int] | None = None,
) -> list[Subspace]:
    """Every m-subspace of R^n, each built once in canonical form, in canonical order.

    They are the product over components of the matrices that ``shapes``
    allows, so no matrix is reduced and none is made twice.  Each
    component's (rows, pivots) pairs are sorted, then split into a list of
    rows and a parallel list of pivots.  The product of the rows lists and
    the product of the pivots lists advance in step, so each yields one
    subspace's ``canons`` and ``pivots`` tuples as they are, and the
    subspaces come out sorted by ``canons``.  ``blocked`` (for m = 1) holds
    one set of residue keys per component; a row whose residue mod p is in
    its component's set is left out.  ``tail=(split, t)`` keeps the
    (m, t)-subspaces of the singular space with its tail from column
    ``split``, as ``shapes`` does.
    """
    canon_lists, pivot_lists = [], []
    for i, comp in enumerate(ring.components):
        p = comp.prime
        keys = blocked[i] if blocked else None
        pairs = sorted([
            (rows, pivs)
            for pivs, shape in shapes(m, n, comp, tail)
            for rows in itertools.product(*[itertools.product(*row) for row in shape])
            if not keys or tuple([x % p for x in rows[0]]) not in keys
        ])
        canon_lists.append([rows for rows, _ in pairs])
        pivot_lists.append([pivs for _, pivs in pairs])
    return [
        Subspace(ring, n, m, canons, pivots)
        for canons, pivots in zip(
            itertools.product(*canon_lists), itertools.product(*pivot_lists)
        )
    ]


def points(
    n: int, ring: Ring, blocked: list[set[tuple[int, ...]]] | None = None
) -> list[Subspace]:
    """The points (1-subspaces) of R^n less ``blocked``, by ``point_sort_key``.

    Over one component that key orders the points as their canonical rows
    do, so the canonical order ``subspaces`` gives is already the one.
    """
    pts = subspaces(1, n, ring, blocked)
    return pts if ring.ell == 1 else sorted(pts, key=point_sort_key)


@dataclass(frozen=True)
class LinearSubset:
    """An arbitrary submodule of R^n, canonicalized by componentwise Howell forms.

    ``dim`` and ``is_free`` are computed on first use and kept.
    """

    ring: Ring
    ambient: int
    howells: tuple[Rows, ...]

    @classmethod
    def from_generators(cls, a: Matrix) -> "LinearSubset":
        howells = tuple(
            zps.howell(c, a.cols, comp.prime, comp.exponent)
            for c, comp in zip(a.comps, a.ring.components)
        )
        return cls(a.ring, a.cols, howells)

    @cached_property
    def dim(self) -> int:
        """Size of the largest linearly independent unimodular family inside.

        Equals the minimum over components of the mod-p rank of the
        generators: rows with independent residues lift to a unimodular
        independent family, and nothing larger can survive reduction.
        """
        return min(
            zps.rank_mod_p(h, self.ambient, comp.prime)
            for h, comp in zip(self.howells, self.ring.components)
        )

    @cached_property
    def is_free(self) -> bool:
        """True when the module is a free direct summand with unimodular basis.

        That holds iff in every component its size is (p^s)^d for d = ``dim``.
        A component whose mod-p rank exceeds ``dim`` holds a free module of
        that larger rank, so its size is larger and the test fails there.
        """
        d = self.dim
        return all(
            zps.module_size(h, comp.prime, comp.exponent) == comp.order**d
            for h, comp in zip(self.howells, self.ring.components)
        )

    def contains_vector(self, comps_row: tuple[tuple[int, ...], ...]) -> bool:
        return all(
            zps.module_contains(h, row, self.ambient, comp.prime, comp.exponent)
            for h, row, comp in zip(self.howells, comps_row, self.ring.components)
        )


def subspace_span(s: Subspace) -> LinearSubset:
    return LinearSubset.from_generators(s.display)


def meet(a: Subspace, b: Subspace) -> LinearSubset:
    """Intersection of two subspaces, as a general submodule."""
    return _join_meet(a, b)[1]


def join(a: Subspace, b: Subspace) -> LinearSubset:
    """Sum of two subspaces, as a general submodule."""
    return _join_meet(a, b)[0]


def _join_meet(a: Subspace, b: Subspace) -> tuple[LinearSubset, LinearSubset]:
    """The join A + B and the meet A meet B, from one Howell form per component.

    The rows (x, x) for x in A and (y, 0) for y in B generate the module
    M = {(x + y, x)} of R^{2n}.  Projecting M onto its left half gives
    A + B, and its elements with left half zero are (0, x) for x in A meet B.
    By the Howell property, for every column j the rows of M's Howell form
    with pivot at j or later generate the elements of M that vanish before
    j.  So the rows whose left half is nonzero, cut to that half, generate
    A + B and keep the property; the rows whose left half is zero, cut to
    their right half, generate A meet B and keep it too.  Both sets are
    echelon, reduced above their pivots and normalised to powers of p, so by
    uniqueness each is already the Howell form of its module.
    """
    if a.ring != b.ring or a.ambient != b.ambient:
        raise RingMismatchError("subspaces of different spaces")
    n = a.ambient
    zero = (0,) * n
    joins, meets = [], []
    for ca, cb, comp in zip(a.canons, b.canons, a.ring.components):
        stack = [r + r for r in ca] + [r + zero for r in cb]
        h = zps.howell(stack, 2 * n, comp.prime, comp.exponent)
        joins.append(tuple(r[:n] for r in h if any(r[:n])))
        meets.append(tuple(r[n:] for r in h if not any(r[:n])))
    return LinearSubset(a.ring, n, tuple(joins)), LinearSubset(a.ring, n, tuple(meets))


def as_subspace(l: LinearSubset) -> Subspace:
    """Promote a module to a Subspace, or raise NotASubspaceError.

    Needs ``l.is_free``; the basis is the Howell rows that
    ``zps.echelon_mod_p`` keeps, those independent mod p of the rows before
    them.  A free module has the same residue rank in every component, so
    every component keeps the same number of rows.
    """
    if not l.is_free:
        raise NotASubspaceError("module is not free with unimodular basis")
    picks = tuple(
        zps.echelon_mod_p(h, comp.prime)[0]
        for h, comp in zip(l.howells, l.ring.components)
    )
    return Subspace.from_matrix(Matrix(l.ring, len(picks[0]), l.ambient, picks))


def dual(s: Subspace) -> Subspace:
    """Orthogonal complement {y : x . y = 0 for all x in the subspace}.

    In each component a canonical row r_i is 1 at its pivot c_i and 0 at
    the other pivots, so for every non-pivot column f the row
    e_f - sum_i r_i[f] e_{c_i} is orthogonal to every r_i.  These n - m rows
    are 1 at their own f and 0 at the other non-pivot columns: a unimodular
    basis of a free (n - m)-subspace inside the dual, which is free of that
    rank too, so they span it.
    """
    n = s.ambient
    comps = tuple(
        [
            [-rows[pivs.index(j)][f] % comp.order if j in pivs else int(j == f) for j in range(n)]
            for f in range(n) if f not in pivs
        ]
        for rows, pivs, comp in zip(s.canons, s.pivots, s.ring.components)
    )
    return Subspace.from_matrix(Matrix(s.ring, n - s.dim, n, comps))


@dataclass(frozen=True, slots=True)
class DimensionStatus:
    """Join/meet dimension data for a pair of subspaces.

    The three booleans are equivalent for any pair; the modular dimension
    formula holds exactly when join and meet are themselves subspaces.
    """

    dim_a: int
    dim_b: int
    dim_join: int
    dim_meet: int
    formula_holds: bool
    join_is_subspace: bool
    meet_is_subspace: bool


def dimension_formula_status(a: Subspace, b: Subspace) -> DimensionStatus:
    return _status(a, b, *_join_meet(a, b))


def _status(
    a: Subspace, b: Subspace, j: LinearSubset, m: LinearSubset
) -> DimensionStatus:
    """The pair's status from its join j and meet m, with its invariants checked."""
    dim_join, dim_meet = j.dim, m.dim
    formula = dim_join == a.dim + b.dim - dim_meet
    join_free = j.is_free
    meet_free = m.is_free
    if not (formula == join_free == meet_free):
        raise InternalError(
            "dimension formula equivalence violated; this is a bug"
        )
    if not (max(a.dim, b.dim) <= dim_join <= min(a.ambient, a.dim + b.dim - dim_meet)):
        raise InternalError("join dimension out of proven bounds; this is a bug")
    return DimensionStatus(
        a.dim, b.dim, dim_join, dim_meet, formula, join_free, meet_free
    )


@dataclass(frozen=True, slots=True)
class DualityStatus:
    meet_law_holds: bool
    join_law_holds: bool


def duality_laws(a: Subspace, b: Subspace) -> DualityStatus:
    """Check (A meet B)-dual = A-dual join B-dual and the join/meet swap.

    Only defined for pairs where the dimension formula holds; other pairs
    raise HypothesisNotMetError.
    """
    laws = _dimcheck(a, b)[1]
    if laws is None:
        raise HypothesisNotMetError("dimension formula fails for this pair")
    return laws


def _dimcheck(a: Subspace, b: Subspace) -> tuple[DimensionStatus, DualityStatus | None]:
    """The pair's status, and its duality laws when the formula holds.

    Builds the pair's join and meet once for both answers, and the duals'
    once for the laws.
    """
    j, m = _join_meet(a, b)
    status = _status(a, b, j, m)
    if not status.formula_holds:
        return status, None
    dj, dm = _join_meet(dual(a), dual(b))
    # join and meet are free since the formula holds
    meet_law = dj == subspace_span(dual(as_subspace(m)))
    join_law = dm == subspace_span(dual(as_subspace(j)))
    return status, DualityStatus(meet_law, join_law)
