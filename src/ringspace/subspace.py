"""Free subspaces of R^n and general row modules.

A subspace is a free direct summand of R^n presented by m unimodular rows;
its canonical form is the componentwise unit-pivot reduced echelon matrix,
so equality of subspaces is equality of canonical forms.  A LinearSubset is
any finitely generated submodule, canonicalized per component by Howell
normal form.  Meets and joins land in LinearSubset and can be promoted back
to Subspace exactly when the module is free with a unimodular basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import zps
from .errors import (
    HypothesisNotMetError,
    NotASubspaceError,
    RingMismatchError,
    ShapeMismatchError,
)
from .matrix import Matrix, completion
from .ring import Ring

Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True, slots=True)
class Subspace:
    """A free m-dimensional direct summand of R^n in canonical form."""

    ring: Ring
    ambient: int
    dim: int
    canons: tuple[Rows, ...]
    pivots: tuple[tuple[int, ...], ...]

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

    @classmethod
    def full(cls, ring: Ring, n: int) -> "Subspace":
        return cls.from_matrix(Matrix.identity(ring, n))

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


@dataclass(frozen=True, slots=True)
class LinearSubset:
    """An arbitrary submodule of R^n, canonicalized by componentwise Howell forms."""

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

    @property
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

    @property
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
    """Intersection of two subspaces, as a general submodule.

    Componentwise: solutions (x, y) of x*A + y*B = 0 are the left kernel of
    the stacked matrix, and the x parts applied to A generate exactly the
    intersection of the two row spans.
    """
    _check_pair(a, b)
    howells = []
    for ca, cb, comp in zip(a.canons, b.canons, a.ring.components):
        p, s, pe = comp.prime, comp.exponent, comp.order
        stacked = ca + cb
        kern = zps.left_kernel(stacked, a.ambient, p, s)
        gens = tuple(
            tuple(
                sum(x * ca[i][j] for i, x in enumerate(row[: len(ca)])) % pe
                for j in range(a.ambient)
            )
            for row in kern
        )
        howells.append(zps.howell(gens, a.ambient, p, s))
    return LinearSubset(a.ring, a.ambient, tuple(howells))


def join(a: Subspace, b: Subspace) -> LinearSubset:
    """Sum of two subspaces: the module generated by both row sets."""
    _check_pair(a, b)
    gens = a.display.stack(b.display)
    return LinearSubset.from_generators(gens)


def _check_pair(a: Subspace, b: Subspace) -> None:
    if a.ring != b.ring or a.ambient != b.ambient:
        raise RingMismatchError("subspaces of different spaces")


def as_subspace(l: LinearSubset) -> Subspace:
    """Promote a module to a Subspace, or raise NotASubspaceError.

    Needs ``l.is_free``; the basis is read off by picking Howell rows with
    independent residues.  A free module has the same residue rank in every
    component, so every component yields the same number of rows.
    """
    if not l.is_free:
        raise NotASubspaceError("module is not free with unimodular basis")
    picks = tuple(
        _residue_independent_rows(h, comp.prime)
        for h, comp in zip(l.howells, l.ring.components)
    )
    return Subspace.from_matrix(Matrix(l.ring, len(picks[0]), l.ambient, picks))


def _residue_independent_rows(h: Rows, p: int) -> Rows:
    """The rows of h whose mod-p images are independent of the rows picked before."""
    basis: tuple = ()
    picked = []
    for row in h:
        grown = zps.echelon_add_mod_p(basis, row, p)
        if grown is not None:
            basis = grown
            picked.append(row)
    return tuple(picked)


def dual(s: Subspace) -> Subspace:
    """Orthogonal complement {y : x . y = 0 for all x in the subspace}.

    With S the completion (A*S = (I | 0)), the dual is spanned by the
    transposes of the last n - m columns of S; it is free of dimension n - m.
    """
    n, m = s.ambient, s.dim
    comp_s = completion(s.display)
    idx = range(m, n)
    dual_comps = tuple(
        tuple(tuple(c[i][j] for i in range(n)) for j in idx) for c in comp_s.comps
    )
    mat = Matrix(s.ring, n - m, n, dual_comps)
    return Subspace.from_matrix(mat)


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
    return _status(a, b, join(a, b), meet(a, b))


def _status(
    a: Subspace, b: Subspace, j: LinearSubset, m: LinearSubset
) -> DimensionStatus:
    """The pair's status from its join j and meet m, with its invariants checked."""
    dim_join, dim_meet = j.dim, m.dim
    formula = dim_join == a.dim + b.dim - dim_meet
    join_free = j.is_free
    meet_free = m.is_free
    if not (formula == join_free == meet_free):
        raise AssertionError(
            "dimension formula equivalence violated; this is a bug"
        )
    if not (max(a.dim, b.dim) <= dim_join <= min(a.ambient, a.dim + b.dim - dim_meet)):
        raise AssertionError("join dimension out of proven bounds; this is a bug")
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
    j, m = join(a, b), meet(a, b)
    if not _status(a, b, j, m).formula_holds:
        raise HypothesisNotMetError("dimension formula fails for this pair")
    da, db = dual(a), dual(b)
    # join and meet are free since the formula holds
    meet_law = join(da, db) == subspace_span(dual(as_subspace(m)))
    join_law = meet(da, db) == subspace_span(dual(as_subspace(j)))
    return DualityStatus(meet_law, join_law)
