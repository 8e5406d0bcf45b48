"""Singular linear space structure on R^{n+k}.

The ambient module R^{n+k} carries a distinguished tail E spanned by the
last k coordinate rows.  The relevant symmetry group is the subgroup of
GL_{n+k}(R) of block upper triangular matrices (lower left k x n block
zero), which is exactly the stabilizer of E.  An m-subspace P has type
(m, t) when P meet E is a free t-subspace; the meet can fail to be free,
and such subspaces are reported as untyped rather than rejected.  As over a
field, the type is read off P's pivots: P meet E is free exactly when P's
rows with pivot at column n or later vanish before column n, and t then
counts those rows.  No Howell form is taken unless the meet itself is asked
for, or t of a subspace whose meet is not free in some component.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import zps
from .errors import InternalError, RingMismatchError, UntypedSubspaceError
from .matrix import Matrix, mccoy_rank
from .ring import Ring
from .subspace import LinearSubset, Subspace, meet


def _coordinate(ring: Ring, ambient: int, columns: tuple[int, ...]) -> Subspace:
    """The span of the identity rows of R^ambient at the increasing ``columns``.

    Those rows are already canonical, with the columns as their pivots, in
    every component; no columns give the zero subspace.
    """
    rows = tuple(tuple(1 if j == c else 0 for j in range(ambient)) for c in columns)
    return Subspace(ring, ambient, len(columns), (rows,) * ring.ell, (columns,) * ring.ell)


@dataclass(frozen=True, slots=True)
class SingularSpace:
    """R^{n+k} with distinguished tail E = span of the last k basis rows."""

    ring: Ring
    n: int
    k: int

    @property
    def ambient(self) -> int:
        return self.n + self.k

    @property
    def special(self) -> Subspace:
        """The tail subspace E: the coordinate subspace at columns n .. n+k-1.

        With k = 0 it is the zero subspace of R^n.
        """
        return _coordinate(self.ring, self.ambient, tuple(range(self.n, self.ambient)))


def is_in_gl_nk(t: Matrix, space: SingularSpace) -> bool:
    """Membership in the block upper triangular subgroup of GL_{n+k}(R)."""
    n, k = space.n, space.k
    if t.rows != t.cols or t.rows != n + k:
        return False
    for comp_rows in t.comps:
        for i in range(n, n + k):
            if any(comp_rows[i][j] for j in range(n)):
                return False
    return mccoy_rank(t) == n + k


@dataclass(frozen=True)
class TypedSubspace:
    """An m-subspace of a singular space together with its tail type.

    Built by ``type_of``, which reads ``typed`` off P's pivots.  ``t`` and
    ``tail_meet``, which is ``meet(P, E)``, are computed on first use and
    kept.
    """

    subspace: Subspace
    space: SingularSpace
    typed: bool
    # min over components of the number of tail rows when none of them is
    # nonzero before column n, else None
    _tail_rank: int | None

    @property
    def m(self) -> int:
        return self.subspace.dim

    @cached_property
    def t(self) -> int:
        """The dimension of P meet E: the tail rank, or the meet's ``dim``."""
        rank = self._tail_rank
        return self.tail_meet.dim if rank is None else rank

    @cached_property
    def tail_meet(self) -> LinearSubset:
        """P meet E, from one Howell form per component (``meet``)."""
        return meet(self.subspace, self.space.special)

    @property
    def type(self) -> tuple[int, int]:
        return (self.m, self.t)


def type_of(p: Subspace, space: SingularSpace) -> TypedSubspace:
    """Compute the (m, t) type of P; untyped when P meet E is not free.

    Read off P's canonical rows, with no Howell form.  In one component
    Z_{p^s}, P's row r_i is 1 at its pivot c_i and 0 at the other pivots,
    so v = sum a_i r_i has v[c_i] = a_i.  A v in E vanishes before column
    n, so it uses only the tail rows T = {i : c_i >= n}.  Let B be the
    first n columns of the tail rows; its entries are multiples of p, since
    they lie left of a pivot.  Then a -> sum a_i r_i maps ker B =
    {a : a B = 0} onto P meet E, one to one.

    - If B = 0, P meet E is spanned by the tail rows: free of rank |T|.
    - If B != 0, take its Smith form B = U D V with U, V invertible and D
      diagonal.  Each nonzero diagonal entry is a unit times p^e with
      1 <= e < s, as B has its entries in p Z_{p^s}, and at least one is
      nonzero.  So ker B, isomorphic to {b : b D = 0}, is the sum of a free
      part and one summand p^{s-e} Z_{p^s}, isomorphic to Z_{p^e}, per
      such entry.
      By uniqueness of that decomposition, P meet E is not free.

    Over a product ring, P meet E is free of dimension t exactly when it is
    in every component.  So P is typed iff B_i = 0 in every component and
    every |T_i| is equal.  When every B_i = 0, t is min |T_i|, which is what
    ``tail_meet.dim`` gives; only otherwise does ``t`` take the meet.
    """
    if p.ring != space.ring or p.ambient != space.ambient:
        raise RingMismatchError("subspaces of different spaces")
    n = space.n
    # the pivots increase, so the tail rows are the last ones
    tails = [canon[sum(c < n for c in piv):] for canon, piv in zip(p.canons, p.pivots)]
    if any(any(r[:n]) for tail in tails for r in tail):
        return TypedSubspace(p, space, False, None)
    ranks = [len(tail) for tail in tails]
    return TypedSubspace(p, space, min(ranks) == max(ranks), min(ranks))


def canonical_mt_transform(
    tp: TypedSubspace,
) -> tuple[Matrix, Subspace]:
    """A group element T carrying a typed (m, t)-subspace to the canonical one.

    The canonical (m, t)-subspace is spanned by the first m - t free
    coordinate rows together with the first t tail rows.  Returns (T, C)
    with T in the block upper triangular group and P * T spanning C.

    Construction: in each component, T is the completion of P's canonical
    rows with targets 0 .. m-t-1 for the top rows and n .. n+t-1 for the
    tail rows, so P * T is exactly C's rows.  P is typed, so its top rows
    have full rank on the head (the first n columns) and its tail rows
    vanish there (``type_of``).  A top row's reduction therefore swaps,
    scales and clears head columns with a head column, adding head columns
    into tail columns at most; a tail row's touches tail columns only.  No
    column operation puts a head entry into a tail row of T, so T stays
    block upper triangular.

    C is the coordinate subspace at the targets, which are increasing, so
    its identity rows are already its canonical form in every component.
    The completion maps each of P's rows to one of them exactly, so P * T
    is checked against C's rows entry for entry.
    """
    if not tp.typed:
        raise UntypedSubspaceError("subspace has no (m, t) type")
    space = tp.space
    ring, n, k = space.ring, space.n, space.k
    m, t = tp.m, tp.t
    targets = (*range(m - t), *range(n, n + t))
    trans = Matrix(ring, n + k, n + k, tuple(
        zps.completion(c, n + k, comp.prime, comp.order, targets)
        for c, comp in zip(tp.subspace.canons, ring.components)
    ))
    target = _coordinate(ring, n + k, targets)
    if not is_in_gl_nk(trans, space):
        raise InternalError("the transform must lie in the block group")
    if any(
        zps.matmul(c, tc, comp.order) != target.canons[0]
        for c, tc, comp in zip(tp.subspace.canons, trans.comps, ring.components)
    ):
        raise InternalError("the transform must carry P to the canonical subspace")
    return trans, target
