"""Singular linear space structure on R^{n+k}.

The ambient module R^{n+k} carries a distinguished tail E spanned by the
last k coordinate rows.  The relevant symmetry group is the subgroup of
GL_{n+k}(R) of block upper triangular matrices (lower left k x n block
zero), which is exactly the stabilizer of E.  An m-subspace P has type
(m, t) when P meet E is a free t-subspace; the meet can fail to be free,
and such subspaces are reported as untyped rather than rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError, UntypedSubspaceError
from .matrix import Matrix, completion, extend_to_basis, mccoy_rank
from .ring import Ring
from .subspace import LinearSubset, Subspace, as_subspace, meet


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
        """The tail subspace E, built in canonical form.

        Its rows are the identity rows at columns n .. n+k-1, which are
        also its pivots, in every component; with k = 0 it is the zero
        subspace of R^n.
        """
        n, k = self.n, self.k
        rows = tuple(
            tuple(1 if j == n + i else 0 for j in range(n + k)) for i in range(k)
        )
        pivots = tuple(range(n, n + k))
        ell = self.ring.ell
        return Subspace(self.ring, n + k, k, (rows,) * ell, (pivots,) * ell)


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


@dataclass(frozen=True, slots=True)
class TypedSubspace:
    """An m-subspace of a singular space together with its tail type."""

    subspace: Subspace
    space: SingularSpace
    m: int
    t: int
    typed: bool
    tail_meet: LinearSubset

    @property
    def type(self) -> tuple[int, int]:
        return (self.m, self.t)


def type_of(p: Subspace, space: SingularSpace) -> TypedSubspace:
    """Compute the (m, t) type of P; untyped when P meet E is not free."""
    tail = meet(p, space.special)
    return TypedSubspace(p, space, p.dim, tail.dim, tail.is_free, tail)


def canonical_mt_transform(
    tp: TypedSubspace,
) -> tuple[Matrix, Subspace]:
    """A group element T carrying a typed (m, t)-subspace to the canonical one.

    The canonical (m, t)-subspace is spanned by the first m - t free
    coordinate rows together with the first t tail rows.  Returns (T, C)
    with T in the block upper triangular group and P * T spanning C.

    Construction: write P with its tail part at the bottom (rows of
    P meet E), complete the top block over the free coordinates and the
    bottom block over the tail, then clear the residual upper right block
    with one more shear inside the group.
    """
    if not tp.typed:
        raise UntypedSubspaceError("subspace has no (m, t) type")
    space = tp.space
    ring, n, k = space.ring, space.n, space.k
    m, t = tp.m, tp.t
    a = tp.subspace.display  # m x (n+k), canonical rows
    f = as_subspace(tp.tail_meet).display  # t x (n+k), rows inside E

    # coefficients of the tail rows in terms of the canonical rows of P:
    # reading off pivot columns inverts the canonical presentation.
    coeff_comps = []
    for f_rows, piv, comp in zip(f.comps, tp.subspace.pivots, ring.components):
        coeff_comps.append(tuple(tuple(row[c] for c in piv) for row in f_rows))
    coeff = Matrix(ring, t, m, tuple(coeff_comps))
    if coeff.mul(a).comps != f.comps:
        raise InternalError("tail rows must lie in P")

    # invertible row mix G with the tail coefficients as its last t rows
    ext = extend_to_basis(coeff)  # coeff rows first
    perm = list(range(t, m)) + list(range(t))
    g = ext.submatrix(perm, range(m))
    b = g.mul(a)  # top m-t rows span a complement, bottom t rows are f

    top = b.submatrix(range(m - t), range(n + k))
    p11 = top.submatrix(range(m - t), range(n))
    p12 = top.submatrix(range(m - t), range(n, n + k))
    p22 = f.submatrix(range(t), range(n, n + k))

    t11 = completion(p11)  # p11 * t11 = (I | 0) over R^n
    t22 = completion(p22)  # p22 * t22 = (I | 0) over R^k
    t1 = _block_diag(ring, t11, t22)

    # after t1 the top block is (I, 0, q1, q2); q1 dies under a row mix,
    # q2 dies under the shear t2 below.
    p12t = p12.mul(t22)
    q2 = p12t.submatrix(range(m - t), range(t, k))
    t2 = _shear(ring, n, k, m - t, t, q2)
    trans = t1.mul(t2)

    canon_rows = [
        [1 if j == i else 0 for j in range(n + k)] for i in range(m - t)
    ] + [[1 if j == n + i else 0 for j in range(n + k)] for i in range(t)]
    target = (
        Subspace.from_matrix(Matrix.from_entries(ring, canon_rows))
        if m
        else Subspace.zero(ring, n + k)
    )
    if not is_in_gl_nk(trans, space):
        raise InternalError("the transform must lie in the block group")
    if Subspace.from_matrix(a.mul(trans)) != target:
        raise InternalError("the transform must carry P to the canonical subspace")
    return trans, target


def _block_diag(ring: Ring, a: Matrix, b: Matrix) -> Matrix:
    na, nb = a.rows, b.rows
    comps = []
    for ca, cb in zip(a.comps, b.comps):
        rows = [tuple(row) + (0,) * nb for row in ca]
        rows += [(0,) * na + tuple(row) for row in cb]
        comps.append(tuple(rows))
    return Matrix(ring, na + nb, na + nb, tuple(comps))


def _shear(ring: Ring, n: int, k: int, mt: int, t: int, q2: Matrix) -> Matrix:
    """Identity on R^{n+k} with block -q2 at rows < mt, columns >= n + t."""
    size = n + k
    comps = []
    for cq, comp in zip(q2.comps, ring.components):
        pe = comp.order
        rows = []
        for i in range(size):
            row = [1 if j == i else 0 for j in range(size)]
            if i < mt:
                for j in range(k - t):
                    row[n + t + j] = (-cq[i][j]) % pe
            rows.append(tuple(row))
        comps.append(tuple(rows))
    return Matrix(ring, size, size, tuple(comps))
