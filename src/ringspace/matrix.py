"""Matrices over a product ring and their rank theory.

A Matrix keeps one integer matrix per ring component (the image under each
projection), which makes componentwise algorithms direct.  Entries are
reassembled into Element tuples on demand.

The rank used throughout is the McCoy rank: the largest k such that the
ideal of k x k minors has trivial annihilator.  Over Z_{p^s} it equals the
rank of the matrix reduced mod p, and over a product it is the minimum over
components; ``mccoy_rank`` uses that reduction, and
``oracle.mccoy_rank_oracle`` checks the definition literally (all minors, all
annihilator candidates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import zps
from .errors import NotFullRankError, RingMismatchError, RingParseError, ShapeMismatchError
from .ring import Element, Ring

Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True, slots=True)
class Matrix:
    """An m x n matrix over a product ring, stored componentwise."""

    ring: Ring
    rows: int
    cols: int
    comps: tuple[Rows, ...]

    # -- construction --------------------------------------------------------

    @classmethod
    def from_entries(
        cls, ring: Ring, entries: Sequence[Sequence[object]]
    ) -> "Matrix":
        """Build from a nested list of Element, int, or residue-tuple entries."""
        m = len(entries)
        n = len(entries[0]) if m else 0
        comps: list[list[tuple[int, ...]]] = [[] for _ in ring.components]
        for row in entries:
            if len(row) != n:
                raise ShapeMismatchError("ragged rows")
            parts: list[list[int]] = [[] for _ in ring.components]
            for x in row:
                el = _as_element(ring, x)
                for i, r in enumerate(el.residues):
                    parts[i].append(r)
            for i in range(ring.ell):
                comps[i].append(tuple(parts[i]))
        return cls(ring, m, n, tuple(tuple(c) for c in comps))

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        eye = zps.identity(n)
        return cls(ring, n, n, tuple(eye for _ in ring.components))

    @classmethod
    def zeros(cls, ring: Ring, m: int, n: int) -> "Matrix":
        z = tuple(tuple(0 for _ in range(n)) for _ in range(m))
        return cls(ring, m, n, tuple(z for _ in ring.components))

    # -- views ----------------------------------------------------------------

    def entry(self, i: int, j: int) -> Element:
        return Element(self.ring, tuple(c[i][j] for c in self.comps))

    # -- arithmetic -------------------------------------------------------------

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ring != other.ring:
            raise RingMismatchError("matrices over different rings")
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        if self.cols == 0:
            return Matrix.zeros(self.ring, self.rows, other.cols)
        comps = tuple(
            zps.matmul(a, b, c.order)
            for a, b, c in zip(self.comps, other.comps, self.ring.components)
        )
        return Matrix(self.ring, self.rows, other.cols, comps)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        comps = tuple(
            tuple(tuple(c[i][j] for j in col_idx) for i in row_idx)
            for c in self.comps
        )
        return Matrix(self.ring, len(row_idx), len(col_idx), comps)


def _as_element(ring: Ring, x: object) -> Element:
    if isinstance(x, Element):
        if x.ring != ring:
            raise RingMismatchError("entry from a different ring")
        return x
    if isinstance(x, bool):
        raise RingParseError("booleans are not ring elements")
    if isinstance(x, int):
        return ring.from_int(x)
    if isinstance(x, (list, tuple)):
        return ring.element(x)
    raise RingParseError(f"cannot interpret {x!r} as a ring element")


# -- McCoy rank ------------------------------------------------------------------


def mccoy_rank(a: Matrix) -> int:
    """McCoy rank, computed as min over components of the mod-p rank."""
    if a.rows == 0 or a.cols == 0:
        return 0
    return min(
        zps.rank_mod_p(c, a.cols, comp.prime)
        for c, comp in zip(a.comps, a.ring.components)
    )


def is_unimodular_rows(a: Matrix) -> bool:
    """True when the m rows are linearly independent with unimodular span."""
    if a.rows > a.cols:
        raise ShapeMismatchError("more rows than columns")
    return mccoy_rank(a) == a.rows


# -- constructive transforms ------------------------------------------------------


def completion(a: Matrix) -> Matrix:
    """Invertible S with A*S = (I | 0), for A with unimodular rows."""
    if a.rows > a.cols:
        raise ShapeMismatchError("more rows than columns")
    comps = tuple(
        zps.completion(c, a.cols, comp.prime, comp.order)
        for c, comp in zip(a.comps, a.ring.components)
    )
    return Matrix(a.ring, a.cols, a.cols, comps)


def right_inverse(a: Matrix) -> Matrix:
    """B with A*B = I, taken as the first m columns of the completion."""
    s = completion(a)
    return s.submatrix(range(a.cols), range(a.rows))


def gl_inverse(a: Matrix) -> Matrix:
    """Inverse of a square matrix of full McCoy rank."""
    if a.rows != a.cols:
        raise ShapeMismatchError("inverse needs a square matrix")
    comps = tuple(
        zps.inverse(c, comp.prime, comp.order)
        for c, comp in zip(a.comps, a.ring.components)
    )
    return Matrix(a.ring, a.rows, a.cols, comps)


def extend_to_basis(a: Matrix) -> Matrix:
    """Extend unimodular rows to an invertible n x n matrix.

    In each component the result is A's rows, then the identity rows at the
    columns where the mod-p echelon basis of A's rows (``zps.echelon_mod_p``)
    has no pivot.  Those n rows are independent mod p, so the matrix is
    invertible.  When a row of A lies in the span of the rows before it mod
    p, fewer rows are kept than given, and that raises NotFullRankError.
    """
    if a.rows > a.cols:
        raise ShapeMismatchError("more rows than columns")
    eye = zps.identity(a.cols)
    comps = []
    for rows, comp in zip(a.comps, a.ring.components):
        kept, basis = zps.echelon_mod_p(rows, comp.prime)
        if len(kept) < len(rows):
            raise NotFullRankError("rows do not have full McCoy rank")
        pivots = {col for col, _ in basis}
        comps.append(rows + tuple(e for j, e in enumerate(eye) if j not in pivots))
    return Matrix(a.ring, a.cols, a.cols, tuple(comps))
