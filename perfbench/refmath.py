"""Independent reference arithmetic used only to check results.

Written apart from ``ringspace.zps`` so a defect there cannot also hide in
the check.  Matrices are the componentwise row tuples of ``Matrix.comps``;
nothing here is timed or traced.
"""

from __future__ import annotations


def matmul(a, b, mod: int) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % mod for col in cols] for row in a]


def rank_mod_p(rows, p: int) -> int:
    work = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], -1, p)
        work[rank] = [x * inv % p for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def mccoy_rank(mat) -> int:
    """Minimum over components of the rank mod p."""
    if mat.rows == 0 or mat.cols == 0:
        return 0
    return min(rank_mod_p(c, comp.prime) for c, comp in zip(mat.comps, mat.ring.components))


def product(a, b) -> list:
    """Componentwise a * b."""
    return [matmul(x, y, comp.order) for x, y, comp in zip(a.comps, b.comps, a.ring.components)]


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def in_row_span(vec, canon, pivots, mod: int) -> bool:
    """vec lies in the span of unit-pivot canonical rows."""
    v = [x % mod for x in vec]
    for row, col in zip(canon, pivots):
        f = v[col]
        if f:
            v = [(x - f * y) % mod for x, y in zip(v, row)]
    return not any(v)


def canonical_ok(sub) -> bool:
    """Canonical rows carry an identity block at their pivot columns."""
    for canon, piv in zip(sub.canons, sub.pivots):
        if len(canon) != sub.dim or len(piv) != sub.dim:
            return False
        for i, row in enumerate(canon):
            if [row[c] for c in piv] != [int(i == j) for j in range(sub.dim)]:
                return False
    return True


def spans_inside(rows_by_comp, sub) -> bool:
    """Every row (one row set per component) lies in the subspace."""
    return all(
        in_row_span(row, canon, piv, comp.order)
        for rows, canon, piv, comp in zip(rows_by_comp, sub.canons, sub.pivots, sub.ring.components)
        for row in rows
    )
