"""Exact counting formulas over R = Z_{p_1^{s_1}} x ... x Z_{p_l^{s_l}}.

All results are exact Python integers.  Out-of-range parameters return 0
(the empty count), mirroring the convention that the formulas count an
empty family outside their validity range.  Every quotient is carried out
as one exact integer division per component with a divisibility assertion,
so no rational arithmetic is ever involved.

Notation used in docstrings: |R_j| = p_j^{s_j} is a component's order and
|M_j| = p_j^{s_j - 1} the order of its maximal ideal.
"""

from __future__ import annotations

from .ring import Ring


def count_full_rank(m: int, n: int, ring: Ring) -> int:
    """Number of m x n matrices over R with McCoy rank m.

    |R|^{m(m-1)/2} * prod_j prod_{i=0}^{m-1} (|R_j|^{n-i} - |M_j|^{n-i}),
    the extension count from no fixed rows.
    """
    return count_full_rank_extension(0, m, n, ring)


def count_gl(n: int, ring: Ring) -> int:
    """Order of GL_n(R)."""
    if n < 0:
        return 0
    return count_full_rank(n, n, ring)


def count_full_rank_extension(m1: int, m: int, n: int, ring: Ring) -> int:
    """Number of full-rank m x n matrices whose first m1 rows are a fixed
    full-rank m1 x n matrix.

    |R|^{(m-m1)(m+m1-1)/2} * prod_j prod_{i=m1}^{m-1} (|R_j|^{n-i} - |M_j|^{n-i}).
    """
    if not 0 <= m1 <= m <= n:
        return 0
    out = ring.order ** ((m - m1) * (m + m1 - 1) // 2)
    for c in ring.components:
        rj, mj = c.order, c.maximal_ideal_order
        for i in range(m1, m):
            out *= rj ** (n - i) - mj ** (n - i)
    return out


def _local_subspace_count(m: int, n: int, rj: int, mj: int) -> int:
    num = 1
    den = 1
    for i in range(m):
        num *= rj ** (n - i) - mj ** (n - i)
        den *= rj ** (m - i) - mj ** (m - i)
    q, r = divmod(num, den)
    if r:
        raise AssertionError("subspace count must be an integer")
    return q


def count_subspaces(m: int, n: int, ring: Ring) -> int:
    """Number of m-dimensional subspaces of R^n.

    prod_j prod_{i=0}^{m-1} (|R_j|^{n-i} - |M_j|^{n-i}) / (|R_j|^{m-i} - |M_j|^{m-i}).
    """
    if m < 0 or n < 0 or m > n:
        return 0
    out = 1
    for c in ring.components:
        out *= _local_subspace_count(m, n, c.order, c.maximal_ideal_order)
    return out


def count_subspaces_in(m1: int, m: int, n: int, ring: Ring) -> int:
    """Number of m1-subspaces of R^n contained in a fixed m-subspace.

    Independent of n and of the chosen subspace: equals count_subspaces(m1, m).
    """
    if not 0 <= m1 <= m <= n:
        return 0
    return count_subspaces(m1, m, ring)


def count_subspaces_over(m1: int, m: int, n: int, ring: Ring) -> int:
    """Number of m-subspaces of R^n containing a fixed m1-subspace.

    Equals count_subspaces(m - m1, n - m1) by passing to the quotient.
    """
    if not 0 <= m1 <= m <= n:
        return 0
    return count_subspaces(m - m1, n - m1, ring)


def count_mt_subspaces(m: int, t: int, n: int, k: int, ring: Ring) -> int:
    """Number of (m, t)-subspaces of the singular space R^{n+k}.

    An (m, t)-subspace is an m-subspace P with P meet E a t-subspace, E the
    distinguished k-dimensional coordinate tail.  The count is
    |R|^{(m-t)(k-t)} * N(m-t, n) * N(t, k), nonempty iff 0 <= t <= k and
    0 <= m - t <= n: the (m, t)-subspaces over the zero (0, 0)-subspace.
    """
    return count_mt_over(0, 0, m, t, n, k, ring)


def count_mt_in(
    m1: int, t1: int, m: int, t: int, n: int, k: int, ring: Ring
) -> int:
    """Number of (m1, t1)-subspaces contained in a fixed (m, t)-subspace.

    |R|^{(m1-t1)(t-t1)} * N(m1-t1, m-t) * N(t1, t), nonempty iff
    0 <= t1 <= t <= k and 0 <= m1 - t1 <= m - t <= n.
    """
    if n < 0 or k < 0:
        return 0
    if not (0 <= t1 <= t <= k and 0 <= m1 - t1 <= m - t <= n):
        return 0
    return (
        ring.order ** ((m1 - t1) * (t - t1))
        * count_subspaces(m1 - t1, m - t, ring)
        * count_subspaces(t1, t, ring)
    )


def count_mt_over(
    m1: int, t1: int, m: int, t: int, n: int, k: int, ring: Ring
) -> int:
    """Number of (m, t)-subspaces containing a fixed (m1, t1)-subspace.

    |R|^{(k-t)(m-t-m1+t1)} * N(m-t-m1+t1, n-m1+t1) * N(t-t1, k-t1), with the
    same nonemptiness condition as count_mt_in.
    """
    if n < 0 or k < 0:
        return 0
    if not (0 <= t1 <= t <= k and 0 <= m1 - t1 <= m - t <= n):
        return 0
    return (
        ring.order ** ((k - t) * (m - t - m1 + t1))
        * count_subspaces(m - t - m1 + t1, n - m1 + t1, ring)
        * count_subspaces(t - t1, k - t1, ring)
    )
