"""Hypothesis building blocks shared by the test modules."""

from hypothesis import strategies as st

from ringspace import Matrix, Subspace, zps


def unimodular_rows(draw, ring, n, m):
    """m unimodular rows of length n: in each component the rows are
    L * (I | X) with columns permuted, L unit lower triangular, plus p times
    noise, so every free row module of the shape comes up, spanned by rows
    that are rarely its canonical ones."""
    comps = []
    for comp in ring.components:
        p, pe = comp.prime, comp.order
        entry = st.integers(0, pe - 1)
        base = [
            [int(i == j) for j in range(m)] + [draw(entry) for _ in range(n - m)]
            for i in range(m)
        ]
        low = [
            [1 if i == j else draw(entry) if j < i else 0 for j in range(m)]
            for i in range(m)
        ]
        perm = draw(st.permutations(range(n)))
        comps.append(
            tuple(
                tuple((row[perm[j]] + p * draw(entry)) % pe for j in range(n))
                for row in zps.matmul(low, base, pe)
            )
        )
    return Matrix(ring, m, n, tuple(comps))


def free_subspace(draw, ring, n, m):
    """A free m-subspace of R^n, spanned by ``unimodular_rows``."""
    return Subspace.from_matrix(unimodular_rows(draw, ring, n, m))
