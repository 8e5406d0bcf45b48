"""Integer matrix kernels over a single chain ring Z_{p^s}.

Matrices here are tuples (or lists) of rows, each row a sequence of ints in
[0, p^s).  These functions are the componentwise core that everything else
delegates to; they know nothing about product rings.
"""

from __future__ import annotations

from operator import mul

from .errors import InternalError, NotFullRankError, NotInvertibleError


def val(x: int, p: int, s: int) -> int:
    """p-adic valuation of x mod p^s; returns s for x == 0."""
    if x == 0:
        return s
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def matmul(a, b, pe: int) -> tuple[tuple[int, ...], ...]:
    """Product of an m x k and a k x n matrix mod pe.

    Each entry is one ``sum(map(mul, row, col)) % pe`` over a column of the
    transposed b, whose inner loop runs in C.  An empty b (k = 0) gives m
    empty rows, since it carries no n.
    """
    if a and b and len(a[0]) != len(b):
        raise InternalError("inner dimensions of the product differ")
    bt = list(zip(*b))
    return tuple(tuple([sum(map(mul, row, col)) % pe for col in bt]) for row in a)


def rank_mod_p(rows, ncols: int, p: int) -> int:
    """Rank of the matrix reduced mod p, over the field F_p.

    It eliminates in place rather than count ``echelon_mod_p``'s kept rows:
    each ``remainder_mod_p`` call builds new row tuples, and a rank taken
    that way was 1.3-1.5x slower per call.
    """
    work = [[x % p for x in r] for r in rows]
    m = len(work)
    rank = 0
    for col in range(ncols):
        if rank == m:
            break
        piv = None
        for i in range(rank, m):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        inv = pow(prow[col], -1, p)
        for i in range(rank + 1, m):
            f = work[i][col]
            if f:
                fi = f * inv % p
                row_i = work[i]
                for j in range(col, ncols):
                    row_i[j] = (row_i[j] - fi * prow[j]) % p
        rank += 1
    return rank


def remainder_mod_p(basis, row, p: int):
    """Row reduced mod p against a mod-p echelon basis, as (pivot, row), or None.

    ``basis`` is a tuple of (pivot column, residue row) pairs, each row 1
    at its pivot, 0 left of it and 0 at the pivots before it; ``()`` is the
    empty basis.  Row is reduced mod p against the pairs in order, which
    clears every pivot column.  A nonzero remainder is scaled to 1 at its
    first nonzero column, its pivot; None means row is in the span.
    """
    v = [x % p for x in row]
    for col, prow in basis:
        f = v[col]
        if f:
            v = [(a - f * b) % p for a, b in zip(v, prow)]
    for col, x in enumerate(v):
        if x:
            inv = pow(x, -1, p)
            return col, tuple([y * inv % p for y in v])
    return None


def echelon_mod_p(rows, p: int):
    """(kept, basis): the rows independent mod p of the rows before them,
    and their mod-p echelon basis, as for ``remainder_mod_p``.

    Each row is reduced once by ``remainder_mod_p`` against the basis of
    the rows kept before it; testing a further row against the basis is one
    more such call.
    """
    kept, basis = [], ()
    for row in rows:
        added = remainder_mod_p(basis, row, p)
        if added is not None:
            kept.append(row)
            basis += (added,)
    return tuple(kept), basis


def echelon_add_mod_p(basis, row, p: int):
    """A mod-p echelon basis with row added, or None when row is in its span.

    The pair ``remainder_mod_p`` gives for row is appended.  It grows a
    basis one row at a time, for a walk that shares each prefix between the
    stacks that start with it; ``echelon_mod_p`` reduces a whole stack.
    """
    added = remainder_mod_p(basis, row, p)
    return None if added is None else basis + (added,)


def span_points_mod_p(basis, p: int) -> list[tuple[int, ...]]:
    """The points of a mod-p echelon basis's span, each 1 at its first nonzero entry.

    ``basis`` is as for ``remainder_mod_p``.  Taken by descending pivot,
    each row adds itself and ``row + c*q`` for every point q built so far
    and every c in 1..p-1.  Every q is 0 up to and at the row's pivot, so
    each new point is 1 at its first nonzero entry, the row's pivot, and
    distinct (c, q) give distinct points.  So each of the (p^r - 1)/(p - 1)
    points of r rows is built once, none scaled after the fact.
    """
    points: list[tuple[int, ...]] = []
    for _, row in sorted(basis, reverse=True):
        points += [row] + [
            tuple([(a + c * b) % p for a, b in zip(row, q)])
            for c in range(1, p)
            for q in points
        ]
    return points


def rref_unit(rows, ncols: int, p: int, pe: int):
    """Canonical reduced row echelon form with unit pivots over Z_{p^s}.

    Requires the input to have full residue rank (one unit pivot per row)
    and raises NotFullRankError otherwise.  Pivot columns come out as the
    leftmost columns that carry a unit after elimination, which are exactly
    the mod-p RREF pivot columns.  Returns
    (rows, pivot_columns); the pivot columns hold an identity block, so the
    result is the unique canonical matrix of the row span.
    """
    work = [list(r) for r in rows]
    m = len(work)
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == m:
            break
        piv = None
        for i in range(r, m):
            if work[i][col] % p:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        inv = pow(prow[col], -1, pe)
        if inv != 1:
            for j in range(ncols):
                prow[j] = prow[j] * inv % pe
        for i in range(m):
            if i != r:
                f = work[i][col]
                if f:
                    row_i = work[i]
                    for j in range(ncols):
                        row_i[j] = (row_i[j] - f * prow[j]) % pe
        pivots.append(col)
        r += 1
    if r < m:
        raise NotFullRankError("rows do not span a free direct summand")
    return tuple(tuple(rw) for rw in work), tuple(pivots)


def reduce_against(row, canon_rows, pivot_cols, pe: int) -> list[int]:
    """Subtract canonical rows to zero out the pivot coordinates of row."""
    v = [x % pe for x in row]
    for prow, col in zip(canon_rows, pivot_cols):
        f = v[col]
        if f:
            for j, y in enumerate(prow):
                if y:
                    v[j] = (v[j] - f * y) % pe
    return v


def howell(rows, ncols: int, p: int, s: int) -> tuple[tuple[int, ...], ...]:
    """Howell normal form of the row module of ``rows`` over Z_{p^s}.

    The result is the unique canonical generating matrix of the module:
    echelon rows with pivots p^e (unit part normalized away), saturated so
    that every prefix-supported element of the module is reachable greedily,
    entries above each pivot reduced modulo the pivot, zero rows dropped,
    rows ordered by pivot column.  Two generating sets span the same module
    iff their Howell forms are equal.
    """
    pe = p**s
    pivots: dict[int, list[int]] = {}
    queue = [[x % pe for x in r] for r in rows]
    while queue:
        v = queue.pop()
        j = 0
        while True:
            while j < ncols and not v[j]:
                j += 1
            if j == ncols:
                break
            e_v = val(v[j], p, s)
            u = pivots.get(j)
            if u is not None:
                e_u = val(u[j], p, s)
                if e_v >= e_u:
                    q = v[j] // (p**e_u)  # u[j] == p^{e_u} exactly
                    for i in range(j, ncols):
                        if u[i]:
                            v[i] = (v[i] - q * u[i]) % pe
                    continue
                queue.append(u)  # v has smaller valuation: it takes the pivot slot
            unit_inv = pow(v[j] // (p**e_v), -1, pe)
            if unit_inv != 1:
                v = [x * unit_inv % pe for x in v]
            pivots[j] = v
            if e_v:
                ann = p ** (s - e_v)
                queue.append([x * ann % pe for x in v])
            break
    cols = sorted(pivots)
    out = [pivots[c] for c in cols]
    # normalize entries above each pivot modulo the pivot value
    for idx, c in enumerate(cols):
        prow = out[idx]
        pv = prow[c]
        for h in range(idx):
            q = out[h][c] // pv
            if q:
                row_h = out[h]
                for jj in range(c, ncols):
                    if prow[jj]:
                        row_h[jj] = (row_h[jj] - q * prow[jj]) % pe
    return tuple(tuple(r) for r in out)


def howell_pivot_vals(h_rows, p: int, s: int) -> list[tuple[int, int]]:
    """[(pivot column, pivot valuation)] for rows already in Howell form."""
    out = []
    for row in h_rows:
        col = next(i for i, x in enumerate(row) if x)
        out.append((col, val(row[col], p, s)))
    return out


def module_size(h_rows, p: int, s: int) -> int:
    """Number of elements of the module with the given Howell form."""
    n = 1
    for _, e in howell_pivot_vals(h_rows, p, s):
        n *= p ** (s - e)
    return n


def module_contains(h_rows, vec, ncols: int, p: int, s: int) -> bool:
    """Membership test against a Howell form by greedy pivot reduction."""
    pe = p**s
    v = [x % pe for x in vec]
    for row in h_rows:
        col = next(i for i, x in enumerate(row) if x)
        f = v[col]
        if f:
            q = f // row[col]
            if q:
                for j in range(col, ncols):
                    if row[j]:
                        v[j] = (v[j] - q * row[j]) % pe
    return not any(v)


def left_kernel(rows, ncols: int, p: int, s: int) -> tuple[tuple[int, ...], ...]:
    """Howell-form generators of {x : x * rows == 0} over Z_{p^s}."""
    m = len(rows)
    if m == 0:
        return ()
    aug = [
        [x % (p**s) for x in row] + [1 if i == j else 0 for j in range(m)]
        for i, row in enumerate(rows)
    ]
    h = howell(aug, ncols + m, p, s)
    ker = [r[ncols:] for r in h if not any(r[:ncols])]
    return howell(ker, m, p, s)


def completion(
    rows, ncols: int, p: int, pe: int, targets=None
) -> tuple[tuple[int, ...], ...]:
    """Invertible S with rows * S = the identity rows at ``targets``.

    Row r goes to the identity row with its 1 in column targets[r]; the
    default ``range(m)`` gives rows * S = (I | 0).  Column reduction: for
    each row pick the leftmost unit entry from its target on, swap it into
    place, scale the column, then clear the rest of the row.  Targets must
    increase, so no swap moves an earlier row's 1; a row with no unit from
    its target on raises NotFullRankError.  The same column operations act
    on an accumulator that starts as the identity, which builds S.
    """
    a = [list(r) for r in rows]
    acc = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    # the rows whose columns the column operations act on
    by_cols = a + acc
    for row, r in zip(a, range(len(a)) if targets is None else targets):
        piv = None
        for j in range(r, ncols):
            if row[j] % p:
                piv = j
                break
        if piv is None:
            raise NotFullRankError("rows do not have full McCoy rank")
        if piv != r:
            for rw in by_cols:
                rw[r], rw[piv] = rw[piv], rw[r]
        inv = pow(row[r], -1, pe)
        if inv != 1:
            for rw in by_cols:
                rw[r] = rw[r] * inv % pe
        # clearing one column changes no other entry of row, as row[r] is 1
        for c, f in [(c, f) for c, f in enumerate(row) if f and c != r]:
            for rw in by_cols:
                if rw[r]:
                    rw[c] = (rw[c] - f * rw[r]) % pe
    return tuple(tuple(rw) for rw in acc)


def inverse(rows, p: int, pe: int) -> tuple[tuple[int, ...], ...]:
    """Inverse of a square matrix over Z_{p^s}: its completion, as A * S = I.

    A is invertible exactly when it has full residue rank, which is when
    the completion exists.
    """
    try:
        return completion(rows, len(rows), p, pe)
    except NotFullRankError as exc:
        raise NotInvertibleError("matrix is not invertible") from exc
