"""Singular spaces: tail types, the block group, canonical reduction, census."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ringspace
from ringspace import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    InternalError,
    Matrix,
    RingMismatchError,
    SingularSpace,
    Subspace,
    UntypedSubspaceError,
    as_subspace,
    canonical_mt_transform,
    completion,
    count_mt_subspaces,
    count_subspaces,
    enumerate_mt_subspaces,
    enumerate_subspaces,
    gl_inverse,
    is_in_gl_nk,
    mccoy_rank,
    meet,
    parse_ring,
    type_of,
)
from ringspace import subspace, zps
from strategies import free_subspace


def canonical_target(space, m, t):
    """Rows e_1 .. e_{m-t} plus the first t tail rows."""
    n, k = space.n, space.k
    rows = [
        [1 if j == i else 0 for j in range(n + k)] for i in range(m - t)
    ] + [
        [1 if j == n + i else 0 for j in range(n + k)] for i in range(t)
    ]
    if not rows:
        return Subspace.zero(space.ring, n + k)
    return Subspace.from_matrix(Matrix.from_entries(space.ring, rows))


class TestTyping:
    def test_special_subspace(self, z4):
        space = SingularSpace(z4, 2, 1)
        e = space.special
        assert e.dim == 1
        assert e.canons[0] == ((0, 0, 1),)

    @pytest.mark.parametrize("spec", ["Z4", "Z6", "Z2xZ4"])
    def test_special_equals_canonicalised_tail_rows(self, spec):
        ring = parse_ring(spec)
        for n in range(4):
            for k in range(1, 4):
                rows = [[int(j == n + i) for j in range(n + k)] for i in range(k)]
                old = Subspace.from_matrix(Matrix.from_entries(ring, rows))
                assert SingularSpace(ring, n, k).special == old

    def test_special_without_tail_is_zero(self, z4):
        assert SingularSpace(z4, 2, 0).special == Subspace.zero(z4, 2)

    def test_plain_line_has_trivial_tail(self, z4):
        space = SingularSpace(z4, 1, 1)
        p = Subspace.from_matrix(Matrix.from_entries(z4, [[1, 2]]))
        tp = type_of(p, space)
        assert tp.typed and tp.type == (1, 0)

    def test_tail_line_is_type_one_one(self, z4):
        space = SingularSpace(z4, 1, 1)
        tp = type_of(space.special, space)
        assert tp.typed and tp.type == (1, 1)

    def test_untyped_line(self, z4):
        """Meets the tail in a torsion module, so it has no (m, t) type."""
        space = SingularSpace(z4, 1, 1)
        p = Subspace.from_matrix(Matrix.from_entries(z4, [[2, 1]]))
        tp = type_of(p, space)
        assert not tp.typed
        assert tp.m == 1 and tp.t == 0
        with pytest.raises(UntypedSubspaceError):
            canonical_mt_transform(tp)


def test_tail_meet_is_the_set_intersection(z4, module_vectors):
    """Over Z4^(2+2), P meet E as a vector set, with its t and typed read off it.

    t is the rank of the residues mod 2 (they form an F_2-subspace of size
    2^t), and the meet is free exactly when it has 4^t vectors.
    """
    n, k = 2, 2
    space = SingularSpace(z4, n, k)
    for m in range(3):
        for sub in enumerate_subspaces(m, n + k, z4):
            want = {v for v in module_vectors(z4, n + k, sub.canons) if not any(v[0][:n])}
            tp = type_of(sub, space)
            assert module_vectors(z4, n + k, tp.tail_meet.howells) == want
            t = len({tuple(x % 2 for x in v[0]) for v in want}).bit_length() - 1
            assert (tp.t, tp.typed) == (t, len(want) == 4**t)


def assert_types_by_meet_with_special(p, space):
    """type_of agrees with the route that meets P with E built in full."""
    tp, tail = type_of(p, space), meet(p, space.special)
    assert tp.tail_meet.howells == tail.howells
    assert (tp.m, tp.t, tp.typed) == (p.dim, tail.dim, tail.is_free)


@pytest.mark.parametrize(
    "spec,size", [("Z4", 4), ("Z8", 3), ("Z9", 3), ("Z12", 3), ("Z2xZ9", 2)]
)
def test_tail_meet_matches_meet_with_special(spec, size):
    """Every subspace of R^size, under every split n + k = size."""
    ring = parse_ring(spec)
    subs = [s for m in range(size + 1) for s in enumerate_subspaces(m, size, ring)]
    for n in range(size + 1):
        space = SingularSpace(ring, n, size - n)
        for p in subs:
            assert_types_by_meet_with_special(p, space)


@st.composite
def typed_cases(draw):
    """A subspace of R^8 over a deep or many-component ring, and a split 8 = n + k."""
    ring = parse_ring(draw(st.sampled_from(["Z64", "Z720720"])))
    n = draw(st.integers(0, 8))
    return free_subspace(draw, ring, 8, draw(st.integers(0, 8))), SingularSpace(ring, n, 8 - n)


@settings(deadline=None, max_examples=60)
@given(typed_cases())
def test_tail_meet_matches_meet_with_special_wide(case):
    assert_types_by_meet_with_special(*case)


def test_type_of_takes_no_howell_form(monkeypatch, z4, z12):
    """The type is read off the pivots; the Howell form waits for ``tail_meet``."""
    calls = []
    howell = zps.howell
    monkeypatch.setattr(zps, "howell", lambda *args: calls.append(args) or howell(*args))
    for ring in (z4, z12):
        space = SingularSpace(ring, 2, 2)
        for m in range(5):
            for p in subspace.subspaces(m, 4, ring):
                type_of(p, space)
    assert calls == []
    p = Subspace.from_matrix(Matrix.from_entries(z12, [[1, 2, 0, 3], [0, 3, 1, 2]]))
    tp = type_of(p, SingularSpace(z12, 2, 2))
    # P meets E trivially mod 4 and in a line mod 3, so P has no type
    assert not tp.typed and calls == []
    assert tp.tail_meet.howells == ((), ((0, 0, 1, 2),))
    assert len(calls) == z12.ell == 2
    assert all(len(rows) == 4 and ncols == 8 for rows, ncols, *_ in calls)
    assert tp.t == 0 and tp.tail_meet.howells == ((), ((0, 0, 1, 2),))
    assert len(calls) == 2
    # (2, 1) meets E in 2 * E, so t falls back to the meet, built once
    tq = type_of(Subspace.from_matrix(Matrix.from_entries(z4, [[2, 1]])), SingularSpace(z4, 1, 1))
    assert len(calls) == 2
    assert tq.t == 0 and len(calls) == 3
    assert tq.tail_meet.howells == (((0, 2),),) and len(calls) == 3


def test_tail_ranks_that_differ_leave_p_untyped(z12):
    """A line of Z12^(2+1) that lies in E mod 4 and misses it mod 3.

    Its tail rows vanish before column n in both components, so each meet is
    free, but of rank 1 mod 4 and 0 mod 3: no type, and t is the smaller.
    """
    space = SingularSpace(z12, 2, 1)
    p = Subspace.from_matrix(Matrix.from_entries(z12, [[4, 0, 9]]))
    assert p.canons == (((0, 0, 1),), ((1, 0, 0),))
    tp = type_of(p, space)
    assert not tp.typed and tp.type == (1, 0)
    assert_types_by_meet_with_special(p, space)


def test_type_of_rejects_another_space(z4, z6):
    p = Subspace.from_matrix(Matrix.from_entries(z4, [[1, 0, 2]]))
    for space in (SingularSpace(z4, 1, 1), SingularSpace(z6, 2, 1)):
        with pytest.raises(RingMismatchError):
            type_of(p, space)


class TestGroupMembership:
    def test_identity_in_group(self, z4):
        space = SingularSpace(z4, 2, 1)
        assert is_in_gl_nk(Matrix.identity(z4, 3), space)

    def test_lower_left_block_must_vanish(self, z2):
        space = SingularSpace(z2, 2, 1)
        bad = Matrix.from_entries(z2, [[1, 0, 0], [0, 1, 0], [1, 0, 1]])
        assert not is_in_gl_nk(bad, space)

    def test_singular_matrix_not_in_group(self, z4):
        space = SingularSpace(z4, 1, 1)
        assert not is_in_gl_nk(Matrix.from_entries(z4, [[2, 0], [0, 1]]), space)

    def test_wrong_shape_not_in_group(self, z4):
        space = SingularSpace(z4, 1, 1)
        assert not is_in_gl_nk(Matrix.identity(z4, 3), space)


class TestCanonicalTransform:
    @pytest.mark.parametrize("spec,n,k", [("Z2", 2, 1), ("Z2", 1, 2), ("Z4", 1, 1)])
    def test_every_typed_subspace_reduces(self, spec, n, k):
        from ringspace import parse_ring

        ring = parse_ring(spec)
        space = SingularSpace(ring, n, k)
        seen_types = set()
        for m in range(n + k + 1):
            for sub in enumerate_subspaces(m, n + k, ring):
                tp = type_of(sub, space)
                if not tp.typed:
                    continue
                trans, target = canonical_mt_transform(tp)
                assert is_in_gl_nk(trans, space)
                assert target == canonical_target(space, tp.m, tp.t)
                if tp.m:
                    moved = Subspace.from_matrix(sub.display.mul(trans))
                    assert moved == target
                seen_types.add(tp.type)
        assert (1, 0) in seen_types and (1, 1) in seen_types

    def test_transform_is_identity_on_canonical_input(self, z2):
        space = SingularSpace(z2, 2, 1)
        target = canonical_target(space, 2, 1)
        tp = type_of(target, space)
        trans, _ = canonical_mt_transform(tp)
        moved = Subspace.from_matrix(target.display.mul(trans))
        assert moved == target


def first_completion(rows, ncols, p, pe, targets):
    """The transform's column reduction as first written: S from column
    operations on the identity, every matrix swept in full."""
    a = [list(r) for r in rows]
    s_mat = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    for row, r in zip(a, targets):
        piv = next(j for j in range(r, ncols) if row[j] % p)
        for rw in a + s_mat:
            rw[r], rw[piv] = rw[piv], rw[r]
        inv = pow(row[r], -1, pe)
        for rw in a + s_mat:
            rw[r] = rw[r] * inv % pe
        for c in range(ncols):
            f = row[c]
            if c != r and f:
                for rw in a + s_mat:
                    rw[c] = (rw[c] - f * rw[r]) % pe
    return tuple(map(tuple, s_mat))


def first_transform(tp):
    """The transform and target as first built: the target canonicalised
    from its entries, and P * T canonicalised again to compare with it."""
    space = tp.space
    ring, n, k, m, t = space.ring, space.n, space.k, tp.m, tp.t
    targets = [*range(m - t), *range(n, n + t)]
    trans = Matrix(ring, n + k, n + k, tuple(
        first_completion(c, n + k, comp.prime, comp.order, targets)
        for c, comp in zip(tp.subspace.canons, ring.components)
    ))
    target = canonical_target(space, m, t)
    assert is_in_gl_nk(trans, space)
    assert Subspace.from_matrix(tp.subspace.display.mul(trans)) == target
    return trans, target


@pytest.mark.parametrize("spec,size", [("Z4", 4), ("Z6", 3), ("Z8", 3)])
def test_transform_equals_the_first_route(spec, size):
    """Every typed subspace of R^size, under every split size = n + k."""
    ring = parse_ring(spec)
    subs = [s for m in range(size + 1) for s in enumerate_subspaces(m, size, ring)]
    seen = want = 0
    for n in range(size + 1):
        space = SingularSpace(ring, n, size - n)
        for p in subs:
            tp = type_of(p, space)
            if tp.typed:
                assert canonical_mt_transform(tp) == first_transform(tp)
                seen += 1
        want += sum(
            count_mt_subspaces(m, t, n, size - n, ring)
            for m in range(size + 1) for t in range(min(m, size - n) + 1)
        )
    assert seen == want


def seeded_typed(rng, space, m, t):
    """A random typed (m, t)-subspace: rows (Q | X) over (0 | S), Q and S of full rank."""
    ring, n, k = space.ring, space.n, space.k
    if not m:
        return Subspace.zero(ring, n + k)
    while True:
        rows = [[rng.randrange(ring.order) for _ in range(n + k)] for _ in range(m - t)]
        rows += [[0] * n + [rng.randrange(ring.order) for _ in range(k)] for _ in range(t)]
        a = Matrix.from_entries(ring, rows)
        q = a.submatrix(range(m - t), range(n))
        s = a.submatrix(range(m - t, m), range(n, n + k))
        if mccoy_rank(q) == m - t and mccoy_rank(s) == t:
            return Subspace.from_matrix(a)


def test_transform_equals_the_first_route_seeded():
    """Seeded subspaces of Z720720^(6+2), a ring of six components."""
    space = SingularSpace(parse_ring("Z720720"), 6, 2)
    rng = random.Random(2026)
    for m in range(9):
        for t in range(max(0, m - 6), min(m, 2) + 1):
            for _ in range(4):
                tp = type_of(seeded_typed(rng, space, m, t), space)
                assert tp.type == (m, t)
                assert canonical_mt_transform(tp) == first_transform(tp)


# The identity lies in the block group but leaves P where it is, so only the
# second postcondition can catch it.
MISSED = """
from ringspace import Matrix, SingularSpace, Subspace, canonical_mt_transform, parse_ring
from ringspace import type_of, zps
zps.completion = lambda rows, ncols, *args: zps.identity(ncols)
z4 = parse_ring("Z4")
tp = type_of(Subspace.from_matrix(Matrix.from_entries(z4, [[1, 1, 0]])), SingularSpace(z4, 2, 1))
canonical_mt_transform(tp)
"""


def test_transform_that_misses_the_target_is_an_internal_error(monkeypatch):
    message = "the transform must carry P to the canonical subspace"
    # recorded here, so the completion MISSED replaces is put back afterwards
    monkeypatch.setattr(zps, "completion", zps.completion)
    with pytest.raises(InternalError, match=f"^{message}$"):
        exec(MISSED, {})
    src = str(Path(ringspace.__file__).resolve().parent.parent)
    r = subprocess.run(
        [sys.executable, "-O", "-c", MISSED], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert r.returncode == 1
    assert r.stderr.rstrip().endswith(f"InternalError: {message}")


def block_diag(ring, a, b):
    """The block diagonal matrix diag(a, b)."""
    na, nb = a.rows, b.rows
    comps = tuple(
        tuple(row + (0,) * nb for row in ca) + tuple((0,) * na + row for row in cb)
        for ca, cb in zip(a.comps, b.comps)
    )
    return Matrix(ring, na + nb, na + nb, comps)


def shear(ring, n, k, mt, t, q2):
    """Identity on R^{n+k} with block -q2 at rows < mt, columns >= n + t."""
    comps = []
    for cq, comp in zip(q2.comps, ring.components):
        rows = [[int(i == j) for j in range(n + k)] for i in range(n + k)]
        for i in range(mt):
            for j in range(k - t):
                rows[i][n + t + j] = -cq[i][j] % comp.order
        comps.append(tuple(map(tuple, rows)))
    return Matrix(ring, n + k, n + k, tuple(comps))


def block_and_shear(space, top, tail):
    """T = diag(T11, T22) * shear, from P's top rows and its tail rows.

    T11 completes the top rows' free block and T22 the tail rows' tail
    block; the shear then clears what T22 left in the top rows past the
    first t tail columns.
    """
    ring, n, k = space.ring, space.n, space.k
    mt, t = top.rows, tail.rows
    t11 = completion(top.submatrix(range(mt), range(n)))
    t22 = completion(tail.submatrix(range(t), range(n, n + k)))
    q2 = top.submatrix(range(mt), range(n, n + k)).mul(t22).submatrix(range(mt), range(t, k))
    return block_diag(ring, t11, t22).mul(shear(ring, n, k, mt, t, q2))


def old_canonical_mt_transform(tp):
    """The transform as built when P meet E came from ``as_subspace(tp.tail_meet)``."""
    space, a = tp.space, tp.subspace.display
    ring, n, k, m, t = space.ring, space.n, space.k, a.rows, tp.tail_meet.dim
    f = as_subspace(tp.tail_meet).display
    coeff = Matrix(ring, t, m, tuple(
        tuple(tuple(row[c] for c in piv) for row in rows)
        for rows, piv in zip(f.comps, tp.subspace.pivots)
    ))
    assert coeff.mul(a).comps == f.comps
    # the basis extension as it was built then: the inverse of the completion
    ext = gl_inverse(completion(coeff))
    g = ext.submatrix(list(range(t, m)) + list(range(t)), range(m))
    top = g.mul(a).submatrix(range(m - t), range(n + k))
    return block_and_shear(space, top, f), canonical_target(space, m, t)


def assert_transform_matches_old_route(p, space):
    """The transform is the block-and-shear one built from P's own rows, byte
    for byte.  The target is the old route's, and so is the transform
    unless the old row mix reordered P's first m - t rows.

    That mix took P's first m - t rows rotated by t places, which is their
    own order exactly when m == t or (m - t) divides t.  Otherwise the
    transform must still lie in the group and carry P to the target.
    Returns whether the transform is the old route's.
    """
    tp = type_of(p, space)
    assert tp.typed
    m, t = tp.type
    trans, target = canonical_mt_transform(tp)
    a = p.display
    top, tail = (a.submatrix(rows, range(a.cols)) for rows in (range(m - t), range(m - t, m)))
    assert trans == block_and_shear(space, top, tail)
    old_trans, old_target = old_canonical_mt_transform(tp)
    assert target == old_target
    if m == t or t % (m - t) == 0:
        assert trans == old_trans
    else:
        assert is_in_gl_nk(trans, space)
        assert Subspace.from_matrix(p.display.mul(trans)) == target
    return trans == old_trans


def test_transform_matches_tail_meet_route(z4):
    """Every typed subspace of Z4^4, under every split 4 = n + k."""
    subs = [s for m in range(5) for s in enumerate_subspaces(m, 4, z4)]
    seen = want = changed = 0
    for n in range(5):
        space = SingularSpace(z4, n, 4 - n)
        for p in subs:
            if type_of(p, space).typed:
                changed += not assert_transform_matches_old_route(p, space)
                seen += 1
        want += sum(
            count_mt_subspaces(m, t, n, 4 - n, z4)
            for m in range(5) for t in range(min(m, 4 - n) + 1)
        )
    assert seen == want == 3577
    assert changed == 125


@st.composite
def typed_subspaces(draw):
    """A typed (m, t)-subspace of R^(n+k), n + k = 8, over Z64 or Z720720.

    Its rows are (Q | X) over (0 | S), with Q a free (m-t)-subspace of R^n,
    S a free t-subspace of R^k and X arbitrary: P meet E is spanned by the
    rows (0 | S), and every typed subspace has this shape.
    """
    ring = parse_ring(draw(st.sampled_from(["Z64", "Z720720"])))
    n = draw(st.integers(0, 8))
    k = 8 - n
    t = draw(st.integers(0, k))
    m = t + draw(st.integers(0, n))
    q = free_subspace(draw, ring, n, m - t)
    s = free_subspace(draw, ring, k, t)
    comps = tuple(
        tuple(qr + tuple(draw(st.integers(0, comp.order - 1)) for _ in range(k)) for qr in qc)
        + tuple((0,) * n + sr for sr in sc)
        for qc, sc, comp in zip(q.canons, s.canons, ring.components)
    )
    return Subspace.from_matrix(Matrix(ring, m, n + k, comps)), SingularSpace(ring, n, k)


@settings(deadline=None, max_examples=40)
@given(typed_subspaces())
def test_transform_matches_tail_meet_route_wide(case):
    assert_transform_matches_old_route(*case)


class TestCensus:
    @pytest.mark.parametrize(
        "spec,n,k",
        [("Z2", 1, 1), ("Z2", 2, 1), ("Z2", 1, 2), ("Z4", 1, 1), ("Z4", 2, 1)],
    )
    def test_census_matches_formula(self, spec, n, k):
        from ringspace import parse_ring

        ring = parse_ring(spec)
        space = SingularSpace(ring, n, k)
        for m in range(n + k + 1):
            by_type = {}
            untyped = 0
            for sub in enumerate_subspaces(m, n + k, ring):
                tp = type_of(sub, space)
                if tp.typed:
                    by_type[tp.type] = by_type.get(tp.type, 0) + 1
                else:
                    untyped += 1
            for t in range(k + 1):
                want = count_mt_subspaces(m, t, n, k, ring)
                assert by_type.get((m, t), 0) == want
            # the typed and untyped classes partition the whole census
            total = count_subspaces(m, n + k, ring)
            assert sum(by_type.values()) + untyped == total

    def test_z4_line_census_frozen(self, z4):
        space = SingularSpace(z4, 1, 1)
        types = {}
        untyped = []
        for m in range(3):
            for sub in enumerate_subspaces(m, 2, z4):
                tp = type_of(sub, space)
                if tp.typed:
                    types[tp.type] = types.get(tp.type, 0) + 1
                else:
                    untyped.append(sub.canons)
        assert types == {(0, 0): 1, (1, 0): 4, (1, 1): 1, (2, 1): 1}
        assert untyped == [(((2, 1),),)]

    def test_enumerate_mt_agrees_with_filter(self, z2):
        space = SingularSpace(z2, 2, 1)
        subs = enumerate_mt_subspaces(1, 0, 2, 1, z2)
        assert len(subs) == count_mt_subspaces(1, 0, 2, 1, z2) == 6
        for sub in subs:
            assert type_of(sub, space).type == (1, 0)


def old_mt_route(m, t, n, k, ring, budget=DEFAULT_BUDGET):
    """The (m, t)-subspaces as listed before the (m, t) pivot shapes: every
    m-subspace of R^{n+k}, in canonical order, kept when ``type_of`` types
    it as (m, t)."""
    space = SingularSpace(ring, n, k)
    return [
        s for s in enumerate_subspaces(m, n + k, ring, budget)
        if (tp := type_of(s, space)).typed and tp.t == t
    ]


MT_SPACES = [
    ("Z4", 2, 2), ("Z2", 2, 2), ("Z6", 2, 1), ("Z8", 1, 2), ("Z12", 1, 2),
    ("Z2xZ9", 1, 1), ("Z4", 1, 3),
]


class TestMtShapes:
    """``enumerate_mt_subspaces`` builds the (m, t) pivot shapes only; it
    must list what the type filter kept, in the same order."""

    @pytest.mark.parametrize("spec,n,k", MT_SPACES)
    def test_same_lists_as_the_type_filter(self, spec, n, k):
        ring = parse_ring(spec)
        space = SingularSpace(ring, n, k)
        for m in range(-1, n + k + 2):
            census = {}
            for s in enumerate_subspaces(m, n + k, ring):
                tp = type_of(s, space)
                if tp.typed:
                    census[tp.t] = census.get(tp.t, 0) + 1
            # t past m or k, and negative t, are impossible types
            for t in range(-1, max(m, k) + 2):
                got = enumerate_mt_subspaces(m, t, n, k, ring)
                assert got == old_mt_route(m, t, n, k, ring), (m, t)
                assert len(got) == census.get(t, 0)
            # each typed subspace is in exactly one list
            assert sum(
                len(enumerate_mt_subspaces(m, t, n, k, ring)) for t in range(k + 1)
            ) == sum(census.values())

    @pytest.mark.parametrize("spec,n,k", MT_SPACES)
    def test_raise_points(self, spec, n, k):
        """The budget is charged as for every m-subspace, whatever t is: the
        older scan's |R|^(n+k) for the points, then its (parent, point)
        pairs level by level; nothing for m = 0."""
        ring = parse_ring(spec)
        points = len(enumerate_subspaces(1, n + k, ring))
        for m in range(n + k + 1):
            levels = sum(len(enumerate_subspaces(j, n + k, ring)) for j in range(m))
            budget = max(ring.order ** (n + k), levels * points) if m else 0
            everything = enumerate_subspaces(m, n + k, ring)
            assert enumerate_subspaces(m, n + k, ring, budget) == everything
            for t in range(-1, k + 2):
                want = old_mt_route(m, t, n, k, ring, budget)
                assert enumerate_mt_subspaces(m, t, n, k, ring, budget) == want
            if not m:
                continue
            with pytest.raises(BudgetExceededError):
                enumerate_subspaces(m, n + k, ring, budget - 1)
            for t in range(-1, k + 2):
                with pytest.raises(BudgetExceededError):
                    old_mt_route(m, t, n, k, ring, budget - 1)
                with pytest.raises(BudgetExceededError):
                    enumerate_mt_subspaces(m, t, n, k, ring, budget - 1)
