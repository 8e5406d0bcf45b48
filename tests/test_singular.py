"""Singular spaces: tail types, the block group, canonical reduction, census."""

import pytest

from ringspace import (
    Matrix,
    SingularSpace,
    Subspace,
    UntypedSubspaceError,
    canonical_mt_transform,
    count_mt_subspaces,
    count_subspaces,
    enumerate_mt_subspaces,
    enumerate_subspaces,
    is_in_gl_nk,
    parse_ring,
    type_of,
)


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
