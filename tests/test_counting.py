"""Closed-form counts: anchors, multiplicativity, double counting, ranges."""

import pytest

from ringspace import (
    count_full_rank,
    count_full_rank_extension,
    count_gl,
    count_mt_in,
    count_mt_over,
    count_mt_subspaces,
    count_subspaces,
    count_subspaces_in,
    count_subspaces_over,
    enumerate_subspaces,
    parse_ring,
)


class TestAnchors:
    def test_line_counts(self, z4, z6):
        assert count_subspaces(1, 2, z4) == 6
        assert count_subspaces(1, 2, z6) == 12

    def test_plane_count_z6_dim4(self, z6):
        assert count_subspaces(2, 4, z6) == 4550

    def test_gl_orders(self, z2, z3, z4, z6):
        assert count_gl(2, z2) == 6
        assert count_gl(2, z3) == 48
        assert count_gl(2, z4) == 96
        assert count_gl(2, z6) == 288

    def test_full_rank_counts(self, z4):
        assert count_full_rank(1, 2, z4) == 12
        assert count_full_rank_extension(1, 2, 2, z4) == 8

    def test_nested_count(self, z4):
        assert count_subspaces_in(1, 2, 3, z4) == 6

    def test_singular_anchors(self, z2):
        assert count_mt_subspaces(1, 0, 2, 1, z2) == 6
        assert count_mt_subspaces(2, 1, 2, 1, z2) == 3
        assert count_mt_in(1, 0, 2, 1, 2, 1, z2) == 2
        assert count_mt_over(1, 0, 2, 1, 2, 1, z2) == 1
        assert count_mt_over(0, 0, 1, 0, 2, 1, z2) == 6


class TestStructure:
    def test_degenerate_values(self, z6):
        for n in range(4):
            assert count_subspaces(0, n, z6) == 1
            assert count_subspaces(n, n, z6) == 1

    def test_out_of_range_is_zero(self, z6):
        assert count_subspaces(3, 2, z6) == 0
        assert count_subspaces(-1, 2, z6) == 0
        assert count_subspaces_in(2, 1, 3, z6) == 0
        assert count_subspaces_over(2, 1, 3, z6) == 0
        assert count_full_rank(3, 2, z6) == 0
        assert count_mt_subspaces(1, 2, 2, 1, z6) == 0  # t > k
        assert count_mt_subspaces(3, 0, 2, 1, z6) == 0  # m - t > n
        assert count_mt_in(2, 1, 1, 1, 2, 2, z6) == 0
        assert count_mt_over(2, 2, 1, 1, 2, 2, z6) == 0

    def test_shared_forms_match_their_closed_forms(self, z4, z6, z12):
        """count_full_rank and count_mt_subspaces, now the m1 = 0 and
        (m1, t1) = (0, 0) cases of the extension and over counts, keep their
        own closed forms and guards, negative and oversized arguments too."""

        def full_rank(m, n, ring):
            if m < 0 or n < 0 or m > n:
                return 0
            out = ring.order ** (m * (m - 1) // 2)
            for c in ring.components:
                for i in range(m):
                    out *= c.order ** (n - i) - c.maximal_ideal_order ** (n - i)
            return out

        def mt(m, t, n, k, ring):
            if n < 0 or k < 0 or not (0 <= t <= k and 0 <= m - t <= n):
                return 0
            return (
                ring.order ** ((m - t) * (k - t))
                * count_subspaces(m - t, n, ring)
                * count_subspaces(t, k, ring)
            )

        r = range(-2, 6)
        for ring in (z4, z6, z12):
            for m in r:
                for n in r:
                    assert count_full_rank(m, n, ring) == full_rank(m, n, ring)
                    for t in r:
                        for k in r:
                            assert count_mt_subspaces(m, t, n, k, ring) == mt(
                                m, t, n, k, ring
                            )

    def test_multiplicative_over_components(self, z4, z3, z2):
        z12 = parse_ring("Z12")
        z6 = parse_ring("Z6")
        for n in range(5):
            for m in range(n + 1):
                assert count_subspaces(m, n, z12) == count_subspaces(
                    m, n, z4
                ) * count_subspaces(m, n, z3)
                assert count_full_rank(m, n, z6) == count_full_rank(
                    m, n, z2
                ) * count_full_rank(m, n, z3)
            assert count_gl(n, z12) == count_gl(n, z4) * count_gl(n, z3)

    def test_full_rank_extension_consistency(self, z4, z6):
        """Extending row by row multiplies the extension counts."""
        for ring in (z4, z6):
            for n in range(1, 4):
                total = count_full_rank(n, n, ring)
                stepwise = count_full_rank(1, n, ring)
                for m1 in range(1, n):
                    stepwise *= count_full_rank_extension(m1, m1 + 1, n, ring)
                assert total == stepwise

    def test_double_counting_identity(self):
        """Pairs S1 <= S counted through either factor agree."""
        for spec in ["Z4", "Z6", "Z8", "Z9", "Z12", "Z2xZ2"]:
            ring = parse_ring(spec)
            for n in range(5):
                for m in range(n + 1):
                    for m1 in range(m + 1):
                        lhs = count_subspaces(m, n, ring) * count_subspaces_in(
                            m1, m, n, ring
                        )
                        rhs = count_subspaces(m1, n, ring) * count_subspaces_over(
                            m1, m, n, ring
                        )
                        assert lhs == rhs

    def test_mt_double_counting_identity(self, z2, z4):
        for ring in (z2, z4):
            for n in range(3):
                for k in range(1, 3):
                    for m in range(n + k + 1):
                        for t in range(k + 1):
                            if count_mt_subspaces(m, t, n, k, ring) == 0:
                                continue
                            for m1 in range(m + 1):
                                for t1 in range(t + 1):
                                    lhs = count_mt_subspaces(
                                        m, t, n, k, ring
                                    ) * count_mt_in(m1, t1, m, t, n, k, ring)
                                    rhs = count_mt_subspaces(
                                        m1, t1, n, k, ring
                                    ) * count_mt_over(m1, t1, m, t, n, k, ring)
                                    assert lhs == rhs

    def test_division_always_exact(self):
        """The per-component quotient formula never truncates."""
        for spec in ["Z4", "Z8", "Z9", "Z12", "Z2xZ2", "Z6"]:
            ring = parse_ring(spec)
            for n in range(7):
                for m in range(n + 1):
                    assert count_subspaces(m, n, ring) >= 1

    def test_matches_enumeration_spot(self, z4, z6):
        assert count_subspaces(1, 2, z4) == len(enumerate_subspaces(1, 2, z4))
        assert count_subspaces(1, 2, z6) == len(enumerate_subspaces(1, 2, z6))
        assert count_subspaces(2, 3, z4) == len(enumerate_subspaces(2, 3, z4))


class TestSymmetry:
    def test_subspace_count_duality(self, z4, z6, z9):
        """Dualizing swaps m and n - m without changing the count."""
        for ring in (z4, z6, z9):
            for n in range(6):
                for m in range(n + 1):
                    assert count_subspaces(m, n, ring) == count_subspaces(
                        n - m, n, ring
                    )
