"""The enumeration oracle itself, plus the verification harness."""

import itertools
import random

import pytest

from ringspace import (
    BudgetExceededError,
    LinearSubset,
    Matrix,
    Subspace,
    brute_force_dim,
    count_full_rank,
    count_full_rank_enumerated,
    count_subspaces,
    enumerate_points,
    enumerate_subspaces,
    parse_ring,
    verify_counts,
)
from ringspace import zps
from ringspace.oracle import (
    DEFAULT_BUDGET,
    SuiteItem,
    extend_subspace,
    iter_vectors,
    point_sort_key,
)


def _extend_and_dedup_levels(n, ring):
    """Reference enumerator: join every (m-1)-subspace with every point
    through ``extend_subspace`` and keep one subspace per canonical form.

    Yields the sorted list of m-subspaces for m = 0, 1, ..., n, and stops
    with None at the first m whose (parent, point) pairs, counted over all
    levels so far, exceed the default budget: there the enumerator must raise.
    """
    points = enumerate_points(n, ring)
    level = [Subspace.zero(ring, n)]
    yield level
    spent = 0
    for _ in range(n):
        spent += len(level) * len(points)
        if spent > DEFAULT_BUDGET:
            yield None
            return
        grown = {}
        for sub in level:
            for pt in points:
                child = extend_subspace(sub, pt)
                if child is not None:
                    grown.setdefault(child.canons, child)
        level = sorted(grown.values(), key=lambda s: s.canons)
        yield level


def _walk_and_rref_points(n, ring):
    """Reference point enumerator: walk all |R|^n vectors, canonicalise each
    unimodular one with ``rref_unit`` and keep one point per canonical form."""
    seen = {}
    for rows in iter_vectors(n, ring):
        if not all(any(x % c.prime for x in row) for row, c in zip(rows, ring.components)):
            continue
        canons = []
        pivots = []
        for row, comp in zip(rows, ring.components):
            canon, piv = zps.rref_unit((row,), n, comp.prime, comp.order)
            canons.append(canon)
            pivots.append(piv)
        seen.setdefault(tuple(canons), tuple(pivots))
    return sorted(seen.items(), key=lambda kv: [[c[0][j] for c in kv[0]] for j in range(n)])


class TestPoints:
    @pytest.mark.parametrize(
        "name,n",
        [
            ("Z2", 3), ("Z4", 4), ("Z6", 4), ("Z12", 3), ("Z7", 4), ("Z8", 3),
            ("Z9", 3), ("Z27", 2), ("Z2xZ4", 3), ("Z2xZ3", 4), ("Z5", 1), ("Z6", 0),
        ],
    )
    def test_points_match_walk_and_rref(self, name, n):
        ring = parse_ring(name)
        want = _walk_and_rref_points(n, ring)
        got = enumerate_points(n, ring, budget=ring.order**n)
        assert [(p.canons, p.pivots) for p in got] == want
        assert all(p.ring == ring and p.ambient == n and p.dim == 1 for p in got)
        with pytest.raises(BudgetExceededError):
            enumerate_points(n, ring, budget=ring.order**n - 1)

    @pytest.mark.parametrize(
        "name,n", [("Z4", 3), ("Z12", 3), ("Z2xZ3", 4), ("Z5xZ25", 2)]
    )
    def test_sort_key_matches_column_key(self, name, n):
        """The key equals one built column by column, every component's
        entry in each column."""
        for p in enumerate_points(n, parse_ring(name)):
            want = tuple(tuple(c[0][j] for c in p.canons) for j in range(p.ambient))
            assert point_sort_key(p) == want

    def test_point_counts(self, z4, z2, z9):
        assert len(enumerate_points(2, z4)) == 6
        assert len(enumerate_points(2, z2)) == 3
        assert len(enumerate_points(1, z9)) == 1

    def test_points_sorted_and_distinct(self, z6):
        pts = enumerate_points(2, z6)
        assert len({p.canons for p in pts}) == len(pts) == 12

    def test_budget(self, z8):
        with pytest.raises(BudgetExceededError):
            enumerate_points(3, z8, budget=10)


class TestSubspaceEnumeration:
    def test_census_spot_checks(self, z4, z6):
        assert len(enumerate_subspaces(1, 2, z4)) == 6
        assert len(enumerate_subspaces(1, 2, z6)) == 12
        assert len(enumerate_subspaces(0, 2, z4)) == 1
        assert len(enumerate_subspaces(2, 2, z4)) == 1
        assert len(enumerate_subspaces(3, 2, z4)) == 0

    def test_budget_counts_every_parent_point_pair(self, z4):
        # Z4^2 has 6 points: 1 x 6 pairs at m = 1, then 6 x 6 at m = 2
        assert len(enumerate_subspaces(2, 2, z4, budget=42)) == 1
        with pytest.raises(BudgetExceededError):
            enumerate_subspaces(2, 2, z4, budget=41)

    @pytest.mark.parametrize(
        "name,n",
        [
            (name, n)
            for name in (
                "Z2", "Z3", "Z4", "Z6", "Z8", "Z9", "Z2xZ2", "Z12", "Z2xZ4", "Z27"
            )
            for n in range(4)
        ]
        + [("Z4", 4)],
    )
    def test_matches_extend_and_dedup(self, name, n):
        # Z4^2, m = 2 catches an accept rule that lets the point's row carry
        # a non-unit in a pivot column of the parent, e.g. ((1,0),(2,1))
        ring = parse_ring(name)
        for m, expected in enumerate(_extend_and_dedup_levels(n, ring)):
            if expected is None:
                for m_over in range(m, n + 1):
                    with pytest.raises(BudgetExceededError):
                        enumerate_subspaces(m_over, n, ring)
                break
            got = enumerate_subspaces(m, n, ring)
            assert got == expected
            assert len({s.canons for s in got}) == len(got)

    def test_extension_step(self, z4):
        line = enumerate_subspaces(1, 2, z4)[0]
        for pt in enumerate_points(2, z4):
            ext = extend_subspace(line, pt)
            if ext is not None:
                assert ext.dim == 2
                assert ext.contains(line)
                assert ext.contains(pt)

    def test_extension_rejects_contained_point(self, z4):
        line = enumerate_subspaces(1, 2, z4)[0]
        assert extend_subspace(line, line) is None


class TestBruteForceDim:
    def test_agrees_with_module_dim(self, z4):
        rng = random.Random(11)
        for _ in range(40):
            m = rng.randrange(1, 3)
            gens = Matrix.from_entries(
                z4, [[rng.randrange(4) for _ in range(2)] for _ in range(m)]
            )
            assert brute_force_dim(gens) == LinearSubset.from_generators(gens).dim

    def test_zero_module(self, z4):
        gens = Matrix.zeros(z4, 1, 2)
        assert brute_force_dim(gens) == 0


class TestFullRankEnumeration:
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2)])
    def test_matches_formula(self, z4, z6, m, n):
        for ring in (z4, z6):
            assert count_full_rank_enumerated(m, n, ring) == count_full_rank(
                m, n, ring
            )


def _enumerated_count(m, n, ring):
    return len(enumerate_subspaces(m, n, ring))


class TestHarness:
    @staticmethod
    def _lines_of_z4_plane(monkeypatch, z4, formula):
        from ringspace.oracle import SUITES

        item = SuiteItem("lines of Z4^2", formula, _enumerated_count, (1, 2, z4))
        monkeypatch.setitem(SUITES, "counts", lambda: [item])
        return verify_counts("counts")

    def test_all_reports_match_on_real_items(self, monkeypatch, z4):
        reports = self._lines_of_z4_plane(monkeypatch, z4, count_subspaces)
        assert len(reports) == 1
        assert reports[0].match
        assert reports[0].formula_value == reports[0].enumerated_value == 6

    def test_harness_catches_a_wrong_formula(self, monkeypatch, z4):
        def broken(m, n, ring):
            return count_subspaces(m, n, ring) + 1

        reports = self._lines_of_z4_plane(monkeypatch, z4, broken)
        assert not reports[0].match
        assert reports[0].formula_value == 7
        assert reports[0].enumerated_value == 6

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            verify_counts(suite="nope")

    def test_suite_sizes_and_unique_queries(self):
        from ringspace.oracle import SUITES

        sizes = {name: len(build()) for name, build in SUITES.items()}
        assert sizes == {"counts": 251, "algebra": 8, "geometry": 7}
        queries = [item.query for build in SUITES.values() for item in build()]
        assert len(queries) == len(set(queries)) == 266

    def test_named_suites_resolve(self):
        from ringspace.oracle import SUITES

        assert set(SUITES) == {"counts", "algebra", "geometry"}
