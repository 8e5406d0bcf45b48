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
from ringspace import errors, oracle, subspace, zps
from ringspace.errors import charge_power
from ringspace.oracle import (
    DEFAULT_BUDGET,
    SuiteItem,
    extend_subspace,
    iter_vectors,
)
from ringspace.subspace import point_sort_key, shape_count, subspaces


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

    @pytest.mark.parametrize(
        "name,n,m",
        [
            ("Z6", 3, 2), ("Z6", 3, 3), ("Z12", 3, 3), ("Z2xZ2", 3, 2),
            ("Z2xZ2", 3, 3), ("Z9", 2, 2), ("Z27", 2, 2),
        ],
    )
    def test_raise_point_is_the_pair_total(self, name, n, m):
        # the (parent, point) pairs of the levels below m, which here exceed
        # the |R|^n charged for the points
        ring = parse_ring(name)
        levels = list(itertools.islice(_extend_and_dedup_levels(n, ring), m))
        pairs = sum(map(len, levels)) * len(levels[1])
        assert pairs > ring.order**n
        found = enumerate_subspaces(m, n, ring, budget=pairs)
        assert len(found) == count_subspaces(m, n, ring)
        with pytest.raises(BudgetExceededError, match="^enumeration budget"):
            enumerate_subspaces(m, n, ring, budget=pairs - 1)

    @pytest.mark.parametrize("name,n", [("Z2", 4), ("Z4", 3), ("Z6", 3), ("Z2xZ2", 3)])
    def test_budget_bounds_the_rows_built(self, name, n):
        """A call the budget passes builds no more rows than the budget."""
        ring = parse_ring(name)
        for m in range(1, n + 1):
            rows = m * len(enumerate_subspaces(m, n, ring))
            with pytest.raises(BudgetExceededError, match="^enumeration budget"):
                enumerate_subspaces(m, n, ring, budget=rows - 1)

    def test_no_level_charges_nothing(self, z6):
        assert enumerate_subspaces(0, 3, z6, budget=0) == [Subspace.zero(z6, 3)]
        assert enumerate_subspaces(4, 3, z6, budget=0) == []
        assert enumerate_subspaces(-1, 3, z6, budget=0) == []

    @pytest.mark.parametrize(
        "name", ["Z2", "Z4", "Z8", "Z9", "Z27", "Z25", "Z2xZ4", "Z12", "Z5xZ25"]
    )
    def test_shape_count_is_the_formula(self, name):
        ring = parse_ring(name)
        for n in range(7):
            for m in range(n + 1):
                want = count_subspaces(m, n, ring)
                assert shape_count(m, n, ring) == want
                if want <= 2000:
                    assert len(subspaces(m, n, ring)) == want

    @pytest.mark.parametrize("name,n", [("Z6", 4), ("Z2xZ9", 3), ("Z30", 2)])
    def test_built_in_canonical_order(self, name, n):
        """Each component's list is sorted, so the product over several
        components comes out sorted by ``canons`` with no sort of its own."""
        ring = parse_ring(name)
        for m in range(n + 1):
            got = enumerate_subspaces(m, n, ring, budget=10**7)
            assert len(got) == count_subspaces(m, n, ring)
            assert got == sorted(got, key=lambda s: s.canons)

    def test_refused_call_builds_nothing(self, monkeypatch, z2, z6):
        def build(*args, **kwargs):
            raise AssertionError("built before the budget was charged")

        for module in (oracle, subspace):
            monkeypatch.setattr(module, "points", build, raising=False)
            monkeypatch.setattr(module, "subspaces", build, raising=False)
        # 2^19 - 1 points fit the default budget, their pairs do not
        for m, n, ring in [(2, 19, z2), (3, 4, z6)]:
            with pytest.raises(BudgetExceededError, match="^enumeration budget"):
                enumerate_subspaces(m, n, ring)

    def test_extension_step(self):
        """Every subspace of every dimension, the full one included, against
        every point: None exactly when the stacked rows lose residue rank in
        some component, else a subspace one larger that holds both."""
        for spec, n in [("Z4", 2), ("Z6", 3), ("Z2xZ4", 2)]:
            ring = parse_ring(spec)
            subs = [s for m in range(n + 1) for s in enumerate_subspaces(m, n, ring)]
            for sub, pt in itertools.product(subs, enumerate_points(n, ring)):
                ext = extend_subspace(sub, pt)
                free = all(
                    zps.rank_mod_p(canon + ptc, n, c.prime) == sub.dim + 1
                    for canon, ptc, c in zip(sub.canons, pt.canons, ring.components)
                )
                assert (ext is not None) == free
                if ext is not None:
                    assert ext.dim == sub.dim + 1
                    assert ext.contains(sub)
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


class TestBudgetChargedFirst:
    """An enumerator charges what a scan costs before it walks a vector, so
    a refused call does none of the scan."""

    @pytest.fixture(autouse=True)
    def no_walk(self, monkeypatch):
        def walk(*args):
            raise AssertionError("iter_vectors called")

        monkeypatch.setattr(oracle, "iter_vectors", walk)

    def test_full_rank_scan(self, z6):
        # 6^9 matrices against the default 10^6
        with pytest.raises(BudgetExceededError, match="^enumeration budget"):
            count_full_rank_enumerated(3, 3, z6)

    def test_brute_force_dim_span(self, z6):
        # 6^8 coefficient vectors against the default 10^6
        rng = random.Random(8)
        gens = Matrix.from_entries(
            z6, [[rng.randrange(6) for _ in range(4)] for _ in range(8)]
        )
        with pytest.raises(BudgetExceededError, match="^enumeration budget"):
            brute_force_dim(gens)


@pytest.mark.parametrize(
    "count,spent",
    [
        # Z2^{2x2}: 16 matrices
        (lambda budget: count_full_rank_enumerated(2, 2, parse_ring("Z2"), budget), 16),
        # Z6^{2x2}: 6^4 matrices
        (lambda budget: count_full_rank_enumerated(2, 2, parse_ring("Z6"), budget), 1296),
        # Z4^2 coefficient vectors, then the family {(1,0), (3,0)} fails
        # and the family {(1,0)} passes
        (
            lambda budget: brute_force_dim(
                Matrix.from_entries(parse_ring("Z4"), [[1, 0], [2, 0]]), budget
            ),
            18,
        ),
    ],
    ids=["full rank", "full rank Z6", "brute-force dim"],
)
def test_scan_budget_raise_points(count, spent):
    count(spent)
    with pytest.raises(BudgetExceededError, match="^enumeration budget"):
        count(spent - 1)


@pytest.mark.parametrize("base", [2, 3, 12])
def test_charge_power_refuses_as_the_power_would(monkeypatch, base):
    """charge_power raises exactly when base ** exponent exceeds the budget,
    and an exponent at or past the budget's bit length is refused before
    the power is taken."""
    budgets = [-1, 0, 1] + [b for k in (1, 2, 5, 12) for b in (2**k - 1, 2**k)]
    for budget in budgets:
        bits = budget.bit_length()
        for exponent in range(max(bits - 3, 0), bits + 3):
            if base**exponent > budget:
                with pytest.raises(BudgetExceededError, match="^enumeration budget"):
                    charge_power(base, exponent, budget)
            else:
                charge_power(base, exponent, budget)
    with monkeypatch.context() as m:
        m.setattr(errors, "charge", None)
        with pytest.raises(BudgetExceededError):
            charge_power(base, 10**12, 2**40)


class TestFullRankEnumeration:
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2)])
    def test_matches_formula(self, z4, z6, m, n):
        for ring in (z4, z6):
            assert count_full_rank_enumerated(m, n, ring) == count_full_rank(
                m, n, ring
            )

    def test_rank_taken_once_per_component_matrix(self, monkeypatch, z6):
        """Z6 = Z2 x Z3: at most 2^4 + 3^4 = 97 distinct component matrices."""
        calls = []
        rank = zps.rank_mod_p
        monkeypatch.setattr(zps, "rank_mod_p", lambda *args: calls.append(args) or rank(*args))
        assert count_full_rank_enumerated(2, 2, z6) == count_full_rank(2, 2, z6)
        assert 0 < len(calls) <= 97

    def test_refused_before_any_rank(self, monkeypatch, z6):
        def rank(*args):
            raise AssertionError("rank taken")

        monkeypatch.setattr(zps, "rank_mod_p", rank)
        with pytest.raises(BudgetExceededError, match="^enumeration budget"):
            count_full_rank_enumerated(3, 3, z6)
        with pytest.raises(BudgetExceededError, match="^enumeration budget"):
            count_full_rank_enumerated(2, 2, z6, 6**4 - 1)

    @pytest.mark.parametrize("spec", ["Z2", "Z4", "Z6", "Z2xZ2", "Z10", "Z12"])
    def test_matches_formula_up_to_1e5_matrices(self, spec):
        ring = parse_ring(spec)
        n = 0
        while ring.order**n <= 10**5:
            for m in range(n + 1):
                if ring.order ** (m * n) <= 10**5:
                    assert count_full_rank_enumerated(m, n, ring) == count_full_rank(
                        m, n, ring
                    ), (m, n)
            n += 1


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
        assert sizes == {"counts": 401, "algebra": 8, "geometry": 13}
        queries = [item.query for build in SUITES.values() for item in build()]
        assert len(queries) == len(set(queries)) == 422

    def test_named_suites_resolve(self):
        from ringspace.oracle import SUITES

        assert set(SUITES) == {"counts", "algebra", "geometry"}
