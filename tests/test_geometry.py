"""Arcs and caps: verification, projections, completeness, tables, search."""

import itertools
import random

import pytest

from ringspace import (
    BudgetExceededError,
    DomainError,
    InternalError,
    Matrix,
    NotAnArcError,
    PointSet,
    ShapeMismatchError,
    Subspace,
    enumerate_points,
    extend_arc,
    extend_cap,
    is_arc,
    is_cap,
    is_complete_arc,
    is_complete_cap,
    max_arc_size_formula,
    max_cap_size_formula,
    parse_ring,
    project_point_set,
    search_max_arc,
    search_max_cap,
)
from ringspace import geometry, oracle, zps


def all_arcs(ring, n, limit=None):
    """Every arc of R^n, grown point by point in canonical order."""
    points = enumerate_points(n, ring)
    found = []

    def grow(current, start):
        found.append(current)
        if limit is not None and len(current) >= limit:
            return
        for i in range(start, len(points)):
            cand = PointSet.of(ring, n, current.points + (points[i],))
            if len(cand.points) == len(current.points) + 1 and is_arc(cand):
                grow(cand, i + 1)

    grow(PointSet.of(ring, n, []), 0)
    return found


def all_caps(ring, n, limit=None):
    points = enumerate_points(n, ring)
    found = []

    def grow(current, start):
        found.append(current)
        if limit is not None and len(current) >= limit:
            return
        for i in range(start, len(points)):
            cand = PointSet.of(ring, n, current.points + (points[i],))
            if len(cand.points) == len(current.points) + 1 and is_cap(cand):
                grow(cand, i + 1)

    grow(PointSet.of(ring, n, []), 0)
    return found


def _stack_has_rank(points, ring, n, want):
    """Reference: the stack has residue rank ``want`` in every component."""
    for ci, comp in enumerate(ring.components):
        rows = [p.canons[ci][0] for p in points]
        if zps.rank_mod_p(rows, n, comp.prime) != want:
            return False
    return True


def _admits(ps, cand, k):
    """Reference: adding cand keeps every k points (all, when fewer) in
    general position, by one rank test per (k-1)-subset."""
    pts = ps.points
    if len(pts) + 1 <= k:
        return _stack_has_rank(pts + (cand,), ps.ring, ps.ambient, len(pts) + 1)
    return all(
        _stack_has_rank(subset + (cand,), ps.ring, ps.ambient, k)
        for subset in itertools.combinations(pts, k - 1)
    )


def _ref_extensions(ps, k):
    existing = {p.canons for p in ps.points}
    return [
        c
        for c in enumerate_points(ps.ambient, ps.ring)
        if c.canons not in existing and _admits(ps, c, k)
    ]


def _walk_and_filter(ps, k):
    """Reference: span covering over a walk of every point of R^n, keeping
    the points whose residue key is blocked in no component."""
    primes = [c.prime for c in ps.ring.components]
    blocked = [set() for _ in primes]
    rows = [[canon[0] for canon in pt.canons] for pt in ps.points]
    for stack in itertools.combinations(rows, min(len(rows), k - 1)):
        for ci, (p, keys) in enumerate(zip(primes, blocked)):
            basis = ()
            for pt_rows in stack:
                basis = zps.echelon_add_mod_p(basis, pt_rows[ci], p)
                if basis is None:
                    return []
            keys.update(zps.span_points_mod_p(basis, p))
    return [
        c
        for c in enumerate_points(ps.ambient, ps.ring)
        if not any(
            tuple(x % p for x in canon[0]) in keys
            for canon, p, keys in zip(c.canons, primes, blocked)
        )
    ]


def _ref_in_general_position(ps, k):
    pts = ps.points
    if len(pts) < k:
        return _stack_has_rank(pts, ps.ring, ps.ambient, len(pts))
    return all(
        _stack_has_rank(subset, ps.ring, ps.ambient, k)
        for subset in itertools.combinations(pts, k)
    )


def _full_check_search(base, candidates, k, ring, n, bounded=False):
    """The search without forward checking: every node tests each later
    candidate against all of current.  Returns the best set and the nodes.

    With ``bounded`` a node stops, as ``geometry._search`` does, once
    current plus its admitted candidates left cannot beat best."""
    best = list(base)
    nodes = 0

    def dfs(current, cands):
        nonlocal best, nodes
        nodes += 1
        if len(current) > len(best):
            best = list(current)
        ps = PointSet(ring, n, tuple(current))
        admitted = [c for c in cands if _admits(ps, c, k)]
        for i, cand in enumerate(admitted):
            if bounded and len(current) + len(admitted) - i <= len(best):
                break
            dfs(current + [cand], admitted[i + 1 :])

    dfs(list(base), candidates)
    return best, nodes


class TestArcPredicate:
    def test_frame_plus_ones(self, z4):
        ps = PointSet.from_rows(z4, [[1, 0], [0, 1], [1, 1]])
        assert is_arc(ps)

    def test_residue_collision_breaks_arc(self, z4):
        ps = PointSet.from_rows(z4, [[1, 0], [0, 1], [1, 1], [1, 2]])
        # (1,0) and (1,2) agree mod 2, so some pair has residue rank 1
        assert not is_arc(ps)

    def test_single_point(self, z4):
        assert is_arc(PointSet.from_rows(z4, [[1, 0]]))

    def test_small_sets_need_general_position(self, z4):
        ps = PointSet.from_rows(z4, [[1, 0, 0], [1, 2, 0]])
        assert not is_arc(ps)

    def test_ambient_too_small(self, z4):
        with pytest.raises(ShapeMismatchError):
            is_arc(PointSet.from_rows(z4, [[1]]))

    def test_point_identification(self, z4):
        # (3,0) is a unit multiple of (1,0): same point
        ps = PointSet.from_rows(z4, [[1, 0], [3, 0]])
        assert len(ps.points) == 1


class TestCapPredicate:
    def test_frame_plus_ones_z2(self, z2):
        ps = PointSet.from_rows(z2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
        assert is_cap(ps)

    def test_three_points_in_a_plane(self, z2):
        ps = PointSet.from_rows(z2, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])
        assert not is_cap(ps)

    def test_two_points_pass(self, z4):
        assert is_cap(PointSet.from_rows(z4, [[1, 0, 0], [0, 1, 0]]))

    def test_needs_three_dimensions(self, z4):
        with pytest.raises(ShapeMismatchError):
            is_cap(PointSet.from_rows(z4, [[1, 0], [0, 1]]))


class TestProjection:
    def test_projection_of_arc(self, z4):
        ps = PointSet.from_rows(z4, [[1, 0], [0, 1], [1, 1]])
        proj = project_point_set(ps, 0)
        assert proj.ring.order == 2
        assert len(proj.points) == 3
        assert is_arc(proj)

    def test_projection_over_field_is_identity(self, z2):
        ps = PointSet.from_rows(z2, [[1, 0], [0, 1]])
        proj = project_point_set(ps, 0)
        assert {p.canons for p in proj.points} == {p.canons for p in ps.points}

    def test_collision_reported(self, z4):
        ps = PointSet.from_rows(z4, [[1, 0], [1, 2]])
        with pytest.raises(DomainError):
            project_point_set(ps, 0)

    @pytest.mark.parametrize("name,n", [("Z4", 3), ("Z9", 3), ("Z12", 3), ("Z2xZ3", 3)])
    def test_projection_matches_rref_route(self, name, n):
        """Each point projects to its residue row reduced by ``rref_unit``."""
        ring = parse_ring(name)
        for pt in enumerate_points(n, ring):
            for i, comp in enumerate(ring.components):
                p = comp.prime
                field = parse_ring(f"Z{p}")
                row = tuple(x % p for x in pt.canons[i][0])
                canon, piv = zps.rref_unit((row,), n, p, p)
                want = PointSet.of(field, n, [Subspace(field, n, 1, (canon,), (piv,))])
                assert project_point_set(PointSet.of(ring, n, [pt]), i) == want

    def test_every_arc_projects_to_arcs_of_equal_size(self, z6):
        for ps in all_arcs(z6, 2):
            for i in range(z6.ell):
                proj = project_point_set(ps, i)
                assert len(proj.points) == len(ps.points)
                assert is_arc(proj) or len(ps.points) == 0


class TestCompleteness:
    def test_maximum_arc_is_complete(self, z4):
        ps = PointSet.from_rows(z4, [[1, 0], [0, 1], [1, 1]])
        assert is_complete_arc(ps)
        assert extend_arc(ps) == []

    def test_short_arc_extends(self, z2):
        ps = PointSet.from_rows(z2, [[1, 0], [0, 1]])
        assert not is_complete_arc(ps)
        ext = extend_arc(ps)
        assert [p.canons[0][0] for p in ext] == [(1, 1)]

    def test_cap_extension_z2(self, z2):
        ps = PointSet.from_rows(z2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        ext = extend_cap(ps)
        assert [p.canons[0][0] for p in ext] == [(1, 1, 1)]

    def test_non_arc_rejected(self, z4):
        ps = PointSet.from_rows(z4, [[1, 0], [0, 1], [1, 1], [1, 2]])
        with pytest.raises(NotAnArcError):
            is_complete_arc(ps)

    def test_dual_route_agreement_all_arcs_z4(self, z4):
        for ps in all_arcs(z4, 2):
            if len(ps.points) == 0:
                continue
            is_complete_arc(ps)  # internal assertion compares both routes

    def test_dual_route_agreement_all_caps_z4_cubed(self, z4):
        for ps in all_caps(z4, 3):
            if len(ps.points) == 0:
                continue
            is_complete_cap(ps)


# spaces for the query equivalence test: fields, chain rings and products,
# with one residue field or several
QUERY_SPACES = [
    ("Z2", 4), ("Z4", 3), ("Z6", 3), ("Z8", 3), ("Z9", 3), ("Z12", 3),
    ("Z15", 3), ("Z5xZ5", 3), ("Z35", 2), ("Z5", 4), ("Z2xZ3", 4),
]


@pytest.mark.parametrize("name,n", QUERY_SPACES)
def test_queries_match_rank_reference(name, n):
    """Extension, completeness and membership queries give the answers of
    rank-testing every candidate against every (k-1)-subset, on seeded
    greedy complete sets and their prefixes."""
    ring = parse_ring(name)
    points = enumerate_points(n, ring)
    rng = random.Random(f"{name}^{n}")
    kinds = [(n, extend_arc, is_complete_arc, is_arc)]
    if n >= 3:
        kinds.append((3, extend_cap, is_complete_cap, is_cap))
    for k, extend, is_complete, is_kind in kinds:
        order = list(points)
        rng.shuffle(order)
        full = []
        for c in order:
            if _admits(PointSet(ring, n, tuple(full)), c, k):
                full.append(c)
        for prefix in (full, full[:-1], full[: (len(full) + 1) // 2], full[:1], []):
            ps = PointSet.of(ring, n, prefix)
            want = [p.canons for p in _ref_extensions(ps, k)]
            assert [p.canons for p in extend(ps)] == want
            assert is_complete(ps) == (not want)
        # random (n+2)-subsets, and (k-1)-subsets for the small-set rule
        for _ in range(20):
            near_full = full + rng.sample(points, 2)
            for size, pool in itertools.product((n + 2, k - 1), (points, near_full)):
                sample = PointSet.of(ring, n, rng.sample(pool, min(len(pool), size)))
                assert is_kind(sample) == _ref_in_general_position(sample, k)


@pytest.mark.parametrize("name,n", QUERY_SPACES + [("Z3", 4), ("Z6", 2), ("Z4", 2)])
def test_extensions_match_walk_and_filter(name, n):
    """The extension queries build only the unblocked points; they list the
    points that filtering every point of R^n keeps, in the same order, for
    seeded greedy complete sets, their prefixes, the empty set, and every
    residue-field projection (the second completeness route)."""
    ring = parse_ring(name)
    rng = random.Random(f"walk {name}^{n}")
    kinds = [(n, extend_arc)] + ([(3, extend_cap)] if n >= 3 else [])
    for k, extend in kinds:
        full = []
        while cands := _walk_and_filter(PointSet.of(ring, n, full), k):
            full.append(rng.choice(cands))
        for prefix in (full, full[:-1], full[: (len(full) + 1) // 2], full[:1], []):
            ps = PointSet.of(ring, n, prefix)
            for s in [ps] + [project_point_set(ps, i) for i in range(ring.ell)]:
                assert extend(s) == _walk_and_filter(s, k)


def test_queries_list_no_points(monkeypatch, z6):
    """No query or search walks the points of R^n."""

    def walk(*args, **kwargs):
        raise AssertionError("enumerate_points called")

    monkeypatch.setattr(oracle, "enumerate_points", walk)
    # also the name a module may have imported from oracle
    monkeypatch.setattr(geometry, "enumerate_points", walk, raising=False)
    ps = PointSet.from_rows(z6, [[1, 0, 0], [0, 1, 0]])
    for query in (extend_arc, extend_cap, is_complete_arc, is_complete_cap):
        query(ps)
    assert len(search_max_arc(2, z6).points) == 3
    assert len(search_max_cap(3, z6).points) == 4


@pytest.mark.parametrize(
    "kind,spec,n", [("arc", "Z4", 3), ("cap", "Z6", 3), ("arc", "Z2xZ3", 2), ("cap", "Z9", 3)]
)
def test_budget_charges_every_point_first(monkeypatch, kind, spec, n):
    """extend, complete and search charge |R|^n units before any other work:
    |R|^n - 1 raises and |R|^n passes, on full, half and empty sets."""
    ring = parse_ring(spec)
    size = ring.order**n
    search = getattr(geometry, f"search_max_{kind}")
    extend = getattr(geometry, f"extend_{kind}")
    complete = getattr(geometry, f"is_complete_{kind}")
    full = search(n, ring, size).points
    for pts in (full, full[: len(full) // 2], ()):
        ps = PointSet.of(ring, n, pts)
        assert extend(ps, size) == extend(ps)
        assert complete(ps, size) == (len(pts) == len(full))
        with monkeypatch.context() as m:
            # no span may be marked before the budget raises
            m.setattr(zps, "span_points_mod_p", None)
            for query in (extend, complete):
                with pytest.raises(BudgetExceededError, match="^enumeration budget"):
                    query(ps, size - 1)
    with pytest.raises(BudgetExceededError, match="^enumeration budget"):
        search(n, ring, size - 1)


def _counting(monkeypatch, name):
    """Wrap zps.<name> so each call is recorded; returns the call list."""
    calls = []
    kernel = getattr(zps, name)
    monkeypatch.setattr(zps, name, lambda *args: calls.append(args) or kernel(*args))
    return calls


@pytest.mark.parametrize("size", [3, 6, 10])
def test_extensions_reduce_each_prefix_once(monkeypatch, z3, size):
    """On an N-point cap over a prime field the covering makes N-1 + C(N,2)
    echelon_add_mod_p calls: one per first point of a secant, one per secant."""
    ps = PointSet.of(z3, 4, search_max_cap(4, z3).points[:size])
    calls = _counting(monkeypatch, "echelon_add_mod_p")
    geometry._extensions(ps, 3, 10**6)
    assert len(calls) == size - 1 + size * (size - 1) // 2


def test_complete_covers_spans_on_both_routes(monkeypatch, z3):
    """is_complete_cap covers every secant once directly and once through
    the residue-field projection: 2 C(N,2) span_points_mod_p calls."""
    ps = search_max_cap(4, z3)
    calls = _counting(monkeypatch, "span_points_mod_p")
    assert is_complete_cap(ps)
    assert len(calls) == len(ps) * (len(ps) - 1)


def test_extensions_raise_on_dependent_stack(z4):
    """A stack dependent mod p is a caller's bug: [1,0,0] and [1,2,0] of
    Z4^3 share their residue mod 2."""
    ps = PointSet.from_rows(z4, [[1, 0, 0], [1, 2, 0]])
    with pytest.raises(InternalError, match="dependent"):
        geometry._extensions(ps, 3, 10**6)


class TestSizeTables:
    def test_arc_values(self, z4, z6):
        assert max_arc_size_formula(2, z4) == 3
        assert max_arc_size_formula(2, z6) == 3
        assert max_arc_size_formula(3, z4) == 4
        assert max_arc_size_formula(3, z6) == 4
        assert max_arc_size_formula(4, z6) == 5
        assert max_arc_size_formula(5, z4) == 6

    def test_arc_unknown_outside_table(self):
        z5 = parse_ring("Z5")
        # ambient 4 needs q > 3 everywhere; Z10 mixes q=2 and q=5
        assert max_arc_size_formula(4, parse_ring("Z10")) is None
        assert max_arc_size_formula(4, z5) == 6

    def test_cap_values(self, z2, z3, z4, z6):
        assert max_cap_size_formula(3, z4) == 4
        assert max_cap_size_formula(3, z6) == 4
        assert max_cap_size_formula(4, z2) == 8
        assert max_cap_size_formula(4, z4) == 8
        assert max_cap_size_formula(4, z3) == 10
        assert max_cap_size_formula(5, z3) == 20
        assert max_cap_size_formula(6, z3) == 56
        assert max_cap_size_formula(5, z2) == 16

    def test_cap_unknown_for_mixed_q_dim4(self, z6):
        assert max_cap_size_formula(4, z6) is None

    def test_preconditions(self, z4):
        with pytest.raises(ShapeMismatchError):
            max_arc_size_formula(1, z4)
        with pytest.raises(ShapeMismatchError):
            max_cap_size_formula(2, z4)


class TestSearch:
    # each table row the search reaches in well under a second
    @pytest.mark.parametrize(
        "spec,n,size",
        [
            ("Z4", 2, 3), ("Z6", 2, 3), ("Z4", 3, 4), ("Z6", 3, 4), ("Z3", 4, 5),
            ("Z3", 5, 6), ("Z5", 5, 6), ("Z7", 4, 8), ("Z7", 5, 8), ("Z11", 3, 12),
            ("Z35", 3, 6), ("Z13", 3, 14),
        ],
    )
    def test_max_arc(self, spec, n, size):
        ring = parse_ring(spec)
        ps = search_max_arc(n, ring)
        assert len(ps.points) == size
        assert is_arc(ps)
        assert is_complete_arc(ps)
        assert len(ps.points) == max_arc_size_formula(n, ring)

    @pytest.mark.parametrize(
        "spec,n,size",
        [("Z4", 3, 4), ("Z6", 3, 4), ("Z2", 4, 8), ("Z2", 5, 16), ("Z10", 3, 4),
         ("Z15", 3, 4), ("Z2", 6, 32), ("Z11", 3, 12)],
    )
    def test_max_cap(self, spec, n, size):
        ring = parse_ring(spec)
        ps = search_max_cap(n, ring)
        assert len(ps.points) == size
        assert is_cap(ps)
        assert is_complete_cap(ps)
        assert len(ps.points) == max_cap_size_formula(n, ring)

    def test_search_is_deterministic(self, z4):
        a = search_max_arc(2, z4)
        b = search_max_arc(2, z4)
        assert [p.canons for p in a.points] == [p.canons for p in b.points]

    def test_search_matches_exhaustive_enumeration(self, z4):
        best = max(len(ps.points) for ps in all_arcs(z4, 2))
        assert len(search_max_arc(2, z4).points) == best

    def test_budget_guard(self, z2):
        with pytest.raises(BudgetExceededError):
            search_max_cap(4, z2, budget=2)

    def test_max_cap_z3_4(self, z3):
        # the largest search the benchmark runs
        ps = search_max_cap(4, z3)
        assert len(ps.points) == 10 == max_cap_size_formula(4, z3)
        assert is_cap(ps)
        assert is_complete_cap(ps)

    @pytest.mark.parametrize(
        "kind,n,spec",
        [
            ("arc", 3, "Z5"),
            ("arc", 3, "Z7"),
            ("arc", 4, "Z5"),
            ("arc", 4, "Z7"),
            ("cap", 3, "Z5"),
            ("cap", 3, "Z4"),
            ("cap", 4, "Z2"),
            ("arc", 3, "Z6"),
            ("arc", 3, "Z12"),
            ("cap", 3, "Z2xZ3"),
            ("cap", 3, "Z8"),
            ("cap", 3, "Z9"),
            # both residue fields leave room to search beyond the frame
            ("arc", 2, "Z35"),
            ("arc", 3, "Z5xZ5"),
            ("cap", 3, "Z15"),
            ("arc", 2, "Z5xZ25"),
        ],
    )
    def test_forward_checking_matches_full_check(self, kind, n, spec):
        """The search returns what the unbounded search that tests every
        later candidate against all of current returns, and the budget runs
        out where the same search with the size bound runs out, at no more
        nodes than the unbounded one."""
        ring = parse_ring(spec)
        k = n if kind == "arc" else 3
        frame = [[int(i == j) for j in range(n)] for i in range(k)]
        if kind == "arc":
            frame.append([1] * n)
        base_set = PointSet.from_rows(ring, frame)
        base = list(base_set.points)
        pinned = {p.canons for p in base}
        candidates = [
            c
            for c in enumerate_points(n, ring)
            if c.canons not in pinned and _admits(base_set, c, k)
        ]
        assert getattr(geometry, f"extend_{kind}")(base_set) == candidates
        want, nodes = _full_check_search(base, candidates, k, ring, n)
        found = getattr(geometry, f"search_max_{kind}")(n, ring)
        assert found.points == PointSet.of(ring, n, want).points
        bounded, pruned = _full_check_search(base, candidates, k, ring, n, True)
        assert [p.canons for p in bounded] == [p.canons for p in want]
        assert pruned <= nodes
        got = geometry._search(base, candidates, k, ring, n, pruned)
        assert [p.canons for p in got] == [p.canons for p in want]
        with pytest.raises(BudgetExceededError):
            geometry._search(base, candidates, k, ring, n, pruned - 1)

    def test_benchmark_search_raise_points(self, z3):
        """The benchmark's two costly searches spend exactly these nodes.

        The arc search over Z7^4 first charges |R|^n = 2,401 units for its
        candidates, so under a budget of 60 it stops there."""
        found = search_max_cap(4, z3, budget=2_625)
        assert found.points == search_max_cap(4, z3).points
        with pytest.raises(BudgetExceededError, match="^search budget"):
            search_max_cap(4, z3, budget=2_624)
        z7 = parse_ring("Z7")
        base_set = PointSet.from_rows(z7, [*zps.identity(4), (1,) * 4])
        base = list(base_set.points)
        candidates = extend_arc(base_set)
        got = geometry._search(base, candidates, 4, z7, 4, 60)
        assert got == list(search_max_arc(4, z7).points)
        with pytest.raises(BudgetExceededError, match="^search budget"):
            geometry._search(base, candidates, 4, z7, 4, 59)
        with pytest.raises(BudgetExceededError, match="^enumeration budget"):
            search_max_arc(4, z7, budget=60)

    @pytest.mark.parametrize("kind", ["arc", "cap"])
    def test_budget_refused_before_the_frame(self, monkeypatch, z2, kind):
        """Building and checking the pinned frame costs about n^2 and is
        charged nothing, so a search refuses on its |R|^n charge first."""

        def frame(*args):
            raise AssertionError("the frame was built or checked")

        search = getattr(geometry, f"search_max_{kind}")
        for name in ("is_arc", "is_cap"):
            monkeypatch.setattr(geometry, name, frame)
        monkeypatch.setattr(zps, "identity", frame)
        for budget in (0, 2**10 - 1):
            with pytest.raises(BudgetExceededError, match="^enumeration budget"):
                search(10, z2, budget)
        with pytest.raises(AssertionError, match="frame was built"):
            search(10, z2, 2**10)


class TestLifting:
    def test_crt_combined_component_arcs_form_an_arc(self, z6):
        """Componentwise arcs of a common size assemble to an arc over the
        product, by combining representatives entry by entry."""
        f2_rows = [(1, 0), (0, 1), (1, 1)]
        f3_rows = [(1, 0), (0, 1), (1, 2)]
        combined = [
            [(a2, a3), (b2, b3)]
            for (a2, b2), (a3, b3) in zip(f2_rows, f3_rows)
        ]
        ps = PointSet.from_rows(z6, combined)
        assert len(ps.points) == 3
        assert is_arc(ps)
