"""Subspace canonical forms, meet/join, freeness promotion, duality."""

import itertools
import random
from dataclasses import FrozenInstanceError, dataclass, replace

import pytest
from hypothesis import given, settings, strategies as st

from ringspace import (
    HypothesisNotMetError,
    Matrix,
    NotASubspaceError,
    NotFullRankError,
    RingMismatchError,
    Subspace,
    LinearSubset,
    as_subspace,
    dimension_formula_status,
    dual,
    duality_laws,
    enumerate_points,
    enumerate_subspaces,
    gl_inverse,
    join,
    mccoy_rank,
    meet,
    parse_ring,
    subspace_span,
)
from ringspace import subspace, zps
from ringspace.ring import Ring
from strategies import free_subspace


def span_vectors(sub):
    """All vectors of the subspace, from brute-force coefficient scanning."""
    ring = sub.ring
    out = set()
    coeff_space = itertools.product(
        *[
            itertools.product(*(range(c.order) for c in ring.components))
            for _ in range(sub.dim)
        ]
    )
    for coeffs in coeff_space:
        vec = []
        for ci, comp in enumerate(ring.components):
            pe = comp.order
            vec.append(
                tuple(
                    sum(
                        coeffs[r][ci] * sub.canons[ci][r][j]
                        for r in range(sub.dim)
                    )
                    % pe
                    for j in range(sub.ambient)
                )
            )
        out.add(tuple(vec))
    return out


def random_invertible(rng, ring, n):
    while True:
        a = Matrix.from_entries(
            ring, [[rng.randrange(ring.order) for _ in range(n)] for _ in range(n)]
        )
        if mccoy_rank(a) == n:
            return a


class TestCanonicalForm:
    def test_canonical_under_gl_action(self, z4, z6):
        rng = random.Random(3)
        for ring in (z4, z6):
            for sub in enumerate_subspaces(1, 2, ring) + enumerate_subspaces(2, 3, ring):
                u = random_invertible(rng, ring, sub.dim)
                moved = Subspace.from_matrix(u.mul(sub.display))
                assert moved == sub

    def test_non_unit_pivot_line(self, z4):
        s = Subspace.from_matrix(Matrix.from_entries(z4, [[2, 1]]))
        assert s.dim == 1
        assert s.canons[0] == ((2, 1),)

    def test_rejects_dependent_rows(self):
        cases = [("Z4", [[2, 0]]), ("Z4", [[1, 0], [1, 2]]), ("Z12", [[3, 0]]),
                 ("Z2xZ2", [[(1, 0), (1, 0)]])]
        for spec, rows in cases:
            a = Matrix.from_entries(parse_ring(spec), rows)
            with pytest.raises(NotFullRankError, match="^rows do not span a free direct summand$"):
                Subspace.from_matrix(a)

    def test_zero_and_full(self, z6):
        z = Subspace.zero(z6, 2)
        f = Subspace.from_matrix(Matrix.identity(z6, 2))
        assert z.dim == 0 and f.dim == 2
        assert f.contains(z)

    def test_contains_vector(self, z4):
        s = Subspace.from_matrix(Matrix.from_entries(z4, [[2, 1]]))
        assert s.contains_vector(((0, 0),))
        assert s.contains_vector(((2, 1),))
        assert s.contains_vector(((0, 2),))  # 2 * (2, 1)
        assert not s.contains_vector(((1, 0),))

    def test_mixed_spaces_rejected(self, z4, z6):
        a = Subspace.from_matrix(Matrix.from_entries(z4, [[1, 0]]))
        b = Subspace.from_matrix(Matrix.from_entries(z6, [[1, 0]]))
        with pytest.raises(RingMismatchError):
            meet(a, b)


class TestMeetJoin:
    def test_meet_join_against_vector_sets(self, module_vectors):
        """Over every ordered pair of subspaces of every dimension, the meet's
        vectors are the set intersection and the join's are the span of both
        row sets; membership agrees with both, and the join is the Howell
        form of both row sets stacked, which is unique."""
        for spec, n in [("Z4", 3), ("Z6", 2), ("Z8", 2), ("Z9", 2), ("Z2xZ9", 2)]:
            ring = parse_ring(spec)
            full = span_vectors(Subspace.from_matrix(Matrix.identity(ring, n)))
            subs = [s for m in range(n + 1) for s in enumerate_subspaces(m, n, ring)]
            spans = [span_vectors(s) for s in subs]
            for (a, sa), (b, sb) in itertools.product(zip(subs, spans), repeat=2):
                m, j = meet(a, b), join(a, b)
                both = tuple(ca + cb for ca, cb in zip(a.canons, b.canons))
                assert j == LinearSubset.from_generators(Matrix(ring, a.dim + b.dim, n, both))
                assert module_vectors(ring, n, m.howells) == sa & sb
                assert {v for v in full if m.contains_vector(v)} == sa & sb
                assert module_vectors(ring, n, j.howells) == module_vectors(ring, n, both)
                assert all(j.contains_vector(v) for v in sa | sb)

    def test_status_reduces_once_per_component(self, monkeypatch, z12):
        """Join and meet share one Howell form: Z12 has two components."""
        calls = []
        howell = zps.howell
        monkeypatch.setattr(zps, "howell", lambda *args: calls.append(args) or howell(*args))
        a = Subspace.from_matrix(Matrix.from_entries(z12, [[1, 2, 0], [0, 3, 1]]))
        b = Subspace.from_matrix(Matrix.from_entries(z12, [[0, 1, 4]]))
        dimension_formula_status(a, b)
        assert len(calls) == 2

    def test_counterexample_pair(self, z4):
        a = Subspace.from_matrix(Matrix.from_entries(z4, [[2, 1]]))
        b = Subspace.from_matrix(Matrix.from_entries(z4, [[0, 1]]))
        st = dimension_formula_status(a, b)
        assert st.dim_join == 1
        assert st.dim_meet == 0
        assert not st.formula_holds
        assert not st.join_is_subspace
        assert not st.meet_is_subspace
        # the meet is the nonzero module {(0,0), (0,2)}
        m = meet(a, b)
        assert m.howells[0] == ((0, 2),)
        with pytest.raises(NotASubspaceError):
            as_subspace(m)

    def test_meet_of_line_with_itself(self, z4):
        a = Subspace.from_matrix(Matrix.from_entries(z4, [[2, 1]]))
        st = dimension_formula_status(a, a)
        assert st.formula_holds
        assert as_subspace(meet(a, a)) == a
        assert as_subspace(join(a, a)) == a

    def test_status_fields_exhaustive_z4_plane(self, z4):
        subs = []
        for m in range(3):
            subs.extend(enumerate_subspaces(m, 2, z4))
        for a in subs:
            for b in subs:
                st = dimension_formula_status(a, b)
                assert max(a.dim, b.dim) <= st.dim_join
                assert st.dim_join <= min(2, a.dim + b.dim - st.dim_meet)


class TestDual:
    def test_dual_example(self, z4):
        s = Subspace.from_matrix(Matrix.from_entries(z4, [[2, 1]]))
        d = dual(s)
        assert d.canons[0] == ((1, 2),)

    def test_dual_is_orthogonal_complement(self, z4, z6):
        for ring in (z4, z6):
            for n in (2, 3):
                for m in range(n + 1):
                    for s in enumerate_subspaces(m, n, ring):
                        d = dual(s)
                        assert d.dim == n - m
                        # every pair of rows is orthogonal
                        d_t = Matrix(ring, n, n - m, tuple(tuple(zip(*c)) for c in d.canons))
                        prod = s.display.mul(d_t)
                        assert all(
                            all(all(x == 0 for x in row) for row in comp)
                            for comp in prod.comps
                        )

    def test_dual_involution_and_reversal(self, z4):
        subs = []
        for m in range(3):
            subs.extend(enumerate_subspaces(m, 2, z4))
        for s in subs:
            assert dual(dual(s)) == s
        for a in subs:
            for b in subs:
                if a.contains(b):
                    assert dual(b).contains(dual(a))


class TestDualityLaws:
    def test_laws_hold_when_formula_does(self, z4):
        subs = []
        for m in range(3):
            subs.extend(enumerate_subspaces(m, 2, z4))
        hit = 0
        for a in subs:
            for b in subs:
                st = dimension_formula_status(a, b)
                if not st.formula_holds:
                    with pytest.raises(HypothesisNotMetError):
                        duality_laws(a, b)
                    continue
                laws = duality_laws(a, b)
                assert laws.meet_law_holds and laws.join_law_holds
                hit += 1
        assert hit > 10

    def test_z6_exhaustive_equivalence_and_laws(self, z6):
        subs = []
        for m in range(3):
            subs.extend(enumerate_subspaces(m, 2, z6))
        for a in subs:
            for b in subs:
                # the three-way equivalence is asserted inside the call
                st = dimension_formula_status(a, b)
                if st.formula_holds:
                    laws = duality_laws(a, b)
                    assert laws.meet_law_holds and laws.join_law_holds

    def test_z6_pair_with_mismatched_component_lines(self, z6):
        """Even with field components the formula fails when the two
        projections of the pair sit differently; dim is a min over
        components so join and meet dims decouple."""
        a = Subspace.from_matrix(Matrix.from_entries(z6, [[1, 0]]))
        b = Subspace.from_matrix(Matrix.from_entries(z6, [[(1, 0), (0, 1)]]))
        st = dimension_formula_status(a, b)
        assert (st.dim_join, st.dim_meet) == (1, 0)
        assert not st.formula_holds
        assert not st.meet_is_subspace and not st.join_is_subspace


class TestPromotion:
    def test_as_subspace_of_free_module_with_non_unit_howell(self, z4):
        # generated by (2,1): free of rank 1 though its Howell pivots are 2
        l = LinearSubset.from_generators(Matrix.from_entries(z4, [[2, 1]]))
        s = as_subspace(l)
        assert s.dim == 1
        assert s.canons[0] == ((2, 1),)

    def test_as_subspace_rejects_torsion(self, z4):
        l = LinearSubset.from_generators(Matrix.from_entries(z4, [[2, 0]]))
        with pytest.raises(NotASubspaceError):
            as_subspace(l)

    def test_round_trip_through_span(self, z4, z6):
        for ring in (z4, z6):
            for m in range(3):
                for s in enumerate_subspaces(m, 2, ring):
                    assert as_subspace(subspace_span(s)) == s

    @pytest.mark.parametrize(
        "spec,n,rows",
        [("Z4", 2, 2), ("Z8", 2, 2), ("Z9", 2, 2), ("Z6", 2, 2), ("Z12", 2, 1),
         ("Z2xZ2", 3, 2), ("Z2xZ4", 2, 2), ("Z4", 3, 1)],
    )
    def test_is_free_matches_rank_agreement_rule(self, spec, n, rows):
        """Every module generated by up to ``rows`` rows: the size test
        against ``dim`` agrees with the rule that each component has size
        (p^s)^d for its own mod-p rank d and all components share d."""
        ring = parse_ring(spec)
        entries = list(itertools.product(*(range(c.order) for c in ring.components)))
        for k in range(rows + 1):
            for flat in itertools.product(entries, repeat=k * n):
                gens = [list(flat[i * n : (i + 1) * n]) for i in range(k)]
                l = LinearSubset.from_generators(Matrix.from_entries(ring, gens))
                ranks = set()
                sizes_match = True
                for h, comp in zip(l.howells, ring.components):
                    d = zps.rank_mod_p(h, n, comp.prime)
                    size = zps.module_size(h, comp.prime, comp.exponent)
                    sizes_match &= size == comp.order**d
                    ranks.add(d)
                assert l.is_free == (sizes_match and len(ranks) == 1)

    @pytest.mark.parametrize("spec,n", [("Z4", 2), ("Z6", 2), ("Z2xZ2", 3)])
    def test_is_free_iff_span_of_a_subspace(self, spec, n):
        """The size test agrees with an enumeration of all free summands."""
        ring = parse_ring(spec)
        subs = [s for m in range(n + 1) for s in enumerate_subspaces(m, n, ring)]
        spans = {subspace_span(s): s for s in subs}
        for a in subs:
            for b in subs:
                for l in (meet(a, b), join(a, b)):
                    assert l.is_free == (l in spans)
                    if l.is_free:
                        assert as_subspace(l) == spans[l]
                    else:
                        with pytest.raises(NotASubspaceError):
                            as_subspace(l)


@st.composite
def free_subspaces(draw):
    ring = parse_ring(
        draw(st.sampled_from(["Z4", "Z6", "Z8", "Z9", "Z12", "Z25", "Z2xZ4", "Z3xZ9"]))
    )
    n = draw(st.integers(1, 5))
    return free_subspace(draw, ring, n, draw(st.integers(1, n)))


@st.composite
def subspace_pairs(draw, cases=(("Z64", 5), ("Z27", 4), ("Z720720", 3))):
    """Two subspaces of one R^n, of any dimensions, over deep or many-component rings."""
    spec, n = draw(st.sampled_from(cases))
    ring = parse_ring(spec)
    return tuple(free_subspace(draw, ring, n, draw(st.integers(0, n))) for _ in range(2))


def _stack_and_kernel_route(a, b):
    """Join and meet Howell forms the long way: the Howell form of the
    stacked rows, and the left kernel of the stack applied to A's rows."""
    n = a.ambient
    joins, meets = [], []
    for ca, cb, comp in zip(a.canons, b.canons, a.ring.components):
        p, s, pe = comp.prime, comp.exponent, comp.order
        joins.append(zps.howell(ca + cb, n, p, s))
        kern = zps.left_kernel(ca + cb, n, p, s)
        gens = [
            [sum(x * ca[i][j] for i, x in enumerate(row[: len(ca)])) % pe for j in range(n)]
            for row in kern
        ]
        meets.append(zps.howell(gens, n, p, s))
    return tuple(joins), tuple(meets)


@settings(deadline=None, max_examples=60)
@given(subspace_pairs())
def test_join_meet_matches_stack_and_kernel_route(pair):
    a, b = pair
    j, m = subspace._join_meet(a, b)
    assert (j.howells, m.howells) == _stack_and_kernel_route(a, b)
    for half in (j, m):
        for h, comp in zip(half.howells, a.ring.components):
            assert zps.howell(h, a.ambient, comp.prime, comp.exponent) == h


@settings(deadline=None, max_examples=40)
@given(subspace_pairs([("Z64", 8), ("Z720720", 8)]))
def test_join_alone_matches_join_meet(pair):
    """``join`` is ``_join_meet``'s join: the Howell form of both row sets stacked."""
    a, b = pair
    j = join(a, b)
    assert j == subspace._join_meet(a, b)[0]
    assert j.howells == tuple(
        zps.howell(ca + cb, a.ambient, comp.prime, comp.exponent)
        for ca, cb, comp in zip(a.canons, b.canons, a.ring.components)
    )


@settings(deadline=None, max_examples=60)
@given(free_subspaces())
def test_dual_is_an_involution(s):
    d = dual(s)
    assert d.dim == s.ambient - s.dim
    assert dual(d) == s


@dataclass(frozen=True, slots=True)
class _PlainSubspace:
    """The generated frozen dataclass that Subspace was before its own __init__."""

    ring: Ring
    ambient: int
    dim: int
    canons: tuple
    pivots: tuple


def _plain(s):
    return _PlainSubspace(s.ring, s.ambient, s.dim, s.canons, s.pivots)


def _zip_combo_subspaces(m, n, ring, blocked=None, tail=None):
    """``subspaces`` as it was: one product of (rows, pivots) pairs, split by zip."""
    per_comp = []
    for i, comp in enumerate(ring.components):
        p = comp.prime
        keys = blocked[i] if blocked else None
        per_comp.append(sorted([
            (rows, pivs)
            for pivs, shape in subspace.shapes(m, n, comp, tail)
            for rows in itertools.product(*[itertools.product(*row) for row in shape])
            if not keys or tuple([x % p for x in rows[0]]) not in keys
        ]))
    return [
        Subspace(ring, n, m, *zip(*combo)) for combo in itertools.product(*per_comp)
    ]


class TestLeanConstructor:
    FIELDS = ("ring", "ambient", "dim", "canons", "pivots")

    @pytest.mark.parametrize("field", FIELDS)
    def test_each_field_is_frozen(self, z12, field):
        s = enumerate_subspaces(1, 2, z12)[3]
        before = getattr(s, field)
        with pytest.raises(FrozenInstanceError):
            setattr(s, field, before)
        with pytest.raises(FrozenInstanceError):
            delattr(s, field)
        assert getattr(s, field) == before

    def test_keyword_construction_and_replace(self, z12):
        s = enumerate_subspaces(1, 2, z12)[3]
        kw = Subspace(
            ring=s.ring, ambient=s.ambient, dim=s.dim, canons=s.canons, pivots=s.pivots
        )
        assert kw == s and Subspace(s.ring, 2, 1, pivots=s.pivots, canons=s.canons) == s
        t = enumerate_subspaces(1, 2, z12)[4]
        moved = replace(s, canons=t.canons, pivots=t.pivots)
        assert moved == t and moved is not t and s == enumerate_subspaces(1, 2, z12)[3]
        assert Subspace.__match_args__ == self.FIELDS

    def test_eq_hash_repr_as_the_generated_dataclass(self, z4, z6):
        for ring in (z4, z6, parse_ring("Z2xZ4")):
            subs = enumerate_subspaces(1, 2, ring) + enumerate_subspaces(2, 3, ring)[:20]
            for s in subs:
                assert hash(s) == hash(_plain(s))
                assert repr(s) == repr(_plain(s)).replace("_PlainSubspace", "Subspace", 1)
            for a, b in itertools.product(subs[:12], subs):
                assert (a == b) == (_plain(a) == _plain(b))
            assert (subs[0] == _plain(subs[0])) is False

    @pytest.mark.parametrize("spec", ["Z2", "Z4", "Z6", "Z12", "Z2xZ4"])
    def test_subspaces_match_the_zip_builder(self, spec):
        """The same subspaces in the same order: all of them, by type, and blocked."""
        ring = parse_ring(spec)
        for n in range(4):
            for m in range(n + 1):
                for tail in [None, *itertools.product(range(n + 1), range(m + 1))]:
                    assert subspace.subspaces(m, n, ring, tail=tail) == (
                        _zip_combo_subspaces(m, n, ring, tail=tail)
                    )
        pts = subspace.subspaces(1, 3, ring)
        blocked = [
            {tuple(x % c.prime for x in p.canons[ci][0]) for p in pts[ci : ci + 2]}
            for ci, c in enumerate(ring.components)
        ]
        got = subspace.subspaces(1, 3, ring, blocked)
        assert got == _zip_combo_subspaces(1, 3, ring, blocked)
        assert 0 < len(got) < len(pts)
