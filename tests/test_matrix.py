"""Matrix construction, McCoy rank (formula vs definitional oracle), and the
constructive transforms: completion, right inverse, basis extension."""

import itertools
import random

import pytest

from ringspace import (
    BudgetExceededError,
    Matrix,
    NotFullRankError,
    NotInvertibleError,
    RingParseError,
    ShapeMismatchError,
    completion,
    extend_to_basis,
    gl_inverse,
    is_unimodular_rows,
    mccoy_rank,
    mccoy_rank_oracle,
    parse_ring,
    right_inverse,
)


def all_matrices(ring, m, n):
    flat = list(ring.elements())
    for combo in itertools.product(flat, repeat=m * n):
        yield Matrix.from_entries(
            ring, [list(combo[i * n : (i + 1) * n]) for i in range(m)]
        )


def random_matrix(rng, ring, m, n):
    return Matrix.from_entries(
        ring, [[rng.randrange(ring.order) for _ in range(n)] for _ in range(m)]
    )


class TestConstruction:
    def test_entry_forms(self, z6):
        a = Matrix.from_entries(z6, [[5, z6.from_int(2), (1, 2)]])
        assert [z6.int_encode(a.entry(0, j)) for j in range(3)] == [5, 2, 5]

    def test_bool_rejected(self, z4):
        with pytest.raises(RingParseError):
            Matrix.from_entries(z4, [[True]])

    def test_ragged_rejected(self, z4):
        with pytest.raises(ShapeMismatchError):
            Matrix.from_entries(z4, [[1, 2], [1]])

    def test_identity_and_zeros(self, z6):
        eye = Matrix.identity(z6, 3)
        z = Matrix.zeros(z6, 2, 3)
        assert mccoy_rank(eye) == 3
        assert mccoy_rank(z) == 0

    def test_empty_shapes(self, z4):
        a = Matrix.zeros(z4, 0, 3)
        b = Matrix.zeros(z4, 3, 0)
        assert mccoy_rank(a) == 0
        assert mccoy_rank(b) == 0
        assert a.mul(b).rows == 0 and b.mul(a).cols == 3

    def test_mul_shape_checked(self, z4):
        with pytest.raises(ShapeMismatchError):
            Matrix.zeros(z4, 2, 2).mul(Matrix.zeros(z4, 3, 2))


class TestMcCoyRank:
    def test_zero_divisor_rows_z6(self, z6):
        # (3,0) vanishes mod 3 and (0,2) vanishes mod 2, so rank collapses to 1
        a = Matrix.from_entries(z6, [[3, 0], [0, 2]])
        assert mccoy_rank(a) == 1
        assert mccoy_rank_oracle(a) == 1

    def test_nilpotent_row_z4(self, z4):
        assert mccoy_rank(Matrix.from_entries(z4, [[2, 0]])) == 0
        assert mccoy_rank(Matrix.from_entries(z4, [[2, 1]])) == 1

    def test_rank_is_min_over_components(self, z6):
        a = Matrix.from_entries(z6, [[2, 1], [0, 3]])
        # mod 2: [[0,1],[0,1]] rank 1; mod 3: [[2,1],[0,0]] rank 1
        assert mccoy_rank(a) == 1

    def test_oracle_agreement_exhaustive_z4_2x2(self, z4):
        for a in all_matrices(z4, 2, 2):
            assert mccoy_rank(a) == mccoy_rank_oracle(a)

    def test_oracle_agreement_exhaustive_z6_2x2(self, z6):
        for a in all_matrices(z6, 2, 2):
            assert mccoy_rank(a) == mccoy_rank_oracle(a)

    def test_oracle_agreement_sampled_z4_2x3(self, z4):
        rng = random.Random(2026)
        for _ in range(500):
            a = random_matrix(rng, z4, 2, 3)
            assert mccoy_rank(a) == mccoy_rank_oracle(a)

    def test_oracle_guards(self, z4):
        big = parse_ring("Z128")
        with pytest.raises(BudgetExceededError):
            mccoy_rank_oracle(Matrix.identity(big, 1))
        with pytest.raises(BudgetExceededError):
            mccoy_rank_oracle(Matrix.identity(z4, 4))

    def test_transpose_preserves_rank(self, z6):
        rng = random.Random(5)
        for _ in range(40):
            a = random_matrix(rng, z6, 2, 3)
            transpose = Matrix(z6, 3, 2, tuple(tuple(zip(*c)) for c in a.comps))
            assert mccoy_rank(a) == mccoy_rank(transpose)


class TestConstructiveTransforms:
    @pytest.mark.parametrize("spec", ["Z4", "Z6", "Z9"])
    def test_completion_postconditions(self, spec):
        ring = parse_ring(spec)
        rng = random.Random(17)
        checked = 0
        while checked < 40:
            n = rng.randrange(1, 4)
            m = rng.randrange(1, n + 1)
            a = random_matrix(rng, ring, m, n)
            if not is_unimodular_rows(a):
                continue
            s = completion(a)
            want = Matrix.from_entries(
                ring, [[1 if i == j else 0 for j in range(n)] for i in range(m)]
            )
            assert a.mul(s).comps == want.comps
            gl_inverse(s)  # invertible, must not raise
            checked += 1

    def test_right_inverse(self, z6):
        rng = random.Random(23)
        checked = 0
        while checked < 30:
            n = rng.randrange(1, 4)
            m = rng.randrange(1, n + 1)
            a = random_matrix(rng, z6, m, n)
            if not is_unimodular_rows(a):
                continue
            b = right_inverse(a)
            assert a.mul(b).comps == Matrix.identity(z6, m).comps
            checked += 1

    def test_extend_to_basis_contains_input(self, z4):
        rng = random.Random(29)
        checked = 0
        while checked < 30:
            n = rng.randrange(1, 4)
            m = rng.randrange(1, n + 1)
            a = random_matrix(rng, z4, m, n)
            if not is_unimodular_rows(a):
                continue
            ext = extend_to_basis(a)
            assert ext.rows == ext.cols == n
            assert ext.submatrix(range(m), range(n)).comps == a.comps
            gl_inverse(ext)
            checked += 1

    def test_low_rank_rejected(self):
        # Z12 = Z4 x Z3: [[3, 0]] is unimodular mod 4 and zero mod 3, so the
        # second component's kernel finds the defect.
        cases = [("Z4", [[2, 0]]), ("Z4", [[2, 2]]), ("Z12", [[3, 0]]),
                 ("Z2xZ2", [[(1, 0), (1, 0)]])]
        for spec, rows in cases:
            a = Matrix.from_entries(parse_ring(spec), rows)
            for transform in (completion, right_inverse):
                with pytest.raises(NotFullRankError, match="^rows do not have full McCoy rank$"):
                    transform(a)

    def test_too_many_rows_rejected(self, z4):
        with pytest.raises(ShapeMismatchError, match="^more rows than columns$"):
            completion(Matrix.from_entries(z4, [[1, 0], [0, 1]] * 2))

    def test_gl_inverse(self, z6):
        a = Matrix.from_entries(z6, [[1, 2], [3, 1]])
        # det = 1 - 6 = -5 = 1 mod 6, a unit
        b = gl_inverse(a)
        assert a.mul(b).comps == Matrix.identity(z6, 2).comps
        assert b.mul(a).comps == Matrix.identity(z6, 2).comps

    def test_gl_inverse_rejects_singular(self):
        cases = [("Z4", [[2, 0], [0, 1]]), ("Z6", [[2, 0], [0, 1]]),
                 ("Z12", [[1, 0], [0, 3]]), ("Z2xZ2", [[(1, 0), 0], [0, 1]])]
        for spec, rows in cases:
            ring = parse_ring(spec)
            with pytest.raises(NotInvertibleError, match="^matrix is not invertible$"):
                gl_inverse(Matrix.from_entries(ring, rows))
            with pytest.raises(ShapeMismatchError, match="^inverse needs a square matrix$"):
                gl_inverse(Matrix.zeros(ring, 1, 2))

