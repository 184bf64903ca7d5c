import math

import numpy as np
import pytest
from oracle import (
    basis_frame,
    coordinate_point,
    full_frame,
    maximal_minors_reference,
    monomial_tangent_basis,
    span_unit_rows,
    subgrassmannian_span,
    tangent_frame,
)

from grsecant.extalg import Multivector, subset_rank
from grsecant.fieldcore import DEFAULT_PRIME, MAX_PRIME, SECOND_PRIME, rank_mod_p
from grsecant.grassmann import (
    CoordinateSubspace,
    GrassPoint,
    frame_rows,
    laplace_minors,
    maximal_minors_mod,
    pluecker,
    random_point,
    tangent_space_dim,
)

P = DEFAULT_PRIME


def all_columns(d, dim):
    return np.ones(math.comb(dim, d), dtype=bool)


def basis_rows(pt, p):
    """The rows frame_rows writes for a point, into a buffer with room for its whole frame."""
    d, dim = pt.rows.shape
    return frame_rows(pt, p, np.zeros((d * dim, math.comb(dim, d))), all_columns(d, dim))


class TestGrassPoint:
    def test_rejects_rank_deficient(self):
        rows = np.array([[1, 0, 0, 0], [2, 0, 0, 0]])
        with pytest.raises(ValueError):
            GrassPoint(1, 3, rows)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            GrassPoint(2, 6, np.eye(3, 6, dtype=np.int64))


class TestPluecker:
    def test_coordinate_point(self):
        pt = coordinate_point(2, 6, (0, 1, 2))
        assert pluecker(pt) == Multivector.blade(7, (0, 1, 2))

    def test_eight_term_decomposable(self):
        pt = GrassPoint(2, 5, np.array([
            [1, 0, 0, 1, 0, 0],
            [0, 1, 0, 0, 1, 0],
            [0, 0, 1, 0, 0, 1],
        ]))
        assert len(pluecker(pt).terms) == 8

    def test_row_scaling(self):
        rng = np.random.default_rng(0)
        pt = random_point(2, 6, rng, p=P)
        scaled_rows = pt.rows.copy()
        scaled_rows[0] *= 3
        scaled = GrassPoint(2, 6, scaled_rows)
        assert pluecker(scaled) == pluecker(pt).scaled(3)


class TestTangentFrame:
    def test_rank_law_small(self):
        rng = np.random.default_rng(1)
        pt = random_point(2, 6, rng, p=P)
        assert tangent_frame(pt, P).rank == 13

    def test_rank_law_k3(self):
        rng = np.random.default_rng(2)
        pt = random_point(3, 7, rng, p=P)
        assert tangent_frame(pt, P).rank == 17

    @pytest.mark.parametrize("k,n", [(2, 6), (2, 9), (3, 7), (3, 9), (4, 9)])
    def test_rank_law_grid(self, k, n):
        expected = tangent_space_dim(k, n)
        for seed in range(100):
            rng = np.random.default_rng([k, n, seed])
            rows = full_frame(random_point(k, n, rng, p=P).rows, P)
            assert rank_mod_p(rows, P) == expected

    def test_point_on_own_tangent_cone(self):
        rng = np.random.default_rng(3)
        for k, n in [(2, 6), (3, 7)]:
            pt = random_point(k, n, rng, p=P)
            frame = full_frame(pt.rows, P)
            image = pluecker(pt).dense(P)[None, :]
            assert rank_mod_p(np.vstack([frame, image]), P) == rank_mod_p(frame, P)

    def test_fast_and_sparse_paths_agree(self):
        rng = np.random.default_rng(4)
        for k, n in [(1, 4), (2, 6), (3, 7)]:
            pt = random_point(k, n, rng, p=P)
            frame = tangent_frame(pt, P)
            slow = np.array([g.dense(P) for g in frame.generators])
            assert np.array_equal(full_frame(pt.rows, P), slow)

    def test_coordinate_point_span_is_monomial_basis(self):
        pt = coordinate_point(2, 6, (0, 1, 2))
        rows = full_frame(pt.rows, P)
        touched = {int(c) for c in np.flatnonzero(rows.any(axis=0))}
        expected = {subset_rank(s) for s in monomial_tangent_basis((0, 1, 2), 2, 6)}
        assert touched == expected
        assert rank_mod_p(rows, P) == len(expected) == 13


def _basis_points(k, n, p=P):
    """Random, support-constrained and coordinate points of Gr(k, n), each of full rank mod p."""
    rng = np.random.default_rng([k, n])
    support = CoordinateSubspace(n, tuple(range(1, k + 3)))
    yield random_point(k, n, rng, p=p)
    yield random_point(k, n, rng, support, p)
    yield coordinate_point(k, n, range(k + 1))
    yield coordinate_point(k, n, range(n - k, n + 1))
    yield coordinate_point(k, n, range(1, 2 * k + 2, 2))


class TestTangentBasisRows:
    @pytest.mark.parametrize("k,n", [(1, 4), (1, 7), (2, 6), (2, 9), (3, 7), (3, 9), (4, 9)])
    def test_basis_of_the_frame_span(self, k, n):
        dim = tangent_space_dim(k, n)
        for pt in _basis_points(k, n):
            frame = full_frame(pt.rows, P)
            basis = basis_rows(pt, P)
            assert basis.shape == (dim, math.comb(n + 1, k + 1))
            assert rank_mod_p(basis, P) == dim
            assert rank_mod_p(np.vstack([basis, frame]), P) == dim
            assert np.array_equal(basis[0], maximal_minors_mod(pt.rows, P))

    def test_rows_taken_from_frame(self):
        # k=2, n=6 at a coordinate point: the Plücker row, then the 4 free
        # basis vectors for each of the 3 rows.
        pt = coordinate_point(2, 6, (1, 3, 5))
        frame = full_frame(pt.rows, P)
        basis = basis_rows(pt, P)
        keep = [i * 7 + j for i in range(3) for j in (0, 2, 4, 6)]
        assert np.array_equal(basis[1:], frame[keep])

    @pytest.mark.parametrize("k,n", [(1, 4), (1, 7), (2, 6), (2, 9), (3, 7), (3, 9), (4, 9)])
    @pytest.mark.parametrize("p", [7, P, SECOND_PRIME])
    def test_rows_match_oracle_frame(self, k, n, p):
        # The Plücker row, then the oracle's generators (i, j) with j outside
        # the subset of its first nonzero coordinate, written into a zeroed
        # buffer and nowhere else.
        d, dim = k + 1, n + 1
        for pt in _basis_points(k, n, p):
            expected = basis_frame(pt.rows, p)
            out = np.zeros((d * dim + 2, math.comb(dim, d)))
            basis = frame_rows(pt, p, out, all_columns(d, dim))
            assert basis.dtype == np.float64 and np.shares_memory(basis, out)
            assert np.array_equal(basis, expected)
            assert not out[len(basis) :].any()
            # With a mask, only the kept columns are written, in order.
            kept = np.random.default_rng([k, n, p]).random(expected.shape[1]) < 0.5
            out = np.zeros((d * dim + 2, int(kept.sum())))
            basis = frame_rows(pt, p, out, kept)
            assert np.array_equal(basis, expected[:, kept])
            assert not out[len(basis) :].any()

    def test_point_rank_deficient_mod_p_keeps_whole_frame(self):
        # A point of rank below k+1 mod p has no tangent basis: nothing is written.
        for p in (3, 7):
            for rows in ([[1, 0, 0, 0], [p, 0, 2 * p, 0]], [[1, 2, 0, 0, 1], [0, p, 0, 0, 0], [0, 0, 1, 0, 1]]):
                assert not maximal_minors_mod(rows, p).any()
                d, dim = np.shape(rows)
                out = np.zeros((d * dim, math.comb(dim, d)))
                with pytest.raises(ValueError):
                    frame_rows(GrassPoint(d - 1, dim - 1, rows), p, out, all_columns(d, dim))
                assert not out.any()

    def test_int64_bound(self):
        rows = np.eye(2, 5, dtype=np.int64)
        with pytest.raises(ValueError):
            maximal_minors_mod(rows, 2**31 + 11)


class TestMaximalMinors:
    @pytest.mark.parametrize("p", [3, 7, P, SECOND_PRIME, MAX_PRIME])
    @pytest.mark.parametrize("r", range(6))
    def test_laplace_matches_permutation_expansion(self, p, r):
        rng = np.random.default_rng([p, r])
        for dim in range(r, r + 4):
            # Unreduced and negative entries, and small ones that make
            # minors vanish mod p.
            for mat in (rng.integers(-5 * p, 5 * p, size=(r, dim)), rng.integers(-2, 3, size=(r, dim))):
                assert np.array_equal(maximal_minors_mod(mat, p), maximal_minors_reference(mat, p))


class TestMonomialTangentBasis:
    def test_counts(self):
        assert len(monomial_tangent_basis((0, 1, 2), 2, 6)) == 13
        assert len(monomial_tangent_basis((0, 1, 2, 3), 3, 7)) == 17

    def test_all_meet_in_at_least_k(self):
        a = (0, 1, 2)
        for s in monomial_tangent_basis(a, 2, 8):
            assert len(set(s) & set(a)) >= 2

    def test_count_formula_general(self):
        for k, n in [(2, 9), (3, 10), (4, 11)]:
            a = tuple(range(k + 1))
            assert len(monomial_tangent_basis(a, k, n)) == 1 + (k + 1) * (n - k)

    def test_distant_points_have_disjoint_bases(self):
        a, b = (0, 1, 2), (3, 4, 5)  # meet in 0 <= k-2 elements
        sa = set(monomial_tangent_basis(a, 2, 8))
        sb = set(monomial_tangent_basis(b, 2, 8))
        assert not sa & sb

    def test_distant_points_disjoint_bases_k3(self):
        a, b = (0, 1, 2, 3), (3, 4, 5, 6)  # meet in 1 = k-2 elements
        sa = set(monomial_tangent_basis(a, 3, 9))
        sb = set(monomial_tangent_basis(b, 3, 9))
        assert not sa & sb

    def test_independence_of_distant_coordinate_frames(self):
        # Pairwise overlaps <= k-2 make the stacked coordinate frames independent.
        k, n = 2, 12
        words = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]
        union = set().union(*(monomial_tangent_basis(w, k, n) for w in words))
        assert len(union) == len(words) * tangent_space_dim(k, n)
        stack = np.vstack([full_frame(coordinate_point(k, n, w).rows, P) for w in words])
        assert rank_mod_p(stack, P) == len(words) * tangent_space_dim(k, n)


class TestRandomPoint:
    def test_constraint_support(self):
        c = CoordinateSubspace(17, tuple(range(6, 18)))
        rng = np.random.default_rng(5)
        pt = random_point(2, 17, rng, c, p=P)
        outside = [i for i in range(18) if i not in c.support]
        assert not pt.rows[:, outside].any()
        img = pluecker(pt)
        assert all(set(idx) <= set(c.support) for idx in img.terms)

    def test_unconstrained_full_rank(self):
        rng = np.random.default_rng(6)
        pt = random_point(3, 9, rng, p=P)
        assert rank_mod_p(pt.rows, P) == 4

    def test_seeded_determinism(self):
        a = random_point(2, 8, np.random.default_rng(42), p=P)
        b = random_point(2, 8, np.random.default_rng(42), p=P)
        assert np.array_equal(a.rows, b.rows)

    def test_support_too_small(self):
        c = CoordinateSubspace(9, (0, 1))
        with pytest.raises(ValueError):
            random_point(2, 9, np.random.default_rng(7), c, p=P)


class TestSubgrassmannianSpan:
    def test_count(self):
        L = CoordinateSubspace(17, tuple(range(6, 18)))
        assert len(subgrassmannian_span(L, 3)) == math.comb(12, 3) == 220

    def test_degenerate(self):
        L = CoordinateSubspace(9, (1, 4, 7))
        assert subgrassmannian_span(L, 3) == [(1, 4, 7)]

    def test_degree_too_large(self):
        with pytest.raises(ValueError):
            subgrassmannian_span(CoordinateSubspace(9, (0, 1)), 3)

    def test_intersection_dimension_by_inclusion_exclusion(self):
        # Two supports of size 12 in {0..17} overlapping in 6 coordinates.
        A = CoordinateSubspace(17, tuple(range(0, 12)))
        B = CoordinateSubspace(17, tuple(range(6, 18)))
        rows_a = span_unit_rows(subgrassmannian_span(A, 3), 18, 3)
        rows_b = span_unit_rows(subgrassmannian_span(B, 3), 18, 3)
        ra = rank_mod_p(rows_a, P)
        rb = rank_mod_p(rows_b, P)
        rab = rank_mod_p(np.vstack([rows_a, rows_b]), P)
        assert ra == rb == 220
        assert ra + rb - rab == math.comb(6, 3) == 20

    def test_finite_difference_identities(self):
        f = lambda n: math.comb(n + 1, 3)
        for n in range(11, 101):
            assert f(n) - f(n - 6) == 3 * n * n - 18 * n + 35
            if n >= 11:
                assert f(n) - 2 * f(n - 6) + f(n - 12) == 36 * (n - 6)

    def test_span_dimension_matches_difference(self):
        # dim of wedges NOT supported on a codim-6 subspace = f(n) - f(n-6).
        n = 13
        L = CoordinateSubspace(n, tuple(range(6, n + 1)))
        span = subgrassmannian_span(L, 3)
        assert math.comb(n + 1, 3) - len(span) == 3 * n * n - 18 * n + 35


class TestCoordinateSubspace:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CoordinateSubspace(5, ())

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CoordinateSubspace(5, (0, 6))

    def test_normalizes(self):
        c = CoordinateSubspace(5, (3, 1, 1))
        assert c.support == (1, 3)
        assert c.dim == 2


class TestStackedMinors:
    """maximal_minors_mod and laplace_minors over leading batch axes."""

    @pytest.mark.parametrize("p", [3, 7, P, MAX_PRIME])
    @pytest.mark.parametrize("t", range(6))
    def test_stack_matches_each_matrix(self, p, t):
        rng = np.random.default_rng([p, t])
        for d, dim in ((1, t + 1), (3, t + 2), (4, t + 3)):
            stack = rng.integers(-3 * p, 3 * p, size=(d, t, dim))
            stacked = maximal_minors_mod(stack, p)
            assert stacked.shape == (d, math.comb(dim, t))
            for i in range(d):
                assert np.array_equal(stacked[i], maximal_minors_mod(stack[i], p))

    @pytest.mark.parametrize("p", [3, P, MAX_PRIME])
    @pytest.mark.parametrize("k", range(1, 5))
    def test_laplace_minors_match_row_by_row(self, p, k):
        rng = np.random.default_rng([p, k])
        d = k + 1
        for dim in (d, d + 2, d + 5):
            rows = rng.integers(-2 * p, 2 * p, size=(d, dim))
            got = laplace_minors(rows, p)
            deleted = np.stack([maximal_minors_mod(rows[np.arange(d) != i], p) for i in range(d)])
            assert got.p == p
            assert np.array_equal(got.deleted, deleted)
            assert np.array_equal(got.plucker, maximal_minors_mod(rows, p))
