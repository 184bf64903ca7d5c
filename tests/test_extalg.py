import math
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import apply_linear_map, format_tensor, is_symmetric, random_unimodular, subset_unrank

from grsecant.extalg import (
    Multivector,
    merge_sign,
    pairing_matrix,
    parse_tensor,
    subset_rank,
    subsets_colex,
    wedge,
    wedge_vectors,
)
from grsecant.fieldcore import DEFAULT_PRIME, rank_exact, rank_mod_p


def leibniz_det(m):
    """Independent minor oracle: permutation-sum determinant."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


class TestSubsetIndexing:
    def test_smallest(self):
        assert subset_rank((0, 1, 2)) == 0

    def test_largest(self):
        n = 9
        assert subset_unrank(math.comb(n + 1, 3) - 1, n, 3) == (n - 2, n - 1, n)

    def test_exhaustive_roundtrip(self):
        n, d = 9, 3
        total = math.comb(n + 1, d)
        assert total == 120
        seen = set()
        for r in range(total):
            s = subset_unrank(r, n, d)
            assert subset_rank(s) == r
            seen.add(s)
        assert len(seen) == total

    def test_colex_enumeration_matches_rank(self):
        for dim, d in [(7, 2), (8, 4), (6, 3)]:
            subs = list(subsets_colex(dim, d))
            assert [subset_rank(s) for s in subs] == list(range(math.comb(dim, d)))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            subset_unrank(120, 9, 3)
        with pytest.raises(ValueError):
            subset_unrank(-1, 9, 3)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=math.comb(13, 4) - 1))
    def test_roundtrip_property(self, r):
        assert subset_rank(subset_unrank(r, 12, 4)) == r

    def test_prefix_property(self):
        # Subsets inside {0..m} occupy the colex rank prefix.
        for m in range(3, 8):
            ranks = [subset_rank(s) for s in combinations(range(m + 1), 3)]
            assert sorted(ranks) == list(range(math.comb(m + 1, 3)))


class TestWedge:
    def test_disjoint_blades(self):
        a = Multivector.blade(6, (0, 1))
        b = Multivector.blade(6, (2, 3))
        assert wedge(a, b) == Multivector.blade(6, (0, 1, 2, 3))

    def test_interleaved_sign(self):
        a = Multivector.blade(6, (0, 2))
        b = Multivector.blade(6, (1, 3))
        assert wedge(a, b) == Multivector.blade(6, (0, 1, 2, 3), -1)

    def test_square_of_odd_degree_vanishes(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            terms = {
                tuple(sorted(rng.choice(7, size=3, replace=False).tolist())): int(c)
                for c in rng.integers(-4, 5, size=4)
            }
            a = Multivector(7, 3, terms)
            assert wedge(a, a).is_zero()

    def test_degree_overflow(self):
        a = Multivector.blade(4, (0, 1, 2))
        with pytest.raises(ValueError):
            wedge(a, a)

    def test_bilinear(self):
        rng = np.random.default_rng(6)

        def rand_mv(dim, d):
            return Multivector(
                dim,
                d,
                {
                    tuple(sorted(rng.choice(dim, size=d, replace=False).tolist())): int(c)
                    for c in rng.integers(-5, 6, size=3)
                },
            )

        for _ in range(20):
            a, a2 = rand_mv(7, 2), rand_mv(7, 2)
            b = rand_mv(7, 3)
            assert wedge(a + a2, b) == wedge(a, b) + wedge(a2, b)
            assert wedge(b, a + a2) == wedge(b, a) + wedge(b, a2)

    def test_associative(self):
        rng = np.random.default_rng(7)

        def rand_mv(dim, d):
            return Multivector(
                dim,
                d,
                {
                    tuple(sorted(rng.choice(dim, size=d, replace=False).tolist())): int(c)
                    for c in rng.integers(-5, 6, size=3)
                },
            )

        for _ in range(20):
            a, b, c = rand_mv(8, 2), rand_mv(8, 3), rand_mv(8, 2)
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    def test_merge_sign_transposition(self):
        assert merge_sign((0, 2), (1, 3)) == (-1, (0, 1, 2, 3))
        assert merge_sign((0, 1), (2, 3)) == (1, (0, 1, 2, 3))
        assert merge_sign((0, 1), (1, 2)) is None


class TestWedgeVectors:
    def test_unit_vectors(self):
        vs = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
        assert wedge_vectors(vs) == Multivector.blade(4, (0, 1, 2))

    def test_swap_antisymmetry(self):
        vs = [[0, 1, 0], [1, 0, 0]]
        assert wedge_vectors(vs) == Multivector.blade(3, (0, 1), -1)

    def test_equal_vectors_vanish(self):
        v = [1, 2, 3, 4]
        assert wedge_vectors([v, v]).is_zero()

    def test_eight_term_example(self):
        vs = [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]]
        w = wedge_vectors(vs)
        assert len(w.terms) == 8
        # Minor oracle over all 20 column triples, independent determinant.
        for idx in combinations(range(6), 3):
            minor = leibniz_det([[v[c] for c in idx] for v in vs])
            assert w.coeff(idx) == minor

    def test_matches_iterated_wedge(self):
        # Minor route and merge-sign route must agree.
        rng = np.random.default_rng(8)
        for _ in range(20):
            vs = rng.integers(-5, 6, size=(3, 6)).tolist()
            byminors = wedge_vectors(vs)
            bymerge = Multivector(6, 1, {(i,): v for i, v in enumerate(vs[0]) if v})
            for v in vs[1:]:
                bymerge = wedge(bymerge, Multivector(6, 1, {(i,): c for i, c in enumerate(v) if c}))
            assert byminors == bymerge

    def test_adjacent_transposition_sign(self):
        rng = np.random.default_rng(9)
        vs = rng.integers(-5, 6, size=(3, 7)).tolist()
        swapped = [vs[1], vs[0], vs[2]]
        assert wedge_vectors(swapped) == -wedge_vectors(vs)


class TestMultivector:
    def test_rejects_bad_terms(self):
        with pytest.raises(ValueError):
            Multivector(5, 2, {(1, 1): 1})
        with pytest.raises(ValueError):
            Multivector(5, 2, {(2, 1): 1})
        with pytest.raises(ValueError):
            Multivector(5, 2, {(0, 5): 1})

    def test_zero_coefficients_pruned(self):
        m = Multivector(5, 2, {(0, 1): 0, (1, 2): 3})
        assert m.terms == {(1, 2): 3}

    def test_dense_mod_p(self):
        m = Multivector(4, 2, {(0, 1): -1, (2, 3): 7})
        dense = m.dense(5)
        assert dense[subset_rank((0, 1))] == 4
        assert dense[subset_rank((2, 3))] == 2

    def test_blade_normalizes(self):
        assert Multivector.blade(7, (4, 2, 3)) == Multivector.blade(7, (2, 3, 4))
        assert Multivector.blade(7, (1, 5, 3)) == Multivector.blade(7, (1, 3, 5), -1)
        assert Multivector.blade(7, (1, 1, 3)).is_zero()

    def test_blade_sign_is_permutation_parity(self):
        # Every index tuple of length <= 5 over range(7): a repeat gives zero,
        # and otherwise the sign is the parity of the inversions to sort it.
        for length in range(6):
            for idx in product(range(7), repeat=length):
                blade = Multivector.blade(7, idx)
                if len(set(idx)) < length:
                    assert blade.is_zero() and blade.degree == length, idx
                    continue
                inversions = sum(a > b for a, b in combinations(idx, 2))
                assert blade.terms == {tuple(sorted(idx)): (-1) ** inversions}, idx


class TestPairingMatrix:
    def test_shape_and_wrong_input(self):
        with pytest.raises(ValueError):
            pairing_matrix(Multivector.blade(6, (0, 1, 2)))
        with pytest.raises(ValueError):
            pairing_matrix(Multivector.blade(7, (0, 1)))

    def test_zero(self):
        cm = pairing_matrix(Multivector.zero(7, 3))
        assert all(all(c == 0 for c in row) for row in cm)

    def test_single_blade_structure(self):
        # For omega on {0,1,2}, an entry is nonzero iff both 2-sets avoid {0,1,2}.
        cm = pairing_matrix(Multivector.blade(7, (0, 1, 2)))
        pairs = list(subsets_colex(7, 2))
        for a in pairs:
            for b in pairs:
                entry = cm[subset_rank(b)][subset_rank(a)]
                avoid = not (set(a) | set(b)) & {0, 1, 2}
                if entry:
                    assert avoid and not set(a) & set(b)
        assert rank_exact(cm) == 6
        assert rank_mod_p(cm, DEFAULT_PRIME) == 6

    def test_symmetry_random(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            terms = {
                tuple(sorted(rng.choice(7, size=3, replace=False).tolist())): int(c)
                for c in rng.integers(-9, 10, size=8)
            }
            assert is_symmetric(pairing_matrix(Multivector(7, 3, terms)))

    def test_linearity(self):
        rng = np.random.default_rng(11)

        def rand_omega():
            return Multivector(
                7,
                3,
                {
                    tuple(sorted(rng.choice(7, size=3, replace=False).tolist())): int(c)
                    for c in rng.integers(-9, 10, size=6)
                },
            )

        for _ in range(10):
            w1, w2 = rand_omega(), rand_omega()
            lhs = pairing_matrix(w1 + w2)
            m1, m2 = pairing_matrix(w1), pairing_matrix(w2)
            assert lhs == [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(m1, m2)]

    def test_rank_invariant_under_unimodular_maps(self):
        rng = np.random.default_rng(12)
        omega = Multivector.blade(7, (0, 1, 2)) + Multivector.blade(7, (3, 4, 5))
        base_rank = rank_mod_p(pairing_matrix(omega), DEFAULT_PRIME)
        for _ in range(20):
            g = random_unimodular(rng, 7)
            moved = apply_linear_map(g, omega)
            assert rank_mod_p(pairing_matrix(moved), DEFAULT_PRIME) == base_rank


class TestTensorFormat:
    def test_roundtrip(self):
        m = Multivector(7, 3, {(0, 2, 4): 1, (1, 2, 3): -2})
        assert parse_tensor(format_tensor(m)) == m
        assert parse_tensor(format_tensor(m, one_based=True)) == m

    def test_one_based_shift(self):
        text = "dim 7 degree 3 one_based\n1 3 5 : 2\n"
        assert parse_tensor(text) == Multivector(7, 3, {(0, 2, 4): 2})

    def test_comments_and_blank_lines(self):
        text = "# a tensor\n\ndim 4 degree 2\n0 1 : 1  # first\n2 3 : -1\n"
        assert parse_tensor(text) == Multivector(4, 2, {(0, 1): 1, (2, 3): -1})

    def test_unsorted_indices_normalize(self):
        text = "dim 7 degree 3\n4 2 3 : 1\n"
        assert parse_tensor(text) == Multivector(7, 3, {(2, 3, 4): 1})

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_tensor("degree 3 dim 7\n")
        with pytest.raises(ValueError):
            parse_tensor("dim 7 degree 3\n1 1 2 : 1\n")
