import math
from itertools import combinations

import pytest
from oracle import lexicode_greedy_reference

from grsecant.codes import (
    MAX_LEXICODE_SUPPORTS,
    CodeSet,
    graham_sloane_bounds,
    lexicode_greedy,
    lexicode_supports,
    monomial_certificate,
    tre_construction,
)


class TestLexicodeSupports:
    def test_exact_up_to_the_bound(self):
        for n in range(1, 40):
            for w in range(n + 1):
                c = math.comb(n, w)
                if c <= MAX_LEXICODE_SUPPORTS:
                    assert lexicode_supports(n, w) == c, (n, w)
                else:
                    assert lexicode_supports(n, w) > MAX_LEXICODE_SUPPORTS, (n, w)

    def test_huge_counts_stop_early(self):
        assert MAX_LEXICODE_SUPPORTS < lexicode_supports(10**12, 5 * 10**11) <= 10**12
        assert lexicode_supports(4096, 4095) == MAX_LEXICODE_SUPPORTS < lexicode_supports(4097, 1)


def pairwise_overlaps_ok(code: CodeSet) -> bool:
    limit = code.weight - code.distance // 2
    return all(
        len(set(a) & set(b)) <= limit for a, b in combinations(code.words, 2)
    )


class TestCodeSet:
    def test_rejects_close_words(self):
        with pytest.raises(ValueError):
            CodeSet(10, 4, ((0, 1, 2, 3), (0, 1, 2, 4)))

    def test_rejects_bad_word(self):
        with pytest.raises(ValueError):
            CodeSet(5, 3, ((0, 1, 5),))
        with pytest.raises(ValueError):
            CodeSet(5, 3, ((2, 1, 0),))

    def test_accepts_valid(self):
        c = CodeSet(12, 3, ((0, 1, 2), (3, 4, 5), (6, 7, 8)))
        assert len(c) == 3


class TestTreConstruction:
    def test_disjoint_words(self):
        c = tre_construction(2, 12, 4)
        assert c.words == ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11))

    def test_overlapping_words(self):
        c = tre_construction(3, 9, 3)
        assert c.words == ((0, 1, 2, 3), (3, 4, 5, 6), (6, 7, 8, 9))
        for a, b in combinations(c.words, 2):
            assert len(set(a) & set(b)) <= 1

    def test_precondition(self):
        with pytest.raises(ValueError):
            tre_construction(2, 6, 3)  # 3*2 > 6-2
        with pytest.raises(ValueError):
            tre_construction(1, 20, 2)

    def test_word_count_and_max_index(self):
        for k, n, s in [(2, 12, 4), (3, 15, 4), (4, 20, 5)]:
            c = tre_construction(k, n, s)
            assert len(c) == s
            assert max(max(w) for w in c.words) == 3 * (s - 1) + k <= n


class TestLexicodeGreedy:
    def test_known_optimum_reached(self):
        # The greedy scan happens to reach the optimum A(10,6,4) = 5.
        c = lexicode_greedy(10, 4)
        assert 4 <= len(c) <= 5
        assert len(c) == 5
        assert pairwise_overlaps_ok(c)

    def test_weight_three_words_are_disjoint(self):
        c = lexicode_greedy(7, 3)
        assert pairwise_overlaps_ok(c)
        for a, b in combinations(c.words, 2):
            assert not set(a) & set(b)
        assert len(c) == 2  # frozen by the deterministic colex order

    def test_weight_equals_length(self):
        c = lexicode_greedy(5, 5)
        assert c.words == ((0, 1, 2, 3, 4),)

    def test_deterministic(self):
        assert lexicode_greedy(12, 4).words == lexicode_greedy(12, 4).words

    def test_first_word_is_colex_smallest(self):
        assert lexicode_greedy(9, 3).words[0] == (0, 1, 2)

    def test_other_distance(self):
        c = lexicode_greedy(7, 3, min_distance=4)
        assert pairwise_overlaps_ok(c)
        assert len(c) == 7  # the point-line packing bound for overlap <= 1

    @pytest.mark.parametrize("distance", [2, 4, 6])
    def test_matches_pairwise_scan(self, distance):
        # The shared-subset test keeps the same words, in the same order, as
        # comparing each support with every kept word.
        for length in range(1, 17):
            for weight in range(1, min(length, 6) + 1):
                expected = lexicode_greedy_reference(length, weight, distance)
                assert lexicode_greedy(length, weight, distance).words == expected, (length, weight)

    def test_close_words_named_in_error(self):
        with pytest.raises(ValueError, match=r"\(0, 1, 2\) and \(0, 1, 3\) are too close"):
            CodeSet(8, 3, ((0, 1, 2), (4, 5, 6), (0, 1, 3)), distance=4)


class TestGrahamSloane:
    def test_case_c(self):
        b = graham_sloane_bounds(10, 4)
        assert b.bound_c == math.comb(10, 4) // (1 + 4 * 6 + 6 * 15) == 1

    def test_case_a(self):
        b = graham_sloane_bounds(7, 3)
        assert b.q_a == 7
        assert b.bound_a == 35 // 49 == 0

    def test_weight_equals_length(self):
        b = graham_sloane_bounds(8, 8)
        assert b.bound_a <= 1 and b.bound_b <= 1 and b.bound_c <= 1

    def test_prime_power_search(self):
        assert graham_sloane_bounds(10, 4).q_a == 11
        assert graham_sloane_bounds(9, 4).q_a == 9  # 3^2
        assert graham_sloane_bounds(10, 4).q_b == 9

    def test_invalid(self):
        with pytest.raises(ValueError):
            graham_sloane_bounds(4, 5)


class TestMonomialCertificate:
    def test_stride_case(self):
        c = monomial_certificate(2, 12, 4)
        assert c is not None and len(c) >= 4
        assert c.words[0] == (0, 1, 2)

    def test_gr39_s6_has_no_certificate(self):
        # A(10,6,4) = 5 < 6, so the monomial method cannot reach s = 6 here.
        assert monomial_certificate(3, 9, 6) is None

    def test_defective_case_has_no_certificate(self):
        c = monomial_certificate(2, 6, 3)
        assert c is None

    def test_greedy_fallback(self):
        # Stride layout fails (3*4 > 14-4) but the greedy code is big enough.
        c = monomial_certificate(4, 14, 5)
        assert c is not None and len(c) >= 5
        assert pairwise_overlaps_ok(c)

    def test_requires_k_at_least_two(self):
        with pytest.raises(ValueError):
            monomial_certificate(1, 9, 2)

    def test_every_certificate_is_valid(self):
        for k in (2, 3):
            for n in range(2 * k + 1, 14):
                for s in (2, 4, 6):
                    c = monomial_certificate(k, n, s)
                    if c is not None:
                        assert len(c) >= s
                        assert pairwise_overlaps_ok(c)
