import numpy as np
import pytest
from oracle import apply_linear_map, coordinate_point, random_tensor, random_unimodular

from grsecant import fieldcore
from grsecant.extalg import Multivector, pairing_matrix, wedge_vectors
from grsecant.fieldcore import DEFAULT_PRIME, MAX_PRIME, SECOND_PRIME, det_exact, rank_exact, rank_mod_p
from grsecant.gr26 import (
    _span_check,
    classify,
    degree7_invariant,
    demo_gr28,
    demo_gr37,
    fano_tensor,
    figure1_table,
    five_term_identity,
    five_term_tensor,
    random_decomposable,
    random_secant_point,
)
from grsecant.grassmann import GrassPoint


# Primes the CLI accepts, of every residue mod 3: 3 = 0, 7 and MAX_PRIME = 1,
# 32003 and 46337 = 2.
PRIMES = (3, 7, DEFAULT_PRIME, SECOND_PRIME, MAX_PRIME)


def blade1(indices, coeff=1):
    return Multivector.blade(7, [i - 1 for i in indices], coeff)


class TestClassify:
    def test_decomposable(self):
        rep = classify(blade1((1, 2, 3)))
        assert rep.rank == 6
        assert rep.in_grassmannian and rep.in_sigma2 and rep.in_sigma3
        assert rep.invariant_exact == 0

    def test_two_secant(self):
        rep = classify(blade1((1, 2, 3)) + blade1((4, 5, 6)))
        assert rep.rank == 12
        assert not rep.in_grassmannian and rep.in_sigma2 and rep.in_sigma3

    def test_three_secant_samples(self):
        rng = np.random.default_rng(2)
        hits = 0
        for _ in range(5):
            omega = random_secant_point(rng, 3)
            rep = classify(omega)
            assert rep.rank <= 18 and rep.in_sigma3
            assert rep.invariant_exact == 0
            hits += rep.rank == 18
        assert hits >= 4

    def test_fano(self):
        rep = classify(fano_tensor())
        assert rep.rank == 21
        assert not rep.in_sigma3
        assert rep.invariant_exact == -1
        assert rep.invariant_mod_p == DEFAULT_PRIME - 1

    def test_flags_are_monotone(self):
        rng = np.random.default_rng(3)
        for terms in (1, 2, 3, 4):
            rep = classify(random_secant_point(rng, terms))
            if rep.in_grassmannian:
                assert rep.in_sigma2
            if rep.in_sigma2:
                assert rep.in_sigma3

    def test_invariant_mod_p_matches_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            rep = classify(random_tensor(rng))
            assert rep.invariant_mod_p == rep.invariant_exact % DEFAULT_PRIME

    @pytest.mark.parametrize(
        "omega, rank, eliminations",
        [(fano_tensor(), 21, 1), (blade1((1, 2, 3)) + blade1((4, 5, 6)), 12, 1)],
        ids=["fano", "rank-12"],
    )
    def test_eliminations(self, monkeypatch, omega, rank, eliminations):
        # One elimination gives both the determinant and the rank, singular
        # pairing or not.
        calls = []
        bareiss = fieldcore._bareiss
        monkeypatch.setattr(fieldcore, "_bareiss", lambda rows: calls.append(len(rows)) or bareiss(rows))
        assert classify(omega).rank == rank
        assert calls == [21] * eliminations

    @pytest.mark.parametrize("p", PRIMES)
    def test_invariant_mod_p_at_every_prime(self, p):
        rng = np.random.default_rng(p)
        tensors = [fano_tensor(), five_term_tensor(1, 2, 4, 1, 1)] + [random_tensor(rng) for _ in range(3)]
        for omega in tensors:
            rep = classify(omega, p)
            assert rep.prime == p
            assert rep.invariant_mod_p == rep.invariant_exact % p
        assert classify(five_term_tensor(1, 2, 4, 1, 1), p).invariant_exact == -8


class TestInvariant:
    def test_five_term_all_ones(self):
        det, predicted = five_term_identity(1, 1, 1, 1, 1)
        assert det == predicted == -2
        assert degree7_invariant(fano_tensor()) == -1

    def test_vanishing_factor(self):
        assert five_term_identity(1, 1, 1, 0, 1) == (0, 0)

    def test_doubled_parameter(self):
        det, predicted = five_term_identity(2, 1, 1, 1, 1)
        assert det == predicted == -2 * (1 * 1 * 2 * 1 * 1) ** 3 == -16

    def test_random_tuples(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = [int(x) for x in rng.integers(-9, 10, size=5)]
            det, predicted = five_term_identity(*a)
            assert det == predicted

    def test_det_is_twice_a_cube_generic(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            degree7_invariant(random_tensor(rng, bound=9))  # raises unless twice a cube

    def test_vanishes_on_three_secants(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            assert degree7_invariant(random_secant_point(rng, 3)) == 0

    def test_generic_tensors_nonvanishing(self):
        rng = np.random.default_rng(8)
        nonzero = 0
        for _ in range(20):
            nonzero += degree7_invariant(random_tensor(rng)) != 0
        assert nonzero >= 19

    def test_cube_consistency_mod_p(self):
        inv = degree7_invariant(fano_tensor())
        assert det_exact(pairing_matrix(fano_tensor())) // 2 == inv**3
        for p in PRIMES:
            assert classify(fano_tensor(), p).invariant_mod_p == inv % p


class TestPairingRankProperties:
    def test_subadditive_in_summands(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            w1 = random_secant_point(rng, 2)
            w2 = random_secant_point(rng, 1)
            r1 = rank_mod_p(pairing_matrix(w1), DEFAULT_PRIME)
            r2 = rank_mod_p(pairing_matrix(w2), DEFAULT_PRIME)
            r12 = rank_mod_p(pairing_matrix(w1 + w2), DEFAULT_PRIME)
            assert r12 <= r1 + r2

    def test_figure1_ranks_invariant_under_basis_change(self):
        rng = np.random.default_rng(10)
        for row in figure1_table(seed=0):
            for _ in range(20):
                g = random_unimodular(rng, 7)
                assert round(np.linalg.det(g.astype(float))) == 1
                moved = apply_linear_map(g, row.omega)
                assert rank_mod_p(pairing_matrix(moved), DEFAULT_PRIME) == row.rank

    def test_mod_p_rank_equals_exact_on_figure1(self):
        for row in figure1_table(seed=0):
            cm = pairing_matrix(row.omega)
            assert rank_mod_p(cm, DEFAULT_PRIME) == rank_exact(cm)


class TestFigure1:
    def test_expected_ranks(self):
        rows = figure1_table(seed=0)
        assert [r.expected_rank for r in rows] == [6, 10, 12, 12, 15, 18, 21]
        assert all(r.matches for r in rows)

    def test_rank_thresholds_by_summand_count(self):
        rng = np.random.default_rng(11)
        for terms, want in [(1, 6), (2, 12), (3, 18)]:
            seen = 0
            for _ in range(20):
                rank = rank_mod_p(pairing_matrix(random_secant_point(rng, terms)), DEFAULT_PRIME)
                assert rank <= want
                seen += rank == want
            assert seen >= 18

    def test_labels(self):
        labels = [r.label for r in figure1_table(seed=0)]
        assert labels[0] == "decomposable" and labels[-1] == "fano"


class TestDemos:
    def test_gr37(self):
        report = demo_gr37()
        assert report.passed
        assert report.achieved_rank == 50
        assert report.expected_rank == 51
        assert report.ambient == 70

    def test_gr28(self):
        report = demo_gr28()
        assert report.passed
        assert report.achieved_rank == 74
        assert report.expected_rank == 76
        assert report.ambient == 84

    def test_span_check_fails_outside_the_tangent_span(self):
        p1, p2 = coordinate_point(3, 7, range(4)), coordinate_point(3, 7, range(4, 8))
        p3 = GrassPoint(3, 7, np.hstack([np.eye(4), np.eye(4)]))
        curve = [wedge_vectors(np.hstack([np.eye(4), t * np.eye(4)]).astype(int).tolist(), 8) for t in (2, 3, 5, 7, 11)]
        assert _span_check([p1, p2, p3], curve, DEFAULT_PRIME) == (50, 5, 50)
        # The tangent spaces at p1 and p2 alone span 34 dimensions and miss the curve.
        assert _span_check([p1, p2], curve, DEFAULT_PRIME) == (34, 5, 35)
        extra = wedge_vectors(np.random.default_rng(0).integers(-3, 4, size=(4, 8)).tolist(), 8)
        assert _span_check([p1, p2, p3], curve + [extra], DEFAULT_PRIME) == (50, 6, 51)

    def test_reports_serialize(self):
        rec = demo_gr37().to_record()
        assert rec["achieved"] == 50 and rec["passed"] is True

    @pytest.mark.parametrize("demo, p, span", [(demo_gr37, 3, 3), (demo_gr37, 5, 4), (demo_gr28, 7, 9)])
    def test_colliding_samples_raise(self, demo, p, span):
        # The tangent rank is right at these primes; only the samples' images
        # lose dimensions, so the demo refuses the prime instead of failing.
        with pytest.raises(ValueError, match=f"collide mod {p} and span only {span} dimensions"):
            demo(p)

    @pytest.mark.parametrize("demo", [demo_gr37, demo_gr28])
    def test_small_prime_without_collision_passes(self, demo):
        assert demo(11).to_record() == demo().to_record()


class TestHelpers:
    def test_random_decomposable_is_decomposable(self):
        rng = np.random.default_rng(12)
        w = random_decomposable(rng)
        assert rank_mod_p(pairing_matrix(w), DEFAULT_PRIME) <= 6

    def test_five_term_tensor_support(self):
        w = five_term_tensor(1, 2, 3, 4, 5)
        assert w.coeff((0, 2, 4)) == 1
        assert w.coeff((0, 3, 6)) == 2
        assert w.coeff((0, 1, 5)) == 3
        assert w.coeff((1, 2, 3)) == 4
        assert w.coeff((4, 5, 6)) == 5
