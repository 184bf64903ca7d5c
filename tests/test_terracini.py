import collections
import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from oracle import (
    basis_frame,
    coordinate_point,
    full_frame,
    monomial_tangent_basis,
    placed_planes,
    reference_point,
    sample_points,
    stacked_trial_rank,
    subgrassmannian_span,
    tangent_stack,
)

from grsecant import grassmann, induction, terracini
from grsecant.codes import CodeSet, monomial_certificate
from grsecant.extalg import subset_rank
from grsecant.fieldcore import DEFAULT_PRIME, MAX_PRIME, SECOND_PRIME, Echelon, rank_mod_p
from grsecant.grassmann import (
    CoordinateSubspace,
    RankDrop,
    counted_columns,
    frame_rows,
    random_point,
    tangent_space_dim,
)
from grsecant.induction import certify_theorem, check_prop_a, check_prop_b, check_prop_c, prop_a_supports
from grsecant.terracini import (
    CertificateUnavailable,
    ImpliedRange,
    SecantProblem,
    SpanVerdict,
    Verdict,
    expected_affine_dim,
    monotone_extend,
    probe,
    rank_points,
)

P = DEFAULT_PRIME


class TestExpectedDim:
    def test_examples(self):
        assert expected_affine_dim(2, 6, 3) == 35
        assert expected_affine_dim(3, 7, 3) == 51
        assert expected_affine_dim(2, 8, 4) == 76
        assert expected_affine_dim(3, 7, 4) == 68

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            expected_affine_dim(0, 5, 1)
        with pytest.raises(ValueError):
            expected_affine_dim(2, 2, 1)


class TestProblemSize:
    def test_large_supported_problems_admitted(self):
        # Construction only: Gr(2,30) at s2(30) = 57, the largest benchmark probes, s far past
        # full width, and Gr(3,30) at s = 36, the largest s admitted there (the basis still grows).
        cases = [(2, 30, 57), (2, 24, 38), (2, 20, 27), (4, 14, 6), (2, 30, 14_093_647), (2, 30, 10**12), (3, 30, 36)]
        for k, n, s in cases:
            SecantProblem(k, n, s)
        L = CoordinateSubspace(30, tuple(range(6, 31)))
        SecantProblem(2, 30, 20, point_constraints=(L,) * 20, extra_spans=(L,))

    @pytest.mark.parametrize(
        "k, n, s",
        [(10, 30, 1), (4, 30, 40), (28, 30, 1), (1, 10**9, 1), (10**6, 10**9, 1), (3, 30, 10**12), (3, 30, 37)],
        ids=["ambient", "stack", "minor-tables", "huge-n", "huge-k", "huge-s", "stack-edge"],
    )
    def test_oversized_problem_refused_before_allocating(self, k, n, s):
        with pytest.raises(ValueError, match="MAX_PROBE_ENTRIES"):
            SecantProblem(k, n, s)

    def test_bound_stops_growing_past_full_width(self):
        # A probe holds nothing per point: s enters only through the basis,
        # min(s * 85, 4495) rows at Gr(2,30), which saturates at s = 53.
        assert terracini._probe_entries(2, 30, 52) < terracini._probe_entries(2, 30, 53)
        assert len({terracini._probe_entries(2, 30, s) for s in (53, 54, 57, 10**6, 14_093_647, 10**12, 10**30)}) == 1

    def test_extra_spans_add_no_stack_rows(self):
        # Span columns are counted, not stacked, so a span adds nothing to
        # the bound: the span basis of all of Gr(4,30) fits beside one point,
        # and a problem too large without spans stays too large with them.
        full = CoordinateSubspace(30, tuple(range(31)))
        SecantProblem(4, 30, 1, point_constraints=(full,), extra_spans=(full,))
        with pytest.raises(ValueError, match="MAX_PROBE_ENTRIES"):
            SecantProblem(4, 30, 40, extra_spans=(full,))


class TestProbe:
    def test_defective_gr26(self):
        v = probe(SecantProblem(2, 6, 3, seed=0))
        assert v.verdict is Verdict.INCONCLUSIVE_DEFICIT
        assert (v.achieved_rank, v.expected_rank, v.deficit) == (34, 35, 1)

    def test_defective_gr37_s3(self):
        v = probe(SecantProblem(3, 7, 3, seed=0))
        assert (v.achieved_rank, v.expected_rank) == (50, 51)

    def test_defective_gr37_s4(self):
        v = probe(SecantProblem(3, 7, 4, seed=0))
        assert (v.achieved_rank, v.expected_rank, v.deficit) == (64, 68, 4)

    def test_defective_gr28(self):
        v = probe(SecantProblem(2, 8, 4, seed=0))
        assert (v.achieved_rank, v.expected_rank, v.deficit) == (74, 76, 2)

    @pytest.mark.parametrize(
        "k, n, s, achieved",
        [(2, 6, 3, 34), (3, 7, 3, 50), (3, 7, 4, 64), (2, 8, 4, 74)],
    )
    def test_defective_basis_stack_matches_frames(self, k, n, s, achieved):
        # The probe stacks one tangent basis per point; all frame generators
        # span the same space.
        for p in (P, SECOND_PRIME):
            for seed in range(3):
                problem = SecantProblem(k, n, s, prime=p, seed=seed)
                points = sample_points(problem, 0)
                stack = tangent_stack(points, p)
                frames = np.vstack([full_frame(pt.rows, p) for pt in points])
                assert len(stack) == s * tangent_space_dim(k, n)
                assert rank_mod_p(stack, p) == rank_mod_p(frames, p) == achieved

    def test_certified_expected(self):
        v = probe(SecantProblem(2, 9, 5, seed=0))
        assert v.verdict is Verdict.CERTIFIED_EXPECTED
        assert v.achieved_rank == 110 == 5 * 22

    def test_fills(self):
        v = probe(SecantProblem(2, 9, 6, seed=0))
        assert v.verdict is Verdict.CERTIFIED_FILLS
        assert v.achieved_rank == 120

    def test_k1_baseline(self):
        # A generic 6x6 skew form splits into 3 decomposables: sigma_3 fills.
        v = probe(SecantProblem(1, 5, 3, seed=0))
        assert v.verdict is Verdict.CERTIFIED_FILLS
        assert v.achieved_rank == 15

    def test_k1_pfaffian_oracle(self):
        # Independent check of the baseline: a random sum of three decomposable
        # skew forms has full rank 6, so it is not a sum of fewer.
        rng = np.random.default_rng(0)
        M = np.zeros((6, 6), dtype=np.int64)
        for _ in range(3):
            u, v = rng.integers(0, P, size=(2, 6))
            M = (M + np.outer(u, v) - np.outer(v, u)) % P
        assert rank_mod_p(M, P) == 6

    def test_deficits_stable_across_seeds_and_primes(self):
        for seed in range(3):
            for prime in (P, SECOND_PRIME):
                v = probe(SecantProblem(2, 6, 3, prime=prime, seed=seed))
                assert (v.achieved_rank, v.expected_rank) == (34, 35)

    def test_rank_monotone_in_s(self):
        prev = 0
        for s in range(1, 7):
            v = probe(SecantProblem(2, 7, s, seed=3, trials=1))
            assert v.achieved_rank >= prev
            assert v.achieved_rank <= prev + tangent_space_dim(2, 7)
            prev = v.achieved_rank

    def test_determinism(self):
        a = probe(SecantProblem(3, 8, 3, seed=9))
        b = probe(SecantProblem(3, 8, 3, seed=9))
        assert a == b
        assert a.to_record() == b.to_record()

    def test_record_shape(self):
        rec = probe(SecantProblem(2, 6, 3, seed=1)).to_record()
        for key in ("k", "n", "s", "prime", "seed", "trials", "achieved", "expected", "ambient", "verdict"):
            assert key in rec
        assert "elapsed_ms" not in rec


class TestTracedCallSites:
    """A probe reaches each layer through the module attribute that benchmarks/workloads.py patches.

    The first m = min(s, (n+1) // (k+1)) points are coordinate planes and
    counted, so only the other s - m are sampled and reach frame_rows; both
    problems have s > m.
    """

    @pytest.mark.parametrize(
        "strategy, problem, sites",
        [
            ("random", SecantProblem(2, 9, 5, seed=1), {"frame_rows", "random_point", "rank_mod_p", "maximal_minors_mod"}),
            # No monomial certificate of 6 words exists here: auto samples points.
            ("auto", SecantProblem(3, 9, 6, seed=1), {"frame_rows", "random_point", "rank_mod_p", "maximal_minors_mod"}),
        ],
    )
    def test_probe_calls_traced_sites(self, monkeypatch, strategy, problem, sites):
        calls = collections.Counter()

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args):
                calls[name] += 1
                if name != "frame_rows":
                    return original(*args)
                out = args[2]
                assert not out.any()
                written = original(*args)
                # The returned rows are the rows written: a prefix of `out`,
                # all nonzero, and nothing after them.
                assert np.shares_memory(written, out)
                assert np.array_equal(out.any(axis=1).nonzero()[0], np.arange(written.shape[0]))
                return written

            monkeypatch.setattr(owner, name, counted)

        for name in ("frame_rows", "random_point", "rank_mod_p"):
            count(terracini, name)
        count(grassmann, "maximal_minors_mod")
        v = probe(problem, strategy)
        assert v.verdict.is_certified()
        assert {name for name in calls if calls[name]} == sites
        sampled = problem.s - min(problem.s, (problem.n + 1) // (problem.k + 1))
        assert calls["frame_rows"] == calls["random_point"] == sampled


def _count_draws(monkeypatch) -> collections.Counter:
    """Count the calls of terracini.random_point under "random_point"."""
    calls = collections.Counter()
    draw = terracini.random_point

    def counted(*args):
        calls["random_point"] += 1
        return draw(*args)

    monkeypatch.setattr(terracini, "random_point", counted)
    return calls


class TestStreaming:
    """Gr(2,20) at s2(20) = 27: 7 coordinate planes are counted, 385 of the
    1330 columns, and the sampled points' frames are ranked at the other 945."""

    def test_stops_drawing_once_every_column_is_spanned(self, monkeypatch):
        # 17 frames of 55 rows cannot span 945 columns; 18 do, so the last 2
        # of the 20 sampled points are never drawn.
        calls = _count_draws(monkeypatch)
        v = probe(SecantProblem(2, 20, 27, seed=0))
        assert v.verdict is Verdict.CERTIFIED_FILLS
        assert calls["random_point"] == 18

    def test_s_past_full_width_costs_nothing(self, monkeypatch):
        # At s = 10^6 the probe places the same 7 planes, draws the same 18
        # points and holds as much as at s = 27: nothing is kept per point.
        calls = _count_draws(monkeypatch)
        runs = []
        for s in (27, 10**6):
            problem = SecantProblem(2, 20, s, seed=0)
            probe(problem)  # fills the minor tables' caches
            calls.clear()
            tracemalloc.start()
            try:
                v = probe(problem)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            runs.append(((v.achieved_rank, v.trials_used, calls["random_point"]), peak))
        (small, small_peak), (huge, huge_peak) = runs
        assert small == huge == (1330, 1, 18)
        assert huge_peak - small_peak < 2 * 2**20

    def test_peak_memory_is_the_basis(self):
        # No stack: beside the 945 x 945 float64 basis E a probe holds one
        # frame and the kernel's temporaries, none larger than a block.
        problem = SecantProblem(2, 20, 27, seed=0)
        probe(problem)  # fills the minor tables' caches
        tracemalloc.start()
        try:
            probe(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 945 * 945 * 8


class TestSampling:
    @pytest.mark.parametrize("constrained", [False, True])
    def test_point_streams_do_not_depend_on_first(self, constrained):
        n = 11
        L = CoordinateSubspace(n, tuple(range(4, n + 1)))
        problem = SecantProblem(2, n, 6, seed=7, point_constraints=(L, None) * 3 if constrained else None)
        for trial in range(2):
            every = sample_points(problem, trial)
            for first in range(problem.s + 1):
                rest = sample_points(problem, trial, first)
                assert len(rest) == problem.s - first
                assert all(np.array_equal(a.rows, b.rows) for a, b in zip(rest, every[first:]))


def _recorded(monkeypatch, name):
    """Record every call of terracini.<name>: its arguments (the stream
    copied before the call) and its result, or the RankDrop it raised, and
    the stream's state after it."""
    calls = []
    original = getattr(terracini, name)

    def recorded(*args):
        call = {"args": [copy.deepcopy(a) if isinstance(a, np.random.Generator) else a for a in args]}
        calls.append(call)
        try:
            call["result"] = original(*args)
        except RankDrop as exc:
            call["result"] = exc
            raise
        finally:
            call["state"] = next((a.bit_generator.state for a in args if isinstance(a, np.random.Generator)), None)
        if isinstance(call["result"], np.ndarray):
            call["result"] = call["result"].copy()
        return call["result"]

    monkeypatch.setattr(terracini, name, recorded)
    return calls


def _assert_matches_reference(draw) -> bool:
    """A recorded random_point call drew what `reference_point` draws from the
    same stream and left the stream where it does; True if it raised RankDrop."""
    k, n, rng, constraint, p = draw["args"]
    if isinstance(draw["result"], RankDrop):
        with pytest.raises(RankDrop):
            reference_point(k, n, rng, constraint, p)
    else:
        assert np.array_equal(reference_point(k, n, rng, constraint, p).rows, draw["result"].rows)
    assert rng.bit_generator.state == draw["state"]
    return isinstance(draw["result"], RankDrop)


def _sampling_problems(p: int, seed: int):
    """Unconstrained, constrained and spanned problems.  The constrained one
    samples 39 points a trial on k+1 coordinates, where p = 3 drops rank."""
    n = 9
    S = CoordinateSubspace(n, (0, 1, 2))
    L = CoordinateSubspace(n, (6, 7, 8, 9))
    yield SecantProblem(2, n, 6, prime=p, seed=seed)
    yield SecantProblem(1, 4, 4, prime=p, seed=seed)
    yield SecantProblem(2, n, 42, prime=p, seed=seed, point_constraints=(S,) * 40 + (L, None))
    yield SecantProblem(2, n, 6, prime=p, seed=seed, point_constraints=(L,) * 4 + (None,) * 2, extra_spans=(L,))


class TestSamplingRule:
    """random_point accepts a draw by its Plücker row; `reference_point` by an
    elimination rank.  Both must draw the same points from the same streams."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_random_point_matches_reference_at_tiny_primes(self, p):
        drops = redraws = 0
        for k, support in [(1, (0, 3)), (2, (1, 2, 5))]:
            constraint = CoordinateSubspace(6, support)
            # About one stream in a thousand drops rank 8 times running at p = 3.
            for seed in range(4000 if p == 3 else 1000):
                stream = [p, k, seed]
                rng, ref = np.random.default_rng(stream), np.random.default_rng(stream)
                try:
                    pt = random_point(k, 6, rng, constraint, p)
                except RankDrop:
                    with pytest.raises(RankDrop):
                        reference_point(k, 6, ref, constraint, p)
                    drops += 1
                else:
                    assert np.array_equal(pt.rows, reference_point(k, 6, ref, constraint, p).rows)
                    first = np.random.default_rng(stream).integers(0, p, size=(k + 1, len(support)), dtype=np.int64)
                    redraws += not np.array_equal(pt.rows[:, list(support)], first)
                assert rng.bit_generator.state == ref.bit_generator.state
        assert redraws > 0
        assert drops > 0 or p != 3

    @pytest.mark.parametrize("p", [3, 5, 7, P, SECOND_PRIME])
    def test_probe_points_match_reference(self, monkeypatch, p):
        draws = _recorded(monkeypatch, "random_point")
        frames = _recorded(monkeypatch, "frame_rows")
        probes = drops = 0
        for seed in range(4 if p < 11 else 2):
            for problem in _sampling_problems(p, seed):
                try:
                    probe(problem, target_rank=problem.ambient)
                except RankDrop:
                    drops += 1
                probes += 1
        assert probes and draws and frames
        assert sum(_assert_matches_reference(draw) for draw in draws) == drops
        assert drops > 0 or p != 3
        # Each frame is the oracle's basis at the columns the probe keeps.
        for call in frames:
            pt, q, _, keep = call["args"]
            assert q == p
            assert np.array_equal(call["result"], basis_frame(pt.rows, p)[:, keep])

    @pytest.mark.parametrize("p", [3, 7, P])
    def test_frames_match_reference_at_random_masks(self, p):
        for k, n in [(1, 6), (2, 9), (3, 9)]:
            L = CoordinateSubspace(n, tuple(range(k + 2)))
            problem = SecantProblem(k, n, 4, prime=p, seed=5, point_constraints=(None, L, None, L))
            points = sample_points(problem, 0)
            dim = tangent_space_dim(k, n)
            for mask in range(4):
                keep = np.random.default_rng([k, n, p, mask]).random(problem.ambient) < 0.6
                frame = np.zeros((dim, int(keep.sum())))
                for pt in points:
                    frame.fill(0)
                    assert np.array_equal(frame_rows(pt, p, frame, keep), basis_frame(pt.rows, p)[:, keep])


class TestTangentStack:
    """A trial's tangent spaces reach the kernel one reused frame at a time."""

    @pytest.mark.parametrize("k, n", [(1, 11), (2, 11), (3, 11), (4, 11)])
    @pytest.mark.parametrize("spans", [False, True])
    def test_exact_size_and_no_zero_row(self, k, n, spans):
        # Three constrained points, one random and two coordinate points,
        # framed at every column, at masks, and with spans without the
        # spans' columns: each frame is exactly tangent_space_dim rows.
        L = CoordinateSubspace(n, tuple(range(4, n + 1)))
        M = CoordinateSubspace(n, tuple(range(0, 4)) + tuple(range(8, n + 1)))
        N = CoordinateSubspace(n, tuple(range(0, 8)))
        problem = SecantProblem(k, n, 4, seed=2, point_constraints=(L, M, N, None))
        points = sample_points(problem, 0) + [
            coordinate_point(k, n, range(k + 1)),
            coordinate_point(k, n, range(n - k, n + 1)),
        ]
        p, dim = problem.prime, tangent_space_dim(k, n)
        stack = tangent_stack(points, p)
        assert stack.any(axis=1).all()
        masks = [np.ones(problem.ambient, dtype=bool), ~counted_columns(n + 1, k + 1, planes=[range(k + 1)])]
        if spans:
            masks.append(~counted_columns(n + 1, k + 1, [L.support, M.support, N.support]))
        else:
            masks.append(np.arange(problem.ambient) % 3 == 1)
        for keep in masks:
            # Written at the width it is ranked: the full frame's kept columns.
            frame = np.zeros((dim, int(keep.sum())))
            for i, pt in enumerate(points):
                frame.fill(0)
                assert np.array_equal(frame_rows(pt, p, frame, keep), stack[i * dim : (i + 1) * dim, keep])
            basis = Echelon(int(keep.sum()), len(points) * dim, p)
            assert rank_points(points, p, basis, keep) == rank_mod_p(stack[:, keep], p)


class TestStrategies:
    def test_monomial_matches_random(self):
        pm = probe(SecantProblem(2, 12, 4, seed=0), strategy="monomial")
        pr = probe(SecantProblem(2, 12, 4, seed=0), strategy="random")
        assert pm.verdict is Verdict.CERTIFIED_EXPECTED
        assert pm.achieved_rank == pr.achieved_rank

    def test_monomial_unavailable(self):
        with pytest.raises(CertificateUnavailable):
            probe(SecantProblem(3, 9, 6, seed=0), strategy="monomial")

    def test_auto_falls_back(self):
        v = probe(SecantProblem(3, 9, 6, seed=0), strategy="auto")
        assert v.verdict is Verdict.CERTIFIED_EXPECTED
        assert v.achieved_rank == 150

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            probe(SecantProblem(2, 6, 3), strategy="exhaustive")

    # Every (k, n) with k < 80 and n < 3000 that SecantProblem accepts above
    # 200 000 ambient coordinates; each is accepted only at s = 1.
    @pytest.mark.parametrize("k, n", [(3, 48), (4, 31), (4, 32), (5, 25)])
    def test_auto_certifies_above_200000_ambient(self, monkeypatch, k, n):
        assert math.comb(n + 1, k + 1) > 200_000
        monomial = probe(SecantProblem(k, n, 1), strategy="monomial").to_record()
        masks = []
        counted = terracini.counted_columns
        monkeypatch.setattr(terracini, "counted_columns", lambda *args: masks.append(args) or counted(*args))
        auto = probe(SecantProblem(k, n, 1), strategy="auto").to_record()
        assert masks == []  # the certificate's one word is counted without a mask
        assert auto == monomial
        assert auto["achieved"] == auto["expected"] == (k + 1) * (n - k) + 1 and auto["trials"] == 1
        with pytest.raises(ValueError, match="MAX_PROBE_ENTRIES"):
            SecantProblem(k, n, 2)


class TestTheorem34Grid:
    def test_grid_certified(self):
        # Whenever 3(s-1) <= n-k (k >= 2), the probe must certify.
        for k in (2, 3, 4):
            for n in range(2 * k + 1, 17):
                for s in range(1, 7):
                    if 3 * (s - 1) > n - k:
                        continue
                    v = probe(SecantProblem(k, n, s, seed=0, trials=1), strategy="auto")
                    assert v.verdict.is_certified(), (k, n, s, v.to_record())

    def test_grid_spot_checks_with_random_points(self):
        for k, n, s in [(2, 9, 3), (3, 10, 3), (4, 12, 2), (2, 14, 5)]:
            v = probe(SecantProblem(k, n, s, seed=0), strategy="random")
            assert v.verdict.is_certified(), (k, n, s)


class TestMonomialCrossCheck:
    def test_certificate_implies_certified_probe(self):
        for k in (2, 3):
            for n in range(2 * k + 1, 15):
                for s in (2, 3, 4):
                    cert = monomial_certificate(k, n, s)
                    if cert is None or s * tangent_space_dim(k, n) > math.comb(n + 1, k + 1):
                        continue
                    v = probe(SecantProblem(k, n, s, seed=0), strategy="random")
                    assert v.verdict.is_certified(), (k, n, s)


def _prop_supports():
    """The spans of the Prop. A (n = 17), B (n = 11..16) and C (n = 9..14) base cases."""
    yield prop_a_supports(17)
    for n in range(11, 17):
        yield CoordinateSubspace(n, tuple(range(6, n + 1))), CoordinateSubspace(n, tuple(range(0, n - 5)))
    for n in range(9, 15):
        yield (CoordinateSubspace(n, tuple(range(6, n + 1))),)


class TestCountedRanks:
    """The ranks a probe counts instead of eliminating, against elimination."""

    ACCEPTANCE_GRID = [(k, n, s) for k in (2, 3, 4) for n in range(2 * k + 1, 15) for s in range(1, 7)]

    def test_monomial_certificate_rank_is_the_count(self):
        # Words at distance >= 6 have disjoint coordinate tangent spaces: the
        # closed form a certificate probe counts is the mask's count.
        counted = 0
        for k, n, s in self.ACCEPTANCE_GRID:
            cert = monomial_certificate(k, n, s)
            if cert is None:
                continue
            points = [coordinate_point(k, n, w) for w in cert.words[:s]]
            assert rank_mod_p(tangent_stack(points, P), P) == s * tangent_space_dim(k, n), (k, n, s)
            assert counted_columns(n + 1, k + 1, planes=cert.words[:s]).sum() == s * tangent_space_dim(k, n)
            assert terracini._disjoint_count(k, n, cert.words[:s]) == s * tangent_space_dim(k, n)
            counted += 1
        assert counted > 50

    def test_overlapping_certificate_goes_through_the_mask(self, monkeypatch):
        # Two words meeting in k-1 = 1 index share 4 tangent columns: the
        # mask counts 2 * 22 - 4, and the probe is never certified.
        words = ((0, 1, 2), (2, 3, 4))
        code = CodeSet(10, 3, words, distance=4)
        monkeypatch.setattr(terracini.codes, "monomial_certificate", lambda k, n, s: code)
        assert terracini._disjoint_count(2, 9, words) is None
        v = probe(SecantProblem(2, 9, 2, seed=0), strategy="monomial")
        assert v.verdict is Verdict.INCONCLUSIVE_DEFICIT
        assert (v.achieved_rank, v.expected_rank) == (40, 44)

    @pytest.mark.parametrize("spans", list(_prop_supports()), ids=lambda spans: f"n{spans[0].n}-{len(spans)}spans")
    def test_span_columns_are_the_span_basis(self, spans):
        n = spans[0].n
        supports = [span.support for span in spans]
        mask = counted_columns(n + 1, 3, supports)
        assert mask.shape == (math.comb(n + 1, 3),)
        ranks = {subset_rank(t) for span in spans for t in subgrassmannian_span(span, 3)}
        assert set(mask.nonzero()[0].tolist()) == ranks
        # With a coordinate point beside the spans, its tangent columns join them.
        both = counted_columns(n + 1, 3, supports, planes=[(0, 1, 2)])
        plane = {subset_rank(t) for t in monomial_tangent_basis((0, 1, 2), 2, n)}
        assert set(both.nonzero()[0].tolist()) == ranks | plane

    @pytest.mark.parametrize("p", [P, SECOND_PRIME])
    @pytest.mark.parametrize("n, free", [(9, 2), (10, 3), (11, 4), (12, 4)])
    def test_span_probe_rank_matches_stacked_unit_rows(self, p, n, free):
        # Prop. C-like (one span) and Prop. B-like (two spans) configurations,
        # with points on each span and free points.
        L = CoordinateSubspace(n, tuple(range(6, n + 1)))
        M = CoordinateSubspace(n, tuple(range(0, n - 5)))
        for spans, constraints in [((L,), (L,) * 3 + (None,) * free), ((L, M), (L, M) * 2 + (None,) * free)]:
            problem = SecantProblem(
                2, n, len(constraints), prime=p, seed=1, trials=1, point_constraints=constraints, extra_spans=spans
            )
            # The oracle stacks the spans' unit rows over the same points the
            # probe ranks: coordinate points where it places them, sampled
            # points elsewhere.
            assert placed_planes(problem)
            assert probe(problem, target_rank=problem.ambient).achieved_rank == stacked_trial_rank(problem)


def _trial_rank(problem: SecantProblem) -> int:
    """The rank `probe` reaches in the problem's first trial."""
    return probe(dataclasses.replace(problem, trials=1), target_rank=problem.ambient).achieved_rank


class TestCoordinateNormalisation:
    """A trial's rank, with its first points taken as coordinate planes and
    counted, is the elimination rank of the same points' plain stack."""

    PRIMES = (P, SECOND_PRIME, MAX_PRIME)

    @pytest.mark.parametrize("p", PRIMES)
    def test_acceptance_grid_matches_plain_stack(self, p):
        for k, n, s in TestCountedRanks.ACCEPTANCE_GRID:
            problem = SecantProblem(k, n, s, prime=p, seed=4)
            assert _trial_rank(problem) == stacked_trial_rank(problem), (k, n, s)

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("k, n, s, achieved", [(2, 6, 3, 34), (3, 7, 3, 50), (3, 7, 4, 64), (2, 8, 4, 74)])
    def test_defective_cases(self, p, k, n, s, achieved):
        for seed in range(3):
            problem = SecantProblem(k, n, s, prime=p, seed=seed)
            assert _trial_rank(problem) == stacked_trial_rank(problem) == achieved

    @pytest.mark.parametrize("p", PRIMES)
    def test_k1_overlapping_tangent_columns(self, p):
        # Two words meeting in k-1 indices share the tangent columns made of
        # their meet, one index of each word outside it and nothing else: for
        # k = 1 (disjoint planes) the columns {a, b} with a in one plane and b
        # in the other.
        assert counted_columns(10, 2, planes=[(0, 1), (2, 3), (4, 5), (6, 7)]).sum() == 44 < 4 * tangent_space_dim(1, 9)
        for k, words in [(2, [(0, 1, 2), (2, 3, 4)]), (3, [(0, 1, 2, 3), (2, 3, 4, 5)])]:
            assert counted_columns(10, k + 1, planes=words).sum() == 2 * tangent_space_dim(k, 9) - 2 * 2
        assert _trial_rank(SecantProblem(1, 9, 4, prime=p)) == 44
        for n, s in [(9, 3), (9, 4), (9, 6), (11, 3), (11, 7), (12, 5), (12, 8)]:
            problem = SecantProblem(1, n, s, prime=p, seed=1)
            assert _trial_rank(problem) == stacked_trial_rank(problem), (n, s)

    @pytest.mark.parametrize("p", [P, SECOND_PRIME])
    @pytest.mark.parametrize("variant", ["floor", "ceil"])
    @pytest.mark.parametrize(
        "check, n", [(check_prop_b, 11), (check_prop_b, 12), (check_prop_c, 9), (check_prop_c, 10)],
        ids=["b11", "b12", "c9", "c10"],
    )
    def test_base_case_matches_full_elimination(self, monkeypatch, p, variant, check, n):
        # The base case's own problem: the counted trial rank, the oracle's
        # elimination of the span unit rows over the trial's coordinate and
        # sampled points, and the target `_plan` sets are one number.
        [(problem, target)] = _captured_probes(monkeypatch, lambda: check(n, variant, p))
        assert placed_planes(problem)
        assert _trial_rank(problem) == stacked_trial_rank(problem) == target

    @pytest.mark.parametrize("p", PRIMES)
    def test_constrained_points_without_spans(self, p):
        n = 11
        L = CoordinateSubspace(n, tuple(range(4, n + 1)))
        M = CoordinateSubspace(n, tuple(range(0, 4)) + tuple(range(8, n + 1)))
        N = CoordinateSubspace(n, tuple(range(0, 8)))
        for k in (1, 2, 3):
            for constraints in [(L, M, N, None, L), (None, L, None, M, N, None), (N, N, N)]:
                problem = SecantProblem(k, n, len(constraints), prime=p, seed=3, point_constraints=constraints)
                # L, M and N cover every coordinate and leave none private but
                # N's {0..7} when N is the only support: only (N, N, N) places points.
                assert bool(placed_planes(problem)) == (constraints == (N, N, N))
                assert _trial_rank(problem) == stacked_trial_rank(problem), (k, constraints)


def _captured_probes(monkeypatch, run) -> list[tuple[SecantProblem, int]]:
    """Each problem `run()` hands induction.probe, with its target rank.

    The probes are not run: each reports its target as reached.
    """
    seen = []

    def capture(problem, target_rank=None):
        target = expected_affine_dim(problem.k, problem.n, problem.s) if target_rank is None else target_rank
        seen.append((problem, target))
        return SpanVerdict(problem, target, target, 1)

    monkeypatch.setattr(induction, "probe", capture)
    run()
    return seen


class TestPlacement:
    """Coordinate planes on each class's private coordinates: the base cases'
    problems, constrained problems without spans and unconstrained ones."""

    def problems(self, monkeypatch):
        n = 11
        L = CoordinateSubspace(n, tuple(range(4, n + 1)))
        M = CoordinateSubspace(n, tuple(range(0, 4)) + tuple(range(8, n + 1)))
        N = CoordinateSubspace(n, tuple(range(0, 8)))
        yield from (problem for problem, _ in _captured_probes(monkeypatch, lambda: certify_theorem(14)))
        for k in (1, 2, 3):
            for constraints in [(L, M, N, None, L), (N, N, N, None, None), (N, None) * 4]:
                yield SecantProblem(k, n, len(constraints), point_constraints=constraints)
                yield SecantProblem(k, n, len(constraints), point_constraints=constraints, extra_spans=(L,))
            yield SecantProblem(k, 20, 27)

    def test_planes_lie_on_private_coordinates(self, monkeypatch):
        for problem in self.problems(monkeypatch):
            placed = terracini._coordinate_planes(problem)
            assert placed == placed_planes(problem), problem
            constraints = problem.point_constraints or (None,) * problem.s
            members = {c.support for c in constraints if c is not None} | {s.support for s in problem.extra_spans}
            used = [c for plane in placed.values() for c in plane]
            assert len(used) == len(set(used)) == (problem.k + 1) * len(placed)  # pairwise disjoint planes
            for i, plane in placed.items():
                cls = None if constraints[i] is None else constraints[i].support
                assert set(plane) <= set(cls or range(problem.n + 1)), (problem, i)
                assert not any(set(plane) & set(other) for other in members - {cls}), (problem, i)

    @pytest.mark.parametrize(
        "check, args, draws",
        [(check_prop_c, (14, "floor"), 6), (check_prop_a, (17,), 12)],
        ids=["prop-c-14-floor", "prop-a-17"],
    )
    def test_base_case_draws(self, monkeypatch, check, args, draws):
        # Prop. C at n = 14 places 3 of its 4 points on L = {6..14} and 2 of
        # its 7 free points on {0..5}; Prop. A has no private coordinate.
        # (Unconstrained Gr(2,20) at s = 27: TestStreaming draws 18.)
        calls = _count_draws(monkeypatch)
        assert check(*args).passed
        assert calls["random_point"] == draws

    @pytest.mark.parametrize("k, n, s", [(1, 9, 4), (2, 9, 5), (2, 20, 27), (3, 9, 6), (4, 14, 6)])
    def test_free_constraints_place_as_no_constraints(self, k, n, s):
        problem = SecantProblem(k, n, s, seed=2)
        free = dataclasses.replace(problem, point_constraints=(None,) * s)
        assert terracini._coordinate_planes(free) == terracini._coordinate_planes(problem)

        def outcome(p, strategy):
            try:
                return probe(p, strategy=strategy).to_record()
            except CertificateUnavailable:
                return CertificateUnavailable

        for strategy in ("random", "auto", "monomial"):
            assert outcome(free, strategy) == outcome(problem, strategy), strategy


class TestSpecialization:
    def test_three_span_configuration(self):
        n = 17
        L = CoordinateSubspace(n, tuple(range(6, 18)))
        M = CoordinateSubspace(n, tuple(range(0, 6)) + tuple(range(12, 18)))
        N = CoordinateSubspace(n, tuple(range(0, 12)))
        problem = SecantProblem(
            2, n, 12, seed=0,
            point_constraints=(L,) * 4 + (M,) * 4 + (N,) * 4,
            extra_spans=(L, M, N),
        )
        v = probe(problem, target_rank=math.comb(18, 3))
        assert v.verdict is Verdict.CERTIFIED_FILLS
        assert v.ambient - v.achieved_rank == 0
        # A specialization's record has the same keys as any probe record.
        assert set(v.to_record()) == set(probe(SecantProblem(2, n, 1)).to_record())

    def test_two_span_residuals(self):
        # floor((6n-49)/9) points per span, 4 free points; residual by n mod 3.
        for n, expected_residual in [(11, 32), (12, 20), (13, 8)]:
            s = (6 * n - 49) // 9
            L = CoordinateSubspace(n, tuple(range(6, n + 1)))
            M = CoordinateSubspace(n, tuple(range(0, n - 5)))
            target = math.comb(n + 1, 3) - expected_residual
            problem = SecantProblem(
                2, n, 2 * s + 4, seed=0,
                point_constraints=(L,) * s + (M,) * s + (None,) * 4,
                extra_spans=(L, M),
            )
            v = probe(problem, target_rank=target)
            assert v.achieved_rank == target
            assert v.ambient - v.achieved_rank == expected_residual

    def test_inconsistent_constraint_rejected(self):
        n = 11
        L = CoordinateSubspace(n, tuple(range(6, n + 1)))
        stray = CoordinateSubspace(n, tuple(range(0, 4)))
        problem = SecantProblem(
            2, n, 1, seed=0, point_constraints=(stray,), extra_spans=(L,),
        )
        with pytest.raises(ValueError):
            probe(problem, target_rank=100)


class TestMonotoneExtend:
    def test_expected_extends_down(self):
        v = probe(SecantProblem(2, 9, 5, seed=0))
        rng = monotone_extend(v.verdict, v.problem.s)
        assert rng == ImpliedRange(Verdict.CERTIFIED_EXPECTED, 1, 5)

    def test_fills_extends_up(self):
        v = probe(SecantProblem(2, 9, 6, seed=0))
        rng = monotone_extend(v.verdict, v.problem.s)
        assert rng == ImpliedRange(Verdict.CERTIFIED_FILLS, 6, None)

    def test_rejects_inconclusive(self):
        v = probe(SecantProblem(2, 6, 3, seed=0))
        with pytest.raises(ValueError):
            monotone_extend(v.verdict, v.problem.s)


class TestProblemValidation:
    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            SecantProblem(2, 6, 0)
        with pytest.raises(ValueError):
            SecantProblem(2, 2, 1)
        with pytest.raises(ValueError):
            SecantProblem(2, 6, 2, point_constraints=(None,))
        with pytest.raises(ValueError):
            SecantProblem(2, 6, 1, prime=32001)

    def test_wrong_space_constraint(self):
        with pytest.raises(ValueError):
            SecantProblem(2, 6, 1, point_constraints=(CoordinateSubspace(9, (0, 1, 2)),))


def _base_case_problem(prop, n, variant):
    """The SecantProblem and target rank induction._check probes for a base case."""
    target, counts = induction._plan(prop, n, variant)
    spans, constraints = induction._configuration(prop, n, counts)
    return SecantProblem(2, n, len(constraints), point_constraints=constraints, extra_spans=spans), target


_S = CoordinateSubspace(9, (0, 1, 2, 3))


class TestLiveRows:
    """rank_points passes no all-zero frame row to the kernel, and the ranks stay those of the full stack.

    A point on a span S has its Plücker row and the generators (i, j), j in
    S, inside ∧³S; when those columns are counted the rows are zero where
    they are ranked.
    """

    @pytest.mark.parametrize(
        "problem, target, framed_zeros",
        [
            (*_base_case_problem("a", 17, None), True),
            # Prop. B at n = 11 and Prop. C n = 9 floor place every point on a
            # span, so no frame has a zero row.
            (*_base_case_problem("b", 11, "floor"), False),
            (*_base_case_problem("b", 11, "ceil"), False),
            (*_base_case_problem("b", 17, "floor"), True),
            (*_base_case_problem("c", 9, "floor"), False),
            (*_base_case_problem("c", 9, "ceil"), True),
            # No extra spans: the plane placed on S counts all of ∧³S.
            (SecantProblem(2, 9, 5, point_constraints=(_S, _S, _S, None, None)), None, True),
        ],
        ids=["a17", "b11-floor", "b11-ceil", "b17-floor", "c9-floor", "c9-ceil", "constrained"],
    )
    def test_no_zero_row_reaches_the_kernel(self, monkeypatch, problem, target, framed_zeros):
        zero_frame_rows, zero_kernel_rows, ranks = 0, [], []
        frame, kernel, ranked = terracini.frame_rows, terracini.rank_mod_p, terracini.rank_points

        def framed(*args):
            nonlocal zero_frame_rows
            rows = frame(*args)
            zero_frame_rows += int((~rows.any(axis=1)).sum())
            return rows

        def kernel_input(mat, *args):
            zero_kernel_rows.append(int((~np.asarray(mat).any(axis=1)).sum()))
            return kernel(mat, *args)

        def trial_rank(*args):
            ranks.append(ranked(*args))
            return ranks[-1]

        monkeypatch.setattr(terracini, "frame_rows", framed)
        monkeypatch.setattr(terracini, "rank_mod_p", kernel_input)
        monkeypatch.setattr(terracini, "rank_points", trial_rank)
        v = probe(problem, target_rank=target)
        assert (zero_frame_rows > 0) == framed_zeros
        assert zero_kernel_rows and not any(zero_kernel_rows)
        assert len(ranks) == v.trials_used
        spans = [span.support for span in problem.extra_spans]
        count = int(counted_columns(problem.n + 1, 3, spans, placed_planes(problem).values()).sum())
        for trial, rank in enumerate(ranks):
            assert count + rank == stacked_trial_rank(problem, trial)


class TestPointStreams:
    """_point_rng seeds from the key's 32-bit words: the stream of the key as a list of ints."""

    @pytest.mark.parametrize("seed", [0, 4, 2**32 - 1, 2**32, 2**64 - 1, -1])
    @pytest.mark.parametrize("trial, index", [(0, 0), (2, 5), (2**32, 1), (1, 2**32 + 7), (2**40, 2**64 + 3)])
    def test_same_draws_as_the_list_key(self, seed, trial, index):
        problem = SecantProblem(2, 9, 3, prime=SECOND_PRIME, seed=seed)
        key = [seed & (2**64 - 1), SECOND_PRIME, 2, 9, trial, index]
        got = terracini._point_rng(problem, trial, index).integers(0, 2**63, size=6)
        assert np.array_equal(got, np.random.default_rng(key).integers(0, 2**63, size=6))
