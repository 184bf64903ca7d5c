import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grsecant import fieldcore, terracini
from grsecant.fieldcore import (
    BLOCK_ROWS,
    DEFAULT_PRIME,
    GEMM_DEPTH,
    MAX_PRIME,
    SECOND_PRIME,
    SLICE_ROWS,
    Echelon,
    NotACube,
    det_exact,
    integer_cube_root_signed,
    is_prime,
    rank_exact,
    rank_mod_p,
    validate_prime,
)
from grsecant.grassmann import tangent_space_dim
from grsecant.terracini import SecantProblem, Verdict, probe
from oracle import rank_mod_p_reference


def cofactor_det(m):
    """Independent oracle: recursive cofactor expansion."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


class TestRankModP:
    def test_identity(self):
        assert rank_mod_p(np.eye(5, dtype=np.int64), DEFAULT_PRIME) == 5

    def test_zero(self):
        assert rank_mod_p(np.zeros((3, 7), dtype=np.int64)) == 0

    def test_small_known(self):
        assert rank_mod_p([[1, 2], [2, 4]], 7) == 1
        assert rank_mod_p([[1, 2], [2, 5]], 7) == 2

    def test_entries_reduced(self):
        # 7 = 0 mod 7, so this matrix is zero over GF(7).
        assert rank_mod_p([[7, 14], [21, 28]], 7) == 0

    def test_rank_bounds_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m, n = rng.integers(1, 9, size=2)
            A = rng.integers(0, DEFAULT_PRIME, size=(m, n))
            r = rank_mod_p(A)
            assert 0 <= r <= min(m, n)

    def test_stacked_rank_bounds(self):
        # Adding B to a basis holding A gives the rank of the stack [A; B],
        # for every input form; deficient pairs share some of their rows.
        rng = np.random.default_rng(12)
        for _ in range(20):
            A = rng.integers(0, 50, size=(4, 6))
            B = rng.integers(0, 50, size=(3, 6))
            ra, rb = rank_mod_p(A), rank_mod_p(B)
            rs = rank_mod_p(np.vstack([A, B]))
            assert max(ra, rb) <= rs <= ra + rb
        for p in (DEFAULT_PRIME, SECOND_PRIME):
            for m, n in [(4, 6), (30, 20), (2 * BLOCK_ROWS + 5, 3 * BLOCK_ROWS)]:
                A = _low_rank(rng, m, n, max(1, min(m, n) // 2), p)
                B = np.vstack([A[::3], rng.integers(0, p, size=(m // 2, n))])
                rs = rank_mod_p_reference(np.vstack([A, B]), p)
                for dtype in ("int64", "float64", "object"):
                    basis = Echelon(n, 2 * m, p)
                    assert rank_mod_p(_as_dtype(A, dtype, p), p, basis) == rank_mod_p_reference(A, p)
                    assert rank_mod_p(_as_dtype(B, dtype, p), p, basis) == rs == basis.rank

    def test_basis_of_another_width_or_prime_refused(self):
        basis = Echelon(6, 8, DEFAULT_PRIME)
        rank_mod_p(np.eye(4, 6, dtype=np.int64), DEFAULT_PRIME, basis)
        with pytest.raises(ValueError, match="width"):
            rank_mod_p(np.eye(4, 5, dtype=np.int64), DEFAULT_PRIME, basis)
        with pytest.raises(ValueError, match="width"):
            rank_mod_p(np.eye(4, 6, dtype=np.int64), SECOND_PRIME, basis)
        assert basis.rank == 4

    def test_mod_p_at_most_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            A = rng.integers(-9, 10, size=(8, 8))
            assert rank_mod_p(A, DEFAULT_PRIME) <= rank_exact(A)


KERNEL_PRIMES = (3, 7, 32003, 46337, MAX_PRIME)


def _low_rank(rng, m, n, r, p):
    return rng.integers(0, p, size=(m, r)) @ rng.integers(0, p, size=(r, n)) % p


def _unit_rich(rng, m, n, p):
    """Mostly scaled unit rows, some repeated, plus a few dense rows."""
    A = np.zeros((m, n), dtype=np.int64)
    A[np.arange(m), rng.integers(0, n, size=m)] = rng.integers(1, p, size=m)
    dense = rng.random(m) < 0.2
    A[dense] = rng.integers(0, p, size=(int(dense.sum()), n))
    return A


MATRIX_KINDS = {
    "dense": lambda rng, m, n, p: rng.integers(0, p, size=(m, n)),
    "sparse": lambda rng, m, n, p: rng.integers(0, p, size=(m, n)) * (rng.random((m, n)) < 0.05),
    "unit-rows": _unit_rich,
    "deficient": lambda rng, m, n, p: _low_rank(rng, m, n, max(1, min(m, n) // 2), p),
}


class TestEchelonKernel:
    """Differential tests of the blocked kernel against the column-loop oracle."""

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    @pytest.mark.parametrize("kind", sorted(MATRIX_KINDS))
    @pytest.mark.parametrize("shape", [(40, 150), (150, 40), (90, 90)], ids=["wide", "tall", "square"])
    def test_matches_oracle(self, p, kind, shape):
        rng = np.random.default_rng([p, len(kind), *shape])
        A = MATRIX_KINDS[kind](rng, *shape, p)
        assert rank_mod_p(A, p) == rank_mod_p_reference(A, p)

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    @pytest.mark.parametrize(
        "m",
        [SLICE_ROWS - 1, SLICE_ROWS, SLICE_ROWS + 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1],
    )
    def test_block_boundaries(self, p, m):
        rng = np.random.default_rng([p, m])
        for A in (
            rng.integers(0, p, size=(m, 3 * BLOCK_ROWS)),
            _low_rank(rng, m, 3 * BLOCK_ROWS, BLOCK_ROWS - 2, p),
            np.vstack([_low_rank(rng, m, 70, 30, p), rng.integers(0, p, size=(5, 70))]),
        ):
            assert rank_mod_p(A, p) == rank_mod_p_reference(A, p)

    def test_gemm_slices_at_max_prime(self):
        # A basis [I | T] of r = 601 > GEMM_DEPTH rows, T = p-2 except in rows
        # 550 and 590, where it is p-1; then (p-2) times the sum of the basis
        # rows.  Clearing that row's pivots subtracts one product per basis
        # row from its tail, (p-2)**2 (odd) or (p-2)(p-1) (even), starting
        # from the reduced tail 2400 (even).  The first 576 rows (12 blocks)
        # and all 601 hold an odd number of odd products, so either sum is
        # odd and past 2**53 unless it is cut every GEMM_DEPTH products and
        # reduced.  A rounded sum leaves a nonzero remainder, a false pivot.
        p = MAX_PRIME
        r, t = GEMM_DEPTH + 89, 4
        basis = np.hstack([np.eye(r, dtype=np.int64), np.full((r, t), p - 2, dtype=np.int64)])
        basis[[550, 590], r:] = p - 1
        dependent = (p - 2) * basis.sum(axis=0) % p
        A = np.vstack([basis, dependent])
        assert rank_mod_p(A, p) == rank_mod_p_reference(A, p) == r

    def test_dense_past_gemm_depth(self):
        # Dense rank r > GEMM_DEPTH: the rows after the first r carry dense
        # coefficients on more than GEMM_DEPTH pivots of E.
        p = MAX_PRIME
        rng = np.random.default_rng(5)
        r = GEMM_DEPTH + 30
        A = _low_rank(rng, r + 2 * BLOCK_ROWS, r + 40, r, p)
        assert rank_mod_p(A, p) == rank_mod_p_reference(A, p) == r

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_slices_with_dependent_and_zero_rows(self, p):
        # Two and a half blocks of rows: in every slice some rows are zero,
        # copies of a row in the same slice, in an earlier slice of the same
        # block, or in an earlier block, or combinations of earlier rows.
        rng = np.random.default_rng([p, 9])
        m, n = 2 * BLOCK_ROWS + BLOCK_ROWS // 2, 3 * BLOCK_ROWS
        A = rng.integers(0, p, size=(m, n))
        for i in range(m):
            kind = i % 5
            if kind == 1:
                A[i] = 0
            elif kind == 2 and i % SLICE_ROWS:
                A[i] = A[i - 1]
            elif kind == 3 and i >= SLICE_ROWS:
                A[i] = (p - 1) * A[i - SLICE_ROWS] % p
            elif kind == 4 and i >= BLOCK_ROWS:
                A[i] = (A[i - BLOCK_ROWS] + 3 * A[i - BLOCK_ROWS - 1]) % p
        want = rank_mod_p_reference(A, p)
        assert want < m
        assert rank_mod_p(A, p) == want
        zero_slice = A.copy()
        zero_slice[BLOCK_ROWS + SLICE_ROWS : BLOCK_ROWS + 2 * SLICE_ROWS] = 0
        assert rank_mod_p(zero_slice, p) == rank_mod_p_reference(zero_slice, p)

    def test_worst_case_entries(self):
        for p in KERNEL_PRIMES:
            A = np.full((BLOCK_ROWS + 5, 2 * BLOCK_ROWS), p - 1, dtype=np.int64)
            A[np.arange(BLOCK_ROWS + 5), np.arange(BLOCK_ROWS + 5)] = 1
            assert rank_mod_p(A, p) == rank_mod_p_reference(A, p)

    def test_input_forms_and_reduction(self):
        big = [[10**30 + 1, 2], [3, -(10**25)]]
        p = 32003
        assert rank_mod_p(np.array(big, dtype=object), p) == rank_mod_p_reference(np.array(big, dtype=object), p)
        assert rank_mod_p([[-1, -2], [1, 2]], 7) == 1
        A = np.arange(12).reshape(3, 4)
        rank_mod_p(A, 5)
        assert A.tolist() == np.arange(12).reshape(3, 4).tolist()  # input untouched

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    @pytest.mark.parametrize("dtype", [np.uint64, np.uint32])
    def test_unsigned_input_matches_object_oracle(self, p, dtype):
        # Words in the top half of their range: past 2**63 they wrap negative
        # if narrowed to int64 before they are reduced mod p.
        if dtype == np.uint64 and p == 3:
            assert rank_mod_p(np.array([[2**64 - 1, 2**63 + 1]], dtype=np.uint64), 3) == 0
        top = int(np.iinfo(dtype).max)
        rng = np.random.default_rng([p, np.dtype(dtype).itemsize])
        for kind in ("dense", "deficient", "unit-rows"):
            X = MATRIX_KINDS[kind](rng, 60, 50, p).astype(dtype)
            high = rng.integers((top - p) // p // 2, (top - p) // p, size=X.shape, dtype=dtype, endpoint=True)
            A = X + dtype(p) * high
            assert rank_mod_p(A, p) == rank_mod_p_reference(A.astype(object), p) == rank_mod_p_reference(X, p)

    @pytest.mark.parametrize(
        "value, p",
        [(2.0**60, 3), (1e20, 7), (-(2.0**53), 3), (0.5, 3), (float("nan"), 3), (float("inf"), 3)],
        ids=["2**60", "1e20", "-2**53", "fraction", "nan", "inf"],
    )
    def test_float_input_outside_exact_range_refused(self, value, p):
        # Past 2**53 a float64 no longer holds the integer it stands for
        # exactly, so its residue mod p would come back silently wrong.
        A = np.array([[1.0, 2.0], [3.0, value]])
        with pytest.raises(ValueError, match="2\\*\\*53"):
            rank_mod_p(A, p)

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_float_input_at_exact_edge_matches_object_oracle(self, p):
        top = 2**53 - 1
        A = np.array([[top, -top, 1], [top - 1, 7, -(top - 2)]])
        assert rank_mod_p(A.astype(np.float64), p) == rank_mod_p_reference(A.astype(object), p)
        assert rank_mod_p(np.array([[float(top)]]), p) == rank_mod_p_reference(np.array([[top]], dtype=object), p)

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    @pytest.mark.parametrize("kind", ["dense", "deficient", "unit-rows"])
    def test_incremental_basis_under_compaction(self, p, kind):
        # Chunks of 1, 7, 48 and 49 rows on the even columns, then the odd
        # ones, then all, so each call eliminates on free columns that
        # interleave with earlier pivots; the last chunk also repeats
        # combinations of rows from earlier calls.
        n = 150
        rng = np.random.default_rng([p, len(kind), n])
        supports = [np.arange(0, n, 2), np.arange(1, n, 2), np.arange(0, n, 2), np.arange(n)]
        chunks = []
        for size, cols in zip((1, 7, 48, 49), supports):
            chunk = np.zeros((size, n), dtype=np.int64)
            chunk[:, cols] = MATRIX_KINDS[kind](rng, size, len(cols), p)
            chunks.append(chunk)
        earlier = np.vstack(chunks[:3])
        for i in range(0, 49, 4):
            a, b = rng.integers(0, len(earlier), size=2)
            chunks[3][i] = (earlier[a] + rng.integers(1, p) * earlier[b]) % p
        basis = Echelon(n, sum(map(len, chunks)), p)
        prefix = np.zeros((0, n), dtype=np.int64)
        for chunk in chunks:
            prefix = np.vstack([prefix, chunk])
            r = rank_mod_p(chunk, p, basis)
            assert r == basis.rank == rank_mod_p_reference(prefix, p)
            E, pivots = basis.E[:r].astype(np.int64), basis.pivots[:r]
            assert len(set(pivots.tolist())) == r
            assert np.array_equal(basis.free, np.setdiff1d(np.arange(n), pivots))
            assert [lo for lo, _ in basis.blocks] == [0] + [hi for _, hi in basis.blocks[:-1]]
            for lo, hi in basis.blocks:
                assert np.array_equal(E[lo:hi, pivots[lo:hi]] % p, np.eye(hi - lo))
                assert not (E[lo:hi, pivots[:lo]] % p).any()
            assert rank_mod_p_reference(np.vstack([E, prefix]), p) == r

    def test_coefficient_column_reduced_before_scaling(self):
        # One block at MAX_PRIME: rows 0-39 are [I | p-1], found in the first
        # five slices; row 40 is [0 | w], w[0] = 2, whose inverse (p+1)/2 is
        # large; rows 41-47 are (p-1) times the sum of rows 0-39 plus a
        # multiple of row 40, so the rank is 41.  Clearing rows 0-39 from the
        # last slice leaves its entries on w's column unreduced, near
        # -40 (p-1)**2, just inside the in-block bound.  Multiplied by the
        # inverse before they are reduced they pass 2**53 and round, and the
        # rows keep a false pivot on that column.
        p, f, t = MAX_PRIME, 5 * SLICE_ROWS, 30
        top = np.hstack([np.eye(f, dtype=np.int64), np.full((f, t), p - 1, dtype=np.int64)])
        w = np.zeros(f + t, dtype=np.int64)
        w[f:] = np.arange(2, t + 2)
        dependent = [((p - 1) * top.sum(axis=0) + a * w) % p for a in (1, 2, 3, p - 1, p - 2, (p - 1) // 2, 7)]
        A = np.vstack([top, w, dependent])
        assert len(A) == BLOCK_ROWS
        assert rank_mod_p(A, p) == rank_mod_p_reference(A, p) == f + 1

    def test_empty_shapes(self):
        assert rank_mod_p(np.zeros((0, 5), dtype=np.int64)) == 0
        assert rank_mod_p(np.zeros((4, 0), dtype=np.int64)) == 0

    def test_rejects_unsafe_modulus(self):
        with pytest.raises(ValueError):
            rank_mod_p(np.eye(3, dtype=np.int64), 1099511627791)
        with pytest.raises(ValueError):
            rank_mod_p(np.eye(3, dtype=np.int64), MAX_PRIME + 2)

    @pytest.mark.parametrize(
        "k, n, s, achieved, expected",
        [(2, 6, 3, 34, 35), (3, 7, 3, 50, 51), (3, 7, 4, 64, 68), (2, 8, 4, 74, 76)],
    )
    def test_defective_cases_at_max_prime(self, k, n, s, achieved, expected):
        v = probe(SecantProblem(k=k, n=n, s=s, prime=MAX_PRIME))
        assert v.verdict is Verdict.INCONCLUSIVE_DEFICIT
        assert (v.achieved_rank, v.expected_rank) == (achieved, expected)


def _unit_mix(rng, m, n, p):
    """Signed unit rows, some on the same column; single entries p, 2p or -p;
    zero rows; rows with two nonzeros, which turn into unit rows once a
    unit row's column is deleted; and a few dense rows."""
    A = np.zeros((m, n), dtype=np.int64)
    rows, cols = np.arange(m), rng.integers(0, n, size=m)
    kind = rng.integers(0, 6, size=m)
    units = rng.integers(1, p, size=m)
    A[rows, cols] = np.where(kind == 0, units, np.where(kind == 1, -units, 0))
    A[rows, cols] += np.where(kind == 2, rng.choice([p, 2 * p, -p], size=m), 0)
    pair = kind == 4
    A[pair, cols[pair]] = units[pair]
    A[pair, (cols[pair] + 1 + rng.integers(0, n - 1, size=int(pair.sum()))) % n] = p - units[pair]
    dense = kind == 5
    A[dense] = rng.integers(-p, p, size=(int(dense.sum()), n)) * (rng.random((int(dense.sum()), n)) < 0.5)
    return A


def _staircase(n, p):
    """Row 0 a unit row, row i a unit on column i plus -1 on column i-1: each
    row becomes a unit row only after the previous row's column is deleted."""
    A = np.zeros((n, n), dtype=np.int64)
    A[np.arange(n), np.arange(n)] = np.arange(1, n + 1) % (p - 1) + 1
    A[np.arange(1, n), np.arange(n - 1)] = -1
    return A


def _all_units(rng, m, n, p):
    A = np.zeros((m, n), dtype=np.int64)
    A[np.arange(m), rng.integers(0, n, size=m)] = rng.choice([-1, 1], size=m) * rng.integers(1, p, size=m)
    return A


def _as_dtype(A, dtype, p):
    """A as int64, float64 or Python big integers (multiples of p added)."""
    if dtype == "object":
        return A.astype(object) + (A != 0).astype(object) * (p * 10**25)
    return A.astype(dtype)


def _refuse(*args):
    raise AssertionError("a monomial probe builds or ranks a tangent stack")


class TestUnitRowPrelude:
    """Stacks made of signed unit rows against the column-loop oracle.

    An earlier kernel counted such rows in a prelude before eliminating; the
    probe now counts the coordinate structure it knows (span columns and
    monomial certificates), and these stacks are ordinary kernel input.
    The test names are kept from then.
    """

    @pytest.mark.parametrize("p", [DEFAULT_PRIME, MAX_PRIME])
    @pytest.mark.parametrize("dtype", ["int64", "float64", "object"])
    @pytest.mark.parametrize("shape", [(60, 40), (40, 60), (2 * BLOCK_ROWS + 7, 30)], ids=["tall", "wide", "blocks"])
    def test_mixed_rows_match_oracle(self, p, dtype, shape):
        rng = np.random.default_rng([p, *shape])
        for _ in range(4):
            A = _as_dtype(_unit_mix(rng, *shape, p), dtype, p)
            assert rank_mod_p(A, p) == rank_mod_p_reference(A, p)

    @pytest.mark.parametrize("p", [DEFAULT_PRIME, MAX_PRIME])
    @pytest.mark.parametrize("dtype", ["int64", "float64", "object"])
    def test_rows_unit_after_deletion(self, p, dtype):
        n = 30
        A = _staircase(n, p)
        assert rank_mod_p(_as_dtype(A, dtype, p), p) == rank_mod_p_reference(A, p) == n
        # Without its unit row the staircase has no unit row at all; with a
        # row that repeats the sum of the others it stays rank n - 1.
        tail = np.vstack([A[1:], A[1:].sum(axis=0)])
        assert rank_mod_p(_as_dtype(tail, dtype, p), p) == rank_mod_p_reference(tail, p) == n - 1

    @pytest.mark.parametrize("p", [DEFAULT_PRIME, MAX_PRIME])
    @pytest.mark.parametrize("dtype", ["int64", "float64", "object"])
    def test_negative_and_zero_mod_p_single_entries(self, p, dtype):
        A = np.array([[0, -3, 0, 0], [p, 0, 0, 0], [0, 0, -p, 0], [0, 0, 0, 2 * p], [0, 0, 0, 0], [0, 5, 0, 0]])
        assert rank_mod_p(_as_dtype(A, dtype, p), p) == rank_mod_p_reference(A, p) == 1
        A[1, 2] = 1  # [p, 0, 1, 0] has two raw nonzeros but one mod p
        assert rank_mod_p(_as_dtype(A, dtype, p), p) == rank_mod_p_reference(A, p) == 2

    @pytest.mark.parametrize("p", [DEFAULT_PRIME, MAX_PRIME])
    @pytest.mark.parametrize("dtype", ["int64", "float64", "object"])
    def test_all_unit_stack_is_never_eliminated(self, p, dtype):
        # Now eliminated like any stack, and checked against the oracle.
        rng = np.random.default_rng(p)
        for shape in [(80, 50), (50, 80), (200, 200)]:
            A = _all_units(rng, *shape, p)
            A[::7] = 0
            A[3::11] = 0
            A[3::11, 0] = p
            assert rank_mod_p(_as_dtype(A, dtype, p), p) == rank_mod_p_reference(A, p)

    @pytest.mark.parametrize("p", [DEFAULT_PRIME, MAX_PRIME])
    def test_monomial_probe_is_never_eliminated(self, monkeypatch, p):
        # A monomial certificate's rank is a count: the probe builds no
        # tangent stack and ranks nothing.
        monkeypatch.setattr(terracini, "frame_rows", _refuse)
        monkeypatch.setattr(terracini, "rank_mod_p", _refuse)
        for strategy in ("monomial", "auto"):
            v = probe(SecantProblem(k=2, n=12, s=4, prime=p), strategy=strategy)
            assert v.achieved_rank == v.expected_rank == 4 * tangent_space_dim(2, 12)
            assert v.trials_used == 1


class TestDetExact:
    def test_two_by_two(self):
        assert det_exact([[1, 2], [3, 4]]) == -2

    def test_identity_21(self):
        assert det_exact(np.eye(21, dtype=np.int64)) == 1

    def test_against_cofactor_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            m = rng.integers(-9, 10, size=(4, 4)).tolist()
            assert det_exact(m) == cofactor_det(m)

    def test_singular(self):
        assert det_exact([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 0

    def test_sparse_and_low_rank_against_cofactor_oracle(self):
        # Sparse matrices need row swaps and meet pivot-free columns; products
        # of a 5 x r and an r x 5 matrix have rank at most r < 5.
        rng = np.random.default_rng(24)
        for _ in range(200):
            m = (rng.integers(-3, 4, size=(5, 5)) * (rng.random((5, 5)) < 0.3)).tolist()
            assert det_exact(m) == cofactor_det(m)
        for r in range(1, 5):
            m = rng.integers(-5, 6, size=(5, r)) @ rng.integers(-5, 6, size=(r, 5))
            assert det_exact(m) == 0 and rank_exact(m) <= r

    def test_empty_and_ragged(self):
        assert det_exact([]) == 1 and rank_exact([]) == 0
        for f in (det_exact, rank_exact):
            with pytest.raises(ValueError, match="ragged"):
                f([[1, 2], [3]])

    def test_size_guard(self):
        with pytest.raises(ValueError):
            det_exact(np.eye(65, dtype=np.int64))

    def test_non_square(self):
        with pytest.raises(ValueError):
            det_exact([[1, 2, 3], [4, 5, 6]])


class TestRankExact:
    def test_known(self):
        assert rank_exact([[1, 2], [2, 4]]) == 1
        assert rank_exact([[2, 0], [0, 3]]) == 2

    def test_wide_with_column_skips(self):
        A = [[0, 1, 0, 2], [0, 2, 0, 4], [0, 0, 0, 1]]
        assert rank_exact(A) == 2

    def test_agrees_with_numpy_on_small_random(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            A = rng.integers(-4, 5, size=(6, 8))
            assert rank_exact(A) == np.linalg.matrix_rank(A.astype(float))


class TestIntegerCubeRoot:
    def test_examples(self):
        assert integer_cube_root_signed(-27) == -3
        assert integer_cube_root_signed(0) == 0
        assert integer_cube_root_signed(-1) == -1

    def test_not_a_cube(self):
        with pytest.raises(NotACube):
            integer_cube_root_signed(9)
        with pytest.raises(NotACube):
            integer_cube_root_signed(-25)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=-(10**30), max_value=10**30))
    def test_roundtrip(self, x):
        assert integer_cube_root_signed(x**3) == x


class TestPrimes:
    def test_defaults_are_valid(self):
        validate_prime(DEFAULT_PRIME)
        validate_prime(SECOND_PRIME)

    def test_is_prime_small(self):
        assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            validate_prime(32001)

    def test_max_prime_is_the_exactness_bound(self):
        assert is_prime(MAX_PRIME)
        assert GEMM_DEPTH * (MAX_PRIME - 1) ** 2 + MAX_PRIME < 2**53
        nxt = next(q for q in range(MAX_PRIME + 1, 2 * MAX_PRIME) if is_prime(q))
        assert GEMM_DEPTH * (nxt - 1) ** 2 + nxt >= 2**53
        assert SLICE_ROWS <= BLOCK_ROWS <= GEMM_DEPTH

    def test_prime_bound(self):
        assert validate_prime(MAX_PRIME) == MAX_PRIME
        for p in (MAX_PRIME + 2, 2**31 - 1, 1099511627791):
            with pytest.raises(ValueError, match="MAX_PRIME"):
                validate_prime(p)


class TestBlockSpansWidth:
    """_eliminate_block looks at no row once the rows found span the block's width."""

    @pytest.mark.parametrize("p", [3, DEFAULT_PRIME, MAX_PRIME])
    @pytest.mark.parametrize("width", [3, SLICE_ROWS, SLICE_ROWS + 5])
    @pytest.mark.parametrize("extra", [0, 2])
    def test_rows_after_spanning_are_not_read(self, p, width, extra):
        rng = np.random.default_rng([p, width, extra])
        spanning = rng.integers(0, p, size=(width + extra, width)).astype(np.float64)
        while rank_mod_p_reference(spanning, p) < width:
            spanning = rng.integers(0, p, size=(width + extra, width)).astype(np.float64)
        # NaN rows would raise if the pivot scan reached them.
        block = np.vstack([spanning, np.full((2 * SLICE_ROWS + 3, width), np.nan)])
        cut = spanning.copy()
        found, found_cut = fieldcore._eliminate_block(block, p), fieldcore._eliminate_block(cut, p)
        assert found == found_cut and len(found) == width
        assert np.array_equal(block[:width], cut[:width])
