"""Exact arithmetic substrate: GF(p) ranks; integer ranks, determinants and cube roots.

GF(p) elimination computes ranks only, in float64, which represents every
integer of magnitude at most 2**53 exactly.  Every product the kernel
forms is of two entries reduced into [0, p), and no value takes more than
GEMM_DEPTH such products between two reductions: the forward substitution
of a block counts the products its rows have taken (its depth) and reduces
the whole block before the count would pass GEMM_DEPTH, and inside its
block a row takes fewer than BLOCK_ROWS <= GEMM_DEPTH products before it
is reduced.  Scaling by a pivot's inverse, which lies in [1, p), is such a
product too: the coefficient column of each rank-1 update, and a slice's
new rows, are reduced before they are multiplied by an inverse and reduced
again after.  So every value stays below GEMM_DEPTH * (p-1)**2 + p < 2**53
and is exact through the products, the subtractions and the reduction.
MAX_PRIME is the largest prime meeting that bound; `Echelon` refuses any
modulus that is not a prime up to it.  The forward substitution narrows a
block as it clears it, and drops only columns that the full-width update
leaves ≡ 0 mod p: the values it keeps are those the full-width products
give, so the same bound covers them.  Exact work over the integers (ranks,
determinants, cube roots) uses Python integers.
"""

from __future__ import annotations

import operator

import numpy as np

DEFAULT_PRIME = 32003
# Second prime for re-running probabilistic verdicts; cached records, tests
# and the benchmark use this value.
SECOND_PRIME = 46337

# Exact determinants are only meaningful at pairing-matrix scale.
MAX_EXACT_DET_SIZE = 64

# Input rows eliminated together by the GF(p) kernel, the rows of a block
# eliminated together inside it, and the most products of reduced entries a
# value takes before it is reduced mod p.  A row takes fewer than BLOCK_ROWS
# products inside its block, so BLOCK_ROWS <= GEMM_DEPTH keeps it exact.
BLOCK_ROWS = 48
SLICE_ROWS = 8
GEMM_DEPTH = 512
# Names the GF(p) kernel in result-cache keys; change it whenever a kernel
# change could alter a rank.
KERNEL = "float64-blocked-echelon-2"


class NotACube(ValueError):
    """An integer that was expected to be a perfect cube is not one."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3):
        if n % q == 0:
            return n == q
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def _largest_exact_prime() -> int:
    """Largest prime p with GEMM_DEPTH * (p-1)**2 + p < 2**53."""
    p = int((2**53 // GEMM_DEPTH) ** 0.5) + 1
    while GEMM_DEPTH * (p - 1) ** 2 + p >= 2**53 or not is_prime(p):
        p -= 1
    return p


MAX_PRIME = _largest_exact_prime()


def validate_prime(p: int) -> int:
    """Check that p is an odd prime up to MAX_PRIME."""
    if p > MAX_PRIME:
        raise ValueError(f"prime {p} exceeds MAX_PRIME = {MAX_PRIME}, the largest with exact float64 elimination")
    if p <= 2 or not is_prime(p):
        raise ValueError(f"modulus {p} is not an odd prime")
    return p


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce an integral float64 array into [0, p) in place.

    Exact whenever |x| < 2**53: the correctly rounded quotient x/p then
    lies within 1/p of the true one, so its floor is exact.  np.fmod would
    give the same result several times slower.
    """
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _as_int(x) -> int:
    """An entry as a Python integer: a bool or a Python or NumPy integer; anything else raises TypeError."""
    return int(x) if isinstance(x, np.bool_) else operator.index(x)


def _float_block(block: np.ndarray, p: int) -> np.ndarray:
    """Rows of an integer matrix reduced mod p, as a C-ordered float64 copy.

    Floating input of any width must hold integers of magnitude below
    2**53, the range _reduce is exact on, and object input integers; any
    other entry (a fraction, nan, inf or a larger value) raises ValueError,
    as does any dtype but bool, integer, floating and object (complex,
    string, datetime).
    """
    kind = block.dtype.kind
    if kind == "f":
        # Checked at float64 or, if wider, the input's precision: both hold every integer below 2**53.
        x = block.astype(np.promote_types(block.dtype, np.float64), order="C")
        if not ((np.abs(x) < 2**53).all() and (np.trunc(x) == x).all()):
            raise ValueError("floating entries must be integers of magnitude below 2**53")
        return _reduce(x.astype(np.float64, copy=False), p)
    # Unsigned words and Python big integers may not fit int64: reduce first, then narrow.
    if kind == "O":
        try:
            block = np.array([_as_int(x) % p for x in block.flat], dtype=np.int64).reshape(block.shape)
        except TypeError:
            raise ValueError("object entries must be integers") from None
    elif kind == "u":
        block = block.astype(np.uint64, copy=False) % p
    elif kind not in "bi":
        raise ValueError(f"entries of dtype {block.dtype} are not integers")
    return np.remainder(block.astype(np.int64, copy=False), p).astype(np.float64, order="C")


def _forward(B: np.ndarray, blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]], p: int) -> np.ndarray:
    """B, on the columns free before the basis's first block, cleared of its pivots over GF(p).

    Block j (Echelon) is the identity on its own pivots and zero on those of
    earlier blocks, and is stored on the columns it leaves free.  Each step
    takes the coefficients B[:, own], narrows B to `keep` and subtracts
    their product with the block.  On the full width that update would
    leave B ≡ 0 mod p on `own` and would not change the earlier pivots, so
    the columns dropped are exactly those it clears, and B ends on the
    current free columns.  Only the coefficient columns are reduced before
    each product.  B takes one product of reduced entries per pivot and is
    reduced whole before that count would pass GEMM_DEPTH.
    """
    depth = 0
    for own, keep, E in blocks:
        if depth + len(own) > GEMM_DEPTH:
            _reduce(B, p)
            depth = 0
        depth += len(own)
        C = _reduce(B[:, own], p)
        B = B.take(keep, axis=1)
        B -= C @ E
    return B


def _eliminate_block(B: np.ndarray, p: int) -> list[int]:
    """Gauss-Jordan elimination of a block, in place.

    The independent rows, reduced on each other's pivots and scaled to 1
    there, end in B[:len(found)], in row order: a row is dependent exactly
    when it lies in the span of the rows before it.  Rows are eliminated
    SLICE_ROWS at a time.  A slice is first reduced against the rows found
    so far (one GEMM), then eliminated row by row with rank-1 updates that
    touch only the slice.  A pivot row is not scaled: the update's
    coefficient column, reduced, is multiplied by the pivot's inverse and
    reduced again.  The slice's new rows are then reduced, scaled to 1 on
    their pivots, reduced, and cleared from the rows found before them (a
    second GEMM).  A slice enters reduced and takes fewer than
    len(B) <= GEMM_DEPTH products before each row is reduced.  Once the
    rows found span the block's width, every later row is dependent and
    none is looked at.  Returns the pivot column of each independent row.
    """
    found: list[int] = []
    for lo in range(0, len(B), SLICE_ROWS):
        if len(found) == B.shape[1]:
            break
        S = _reduce(B[lo : lo + SLICE_ROWS], p)
        f = len(found)
        if f:
            S -= S[:, found] @ B[:f]
        new, inverses = [], []
        for i in range(len(S)):
            if len(found) == B.shape[1]:
                break
            row = _reduce(S[i], p)
            c = int(row.astype(bool).argmax())  # the first nonzero, if any
            if not row[c]:
                continue
            inverses.append(pow(int(row[c]), -1, p))
            col = np.remainder(np.remainder(S[:, c], p) * inverses[-1], p)
            col[i] = 0
            S -= np.outer(col, row)
            new.append(i)
            found.append(c)
        if not new:
            continue
        N = _reduce(_reduce(S[new], p) * np.array(inverses)[:, None], p)
        if f:
            F = B[:f]
            F -= F[:, found[f:]] @ N
            _reduce(F, p)
        B[f : len(found)] = N
    return found


class Echelon:
    """rank_mod_p's state: the rank, width and free columns of a basis of at most `rows` rows, and its blocks.

    A block is (own, keep, E): its pivots and the columns it leaves free,
    both as indices into the columns free before it, and its rows on
    `keep`.  Its rows are the identity on `own` and zero on every earlier
    pivot, so nothing else is stored.  A block of k rows found at rank r is
    k x (width - r - k), so a basis of rank R takes at most
    R*width - R*(R+1)/2 entries: `buffer` holds that many for
    R = min(rows, width), allocated once, and each E is a view into it.
    A modulus that is not a prime up to MAX_PRIME (2 included), as a Python
    or NumPy integer, raises ValueError: mod a composite there is no rank,
    and past MAX_PRIME the float64 elimination is not exact.  `p` is kept
    as a Python int.
    """

    def __init__(self, ncols: int, rows: int, p: int):
        if not (isinstance(p, (int, np.integer)) and p <= MAX_PRIME and is_prime(int(p))):
            raise ValueError(f"modulus {p} is not a prime <= MAX_PRIME = {MAX_PRIME}; GF(p) elimination needs one")
        size = min(rows, ncols)
        self.p, self.rank, self.width, self.blocks, self.free = int(p), 0, ncols, [], np.arange(ncols)
        self.buffer, self.stored = np.empty(size * ncols - size * (size + 1) // 2), 0


def rank_mod_p(mat, p: int = DEFAULT_PRIME, basis: Echelon | None = None) -> int:
    """Rank of an integer matrix over GF(p), for a prime p <= MAX_PRIME.

    Blocked incremental echelon form: the basis grows one block of
    BLOCK_ROWS input rows at a time.  The block is cleared of the basis's
    pivot columns, which narrows it to the free columns (_forward); it is
    eliminated there (_eliminate_block), and its independent rows join the
    basis as a new block, stored on the columns they leave free.  Nothing
    is back-substituted, so the basis is block triangular: each block is
    the identity on its own pivot columns and zero on those of earlier
    blocks, and neither part is stored (Echelon).  The basis's buffer is
    allocated once, and every other temporary has at most BLOCK_ROWS rows.
    Given a `basis`, the rows join it and its rank returns; p must be its
    modulus.  Otherwise a new basis is built, which refuses any modulus
    but a prime up to MAX_PRIME (Echelon).  Floating input must hold
    integers of magnitude below 2**53, and object input integers; a block
    with any other entry, or of another dtype, raises ValueError, and the
    blocks before it stay in the basis.
    """
    A = np.asarray(mat)
    if A.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    m, n = A.shape
    basis = Echelon(n, m, p) if basis is None else basis
    if (basis.width, basis.p) != (n, p):
        raise ValueError(f"rows of width {n} mod {p} added to a basis of width {basis.width} mod {basis.p}")
    p = basis.p
    for lo in range(0, m, BLOCK_ROWS):
        if basis.rank == n:
            break
        B = _forward(_float_block(A[lo : lo + BLOCK_ROWS], p), basis.blocks, p)
        found = _eliminate_block(B, p)
        if not found:
            continue
        k = len(found)
        keep = np.delete(np.arange(B.shape[1]), found)
        E = basis.buffer[basis.stored : basis.stored + k * len(keep)].reshape(k, len(keep))
        E[:] = B[:k, keep]
        basis.blocks.append((np.array(found), keep, E))
        basis.rank, basis.free, basis.stored = basis.rank + k, basis.free[keep], basis.stored + E.size
    return basis.rank


def _int_rows(mat) -> list[list[int]]:
    """The rows of a matrix as Python integers; an entry that is not an integer raises TypeError."""
    rows = [[_as_int(x) for x in row] for row in mat]
    if rows and any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged matrix")
    return rows


def _bareiss(rows: list[list[int]]) -> tuple[int, int, int]:
    """Fraction-free (Bareiss) elimination of integer rows, in place.

    Columns with no pivot are skipped.  Returns the rank, the sign of the
    row swaps and the last pivot; for a square matrix of full rank the sign
    times the last pivot is the determinant.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    r = 0
    sign = 1
    prev = 1
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        a = rows[r][c]
        for i in range(r + 1, m):
            b = rows[i][c]
            ri, rc = rows[i], rows[r]
            for j in range(c + 1, n):
                ri[j] = (a * ri[j] - b * rc[j]) // prev
            ri[c] = 0
        prev = a
        r += 1
        if r == m:
            break
    return r, sign, prev


def rank_exact(mat) -> int:
    """Rank over the rationals via fraction-free (Bareiss) elimination."""
    return _bareiss(_int_rows(mat))[0]


def rank_det_exact(mat) -> tuple[int, int]:
    """Exact rank and determinant of a square integer matrix, from one
    fraction-free elimination.

    Sizes above MAX_EXACT_DET_SIZE are refused; nothing in scope needs them.
    """
    rows = _int_rows(mat)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    if n > MAX_EXACT_DET_SIZE:
        raise ValueError(f"exact determinant limited to {MAX_EXACT_DET_SIZE}x{MAX_EXACT_DET_SIZE}")
    rank, sign, last_pivot = _bareiss(rows)
    return rank, sign * last_pivot if rank == n else 0


def det_exact(mat) -> int:
    """Exact determinant of an integer matrix, fraction-free elimination."""
    return rank_det_exact(mat)[1]


def integer_cube_root_signed(c: int) -> int:
    """Exact signed cube root of a perfect cube; raises NotACube otherwise."""
    c = int(c)
    if c == 0:
        return 0
    a = abs(c)
    x = 1 << ((a.bit_length() + 2) // 3)
    while True:
        nx = (2 * x + a // (x * x)) // 3
        if nx >= x:
            break
        x = nx
    for cand in (x - 1, x, x + 1):
        if cand >= 0 and cand**3 == a:
            return -cand if c < 0 else cand
    raise NotACube(f"{c} is not a perfect cube")
