"""Exact arithmetic substrate: GF(p) ranks, integer determinants, cube roots.

GF(p) elimination runs in float64, which represents every integer of
magnitude at most 2**53 exactly.  Entries are kept reduced into [0, p), and
no value accumulates more than GEMM_DEPTH products of two reduced entries
before it is reduced again: GEMMs are sliced to that inner depth, and a row
takes at most BLOCK_ROWS <= GEMM_DEPTH updates inside its block.  So every
value stays below GEMM_DEPTH * (p-1)**2 + p < 2**53 and is exact through
the products, the subtractions and the reduction.  MAX_PRIME is the largest
prime meeting that bound; larger moduli are refused.  Exact work over the
integers uses Python integers.
"""

from __future__ import annotations

import numpy as np

DEFAULT_PRIME = 32003
# Second prime for re-running probabilistic verdicts.  65521 is rejected
# because 65521 = 1 (mod 3) kills the unique-cube-root trick.
SECOND_PRIME = 46337

# Exact determinants are only meaningful at pairing-matrix scale.
MAX_EXACT_DET_SIZE = 64

# Input rows eliminated together by the GF(p) kernel, and the most products
# one GEMM sums before reducing mod p.  A block row also takes at most
# BLOCK_ROWS unreduced updates, so BLOCK_ROWS <= GEMM_DEPTH keeps it exact.
BLOCK_ROWS = 48
GEMM_DEPTH = 512
# Names the GF(p) kernel in result-cache keys; change it whenever a kernel
# change could alter a rank.
KERNEL = "float64-blocked-echelon-1"


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


def validate_prime(p: int, *, cube_roots: bool = False) -> int:
    """Check that p is an odd prime up to MAX_PRIME (and p = 2 mod 3 when cube roots are needed)."""
    if p > MAX_PRIME:
        raise ValueError(f"prime {p} exceeds MAX_PRIME = {MAX_PRIME}, the largest with exact float64 elimination")
    if p <= 2 or not is_prime(p):
        raise ValueError(f"modulus {p} is not an odd prime")
    if cube_roots and p % 3 != 2:
        raise ValueError(f"prime {p} is not 2 mod 3; cube roots are not unique")
    return p


def _reduce(x: np.ndarray, p: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """Reduce an integral float64 array into [0, p) in place.

    Exact whenever |x| < 2**53: the correctly rounded quotient x/p then
    lies within 1/p of the true one, so its floor is exact.  np.fmod would
    give the same result several times slower.  `scratch`, shaped like x,
    saves an allocation.
    """
    q = np.divide(x, p, out=scratch)
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _float_block(block: np.ndarray, p: int) -> np.ndarray:
    """Rows of an integer matrix reduced mod p, as float64."""
    if block.dtype == object:
        # Python big integers: reduce first, then narrow.
        block = (block % p).astype(np.int64)
    return np.remainder(block.astype(np.int64, copy=False), p).astype(np.float64)


def _reduce_against(B: np.ndarray, E: np.ndarray, pivots: list[int], p: int, work: np.ndarray) -> None:
    """B -= B[:, pivots] @ E over GF(p), for a basis E reduced on its pivots.

    E[i, pivots[j]] is 1 when i == j and 0 otherwise, so each GEMM_DEPTH
    slice of the product clears its own pivot columns and leaves the
    others alone; reducing after every slice keeps each sum exact.
    Rows of B without an entry in the pivot columns are not touched.
    `work` holds two scratch arrays with at least len(B) rows each.
    """
    C = B[:, pivots]
    hit = C.any(axis=1).nonzero()[0]
    if hit.size == 0:
        return
    whole = hit.size == len(B)
    sub = B if whole else B[hit]
    C = C if whole else C[hit]
    prod, quot = work[0, : len(sub)], work[1, : len(sub)]
    for lo in range(0, len(pivots), GEMM_DEPTH):
        sub -= np.matmul(C[:, lo : lo + GEMM_DEPTH], E[lo : lo + GEMM_DEPTH], out=prod)
        _reduce(sub, p, quot)
    if not whole:
        B[hit] = sub


def _eliminate_block(B: np.ndarray, p: int, work: np.ndarray) -> list[tuple[int, int, int]]:
    """Gauss-Jordan elimination of a block in place, row by row.

    Returns (row, pivot column, pivot value before scaling) per independent
    row, and leaves those rows reduced.  Updates are not reduced: a row takes
    at most one product per pivot, so its entries stay below
    len(B) * (p-1)**2 + p; it is reduced when its own turn comes.  When
    most rows have a nonzero entry in the pivot column, the update goes
    through `work` and allocates nothing; otherwise only those rows are
    touched, which keeps blocks of unit rows cheap.
    """
    found = []
    for i in range(len(B)):
        row = _reduce(B[i], p)
        nz = row.nonzero()[0]
        if nz.size == 0:
            continue
        c = int(nz[0])
        v = int(row[c])
        row *= pow(v, -1, p)
        _reduce(row, p)
        col = _reduce(B[:, c].copy(), p)
        col[i] = 0
        hit = col.nonzero()[0]
        if 2 * hit.size > len(B):
            B -= np.outer(col, row, out=work[0, : len(B)])
        elif hit.size:
            B[hit] -= col[hit, None] * row
        found.append((i, c, v))
    for i, _, _ in found:
        _reduce(B[i], p)
    return found


def _echelon(mat, p: int) -> tuple[list[int], list[int]]:
    """Blocked incremental reduced echelon form of an integer matrix over GF(p).

    The basis E (one row per pivot, reduced on every pivot column) grows one
    block of input rows at a time: the block is reduced against E with
    GEMMs, eliminated internally, and its new pivots are back-substituted
    into E, BLOCK_ROWS rows of E at a time.  E and the scratch space are
    allocated once, and every other temporary has at most BLOCK_ROWS rows.
    Returns the pivot column and the pivot value (before scaling) of each
    independent input row, in input-row order.
    """
    if not 1 < p <= MAX_PRIME:
        raise ValueError(f"modulus {p} outside (1, MAX_PRIME={MAX_PRIME}]; float64 elimination would not be exact")
    A = np.asarray(mat)
    if A.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    m, n = A.shape
    E = np.empty((min(m, n), n))
    work = np.empty((2, min(m, BLOCK_ROWS), n))
    pivots: list[int] = []
    values: list[int] = []
    for lo in range(0, m, BLOCK_ROWS):
        r = len(pivots)
        if r == n:
            break
        B = _float_block(A[lo : lo + BLOCK_ROWS], p)
        if r:
            _reduce_against(B, E[:r], pivots, p, work)
        found = _eliminate_block(B, p, work)
        if not found:
            continue
        N = B[[i for i, _, _ in found]]
        cols = [c for _, c, _ in found]
        for top in range(0, r, BLOCK_ROWS):
            _reduce_against(E[top : min(top + BLOCK_ROWS, r)], N, cols, p, work)
        E[r : r + len(found)] = N
        pivots.extend(cols)
        values.extend(v for _, _, v in found)
    return pivots, values


def rank_mod_p(mat, p: int = DEFAULT_PRIME) -> int:
    """Rank of an integer matrix over GF(p), for 1 < p <= MAX_PRIME."""
    return len(_echelon(mat, p)[0])


def _int_rows(mat) -> list[list[int]]:
    rows = [[int(x) for x in row] for row in mat]
    if rows and any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged matrix")
    return rows


def rank_exact(mat) -> int:
    """Rank over the rationals via fraction-free (Bareiss) elimination."""
    rows = _int_rows(mat)
    m = len(rows)
    n = len(rows[0]) if m else 0
    r = 0
    prev = 1
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
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
    return r


def det_exact(mat) -> int:
    """Exact determinant of an integer matrix, fraction-free elimination.

    Sizes above MAX_EXACT_DET_SIZE are refused; nothing in scope needs them.
    """
    rows = _int_rows(mat)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    if n > MAX_EXACT_DET_SIZE:
        raise ValueError(f"exact determinant limited to {MAX_EXACT_DET_SIZE}x{MAX_EXACT_DET_SIZE}")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for c in range(n - 1):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        a = rows[c][c]
        for i in range(c + 1, n):
            b = rows[i][c]
            ri, rc = rows[i], rows[c]
            for j in range(c + 1, n):
                ri[j] = (a * ri[j] - b * rc[j]) // prev
            ri[c] = 0
        prev = a
    return sign * rows[n - 1][n - 1]


def det_mod_p(mat, p: int = DEFAULT_PRIME) -> int:
    """Determinant over GF(p), read off the echelon kernel.

    With every row independent, row i ends as the unit vector of pivot
    column pivots[i] after scaling by 1/values[i]; only row additions are
    used otherwise.  So det = prod(values) * sign(i -> pivots[i]).
    """
    A = np.asarray(mat)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("determinant of a non-square matrix")
    pivots, values = _echelon(A, p)
    if len(pivots) < len(A):
        return 0
    det = 1
    for v in values:
        det = det * v % p
    # sign(i -> pivots[i]) = (-1)^(size - number of cycles)
    flips = len(pivots)
    seen = [False] * len(pivots)
    for start in range(len(pivots)):
        if seen[start]:
            continue
        flips -= 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = pivots[j]
    return (p - det) % p if flips & 1 else det


def cube_root_mod_p(c: int, p: int = DEFAULT_PRIME) -> int:
    """The unique cube root of c modulo p, for p = 2 (mod 3).

    Cubing is a bijection on GF(p) in this case, inverted by x -> x**e with
    e = 3^(-1) mod (p-1).
    """
    validate_prime(p, cube_roots=True)
    e = pow(3, -1, p - 1)
    return pow(c % p, e, p)


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
