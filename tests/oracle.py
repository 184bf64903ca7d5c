"""Slow reference implementations, for differential tests only.

`rank_mod_p_reference` is the column-by-column int64 row reduction that
`fieldcore.rank_mod_p` replaced.  Products of two reduced entries stay
below 2**63 for every p < 2**31, so it is exact for every prime the package
accepts.  `maximal_minors_reference` and `full_frame` are the permutation
expansion and the full tangent frame that `grassmann.maximal_minors_mod`
and `grassmann.frame_rows` replaced.
"""

import math
from itertools import permutations

import numpy as np

from grsecant.extalg import subset_rank, subsets_colex


def rank_mod_p_reference(mat, p: int) -> int:
    A = np.asarray(mat)
    if A.dtype == object:
        A = (A % p).astype(np.int64)
    else:
        A = np.array(A, dtype=np.int64) % p
    m, n = A.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        col = A[r:, c]
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        inv = pow(int(A[r, c]), -1, p)
        row = (A[r, c:] * inv) % p
        A[r, c:] = row
        below = A[r + 1 :, c]
        hit = np.flatnonzero(below)
        if hit.size:
            idx = hit + r + 1
            A[idx, c:] = (A[idx, c:] - below[hit, None] * row) % p
        r += 1
    return r


def maximal_minors_reference(mat, p: int) -> np.ndarray:
    """All maximal minors of a short wide matrix, colex column order, mod p.

    The permutation expansion `grassmann.maximal_minors_mod` replaced: k!
    signed products of k entries per k-subset of columns.
    """
    mat = np.asarray(mat, dtype=np.int64) % p
    r, dim = mat.shape
    if r == 0:
        return np.ones(1, dtype=np.int64)
    idx = np.array(list(subsets_colex(dim, r)), dtype=np.int64)
    count = idx.shape[0]
    acc = np.zeros(count, dtype=np.int64)
    for perm in permutations(range(r)):
        inversions = sum(1 for a in range(r) for b in range(a + 1, r) if perm[a] > perm[b])
        prod = np.ones(count, dtype=np.int64)
        for row_i in range(r):
            prod = prod * mat[row_i, idx[:, perm[row_i]]] % p
        if inversions & 1:
            acc = (acc - prod) % p
        else:
            acc = (acc + prod) % p
    return acc


def _scatter_tables(dim: int, d: int):
    """Per basis-vector tables mapping (d-1)-subsets avoiding j to d-subset slots."""
    subs = list(subsets_colex(dim, d - 1))
    sub_idx, tgt_idx, pos_par = [], [], []
    for j in range(dim):
        si, ti, pp = [], [], []
        for r, s in enumerate(subs):
            if j in s:
                continue
            pos = sum(1 for x in s if x < j)
            merged = tuple(sorted(s + (j,)))
            si.append(r)
            ti.append(subset_rank(merged))
            pp.append(pos & 1)
        sub_idx.append(np.array(si, dtype=np.int64))
        tgt_idx.append(np.array(ti, dtype=np.int64))
        pos_par.append(np.array(pp, dtype=np.int64))
    return sub_idx, tgt_idx, pos_par


def full_frame(rows, p: int) -> np.ndarray:
    """Every tangent-frame generator of a point's row matrix, as int64 rows mod p.

    Row i*(n+1)+j is the wedge with point row i replaced by basis vector j,
    in the order of `grassmann.tangent_frame`: all (k+1)(n+1) generators,
    of which `grassmann.frame_rows` writes only a basis.
    """
    rows = np.asarray(rows, dtype=np.int64) % p
    d, dim = rows.shape
    sub_idx, tgt_idx, pos_par = _scatter_tables(dim, d)
    out = np.zeros((d * dim, math.comb(dim, d)), dtype=np.int64)
    for i in range(d):
        minors = maximal_minors_reference(np.delete(rows, i, axis=0), p)
        for j in range(dim):
            vals = minors[sub_idx[j]]
            flip = (pos_par[j] + i) & 1
            out[i * dim + j, tgt_idx[j]] = np.where(flip == 0, vals, (p - vals) % p)
    return out
