"""Reference GF(p) rank: the column-by-column int64 row reduction that
`fieldcore.rank_mod_p` replaced.  Products of two reduced entries stay
below 2**63 for every p < 2**31, so it is exact for every prime the package
accepts.  Slow; for differential tests only.
"""

import numpy as np


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
