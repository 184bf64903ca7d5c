"""Points of Gr(k,n) over GF(p): Plücker images, tangent frames, coordinate spans.

A point is stored as a full-rank (k+1) x (n+1) row matrix, not as a Plücker
vector, so that tangent frames can be generated from it.  The affine tangent
space at a point is spanned by the wedges obtained by replacing one row with
one basis vector; its dimension is (k+1)(n-k)+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Sequence

import numpy as np

from .extalg import Multivector, subset_rank, subsets_colex, wedge_vectors
from .fieldcore import DEFAULT_PRIME, rank_exact, rank_mod_p

MAX_SAMPLE_ATTEMPTS = 8


class RankDrop(RuntimeError):
    """A tangent frame (or sampled point) failed to reach its expected rank."""


@dataclass(frozen=True)
class CoordinateSubspace:
    """The coordinate subspace of K^{n+1} spanned by the `support` coordinates."""

    n: int
    support: tuple[int, ...]

    def __post_init__(self):
        sup = tuple(sorted(set(self.support)))
        if not sup:
            raise ValueError("empty support")
        if sup[0] < 0 or sup[-1] > self.n:
            raise ValueError(f"support {sup} out of range [0, {self.n}]")
        object.__setattr__(self, "support", sup)

    @property
    def dim(self) -> int:
        return len(self.support)


@dataclass
class GrassPoint:
    k: int
    n: int
    rows: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        if self.k < 1 or self.n <= self.k:
            raise ValueError(f"bad Grassmannian parameters k={self.k}, n={self.n}")
        if self.rows.shape != (self.k + 1, self.n + 1):
            raise ValueError(f"row matrix must be {self.k + 1}x{self.n + 1}")
        if rank_exact(self.rows) != self.k + 1:
            raise ValueError("row matrix is rank deficient")


@dataclass
class TangentFrame:
    """Generators of the affine tangent space at a point, one per (row, basis vector)."""

    point: GrassPoint
    generators: list[Multivector]
    rank: int


def coordinate_point(k: int, n: int, indices: Sequence[int]) -> GrassPoint:
    """The point spanned by the basis vectors named in `indices`."""
    idx = tuple(sorted(indices))
    if len(idx) != k + 1:
        raise ValueError(f"need {k + 1} indices")
    rows = np.zeros((k + 1, n + 1), dtype=np.int64)
    for r, i in enumerate(idx):
        rows[r, i] = 1
    return GrassPoint(k, n, rows)


def pluecker(pt: GrassPoint) -> Multivector:
    """Plücker image: the wedge of the point's rows."""
    return wedge_vectors(pt.rows.tolist(), pt.n + 1)


def tangent_space_dim(k: int, n: int) -> int:
    """Affine dimension of the tangent space to the cone over Gr(k,n)."""
    return (k + 1) * (n - k) + 1


def tangent_frame(pt: GrassPoint, p: int = DEFAULT_PRIME) -> TangentFrame:
    """All row-replacement wedges at pt, with their span verified over GF(p)."""
    rows = pt.rows.tolist()
    gens: list[Multivector] = []
    for i in range(pt.k + 1):
        for j in range(pt.n + 1):
            ej = [0] * (pt.n + 1)
            ej[j] = 1
            replaced = rows[:i] + [ej] + rows[i + 1 :]
            gens.append(wedge_vectors(replaced, pt.n + 1))
    stacked = np.array([g.dense(p) for g in gens], dtype=np.int64)
    rank = rank_mod_p(stacked, p)
    expected = tangent_space_dim(pt.k, pt.n)
    if rank != expected:
        raise RankDrop(f"tangent frame rank {rank}, expected {expected}")
    return TangentFrame(pt, gens, rank)


# ---------------------------------------------------------------------------
# Dense fast path used by the probers.  Each frame generator keeps one point
# row replaced by a basis vector; expanding the determinant along that row
# reduces every generator to signed k x k minors of the row-deleted matrix,
# so one point costs (k+1) vectorized minor sweeps plus index scatters.


@lru_cache(maxsize=None)
def _subset_array(dim: int, d: int) -> np.ndarray:
    if d == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.array(list(subsets_colex(dim, d)), dtype=np.int64)


@lru_cache(maxsize=None)
def _scatter_tables(dim: int, d: int):
    """Per basis-vector tables mapping (d-1)-subsets avoiding j to d-subset slots."""
    subs = list(subsets_colex(dim, d - 1))
    sub_idx: list[np.ndarray] = []
    tgt_idx: list[np.ndarray] = []
    pos_par: list[np.ndarray] = []
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


def maximal_minors_mod(mat: np.ndarray, p: int) -> np.ndarray:
    """All maximal minors of a short wide matrix, colex column order, mod p."""
    mat = np.asarray(mat, dtype=np.int64) % p
    r, dim = mat.shape
    idx = _subset_array(dim, r)
    count = idx.shape[0]
    acc = np.zeros(count, dtype=np.int64)
    if r == 0:
        acc[:] = 1
        return acc
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


def frame_rows(rows: np.ndarray, p: int) -> np.ndarray:
    """Dense tangent-frame generator rows for a point's row matrix, mod p.

    Row i*(n+1)+j is the generator with point row i replaced by basis vector j,
    matching the order produced by tangent_frame.
    """
    rows = np.asarray(rows, dtype=np.int64) % p
    d, dim = rows.shape
    ncols = math.comb(dim, d)
    sub_idx, tgt_idx, pos_par = _scatter_tables(dim, d)
    out = np.zeros((d * dim, ncols), dtype=np.int64)
    for i in range(d):
        minors = maximal_minors_mod(np.delete(rows, i, axis=0), p)
        for j in range(dim):
            vals = minors[sub_idx[j]]
            flip = (pos_par[j] + i) & 1
            out[i * dim + j, tgt_idx[j]] = np.where(flip == 0, vals, (p - vals) % p)
    return out


def tangent_basis_rows(rows: np.ndarray, frame: np.ndarray, p: int) -> np.ndarray:
    """A basis of the tangent space at a point, (k+1)(n-k)+1 rows taken from its frame.

    `frame` is frame_rows(rows, p).  Generator (0, j) replaces row v_0 by
    e_j, so rows[0] @ frame[:n+1] is the Plücker row v_0 ^ ... ^ v_k; its
    int64 sum is exact while (n+1)(p-1)**2 < 2**63.  Let J be the
    (k+1)-subset of its first nonzero coordinate.  Then {v_0..v_k} together
    with {e_j : j not in J} is a basis of K^{n+1}, so a generator (i, j) with
    j in J is a multiple of the Plücker row plus generators (i, j') with j'
    not in J.  The Plücker row and those generators are returned, in that
    order.  A point of rank below k+1 mod p has a zero Plücker row and keeps
    its whole frame.
    """
    rows = np.asarray(rows, dtype=np.int64) % p
    d, dim = rows.shape
    if dim * (p - 1) ** 2 >= 2**63:
        raise ValueError(f"Plücker row of {dim} columns mod {p} would overflow int64")
    plucker_row = rows[0] @ frame[:dim] % p
    nz = np.flatnonzero(plucker_row)
    if nz.size == 0:
        return frame
    free = np.ones(dim, dtype=bool)
    free[_subset_array(dim, d)[nz[0]]] = False
    return np.vstack([plucker_row[None], frame.reshape(d, dim, -1)[:, free].reshape(-1, frame.shape[1])])


# ---------------------------------------------------------------------------
# Coordinate-point machinery (monomial technique).


def monomial_tangent_basis(a: Sequence[int], k: int, n: int) -> list[tuple[int, ...]]:
    """Index sets spanning the tangent space at a coordinate point.

    These are the (k+1)-subsets of {0..n} meeting `a` in at least k elements:
    the set itself plus one swap of an element of `a` for an outside one.
    """
    a = tuple(sorted(a))
    if len(a) != k + 1:
        raise ValueError(f"coordinate point needs {k + 1} indices")
    inside = set(a)
    out: list[tuple[int, ...]] = [a]
    for x in a:
        for y in range(n + 1):
            if y in inside:
                continue
            out.append(tuple(sorted(set(a) - {x} | {y})))
    out.sort(key=subset_rank)
    return out


def random_point(
    k: int,
    n: int,
    rng: np.random.Generator,
    constraint: CoordinateSubspace | None = None,
    p: int = DEFAULT_PRIME,
) -> GrassPoint:
    """Random full-rank point, optionally supported on a coordinate subspace."""
    support = constraint.support if constraint is not None else tuple(range(n + 1))
    if len(support) < k + 1:
        raise ValueError(f"support of size {len(support)} cannot carry a {k}-plane")
    cols = np.array(support, dtype=np.int64)
    for _ in range(MAX_SAMPLE_ATTEMPTS):
        rows = np.zeros((k + 1, n + 1), dtype=np.int64)
        rows[:, cols] = rng.integers(0, p, size=(k + 1, len(support)), dtype=np.int64)
        if rank_mod_p(rows[:, cols], p) == k + 1:
            return GrassPoint(k, n, rows)
    raise RankDrop(f"no full-rank point after {MAX_SAMPLE_ATTEMPTS} attempts")


def subgrassmannian_span(L: CoordinateSubspace, d: int) -> list[tuple[int, ...]]:
    """Colex-ordered basis (as index sets) of degree-d wedges supported on L."""
    if d > L.dim:
        raise ValueError(f"degree {d} exceeds support size {L.dim}")
    sup = L.support
    return [tuple(sup[i] for i in pos) for pos in subsets_colex(L.dim, d)]


def span_unit_rows(subsets: Sequence[tuple[int, ...]], dim: int, d: int) -> np.ndarray:
    """0/1 matrix whose rows are the unit vectors of the given basis index sets."""
    out = np.zeros((len(subsets), math.comb(dim, d)), dtype=np.int64)
    for r, s in enumerate(subsets):
        out[r, subset_rank(s)] = 1
    return out
