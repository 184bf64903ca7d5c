"""Points of Gr(k,n) over GF(p): Plücker images, tangent-space bases, coordinate spans.

A point is stored as a full-rank (k+1) x (n+1) row matrix, not as a Plücker
vector, so that its tangent space can be generated from it.  The affine
tangent space at a point is spanned by the wedges obtained by replacing one
row with one basis vector; its dimension is (k+1)(n-k)+1.  One Laplace pass
(laplace_minors) over the stack of a point's k+1 row-deleted matrices gives
their maximal minors, and one more expansion its Plücker row, mod p; the
expansions take leading batch axes.  A sampled point keeps those of its
draw: random_point accepts a draw iff its Plücker row is nonzero, and
frame_rows writes a basis of the tangent space (the Plücker row and the
generators off one nonzero Plücker coordinate) from them into a zeroed
float64 frame, keeping only the columns its caller ranks, through one
scatter plan per first nonzero Plücker coordinate and column mask.  Every
point it is handed must have full rank mod p, as the sampled and demo
points do.  Coordinate spans and
coordinate points are given by the Plücker coordinates they add
(counted_columns), not by rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .extalg import Multivector, subsets_colex, wedge_vectors
from .fieldcore import DEFAULT_PRIME, rank_exact
from .fieldcore import rank_mod_p  # noqa: F401  the benchmark's traced run patches grassmann.rank_mod_p

MAX_SAMPLE_ATTEMPTS = 8


class RankDrop(RuntimeError):
    """A sampled point failed to reach full rank mod p."""


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


class PointMinors(NamedTuple):
    """A point's maximal minors mod p from one Laplace pass (laplace_minors).

    Row i of `deleted` holds the maximal minors of the point without row i,
    and `plucker` is its Plücker row, both in colex column order.
    """

    p: int
    deleted: np.ndarray
    plucker: np.ndarray


@dataclass
class GrassPoint:
    k: int
    n: int
    rows: np.ndarray
    # The minors random_point computed to accept the draw; None for a point
    # built from its rows.
    minors: PointMinors | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        if self.k < 1 or self.n <= self.k:
            raise ValueError(f"bad Grassmannian parameters k={self.k}, n={self.n}")
        if self.rows.shape != (self.k + 1, self.n + 1):
            raise ValueError(f"row matrix must be {self.k + 1}x{self.n + 1}")
        if rank_exact(self.rows) != self.k + 1:
            raise ValueError("row matrix is rank deficient")

    def minors_mod(self, p: int) -> PointMinors:
        """The point's minors mod p: those of its draw if it was drawn mod p."""
        if self.minors is not None and self.minors.p == p:
            return self.minors
        return laplace_minors(self.rows, p)


def pluecker(pt: GrassPoint) -> Multivector:
    """Plücker image: the wedge of the point's rows."""
    return wedge_vectors(pt.rows.tolist(), pt.n + 1)


def tangent_space_dim(k: int, n: int) -> int:
    """Affine dimension of the tangent space to the cone over Gr(k,n)."""
    return (k + 1) * (n - k) + 1


# ---------------------------------------------------------------------------
# Tangent-space bases.  Each frame generator keeps one point row replaced
# by a basis vector; expanding the determinant along that row reduces every
# generator to signed k x k minors of the row-deleted matrix.  One table
# per (dim, t) drives the minors, the Plücker row and the scatter.


@lru_cache(maxsize=None)
def _subset_array(dim: int, d: int) -> np.ndarray:
    if d == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.array(list(subsets_colex(dim, d)), dtype=np.int64)


@lru_cache(maxsize=None)
def _drop_table(dim: int, t: int) -> np.ndarray:
    """Entry [r, a]: the colex rank of T minus T[a], for the t-subset T of rank r.

    The colex rank of a sorted subset sums C(T[b], b+1); dropping T[a] keeps
    the terms before a and moves each later element down one position.
    """
    idx = _subset_array(dim, t)
    binom = np.array([[math.comb(x, b) for b in range(t + 1)] for x in range(dim)], dtype=np.int64)
    keep = binom[idx, np.arange(1, t + 1)]
    moved = binom[idx, np.arange(t)]
    return np.cumsum(keep, axis=1) - keep + moved.sum(axis=1, keepdims=True) - np.cumsum(moved, axis=1)


def _expand(row: np.ndarray, minors: np.ndarray, t: int, p: int) -> np.ndarray:
    """The maximal minors of [row; M] from those of M, by expansion along row 0.

    `row` is reduced mod p and `minors` are the maximal minors of the
    (t-1)-row matrix M, colex order; both may carry the same leading batch
    axes, one expansion per batch entry.  Minor T is the alternating sum
    over a of row[T[a]] * minors[T minus T[a]]; the t products are summed
    in int64 before one reduction, which is exact while t*(p-1)**2 < 2**63.
    """
    if t * (p - 1) ** 2 >= 2**63:
        raise ValueError(f"Laplace expansion of {t} rows mod {p} would overflow int64")
    dim = row.shape[-1]
    prods = row[..., _subset_array(dim, t)] * minors[..., _drop_table(dim, t)]
    return (prods[..., 0::2].sum(axis=-1) - prods[..., 1::2].sum(axis=-1)) % p


def maximal_minors_mod(mat: np.ndarray, p: int) -> np.ndarray:
    """All maximal minors of a short wide matrix, colex column order, mod p.

    Row-by-row Laplace expansion from the bottom row up: t*C(dim, t)
    products for the minors of the last t rows, t >= 2.  The bottom row's
    minors are its entries (colex order on 1-subsets is column order).  A
    stack of matrices (leading batch axes before the last two) gives the
    stack of their minors from one pass.
    """
    mat = np.asarray(mat, dtype=np.int64) % p
    rows = mat.shape[-2]
    if not rows:
        return np.ones(mat.shape[:-2] + (1,), dtype=np.int64)
    minors = mat[..., -1, :]
    for t in range(2, rows + 1):
        minors = _expand(mat[..., -t, :], minors, t, p)
    return minors


@lru_cache(maxsize=None)
def _deleted_rows(d: int) -> np.ndarray:
    """Row i: the indices of range(d) other than i, in order."""
    return np.array([[j for j in range(d) if j != i] for i in range(d)], dtype=np.intp)


def laplace_minors(rows: np.ndarray, p: int) -> PointMinors:
    """A point's row-deleted maximal minors and its Plücker row, mod p.

    The row-deleted minors come from one stacked pass over the d matrices
    of the point without one row.  The Plücker row is the expansion of the
    point along row 0 over the minors of the point without it.  It is zero
    exactly when the point has rank below k+1 mod p.
    """
    rows = np.asarray(rows, dtype=np.int64) % p
    d = len(rows)
    deleted = maximal_minors_mod(rows[_deleted_rows(d)], p)
    return PointMinors(p, deleted, _expand(rows[0], deleted[0], d, p))


@lru_cache(maxsize=1)
def _scatter_plan(dim: int, d: int, first: int, keep: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Where frame_rows writes each generator entry, and from where.

    For points whose first nonzero Plücker coordinate is the subset of colex
    rank `first`, at the columns the bool mask `keep` (as bytes) marks, in
    a frame as wide as the mask keeps: the flat frame index of each of the
    H table entries (T, a) whose generator j = T[a] lies outside that
    subset and whose T is kept, and the flat index of its value in
    [minors, -minors], both k+1 x H.  The plan depends on nothing else, so
    the sampled points of a trial, which generically share it, build it
    once; only the last plan is kept.
    """
    keep = np.frombuffer(keep, dtype=bool)
    idx = _subset_array(dim, d)
    free = np.ones(dim, dtype=bool)
    free[idx[first]] = False
    hit = (free[idx] & keep[:, None]).ravel().nonzero()[0]
    cols, a = np.divmod(hit, d)
    i = np.arange(d)[:, None]
    rows = 1 + (dim - d) * i + (np.cumsum(free) - 1)[idx.ravel()[hit]]
    # Minor T minus T[a] of row-deleted matrix i, negated when a+i is odd.
    minors = math.comb(dim, d - 1)
    src = 2 * minors * i + _drop_table(dim, d).ravel()[hit] + minors * ((a + i) & 1)
    kept = np.cumsum(keep)
    return rows * kept[-1] + (kept - 1)[cols], src


def frame_rows(pt: GrassPoint, p: int, out: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Write a basis of the tangent space at a point into rows of `out`, mod p.

    Only the columns the bool mask `keep` marks are written, in order: the
    rows are the full basis's [:, keep].  `out` is float64 and zero in the
    rows written; those rows are returned as a view of it.  Generator (i, j)
    replaces point row v_i by e_j; expanding along that row, its coordinate
    at a (k+1)-subset T with j = T[a] is (-1)**(a+i) times the minor of the
    point without row i on T minus T[a], and 0 when j is not in T.  The
    minors are the point's (GrassPoint.minors_mod), so a sampled point
    reuses those of its draw.  The Plücker row v_0 ^ ... ^ v_k comes first.
    Let J be the subset of its first nonzero coordinate.  Then {v_0..v_k}
    together with {e_j : j not in J} is a basis of K^{n+1}, so a generator
    (i, j) with j in J is a multiple of the Plücker row plus generators
    (i, j') with j' not in J.  The rows are the Plücker row, then the
    generators (i, j) with j not in J, ordered by i then j: (k+1)(n-k)+1
    rows.  A point of rank below k+1 mod p has a zero Plücker row and no
    such basis; it raises ValueError, with nothing written.
    """
    _, deleted, plucker_row = pt.minors_mod(p)
    d, dim = pt.rows.shape
    nz = plucker_row.nonzero()[0]
    if not nz.size:
        raise ValueError(f"point has rank below {d} mod {p}: zero Plücker row")
    dst, src = _scatter_plan(dim, d, int(nz[0]), keep.tobytes())
    out[0] = plucker_row[keep]
    np.put(out, dst, np.concatenate([deleted, (p - deleted) % p], axis=1).take(src))
    return out[: 1 + d * (dim - d)]


def random_point(
    k: int,
    n: int,
    rng: np.random.Generator,
    constraint: CoordinateSubspace | None = None,
    p: int = DEFAULT_PRIME,
) -> GrassPoint:
    """Random point of rank k+1 mod p, optionally supported on a coordinate subspace.

    Each draw fills the support uniformly mod p and is accepted iff its
    Plücker row mod p is nonzero, that is iff it has rank k+1 mod p on its
    support; the point keeps the draw's minors (laplace_minors).  After
    MAX_SAMPLE_ATTEMPTS rejected draws it raises RankDrop.
    """
    support = constraint.support if constraint is not None else tuple(range(n + 1))
    if len(support) < k + 1:
        raise ValueError(f"support of size {len(support)} cannot carry a {k}-plane")
    cols = np.array(support, dtype=np.int64)
    for _ in range(MAX_SAMPLE_ATTEMPTS):
        rows = np.zeros((k + 1, n + 1), dtype=np.int64)
        rows[:, cols] = rng.integers(0, p, size=(k + 1, len(support)), dtype=np.int64)
        minors = laplace_minors(rows, p)
        if minors.plucker.any():
            return GrassPoint(k, n, rows, minors)
    raise RankDrop(f"no full-rank point after {MAX_SAMPLE_ATTEMPTS} attempts")


def counted_columns(dim: int, d: int, spans: Sequence[Sequence[int]] = (), planes: Sequence[Sequence[int]] = ()):
    """Mask over the colex d-subsets T of range(dim) that coordinate structure adds.

    A span with support S adds the degree-d wedges on it, the e_T with
    |T ∩ S| = d; the coordinate point e_W adds its tangent space, the e_T
    with |T ∩ W| >= d-1 (one row of e_W replaced by a basis vector).  The
    sets of different points may overlap (for d = 2 those of disjoint W do).
    """
    idx = _subset_array(dim, d)
    mask = np.zeros(len(idx), dtype=bool)
    for supports, least in ((spans, d), (planes, d - 1)):
        for support in supports:
            member = np.zeros(dim, dtype=bool)
            member[list(support)] = True
            mask |= member[idx].sum(axis=1) >= least
    return mask
