"""Slow reference implementations and test-only helpers, for tests only.

`rank_mod_p_reference` is the column-by-column int64 row reduction that
`fieldcore.rank_mod_p` replaced.  Products of two reduced entries stay
below 2**63 for every p < 2**31, so it is exact for every prime the package
accepts.  `reference_point` samples by it, as `grassmann.random_point` did
before its Plücker-row test.  `maximal_minors_reference` and `full_frame` are the permutation
expansion and the full tangent frame that `grassmann.maximal_minors_mod`
and `grassmann.frame_rows` replaced; `basis_frame` takes from the full
frame the basis rows `frame_rows` writes, and `tangent_frame` builds the
same frame from exact wedges and checks its rank.

`lexicode_greedy_reference` is the pairwise scan that
`codes.lexicode_greedy`'s set of shared subsets replaced.

`cache_index_reference` and `cache_replay_reference` are the
line-by-line cache load and replay that `cache.ResultCache`'s vectorised
index replaced.

`stacked_trial_rank` ranks by elimination the plain stack of a probe
trial: the unit rows of its extra spans, then the tangent bases at the s
points of `trial_points`.  These are the coordinate points on the planes
`placed_planes` finds, whose tangent columns `terracini.probe` counts, and
the points `sample_points` draws for the rest.  `tangent_stack` builds
the whole-trial stack that `terracini.rank_points` replaced by one frame
per point.  `placed_planes` finds the private coordinates by its own set
arithmetic, not by `terracini._coordinate_planes`.

`coordinate_point`, `subgrassmannian_span` and `span_unit_rows` build the
coordinate points of a monomial certificate and the unit rows of a
coordinate span, which `terracini.probe` and `induction.check_prop_a` now
count instead of stacking.

The rest are helpers no package code calls: `monomial_tangent_basis` (the
index sets of the tangent space at a coordinate point), `subset_unrank`,
`apply_linear_map`, `random_unimodular` and `format_tensor` on the exterior
algebra, `is_symmetric` on the pairing matrix, `random_tensor` for Gr(2,6),
and `s1_intro`, the paper's two-floor closed form of `induction.s1`.
`induction_formulas_reference` evaluates the paper's rational forms of
`f1`, `f2`, `points_kept_floor`, `points_kept_ceil`, `s1` and `s2` with
`Fraction`, which `induction`'s integer closed forms replaced.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Sequence

import numpy as np

from grsecant.extalg import Multivector, subset_rank, subsets_colex, wedge_vectors
from grsecant.fieldcore import DEFAULT_PRIME, rank_mod_p
from grsecant.grassmann import (
    MAX_SAMPLE_ATTEMPTS,
    CoordinateSubspace,
    GrassPoint,
    RankDrop,
    frame_rows,
    random_point,
    tangent_space_dim,
)
from grsecant.induction import _require, points_kept_floor
from grsecant.terracini import SecantProblem, _point_rng


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


def reference_point(
    k: int, n: int, rng: np.random.Generator, constraint: CoordinateSubspace | None = None, p: int = DEFAULT_PRIME
) -> GrassPoint:
    """The sampling rule that `grassmann.random_point`'s Plücker-row test
    replaced: draw the support uniformly mod p, rank it with
    `rank_mod_p_reference`, and redraw a draw of rank below k+1, raising
    RankDrop after MAX_SAMPLE_ATTEMPTS draws."""
    cols = list(constraint.support) if constraint is not None else list(range(n + 1))
    for _ in range(MAX_SAMPLE_ATTEMPTS):
        rows = np.zeros((k + 1, n + 1), dtype=np.int64)
        rows[:, cols] = rng.integers(0, p, size=(k + 1, len(cols)), dtype=np.int64)
        if rank_mod_p_reference(rows[:, cols], p) == k + 1:
            return GrassPoint(k, n, rows)
    raise RankDrop(f"no full-rank point after {MAX_SAMPLE_ATTEMPTS} attempts")


def sample_points(problem: SecantProblem, trial: int, first: int = 0) -> list[GrassPoint]:
    """The trial's points first..s-1; point i is drawn from its own stream."""
    constraints = problem.point_constraints or (None,) * problem.s
    return [
        random_point(problem.k, problem.n, _point_rng(problem, trial, i), constraints[i], problem.prime)
        for i in range(first, problem.s)
    ]


def tangent_stack(points: Sequence[GrassPoint], p: int, keep: np.ndarray | None = None) -> np.ndarray:
    """A tangent-space basis at each point, as one float64 stack mod p, at
    the columns `keep` marks (all by default)."""
    k, n = points[0].k, points[0].n
    if keep is None:
        keep = np.ones(math.comb(n + 1, k + 1), dtype=bool)
    stack = np.zeros((len(points) * tangent_space_dim(k, n), int(keep.sum())))
    filled = 0
    for pt in points:
        filled += len(frame_rows(pt, p, stack[filled:], keep))
    return stack


def placed_planes(problem: SecantProblem) -> dict[int, tuple[int, ...]]:
    """The coordinate plane of each point a probe places, by point index.

    The members are the distinct constraint and span supports.  A class is
    a constraint support, or None for the free points, and its private
    coordinates are those of the class (all, for None) in no other member.
    The first points of a class, in index order, take consecutive (k+1)-sets
    of its private coordinates while they last.
    """
    d = problem.k + 1
    constraints = problem.point_constraints or (None,) * problem.s
    supports = [None if c is None else frozenset(c.support) for c in constraints]
    members = {c for c in supports if c is not None} | {frozenset(span.support) for span in problem.extra_spans}
    placed = {}
    for cls in set(supports):
        own = cls if cls is not None else frozenset(range(problem.n + 1))
        private = sorted(own.difference(*(members - {cls})))
        indices = [i for i, c in enumerate(supports) if c == cls]
        for j in range(min(len(indices), len(private) // d)):
            placed[indices[j]] = tuple(private[j * d : (j + 1) * d])
    return placed


def trial_points(problem: SecantProblem, trial: int = 0) -> list[GrassPoint]:
    """The s points of a probe trial: coordinate points where `placed_planes`
    places them, the points `sample_points` draws elsewhere."""
    placed = placed_planes(problem)
    return [
        coordinate_point(problem.k, problem.n, placed[i]) if i in placed else pt
        for i, pt in enumerate(sample_points(problem, trial))
    ]


def stacked_trial_rank(problem: SecantProblem, trial: int = 0) -> int:
    """Rank mod p of the unit rows of the problem's extra spans stacked over
    the tangent bases at the s points of `trial` (`trial_points`)."""
    k, n, p = problem.k, problem.n, problem.prime
    units = [span_unit_rows(subgrassmannian_span(span, k + 1), n + 1, k + 1) for span in problem.extra_spans]
    return rank_mod_p(np.vstack(units + [tangent_stack(trial_points(problem, trial), p)]), p)


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
    in the order of `tangent_frame`: all (k+1)(n+1) generators, of which
    `grassmann.frame_rows` writes only a basis.
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


def basis_frame(rows, p: int) -> np.ndarray:
    """The tangent basis `grassmann.frame_rows` writes, from `full_frame`.

    The Plücker row (by `maximal_minors_reference`), then the generators
    (i, j) with j outside the subset J of its first nonzero coordinate
    (`subset_unrank`), ordered by i then j.
    """
    rows = np.asarray(rows, dtype=np.int64)
    d, dim = rows.shape
    plucker_row = maximal_minors_reference(rows, p)
    J = subset_unrank(int(np.flatnonzero(plucker_row)[0]), dim - 1, d)
    keep = [i * dim + j for i in range(d) for j in range(dim) if j not in J]
    return np.vstack([plucker_row[None], full_frame(rows, p)[keep]])


@dataclass
class TangentFrame:
    """Generators of the affine tangent space at a point, one per (row, basis vector)."""

    point: GrassPoint
    generators: list[Multivector]
    rank: int


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


def coordinate_point(k: int, n: int, indices: Sequence[int]) -> GrassPoint:
    """The point spanned by the basis vectors named in `indices`."""
    idx = tuple(sorted(indices))
    if len(idx) != k + 1:
        raise ValueError(f"need {k + 1} indices")
    rows = np.zeros((k + 1, n + 1), dtype=np.int64)
    for r, i in enumerate(idx):
        rows[r, i] = 1
    return GrassPoint(k, n, rows)


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


def subset_unrank(r: int, n: int, d: int) -> tuple[int, ...]:
    """The d-subset of {0, ..., n} with colex rank r (combinadic decoding)."""
    total = math.comb(n + 1, d)
    if not 0 <= r < total:
        raise ValueError(f"rank {r} out of range [0, {total})")
    out: list[int] = []
    rr = r
    for t in range(d, 0, -1):
        c = t - 1
        while math.comb(c + 1, t) <= rr:
            c += 1
        out.append(c)
        rr -= math.comb(c, t)
    return tuple(reversed(out))


def apply_linear_map(m, omega: Multivector) -> Multivector:
    """Push omega through the linear map sending e_i to column i of m."""
    mat = np.asarray(m)
    if mat.shape != (omega.dim, omega.dim):
        raise ValueError("basis-change matrix has wrong shape")
    cols = [[int(mat[r, i]) for r in range(omega.dim)] for i in range(omega.dim)]
    out = Multivector.zero(omega.dim, omega.degree)
    for idx, c in omega.terms.items():
        out = out + wedge_vectors([cols[i] for i in idx], omega.dim).scaled(c)
    return out


def random_unimodular(rng: np.random.Generator, dim: int, steps: int = 8, bound: int = 2) -> np.ndarray:
    """Product of random integer shears: a determinant-1 change of basis."""
    g = np.eye(dim, dtype=np.int64)
    for _ in range(steps):
        i, j = rng.choice(dim, size=2, replace=False)
        shear = np.eye(dim, dtype=np.int64)
        shear[i, j] = int(rng.integers(-bound, bound + 1))
        g = g @ shear
    return g


def format_tensor(mv: Multivector, one_based: bool = False) -> str:
    shift = 1 if one_based else 0
    lines = [f"dim {mv.dim} degree {mv.degree}" + (" one_based" if one_based else "")]
    for idx in sorted(mv.terms, key=subset_rank):
        lines.append(f"{' '.join(str(i + shift) for i in idx)} : {mv.terms[idx]}")
    return "\n".join(lines) + "\n"


def is_symmetric(matrix) -> bool:
    """Whether a square matrix, given as a list of rows, equals its transpose."""
    return all(matrix[i][j] == matrix[j][i] for i in range(len(matrix)) for j in range(i))


def random_tensor(rng: np.random.Generator, bound: int = 5) -> Multivector:
    """Dense random integral tensor: every coordinate uniform in [-bound, bound]."""
    terms = {idx: int(rng.integers(-bound, bound + 1)) for idx in combinations(range(7), 3)}
    return Multivector(7, 3, terms)


def s1_intro(n: int) -> int:
    """Two-floor closed form; identical to s1 (the floor arguments are equal)."""
    _require(n)
    return math.floor(Fraction(n * n, 18) - Fraction(20 * n, 27) + Fraction(287, 81)) + points_kept_floor(n)


def induction_formulas_reference(n: int) -> dict[str, int]:
    """The induction's counting formulas from exact rationals, floor or ceiling last."""
    base = Fraction(n * n, 18) - Fraction(31 * n, 54) + Fraction(125, 81)
    f1 = math.floor(base - Fraction(n, 6) + 2)
    kept = Fraction(6 * n - 13, 9)
    return {
        "f1": f1,
        "f2": math.ceil(base + Fraction(n, 6) - 1),
        "points_kept_floor": math.floor(kept),
        "points_kept_ceil": math.ceil(kept),
        "s1": f1 + math.floor(kept),
        "s2": math.ceil(Fraction(n * n, 18) + Fraction(7 * n, 27) - Fraction(73, 81)),
    }


def cache_index_reference(data: bytes) -> tuple[dict[str, list[bytes]], int]:
    """Each stripped line of a cache file in `put`'s form, under its key in
    file order, and the count of the other non-blank lines."""
    head, middle, key_end = b'{"key": "', b'", "record": {', 73
    lines: dict[str, list[bytes]] = {}
    skipped = 0
    for line in data.split(b"\n"):
        line = line.strip()
        if not line:
            continue
        key = line[len(head) : key_end]
        if (
            line.startswith(head)
            and line.startswith(middle, key_end)
            and line.endswith(b"}}")
            and not key.translate(None, b"0123456789abcdef")
        ):
            lines.setdefault(key.decode("ascii"), []).append(line)
        else:
            skipped += 1
    return lines, skipped


def cache_replay_reference(lines: list[bytes], key: str, replays=None) -> tuple[dict | None, int]:
    """The record replayed from a key's lines, the first that decodes to a
    {"key", "record"} entry for `key` and passes `replays`, and the count of
    lines tried and skipped."""
    for skipped, line in enumerate(lines):
        try:
            entry = json.loads(line)
        except (ValueError, RecursionError):
            continue
        if (
            isinstance(entry, dict)
            and entry.get("key") == key
            and isinstance(entry.get("record"), dict)
            and (replays is None or replays(entry["record"]))
        ):
            return entry["record"], skipped
    return None, len(lines)


def lexicode_greedy_reference(length: int, weight: int, min_distance: int = 6) -> tuple[tuple[int, ...], ...]:
    """The greedy lexicode's words by the pairwise scan: each weight-w support,
    in colex order, is kept when it meets every kept word in at most
    w - d/2 elements.  Words are uint16 bitmasks, so one gather from a
    popcount table at their ANDs with a support counts its common elements
    with every kept word.  Lengths above 16 are refused."""
    if length > 16:
        raise ValueError(f"length {length} does not fit the uint16 masks")
    popcount = np.zeros(1, dtype=np.uint8)
    for _ in range(16):
        popcount = np.concatenate([popcount, popcount + 1])  # the top bit adds one
    max_overlap = weight - min_distance // 2
    kept: list[tuple[int, ...]] = []
    masks = np.empty(math.comb(length, weight), dtype=np.uint16)
    for cand in subsets_colex(length, weight):
        mask = sum(1 << i for i in cand)
        if (popcount[masks[: len(kept)] & mask] <= max_overlap).all():
            masks[len(kept)] = mask
            kept.append(cand)
    return tuple(kept)
