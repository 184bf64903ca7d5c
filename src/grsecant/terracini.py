"""Secant-dimension probes for Gr(k,n) by tangent frames over GF(p).

A probe takes s points (random ones, and coordinate planes where it may;
see below), adds a basis of the affine tangent space at each point (the
Plücker row plus (k+1)(n-k) tangent-frame generators, framed by
grassmann.frame_rows) to one GF(p) basis, drawing no point once it spans
every column, and compares its rank with the expected affine dimension.
Hitting the expectation is a valid characteristic-0 certificate by
semicontinuity; falling short is only circumstantial evidence of a
defect, so such verdicts are inconclusive and retried with fresh seeds.

Coordinate structure is counted, not eliminated.  A coordinate span adds
exactly the Plücker coordinates inside its support, and a coordinate point
e_W exactly the e_T with |T ∩ W| >= k; against those unit vectors the rank
is their number plus the rank of the other tangent rows with those columns
deleted (a Schur complement, exact over every field).  So every probe
counts one column mask (grassmann.counted_columns) and ranks the sampled
rest, written only at the columns left.  Its coordinate points are the
words of a monomial certificate (codes.monomial_certificate), which meet
in at most k-2 indices, so their tangent columns are disjoint and the
count alone, s·((k+1)(n-k)+1), needs no mask (`_disjoint_count`); words
that overlap go through the mask and fall short.
Otherwise they are the planes `_coordinate_planes` places: on the
coordinates private to each point's constraint support (or, for free
points, in no support or span), which a linear map fixing every support
and span moves the first points of each class to.  Without constraints or
spans these are W_j = {j(k+1), ..., j(k+1)+k} at points 0..m-1,
m = min(s, (n+1) // (k+1)).  Each trial's rank keeps its law, and any
configuration reaching the expected rank certifies it.

The verdict is derived from the ranks in one place, `Verdict.of`.  A
cached probe record is replayed only if `replays` rebuilds the same record
from the problem asked and the record's achieved rank and trial count.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterable

import numpy as np

from . import codes
from .fieldcore import BLOCK_ROWS, DEFAULT_PRIME, Echelon, rank_mod_p, validate_prime
from .grassmann import (
    CoordinateSubspace,
    GrassPoint,
    counted_columns,
    frame_rows,
    random_point,
    tangent_space_dim,
)

DEFAULT_TRIALS = 3

# Most 8-byte entries (1 GiB) a probe may hold at once; larger problems are
# refused before any table or basis is built.  A probe holds nothing per
# point, so the bound stops growing once s*T rows could span every column:
# Gr(2,30) needs about 21.5 M (_probe_entries) for every s >= 53.
MAX_PROBE_ENTRIES = 2**27


class CertificateUnavailable(RuntimeError):
    """The monomial strategy was forced but no certificate of size s exists."""


class Verdict(str, enum.Enum):
    CERTIFIED_EXPECTED = "CertifiedExpected"
    CERTIFIED_FILLS = "CertifiedFills"
    INCONCLUSIVE_DEFICIT = "InconclusiveDeficit"

    def is_certified(self) -> bool:
        return self is not Verdict.INCONCLUSIVE_DEFICIT

    @classmethod
    def of(cls, achieved: int, expected: int, ambient: int) -> Verdict:
        """The verdict of a probe's rank: reaching the expected rank certifies
        it, as CertifiedFills when that rank is the ambient dimension.

        Raises ValueError unless 0 <= achieved <= expected <= ambient.
        """
        if not 0 <= achieved <= expected <= ambient:
            raise ValueError(f"rank bookkeeping broken: 0 <= {achieved} <= {expected} <= {ambient} fails")
        if achieved < expected:
            return cls.INCONCLUSIVE_DEFICIT
        return cls.CERTIFIED_FILLS if expected == ambient else cls.CERTIFIED_EXPECTED


def expected_affine_dim(k: int, n: int, s: int) -> int:
    """min(s * ((k+1)(n-k)+1), C(n+1, k+1)): the affine dimension cap."""
    if k < 1 or n <= k or s < 1:
        raise ValueError(f"bad parameters k={k}, n={n}, s={s}")
    return min(s * tangent_space_dim(k, n), math.comb(n + 1, k + 1))


def _probe_entries(k: int, n: int, s: int) -> int:
    """Upper bound on the 8-byte entries a probe of s points holds at once.

    With d = k+1, c = C(n+1, d) and T = (k+1)(n-k)+1 frame rows, that is:
    - the int64 minor tables of every size t <= d (the subset and drop
      tables and the expansion's products, 4 t C(n+1, t) entries in all);
    - the minors of the point framed and of the one drawn next (d rows of
      C(n+1, k) and a Plücker row each) and frame_rows' signed copy;
    - the one scatter plan, 2 index entries for each of at most d*d*c
      generator entries, and as many again while it is built;
    - in float64, at most c columns wide: the one T-row frame, the carry of
      BLOCK_ROWS rows, the rank kernel's basis E (at most min(s*T, c)
      rows) and its temporaries (2 * BLOCK_ROWS rows bound those a block
      needs at once).
    A probe holds nothing per point, so s enters only through min(s*T, c).
    Extra spans and coordinate planes add no rows: their columns are
    counted.  The count stops as soon as the tables pass
    MAX_PROBE_ENTRIES, so a huge problem costs no huge binomial.
    """
    dim, d = n + 1, k + 1
    tables = 0
    c = 1
    for t in range(1, d + 1):
        below, c = c, c * (dim - t + 1) // t  # C(dim, t-1), C(dim, t)
        tables += 4 * t * c
        if tables > MAX_PROBE_ENTRIES:
            return tables
    frame = tangent_space_dim(k, n)
    minors = 4 * d * below + 2 * c
    plan = 4 * d * d * c
    floats = (frame + BLOCK_ROWS + min(s * frame, c) + 2 * BLOCK_ROWS) * c
    return tables + minors + plan + floats


@dataclass(frozen=True)
class SecantProblem:
    k: int
    n: int
    s: int
    prime: int = DEFAULT_PRIME
    seed: int = 0
    trials: int = DEFAULT_TRIALS
    point_constraints: tuple[CoordinateSubspace | None, ...] | None = None
    extra_spans: tuple[CoordinateSubspace, ...] = ()

    def __post_init__(self):
        if self.s < 1 or self.k < 1 or self.n <= self.k:
            raise ValueError(f"bad problem ({self.k}, {self.n}, {self.s})")
        validate_prime(self.prime)
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.point_constraints is not None and len(self.point_constraints) != self.s:
            raise ValueError("one constraint slot per point required")
        for sub in list(self.point_constraints or ()) + list(self.extra_spans):
            if sub is not None and sub.n != self.n:
                raise ValueError("constraint subspace lives in the wrong space")
        if _probe_entries(self.k, self.n, self.s) > MAX_PROBE_ENTRIES:
            raise ValueError(
                f"problem ({self.k}, {self.n}, {self.s}) too large: a probe would hold more than "
                f"MAX_PROBE_ENTRIES = {MAX_PROBE_ENTRIES} eight-byte entries"
            )

    @property
    def ambient(self) -> int:
        return math.comb(self.n + 1, self.k + 1)


@dataclass(frozen=True)
class SpanVerdict:
    """The best rank a probe reached; the verdict follows from the ranks.

    Reaching the expected rank certifies it, as CertifiedFills when that
    rank is the ambient dimension; falling short is InconclusiveDeficit.
    """

    problem: SecantProblem
    achieved_rank: int
    expected_rank: int
    trials_used: int

    def __post_init__(self):
        self.verdict  # raises ValueError on broken rank bookkeeping

    @property
    def ambient(self) -> int:
        return self.problem.ambient

    @property
    def verdict(self) -> Verdict:
        return Verdict.of(self.achieved_rank, self.expected_rank, self.ambient)

    @property
    def deficit(self) -> int:
        return self.expected_rank - self.achieved_rank

    def to_record(self) -> dict:
        rec = {
            "k": self.problem.k,
            "n": self.problem.n,
            "s": self.problem.s,
            "prime": self.problem.prime,
            "seed": self.problem.seed,
            "trials": self.trials_used,
            "achieved": self.achieved_rank,
            "expected": self.expected_rank,
            "ambient": self.ambient,
            "verdict": self.verdict.value,
        }
        if self.verdict is Verdict.INCONCLUSIVE_DEFICIT:
            rec["deficit"] = self.deficit
        return rec


def _point_rng(problem: SecantProblem, trial: int, index: int) -> np.random.Generator:
    # The stream depends on the point index but not on s, so growing s keeps
    # the earlier points fixed and ranks monotone for a fixed seed.  Seeding
    # from the key's little-endian 32-bit words, as SeedSequence splits a
    # list of ints, gives the list's stream; the words are split before the
    # uint32 cast, which older NumPy wraps silently.
    key = (problem.seed & (2**64 - 1), problem.prime, problem.k, problem.n, trial, index)
    words = [v >> b & 0xFFFFFFFF for v in key for b in range(0, max(v.bit_length(), 1), 32)]
    return np.random.default_rng(np.array(words, dtype=np.uint32))


def rank_points(points: Iterable[GrassPoint], p: int, basis: Echelon, keep: np.ndarray) -> int:
    """Add the tangent space at each point, at the columns `keep` marks, to `basis`.

    Each point is framed into one reused frame from its minors (a sampled
    point's are those its draw computed), and the frame's rows join the
    basis through a carry buffer in blocks of BLOCK_ROWS.  No all-zero row
    is passed on: a constrained point's rows inside the counted columns
    are zero where they are ranked, and a zero row lies in the span of the
    rows before it, so the rank is that of the stack of all the frames.
    No further point is drawn once the basis spans every column.  Returns
    the basis's rank.
    """
    width = basis.E.shape[1]
    frame = carry = None
    filled = 0
    for pt in points:
        if frame is None:
            frame = np.empty((tangent_space_dim(pt.k, pt.n), width))
            carry = np.empty((BLOCK_ROWS, width))
        frame.fill(0)
        rows = frame_rows(pt, p, frame, keep)
        live = rows.any(axis=1)
        if not live.all():
            rows = rows[live]
        while len(rows):
            take = min(len(rows), BLOCK_ROWS - filled)
            carry[filled : filled + take] = rows[:take]
            rows, filled = rows[take:], filled + take
            if filled == BLOCK_ROWS:
                filled = 0
                if rank_mod_p(carry, p, basis) == width:
                    return width
    return rank_mod_p(carry[:filled], p, basis) if filled else basis.rank


def _certificate(problem: SecantProblem) -> tuple[tuple[int, ...], ...] | None:
    """The supports of s coordinate points from a monomial certificate, or None."""
    if problem.k < 2 or problem.extra_spans or any(c is not None for c in problem.point_constraints or ()):
        return None
    if problem.s * tangent_space_dim(problem.k, problem.n) > problem.ambient:
        return None
    code = codes.monomial_certificate(problem.k, problem.n, problem.s)
    return None if code is None else code.words[: problem.s]


def _disjoint_count(k: int, n: int, words) -> int | None:
    """The columns the coordinate points on `words` add, when no two share one.

    The tangent columns of e_W are the e_T with |T ∩ W| >= k, so a column
    of two points W, W' has |W ∩ W'| >= 2k - (k+1) = k-1.  Words of k+1
    indices meeting pairwise in at most k-2 therefore add disjoint sets of
    (k+1)(n-k)+1 columns each, len(words) times that in all, and need no
    mask.  Returns None for any other words.
    """
    masks = [sum(1 << i for i in set(word)) for word in words]
    if any(m.bit_count() != k + 1 for m in masks):
        return None
    if any((a & b).bit_count() > k - 2 for a, b in combinations(masks, 2)):
        return None
    return len(words) * tangent_space_dim(k, n)


def _coordinate_planes(problem: SecantProblem) -> dict[int, tuple[int, ...]]:
    """The points a probe places, by index, each with its coordinate plane.

    Let 𝒮 be the distinct supports of the constraints and the extra spans.
    A point's class is its constraint's support, or None when it is free.
    The private coordinates P_S of a class S are those in S and in no other
    member of 𝒮; for the free class, those in no member of 𝒮.  The first
    min(#points of S, ⌊|P_S|/(k+1)⌋) points of each class, in index order,
    become the planes P_S[0:k+1], P_S[k+1:2k+2], ...; every other point is
    sampled.  Without constraints or spans this is W_0..W_{m-1} at points
    0..m-1.

    Why this keeps the probe sound and each trial's rank law.  Points are
    row matrices acted on by x ↦ xg.  For a class S and its m moved points
    X, whose P_S-part X_P has full rank (a generic condition), let g be the
    identity off the rows of P_S and send the rows of P_S into S: g_{P,P}
    with X_P g_{P,P} the unit planes, and g_{P,S∖P} with
    X_P g_{P,S∖P} = -X_{S∖P}.  Then Xg is the placed planes, g is invertible,
    and:
    - every other member of 𝒮 has no P_S coordinate, so g fixes it
      pointwise, points of other classes and placed planes included; S
      itself is preserved (Sg = S);
    - g depends only on X, and the other points are uniform on their
      supports, which g preserves, so they stay uniform under g.
    Classes have disjoint P's, so each class's map fixes the planes placed
    for the others, and the maps compose.  The rank of a configuration is
    invariant under g, so each trial's rank has the law of a fully sampled
    trial conditioned on the generic event, and any configuration on the
    spans that reaches the target certifies it.
    """
    d = problem.k + 1
    constraints = problem.point_constraints
    classes = (None,) if constraints is None else dict.fromkeys(constraints)
    members = {sub.support for sub in classes if sub is not None} | {span.support for span in problem.extra_spans}
    placed = {}
    for cls in classes:
        support = None if cls is None else cls.support
        taken = set().union(*(members - {support}))
        private = [c for c in support or range(problem.n + 1) if c not in taken]
        points = range(problem.s) if constraints is None else (i for i, sub in enumerate(constraints) if sub == cls)
        for j, i in enumerate(islice(points, len(private) // d)):
            placed[i] = tuple(private[j * d : j * d + d])
    return placed


def probe(problem: SecantProblem, strategy: str = "random", target_rank: int | None = None) -> SpanVerdict:
    """Run the prober; `strategy` is one of random, monomial, auto.

    Some points are coordinate points: under monomial and auto, all s
    words of a monomial certificate when one exists (CertificateUnavailable
    under monomial without one); otherwise the planes `_coordinate_planes`
    places.  Each trial's rank is the count of the columns they and the
    extra spans add plus the rank of the tangent spaces at the other
    points, drawn one at a time in index order and framed without those
    columns (rank_points); a certificate draws no point and needs one
    trial.  Nothing is held per point: the indices are drawn lazily, so
    past full width a larger s is free.  The count is s·((k+1)(n-k)+1)
    without a mask when the certificate's words meet pairwise in at most
    k-2 indices (`_disjoint_count`), and the mask's otherwise.

    A problem with extra spans is a specialization: each constrained point
    must lie in one of the spans, and ambient - achieved counts the
    hyperplanes through the whole configuration.  Its points placed are
    the first of each class that fit on the coordinates private to their
    class: for Prop. C up to ⌊(n-5)/3⌋ points on L = {6..n} and two free
    points, for Prop. B up to two points on each span, for Prop. A none.
    """
    if strategy not in ("random", "monomial", "auto"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if problem.extra_spans:
        for sub in problem.point_constraints or ():
            if sub is not None and not any(set(sub.support) <= set(span.support) for span in problem.extra_spans):
                raise ValueError(f"constraint support {sub.support} lies in no span")
    expected = expected_affine_dim(problem.k, problem.n, problem.s) if target_rank is None else target_rank
    ambient = problem.ambient
    if not 0 <= expected <= ambient:
        raise ValueError(f"target rank {expected} out of range [0, {ambient}]")

    words = _certificate(problem) if strategy != "random" else None
    if words is None and strategy == "monomial":
        raise CertificateUnavailable(f"no monomial certificate for (k={problem.k}, n={problem.n}, s={problem.s})")
    placed = _coordinate_planes(problem) if words is None else dict(enumerate(words))
    spans = [span.support for span in problem.extra_spans]
    count = None if words is None else _disjoint_count(problem.k, problem.n, words)
    keep = None
    if count is None:
        counted = counted_columns(problem.n + 1, problem.k + 1, spans, placed.values())
        count, keep = int(counted.sum()), ~counted
    rows = (problem.s - len(placed)) * tangent_space_dim(problem.k, problem.n)
    constraints = problem.point_constraints
    best = 0
    trials_used = 0
    for trial in range(problem.trials):
        points = (
            random_point(problem.k, problem.n, _point_rng(problem, trial, i), constraints and constraints[i], problem.prime)
            for i in range(problem.s) if i not in placed
        )
        rank = count + rank_points(points, problem.prime, Echelon(ambient - count, rows, problem.prime), keep)
        trials_used = trial + 1
        best = max(best, rank)
        if best >= expected:
            break

    return SpanVerdict(problem, best, expected, trials_used)


def replays(problem: SecantProblem, result) -> bool:
    """Whether a cached probe result is the record `probe` writes for `problem`.

    Only the achieved rank and the trial count are read from the result:
    both must be exact ints, with the trials in [1, problem.trials].  The
    record is rebuilt from them and the problem, and must dump to the same
    JSON as the result, so a record edited by hand or stored under another
    problem's key is not replayed.
    """
    if not isinstance(result, dict):
        return False
    achieved, trials = result.get("achieved"), result.get("trials")
    if type(achieved) is not int or type(trials) is not int or not 1 <= trials <= problem.trials:
        return False
    expected = expected_affine_dim(problem.k, problem.n, problem.s)
    try:
        rebuilt = SpanVerdict(problem, achieved, expected, trials).to_record()
    except ValueError:
        return False
    return json.dumps(rebuilt, sort_keys=True) == json.dumps(result, sort_keys=True)


@dataclass(frozen=True)
class ImpliedRange:
    """Certificates implied by monotonicity from a single certified verdict."""

    verdict: Verdict
    s_min: int
    s_max: int | None  # None = unbounded above


def monotone_extend(verdict: Verdict, s: int) -> ImpliedRange:
    """Expected dimension at s certifies all s' <= s; filling certifies all s' >= s."""
    if not verdict.is_certified():
        raise ValueError("monotone extension needs a certified verdict")
    if verdict is Verdict.CERTIFIED_FILLS:
        return ImpliedRange(Verdict.CERTIFIED_FILLS, s, None)
    return ImpliedRange(Verdict.CERTIFIED_EXPECTED, 1, s)
