"""Secant-dimension probes for Gr(k,n) by stacked tangent frames over GF(p).

A probe draws s random points, stacks a basis of the affine tangent space
at each point (the Plücker row plus (k+1)(n-k) tangent-frame generators,
written by grassmann.frame_rows straight into one float64 stack), and
compares the GF(p) rank of the stack with the expected affine dimension.
Hitting the expectation is a valid characteristic-0 certificate by
semicontinuity; falling short is only circumstantial evidence of a defect,
so such verdicts are inconclusive and retried with fresh seeds.

Coordinate structure is counted, not eliminated.  A coordinate span adds
exactly the Plücker coordinates inside its support; against those unit
vectors the rank is their number plus the rank of the tangent rows with
those columns deleted (a Schur complement, exact over every field).  A
monomial certificate (codes.monomial_certificate) names s coordinate
points whose tangent spaces are spanned by disjoint sets of unit vectors,
so its rank is s·((k+1)(n-k)+1) with no stack at all.

Coordinate structure is also made.  The stack rank is the dimension of
the span of the s tangent spaces (Terracini's lemma), which GL(n+1) does
not change: an invertible M maps the tangent space at the row space of R
onto the one at the row space of RM through the invertible map ∧^{k+1}M.
Up to (n+1)/(k+1) generic (k+1)-planes are in direct sum, so one change of
basis M sends the first m of a trial's points to the coordinate planes
W_j = {j(k+1), ..., j(k+1)+k}, whose tangent spaces are spanned by the
e_T with |T ∩ W_j| >= k.  Those columns are counted, and the other points'
rows R M are stacked with them deleted.  Every trial's rank, and so every
record, is the integer the plain stack of all s points would give.
Problems with extra spans move no point: their span columns are
coordinate only in the original basis.

The verdict is derived from the ranks in one place, `Verdict.of`.  A
cached probe record is replayed only if `replays` rebuilds the same record
from the problem asked and the record's achieved rank and trial count.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import codes
from .fieldcore import BLOCK_ROWS, DEFAULT_PRIME, inverse_mod_p, rank_mod_p, validate_prime
from .grassmann import (
    CoordinateSubspace,
    GrassPoint,
    coordinate_tangent_columns,
    frame_rows,
    random_point,
    span_columns,
    tangent_space_dim,
)

DEFAULT_TRIALS = 3

# Beyond this many ambient coordinates the greedy certificate search is
# pointless overhead next to the rank computation itself.
AUTO_CERTIFICATE_AMBIENT_LIMIT = 200_000

# Most 8-byte entries (1 GiB) a probe may hold at once; larger problems are
# refused before any table or stack is built.  Gr(2,30) at s2(30) = 57
# needs about 64 M (_probe_entries).
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
        """The verdict of a stack rank: reaching the expected rank certifies
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


def _probe_entries(k: int, n: int, rows: int) -> int:
    """Upper bound on the 8-byte entries a probe with `rows` stack rows holds.

    That is the int64 minor tables of every size t <= k+1 (the subset and
    drop tables, the expansion's products and frame_rows' signed minors,
    4 t C(n+1, t) entries in all) and, in float64, the tangent stack, its
    copy without the counted columns, the rank kernel's basis E and its
    scratch.  The stack holds at most `rows` rows whether or not points
    were moved to coordinate planes, so the stack of the other points and
    its column-deleted copy fall under the 2·rows term.  The change of
    basis and its elimination (about 10 (n+1)**2 entries) are freed before
    the stack is built; they are held at most beside the previous trial's
    stack, below the peak counted here.  Extra spans add no rows: their
    columns are counted.  The
    count stops as soon as the tables pass MAX_PROBE_ENTRIES, so a huge
    problem costs no huge binomial.
    """
    dim = n + 1
    tables = 0
    c = 1
    for t in range(1, k + 2):
        c = c * (dim - t + 1) // t  # C(dim, t)
        tables += 4 * t * c
        if tables > MAX_PROBE_ENTRIES:
            return tables
    return tables + (2 * rows + min(rows, c) + 2 * BLOCK_ROWS) * c


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
        if _probe_entries(self.k, self.n, self.s * tangent_space_dim(self.k, self.n)) > MAX_PROBE_ENTRIES:
            raise ValueError(
                f"problem ({self.k}, {self.n}, {self.s}) too large: a probe would hold more than "
                f"MAX_PROBE_ENTRIES = {MAX_PROBE_ENTRIES} eight-byte entries"
            )

    @property
    def ambient(self) -> int:
        return math.comb(self.n + 1, self.k + 1)


@dataclass(frozen=True)
class SpanVerdict:
    """The best stack rank a probe reached; the verdict follows from the ranks.

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
    # the earlier points fixed and stack ranks monotone for a fixed seed.
    seed = problem.seed & (2**64 - 1)
    return np.random.default_rng([seed, problem.prime, problem.k, problem.n, trial, index])


def _sample_points(problem: SecantProblem, trial: int) -> list[GrassPoint]:
    constraints = problem.point_constraints or (None,) * problem.s
    return [
        random_point(problem.k, problem.n, _point_rng(problem, trial, i), constraints[i], problem.prime)
        for i in range(problem.s)
    ]


def tangent_stack(points: Sequence[np.typing.ArrayLike], p: int) -> np.ndarray:
    """A tangent-space basis at each point, as one float64 stack mod p.

    A point is its (k+1) x (n+1) row matrix; a GrassPoint reads as its
    rows, so the gr26 demos pass their points as they are.
    Each point writes exactly tangent_space_dim(k, n) rows, so the stack is
    allocated once at its final size and filled in order.
    """
    d, dim = np.shape(points[0])
    stack = np.zeros((len(points) * tangent_space_dim(d - 1, dim - 1), math.comb(dim, d)))
    filled = 0
    for rows in points:
        filled += len(frame_rows(rows, p, stack[filled:]))
    return stack


def _to_coordinate_planes(points: list[np.ndarray], p: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Move the first m points to coordinate planes; returns their tangent
    columns and the other points in the new basis.

    m starts at min(s, (n+1) // (k+1)).  The rows of the first m points,
    completed by the unit rows e_{m(k+1)}, ..., e_n, form a matrix P; if P
    is invertible mod p, M = P^-1 sends point j < m to the coordinate plane
    W_j = {j(k+1), ..., j(k+1)+k}, whose tangent space is spanned by unit
    vectors (grassmann.coordinate_tangent_columns), and every other point R
    to R M.  A singular P is retried with m-1; at m = 0 nothing moves.
    R M is taken in int64, exact while (n+1)(p-1)**2 < 2**63, which
    p <= MAX_PRIME and the inverse's n+1 <= GEMM_DEPTH imply.
    """
    d, dim = points[0].shape
    if dim * (p - 1) ** 2 >= 2**63:
        raise ValueError(f"change of basis of {dim} coordinates mod {p} would overflow int64")
    for m in range(min(len(points), dim // d), 0, -1):
        basis = np.eye(dim, dtype=np.int64)
        basis[: m * d] = np.concatenate(points[:m])
        inverse = inverse_mod_p(basis, p)
        if inverse is not None:
            return coordinate_tangent_columns(m, dim, d), [rows @ inverse % p for rows in points[m:]]
    return np.zeros(math.comb(dim, d), dtype=bool), points


def _has_certificate(problem: SecantProblem) -> bool:
    """Whether a monomial certificate covers the problem's s points."""
    if problem.k < 2 or problem.point_constraints or problem.extra_spans:
        return False
    if problem.s * tangent_space_dim(problem.k, problem.n) > problem.ambient:
        return False
    return codes.monomial_certificate(problem.k, problem.n, problem.s) is not None


def probe(problem: SecantProblem, strategy: str = "random", target_rank: int | None = None) -> SpanVerdict:
    """Run the prober; `strategy` is one of random, monomial, auto.

    Under monomial, and under auto for an ambient dimension up to
    AUTO_CERTIFICATE_AMBIENT_LIMIT, a monomial certificate gives the rank
    s·((k+1)(n-k)+1) by counting, in one trial, with no point sampled.
    Otherwise each trial ranks the tangent stack at s sampled points.  The
    trial first moves its first m <= min(s, (n+1) // (k+1)) points to
    coordinate planes (_to_coordinate_planes); its rank is the number of
    their tangent columns plus the rank of the other s - m points' stack
    with those columns deleted, and when s = m no stack is built.  The
    change of basis is invertible, so the rank is the plain stack's.

    A problem with extra spans is a specialization: each constrained point
    must lie in one of the spans.  No point is moved.  Each trial's rank is
    the number of Plücker coordinates inside the spans plus the rank of the
    tangent stack with those columns deleted, and ambient - achieved counts
    the hyperplanes through the whole configuration.
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

    if strategy == "monomial" or (strategy == "auto" and ambient <= AUTO_CERTIFICATE_AMBIENT_LIMIT):
        if _has_certificate(problem):
            return SpanVerdict(problem, problem.s * tangent_space_dim(problem.k, problem.n), expected, 1)
        if strategy == "monomial":
            raise CertificateUnavailable(
                f"no monomial certificate for (k={problem.k}, n={problem.n}, s={problem.s})"
            )

    spanned = span_columns(problem.extra_spans, problem.n + 1, problem.k + 1)
    best = 0
    trials_used = 0
    for trial in range(problem.trials):
        points = [pt.rows for pt in _sample_points(problem, trial)]
        if problem.extra_spans:
            counted = spanned
        else:
            counted, points = _to_coordinate_planes(points, problem.prime)
        rank = int(counted.sum())
        if points:
            stack = tangent_stack(points, problem.prime)
            rank += rank_mod_p(stack[:, ~counted] if counted.any() else stack, problem.prime)
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
