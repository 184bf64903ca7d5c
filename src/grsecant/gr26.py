"""Special geometry of degree-3 tensors in dimension 7, plus the two
tangent-span demos behind the remaining defective cases.

Membership in the secant filtration of Gr(2,6) is read off the rank of the
21x21 contraction pairing: 6 on the Grassmannian itself, 12 on the secant
of lines, 18 on the secant hypersurface, 21 generically.  The determinant of
the pairing is twice a perfect cube; its exact cube root is the degree-7
invariant cutting out that hypersurface, evaluated pointwise rather than
expanded (the expansion has 10,680 terms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extalg import Multivector, pairing_matrix, wedge_vectors
from .fieldcore import DEFAULT_PRIME, integer_cube_root_signed, rank_mod_p
from .grassmann import GrassPoint, pluecker, tangent_space_dim
from .terracini import tangent_stack

RANK_GRASSMANNIAN = 6
RANK_SIGMA2 = 12
RANK_SIGMA3 = 18


def _blade_1based(dim: int, indices, coeff: int = 1) -> Multivector:
    return Multivector.blade(dim, [i - 1 for i in indices], coeff)


def fano_tensor() -> Multivector:
    """Five decomposables along the lines of the Fano plane; pairing rank 21."""
    return five_term_tensor(1, 1, 1, 1, 1)


def five_term_tensor(a135: int, a147: int, a126: int, a234: int, a567: int) -> Multivector:
    """The five-parameter family (labels are the classical 1-based ones)."""
    out = Multivector.zero(7, 3)
    for coeff, idx in (
        (a135, (1, 3, 5)),
        (a147, (1, 4, 7)),
        (a126, (1, 2, 6)),
        (a234, (2, 3, 4)),
        (a567, (5, 6, 7)),
    ):
        out = out + _blade_1based(7, idx, coeff)
    return out


def five_term_identity(a135: int, a147: int, a126: int, a234: int, a567: int) -> tuple[int, int]:
    """Exact pairing determinant of the five-term family and its predicted value.

    The two must agree: det = -2 (a234^2 a567^2 a135 a147 a126)^3.
    """
    omega = five_term_tensor(a135, a147, a126, a234, a567)
    det = pairing_matrix(omega).det()
    predicted = -2 * (a234**2 * a567**2 * a135 * a147 * a126) ** 3
    return det, predicted


def degree7_invariant(omega: Multivector) -> int:
    """Exact value of the degree-7 invariant: the signed cube root of det/2.

    The pairing determinant of an integral tensor is always twice a perfect
    cube; an odd determinant or a failed root extraction indicates a bug.
    """
    det = pairing_matrix(omega).det()
    if det % 2 != 0:
        raise ValueError(f"pairing determinant {det} is odd; this cannot happen")
    return integer_cube_root_signed(det // 2)


@dataclass
class MembershipReport:
    rank: int
    in_grassmannian: bool
    in_sigma2: bool
    in_sigma3: bool
    invariant_exact: int
    invariant_mod_p: int
    prime: int

    def to_record(self) -> dict:
        return {
            "rank": self.rank,
            "in_grassmannian": self.in_grassmannian,
            "in_sigma2": self.in_sigma2,
            "in_sigma3": self.in_sigma3,
            "invariant_exact": self.invariant_exact,
            "invariant_mod_p": self.invariant_mod_p,
            "prime": self.prime,
        }


def classify(omega: Multivector, p: int = DEFAULT_PRIME) -> MembershipReport:
    """Exact pairing rank, the three membership flags, and the invariant.

    The invariant is computed once, exactly; `invariant_mod_p` is its
    residue mod p, so any prime is accepted.
    """
    rank = pairing_matrix(omega).rank()  # exact over the rationals
    inv = degree7_invariant(omega)
    return MembershipReport(
        rank=rank,
        in_grassmannian=rank <= RANK_GRASSMANNIAN,
        in_sigma2=rank <= RANK_SIGMA2,
        in_sigma3=rank <= RANK_SIGMA3,
        invariant_exact=inv,
        invariant_mod_p=inv % p,
        prime=p,
    )


def random_decomposable(rng: np.random.Generator, dim: int = 7, bound: int = 3) -> Multivector:
    """Wedge of three small random integer vectors; retried if it degenerates."""
    while True:
        vecs = rng.integers(-bound, bound + 1, size=(3, dim))
        w = wedge_vectors(vecs.tolist(), dim)
        if not w.is_zero():
            return w


def random_secant_point(rng: np.random.Generator, terms: int, dim: int = 7, bound: int = 3) -> Multivector:
    out = Multivector.zero(dim, 3)
    for _ in range(terms):
        out = out + random_decomposable(rng, dim, bound)
    return out


@dataclass
class Figure1Row:
    label: str
    omega: Multivector
    expected_rank: int
    rank: int

    @property
    def matches(self) -> bool:
        return self.rank == self.expected_rank


def figure1_table(seed: int = 0) -> list[Figure1Row]:
    """Orbit representatives with their verified pairing ranks.

    The rank-10 representative is a derived candidate (validated only by its
    rank); the rank-16 orbit has no known small representative and is not
    emitted.  The generic rank-18 sample is a sum of three decomposables,
    redrawn on rank drop.
    """
    rng = np.random.default_rng(seed & (2**64 - 1))
    rows: list[tuple[str, Multivector, int]] = [
        ("decomposable", _blade_1based(7, (1, 2, 3)), 6),
        ("chordal-limit", _blade_1based(7, (1, 2, 3)) + _blade_1based(7, (1, 4, 5)), 10),
        (
            "tangent-limit",
            _blade_1based(7, (1, 2, 6)) + _blade_1based(7, (1, 5, 3)) + _blade_1based(7, (4, 2, 3)),
            12,
        ),
        ("two-secant", _blade_1based(7, (1, 2, 3)) + _blade_1based(7, (4, 5, 6)), 12),
        (
            "tangent-dual-limit",
            _blade_1based(7, (3, 7, 6))
            - _blade_1based(7, (3, 1, 5))
            - _blade_1based(7, (3, 4, 2))
            - _blade_1based(7, (6, 1, 2)),
            15,
        ),
        ("generic-three-secant", _generic_sigma3(rng), 18),
        ("fano", fano_tensor(), 21),
    ]
    return [Figure1Row(label, w, want, pairing_matrix(w).rank()) for label, w, want in rows]


def _generic_sigma3(rng: np.random.Generator) -> Multivector:
    for _ in range(16):
        w = random_secant_point(rng, 3)
        if pairing_matrix(w).rank() == RANK_SIGMA3:
            return w
    raise RuntimeError("could not sample a generic three-term tensor")


# ---------------------------------------------------------------------------
# Tangent-span demos for the other defective Grassmannians.


@dataclass
class DemoReport:
    name: str
    achieved_rank: int
    expected_rank: int
    ambient: int
    curve_checks: list[str]
    passed: bool

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "achieved": self.achieved_rank,
            "expected": self.expected_rank,
            "ambient": self.ambient,
            "curve_checks": self.curve_checks,
            "passed": self.passed,
        }


def _proportional(u, v) -> bool:
    u = [int(x) for x in u]
    v = [int(x) for x in v]
    if len(u) != len(v):
        return False
    return all(u[i] * v[j] == u[j] * v[i] for i in range(len(u)) for j in range(len(v)))


def _stacked_frame_rank(points: list[GrassPoint], p: int) -> int:
    return rank_mod_p(tangent_stack(points, p), p)


def _span_check(points: list[GrassPoint], images: list[Multivector], p: int) -> tuple[int, int]:
    """The dimension the images span mod p, and the rank of the tangent stack at `points` with them.

    The images lie in the span of the tangent spaces exactly when that rank
    equals the stack's rank without them.
    """
    rows = np.array([img.dense(p) for img in images])
    return rank_mod_p(rows, p), rank_mod_p(tangent_stack(points, p, [rows]), p)


def demo_gr37(p: int = DEFAULT_PRIME) -> DemoReport:
    """Three special points of Gr(3,7) whose tangent spans reach only 50 of 51.

    A degree-4 rational normal curve through the three points forces each
    tangent space to share a line with the curve's span.
    """
    k, n = 3, 7
    e = np.eye(8, dtype=np.int64)

    def point(rows) -> GrassPoint:
        return GrassPoint(k, n, np.array(rows, dtype=np.int64))

    p1 = point([e[0], e[1], e[2], e[3]])
    p2 = point([e[4], e[5], e[6], e[7]])
    p3 = point([e[0] + e[4], e[1] + e[5], e[2] + e[6], e[3] + e[7]])
    achieved = _stacked_frame_rank([p1, p2, p3], p)
    expected = 3 * tangent_space_dim(k, n)

    def curve_matrix(s: int, t: int) -> np.ndarray:
        return np.hstack([s * np.eye(4, dtype=np.int64), t * np.eye(4, dtype=np.int64)])

    checks = []
    anchors = [(1, 0, p1), (0, 1, p2), (1, 1, p3)]
    for s, t, pt in anchors:
        img = wedge_vectors(curve_matrix(s, t).tolist(), 8)
        ok = _proportional(img.dense(), pluecker(pt).dense())
        checks.append(f"curve({s},{t}) matches anchor point: {ok}")
    curve = [wedge_vectors(curve_matrix(1, t).tolist(), 8) for t in (2, 3, 5, 7, 11)]
    span, rank = _span_check([p1, p2, p3], curve, p)
    in_span = span == 5 and rank == achieved
    checks.append(f"5 curve points span {span} dimensions, tangent-stack rank with them {rank}: {in_span}")

    passed = achieved == 50 and all(c.endswith("True") for c in checks)
    return DemoReport("gr37", achieved, expected, math.comb(8, 4), checks, passed)


def demo_gr28(p: int = DEFAULT_PRIME) -> DemoReport:
    """Four special points of Gr(2,8) whose tangent spans reach only 74 of 76.

    A Veronese surface through the four points accounts for the gap.
    """
    k, n = 2, 8
    e = np.eye(9, dtype=np.int64)

    def point(rows) -> GrassPoint:
        return GrassPoint(k, n, np.array(rows, dtype=np.int64))

    p1 = point([e[0], e[1], e[2]])
    p2 = point([e[3], e[4], e[5]])
    p3 = point([e[6], e[7], e[8]])
    p4 = point([e[0] + e[3] + e[6], e[1] + e[4] + e[7], e[2] + e[5] + e[8]])
    achieved = _stacked_frame_rank([p1, p2, p3, p4], p)
    expected = 4 * tangent_space_dim(k, n)

    def veronese_matrix(s: int, t: int, u: int) -> np.ndarray:
        eye = np.eye(3, dtype=np.int64)
        return np.hstack([s * eye, t * eye, u * eye])

    checks = []
    anchors = [((1, 0, 0), p1), ((0, 1, 0), p2), ((0, 0, 1), p3), ((1, 1, 1), p4)]
    for (s, t, u), pt in anchors:
        img = wedge_vectors(veronese_matrix(s, t, u).tolist(), 9)
        ok = _proportional(img.dense(), pluecker(pt).dense())
        checks.append(f"veronese({s},{t},{u}) matches anchor point: {ok}")
    rng = np.random.default_rng(7)
    surface = [wedge_vectors(veronese_matrix(*rng.integers(1, 50, size=3)).tolist(), 9) for _ in range(10)]
    span, rank = _span_check([p1, p2, p3, p4], surface, p)
    in_span = span == 10 and rank == achieved
    checks.append(f"10 surface points span {span} dimensions, tangent-stack rank with them {rank}: {in_span}")

    passed = achieved == 74 and all(c.endswith("True") for c in checks)
    return DemoReport("gr28", achieved, expected, math.comb(9, 3), checks, passed)
