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
from dataclasses import asdict, dataclass

import numpy as np

from .extalg import Multivector, pairing_matrix, wedge_vectors
from .fieldcore import DEFAULT_PRIME, Echelon, det_exact, integer_cube_root_signed, rank_det_exact, rank_exact, rank_mod_p
from .grassmann import GrassPoint, pluecker, tangent_space_dim
from .terracini import rank_points

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
    det = det_exact(pairing_matrix(omega))
    predicted = -2 * (a234**2 * a567**2 * a135 * a147 * a126) ** 3
    return det, predicted


def _half_cube_root(det: int) -> int:
    if det % 2 != 0:
        raise ValueError(f"pairing determinant {det} is odd; this cannot happen")
    return integer_cube_root_signed(det // 2)


def degree7_invariant(omega: Multivector) -> int:
    """Exact value of the degree-7 invariant: the signed cube root of det/2.

    The pairing determinant of an integral tensor is always twice a perfect
    cube; an odd determinant or a failed root extraction indicates a bug.
    """
    return _half_cube_root(det_exact(pairing_matrix(omega)))


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
        return asdict(self)


def classify(omega: Multivector, p: int = DEFAULT_PRIME) -> MembershipReport:
    """Exact pairing rank, the three membership flags, and the invariant.

    The rank and the determinant come from one exact elimination of the
    pairing, and the invariant is the cube root of half the determinant;
    `invariant_mod_p` is its residue mod p, so any prime is accepted.
    """
    rank, det = rank_det_exact(pairing_matrix(omega))
    inv = _half_cube_root(det)
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
    return [Figure1Row(label, w, want, rank_exact(pairing_matrix(w))) for label, w, want in rows]


def _generic_sigma3(rng: np.random.Generator) -> Multivector:
    for _ in range(16):
        w = random_secant_point(rng, 3)
        if rank_exact(pairing_matrix(w)) == RANK_SIGMA3:
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


def _span_check(points: list[GrassPoint], images: list[Multivector], p: int) -> tuple[int, int, int]:
    """The rank mod p of the tangent spaces at `points`, the dimension the images span, and the rank of both.

    The tangent spaces and then the images join one basis.  The images lie
    in the span of the tangent spaces exactly when the last rank is the first.
    """
    rows = np.array([img.dense(p) for img in images])
    basis = Echelon(rows.shape[1], len(points) * tangent_space_dim(points[0].k, points[0].n) + len(rows), p)
    tangent = rank_points(points, p, basis, np.ones(rows.shape[1], dtype=bool))
    return tangent, rank_mod_p(rows, p), rank_mod_p(rows, p, basis)


def _tangent_span_demo(name: str, want: int, variety: str, anchors, samples, sample_noun: str, p: int) -> DemoReport:
    """Tangent-span rank at the anchors' special points, and the variety through them.

    Parameters (c_0, ..., c_m) map to the row space of [c_0 I | ... | c_m I]
    with I of size k+1: a rational normal curve for m = 1, a Veronese
    surface for m = 2.  It must pass through each anchor's point, and the
    images of the samples must lie inside the tangent spans.  The demo
    passes when that holds and the rank is `want`.

    Raises ValueError when the images span fewer than len(samples)
    dimensions mod p: the fixed sample parameters collide mod p, so the
    check would fail whatever the tangent rank.
    """
    points = [pt for _, pt in anchors]
    k, n = points[0].k, points[0].n

    def image(params) -> Multivector:
        return wedge_vectors(np.hstack([c * np.eye(k + 1, dtype=np.int64) for c in params]).tolist(), n + 1)

    checks, oks = [], []
    for params, pt in anchors:
        oks.append(rank_exact([image(params).dense(), pluecker(pt).dense()]) <= 1)  # proportional
        checks.append(f"{variety}({','.join(map(str, params))}) matches anchor point: {oks[-1]}")
    achieved, span, rank = _span_check(points, [image(params) for params in samples], p)
    if span < len(samples):
        raise ValueError(
            f"demo {name} needs another prime: its {len(samples)} fixed {sample_noun} collide mod {p} "
            f"and span only {span} dimensions"
        )
    oks.append(rank == achieved)
    checks.append(f"{len(samples)} {sample_noun} span {span} dimensions, tangent-stack rank with them {rank}: {oks[-1]}")
    passed = achieved == want and all(oks)
    expected = len(points) * tangent_space_dim(k, n)
    return DemoReport(name, achieved, expected, math.comb(n + 1, k + 1), checks, passed)


def demo_gr37(p: int = DEFAULT_PRIME) -> DemoReport:
    """Three special points of Gr(3,7) whose tangent spans reach only 50 of 51.

    A degree-4 rational normal curve through the three points forces each
    tangent space to share a line with the curve's span.
    """
    e = np.eye(8, dtype=np.int64)
    anchors = [
        ((1, 0), GrassPoint(3, 7, e[0:4])),
        ((0, 1), GrassPoint(3, 7, e[4:8])),
        ((1, 1), GrassPoint(3, 7, e[0:4] + e[4:8])),
    ]
    samples = [(1, t) for t in (2, 3, 5, 7, 11)]
    return _tangent_span_demo("gr37", 50, "curve", anchors, samples, "curve points", p)


def demo_gr28(p: int = DEFAULT_PRIME) -> DemoReport:
    """Four special points of Gr(2,8) whose tangent spans reach only 74 of 76.

    A Veronese surface through the four points accounts for the gap.
    """
    e = np.eye(9, dtype=np.int64)
    anchors = [
        ((1, 0, 0), GrassPoint(2, 8, e[0:3])),
        ((0, 1, 0), GrassPoint(2, 8, e[3:6])),
        ((0, 0, 1), GrassPoint(2, 8, e[6:9])),
        ((1, 1, 1), GrassPoint(2, 8, e[0:3] + e[3:6] + e[6:9])),
    ]
    rng = np.random.default_rng(7)
    samples = [rng.integers(1, 50, size=3) for _ in range(10)]
    return _tangent_span_demo("gr28", 74, "veronese", anchors, samples, "surface points", p)
