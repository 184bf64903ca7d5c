"""Constant-weight binary codes as combinatorial non-defectivity certificates.

A family of (k+1)-subsets of {0..n} pairwise intersecting in at most k-2
elements (equivalently: constant-weight words at Hamming distance >= 6)
proves that the tangent spaces at the corresponding coordinate points are
linearly independent in every characteristic other than 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .extalg import subsets_colex

# Most weight-w supports the greedy lexicode may scan.  The scan is linear in
# the supports: every accepted scan (C(14,7) = 3432, C(30,3) = 4060 supports
# among them, at every even distance) takes at most 0.03 s on a 2-vCPU x86_64
# host (Python 3.11), and C(20,5) = 15504 at distance 2 takes 0.07 s.  The
# bound is kept so that the `codes` command accepts the same inputs.
MAX_LEXICODE_SUPPORTS = 4096


def _overlaps(word: tuple[int, ...], max_overlap: int):
    """The (max_overlap+1)-subsets of a sorted word: two words meet in more
    than max_overlap elements exactly when they share one of these."""
    return combinations(word, max(max_overlap + 1, 0))


@dataclass(frozen=True)
class CodeSet:
    """Words of a constant-weight binary code, given by their supports."""

    length: int
    weight: int
    words: tuple[tuple[int, ...], ...]
    distance: int = 6

    def __post_init__(self):
        if self.distance % 2 != 0:
            raise ValueError("constant-weight distances are even")
        max_overlap = self.weight - self.distance // 2
        for w in self.words:
            if len(w) != self.weight or any(not 0 <= i < self.length for i in w):
                raise ValueError(f"bad word {w}")
            if any(w[t] >= w[t + 1] for t in range(len(w) - 1)):
                raise ValueError(f"word {w} not sorted")
        owner: dict[tuple[int, ...], tuple[int, ...]] = {}
        for w in self.words:
            for sub in _overlaps(w, max_overlap):
                if owner.setdefault(sub, w) is not w:
                    raise ValueError(f"words {owner[sub]} and {w} are too close")

    def __len__(self) -> int:
        return len(self.words)


def tre_construction(k: int, n: int, s: int) -> CodeSet:
    """s pairwise-distant words laid out with stride 3: word i is {3i, ..., 3i+k}.

    Consecutive words overlap in k-2 elements, so the distance condition holds
    whenever the last word fits, i.e. 3(s-1) <= n-k.
    """
    if k < 2:
        raise ValueError("needs k >= 2")
    if 3 * (s - 1) > n - k:
        raise ValueError(f"stride-3 layout needs 3(s-1) <= n-k, got s={s}, k={k}, n={n}")
    words = tuple(tuple(range(3 * i, 3 * i + k + 1)) for i in range(s))
    return CodeSet(n + 1, k + 1, words)


@lru_cache(maxsize=None)
def lexicode_greedy(length: int, weight: int, min_distance: int = 6) -> CodeSet:
    """Greedy code: scan weight-w supports in colex order, keep the compatible ones.

    A support is compatible when none of its (max_overlap+1)-subsets lies in
    a kept word, which one set of those subsets answers, so the scan is
    linear in the supports.  Deterministic by construction; usually below
    the true A(n, d, w) optimum, which is fine because we need certificates,
    not optimal codes.  For k = 2 (weight 3, distance 6) it is exactly the
    coordinate planes W_j = {3j, 3j+1, 3j+2}.  Computed once per argument.
    """
    if weight > length:
        raise ValueError("weight exceeds length")
    max_overlap = weight - min_distance // 2
    kept: list[tuple[int, ...]] = []
    taken: set[tuple[int, ...]] = set()
    for cand in subsets_colex(length, weight):
        subs = list(_overlaps(cand, max_overlap))
        if taken.isdisjoint(subs):
            kept.append(cand)
            taken.update(subs)
    return CodeSet(length, weight, tuple(kept), min_distance)


def lexicode_supports(length: int, weight: int) -> int:
    """C(length, weight), or the first partial binomial above MAX_LEXICODE_SUPPORTS.

    C(length, t) grows with t up to length/2, so once it passes the bound the
    count does too; a huge count costs no huge binomial.
    """
    c = 1
    for t in range(1, min(weight, length - weight) + 1):
        c = c * (length - t + 1) // t
        if c > MAX_LEXICODE_SUPPORTS:
            break
    return c


def _is_prime_power(m: int) -> bool:
    if m < 2:
        return False
    q = m
    f = 2
    while f * f <= q:
        if q % f == 0:
            while q % f == 0:
                q //= f
            return q == 1
        f += 1
    return True  # m itself prime


def _next_prime_power(lo: int) -> int:
    q = max(lo, 2)
    while not _is_prime_power(q):
        q += 1
    return q


class GrahamSloaneBounds(NamedTuple):
    bound_a: int
    q_a: int
    bound_b: int
    q_b: int
    bound_c: int


def graham_sloane_bounds(n: int, w: int) -> GrahamSloaneBounds:
    """Three classical lower bounds on A(n, 6, w).

    (a) C(n,w)/q^2 with q the smallest prime power >= n;
    (b) (q-1)/(q^3-1) * C(n,w) with q the smallest prime power with q+1 >= n;
    (c) C(n,w) / (1 + w(n-w) + C(w,2) C(n-w,2)).
    """
    if not 1 <= w <= n:
        raise ValueError("need n >= w >= 1")
    binom = math.comb(n, w)
    q_a = _next_prime_power(n)
    q_b = _next_prime_power(n - 1)
    bound_a = binom // (q_a * q_a)
    bound_b = (q_b - 1) * binom // (q_b**3 - 1)
    bound_c = binom // (1 + w * (n - w) + math.comb(w, 2) * math.comb(n - w, 2))
    return GrahamSloaneBounds(bound_a, q_a, bound_b, q_b, bound_c)


def monomial_certificate(k: int, n: int, s: int) -> CodeSet | None:
    """A code of size >= s witnessing independence of s coordinate tangent spaces.

    Tries the stride-3 layout first, then the greedy lexicode; returns None if
    neither reaches s words.  A returned certificate proves that the s-secant
    variety of Gr(k,n) has the expected dimension (characteristic != 2).
    """
    if k < 2:
        raise ValueError("monomial certificates need k >= 2")
    if s < 1:
        raise ValueError("need s >= 1")
    if 3 * (s - 1) <= n - k:
        return tre_construction(k, n, s)
    code = lexicode_greedy(n + 1, k + 1)
    if len(code) >= s:
        return code
    return None
