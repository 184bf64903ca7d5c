"""Exterior algebra of K^dim with a sparse term representation.

Basis d-vectors are strictly increasing tuples of indices from
{0, ..., dim-1}.  Dense coordinates order these tuples colexicographically,
so the subalgebra on a coordinate prefix occupies a rank prefix.  All
internal indices are 0-based; the tensor text format may declare
``one_based`` and is shifted on parse (a file's ``1 3 5`` is internal
``{0, 2, 4}``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .fieldcore import det_exact


def subset_rank(indices: Sequence[int]) -> int:
    """Colexicographic rank of a strictly increasing index tuple."""
    r = 0
    prev = -1
    for t, c in enumerate(indices):
        if c <= prev:
            raise ValueError(f"indices not strictly increasing: {tuple(indices)}")
        prev = c
        r += math.comb(c, t + 1)
    return r


def subsets_colex(dim: int, d: int) -> Iterator[tuple[int, ...]]:
    """All d-subsets of {0, ..., dim-1} in colexicographic order."""
    if d == 0:
        yield ()
        return
    for m in range(d - 1, dim):
        for rest in subsets_colex(m, d - 1):
            yield rest + (m,)


def merge_sign(a: Sequence[int], b: Sequence[int]) -> tuple[int, tuple[int, ...]] | None:
    """Sign and result of sorting the concatenation a+b; None if they overlap."""
    merged: list[int] = []
    inversions = 0
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            merged.append(b[j])
            inversions += len(a) - i
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return (-1 if inversions & 1 else 1), tuple(merged)


def _normalize_blade(indices: Sequence[int]) -> tuple[int, tuple[int, ...]] | None:
    """Sort a blade's indices by merging them in one at a time: the permutation sign and the sorted tuple, or None if one repeats."""
    sign, idx = 1, ()
    for i in indices:
        merged = merge_sign(idx, (i,))
        if merged is None:
            return None
        sign, idx = sign * merged[0], merged[1]
    return sign, idx


@dataclass(eq=False)
class Multivector:
    """Sparse element of degree `degree` in the exterior algebra of K^dim.

    Coefficients are exact integers; reduction modulo a prime happens only
    when a dense coordinate vector is requested.
    """

    dim: int
    degree: int
    terms: dict[tuple[int, ...], int] = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.degree <= self.dim:
            raise ValueError(f"degree {self.degree} out of range for dim {self.dim}")
        clean: dict[tuple[int, ...], int] = {}
        for idx, c in self.terms.items():
            idx = tuple(idx)
            if len(idx) != self.degree:
                raise ValueError(f"term {idx} has wrong degree (expected {self.degree})")
            if any(not 0 <= i < self.dim for i in idx):
                raise ValueError(f"term {idx} out of range for dim {self.dim}")
            if any(idx[t] >= idx[t + 1] for t in range(len(idx) - 1)):
                raise ValueError(f"term {idx} not strictly increasing")
            c = int(c)
            if c:
                clean[idx] = c
        self.terms = clean

    @classmethod
    def zero(cls, dim: int, degree: int) -> "Multivector":
        return cls(dim, degree, {})

    @classmethod
    def blade(cls, dim: int, indices: Sequence[int], coeff: int = 1) -> "Multivector":
        """Basis blade e_{i1} ^ ... ^ e_{id}; indices may arrive unsorted."""
        norm = _normalize_blade(indices)
        if norm is None:
            return cls.zero(dim, len(indices))
        sign, idx = norm
        return cls(dim, len(indices), {idx: sign * coeff})

    def coeff(self, indices: Sequence[int]) -> int:
        return self.terms.get(tuple(indices), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check_compatible(other)
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            terms[idx] = terms.get(idx, 0) + c
        return Multivector(self.dim, self.degree, terms)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def __neg__(self) -> "Multivector":
        return Multivector(self.dim, self.degree, {i: -c for i, c in self.terms.items()})

    def scaled(self, factor: int) -> "Multivector":
        return Multivector(self.dim, self.degree, {i: factor * c for i, c in self.terms.items()})

    def __rmul__(self, factor: int) -> "Multivector":
        return self.scaled(factor)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Multivector)
            and self.dim == other.dim
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def dense(self, p: int | None = None) -> np.ndarray:
        """Coefficient vector over the colex-ordered basis, reduced mod p if given."""
        size = math.comb(self.dim, self.degree)
        if p is None:
            out = np.zeros(size, dtype=object)
            for idx, c in self.terms.items():
                out[subset_rank(idx)] = c
        else:
            out = np.zeros(size, dtype=np.int64)
            for idx, c in self.terms.items():
                out[subset_rank(idx)] = c % p
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return f"Multivector(dim={self.dim}, degree={self.degree}, 0)"
        bits = []
        for idx in sorted(self.terms, key=subset_rank):
            c = self.terms[idx]
            bits.append(f"{c}*e{''.join(str(i) for i in idx)}" if c != 1 else f"e{''.join(str(i) for i in idx)}")
        return f"Multivector(dim={self.dim}, {' + '.join(bits)})"

    def _check_compatible(self, other: "Multivector"):
        if self.dim != other.dim or self.degree != other.degree:
            raise ValueError("multivectors of different shape")


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Wedge product; sign of each merged term is the parity of the merge."""
    if a.dim != b.dim:
        raise ValueError("wedge of multivectors over different spaces")
    if a.degree + b.degree > a.dim:
        raise ValueError("degree overflow in wedge product")
    terms: dict[tuple[int, ...], int] = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            sm = merge_sign(ia, ib)
            if sm is None:
                continue
            sign, merged = sm
            terms[merged] = terms.get(merged, 0) + sign * ca * cb
    return Multivector(a.dim, a.degree + b.degree, terms)


def wedge_vectors(vectors: Sequence[Sequence[int]], dim: int | None = None) -> Multivector:
    """Wedge of plain vectors: coefficient at I is the maximal minor on columns I."""
    vecs = [list(map(int, v)) for v in vectors]
    if not vecs:
        raise ValueError("need at least one vector")
    if dim is None:
        dim = len(vecs[0])
    if any(len(v) != dim for v in vecs):
        raise ValueError("vectors of mixed length")
    d = len(vecs)
    if d > dim:
        raise ValueError("more vectors than dimensions")
    terms: dict[tuple[int, ...], int] = {}
    for idx in combinations(range(dim), d):
        minor = det_exact([[v[c] for c in idx] for v in vecs])
        if minor:
            terms[idx] = minor
    return Multivector(dim, d, terms)


# ---------------------------------------------------------------------------
# The 21x21 contraction pairing on 2-vectors in dimension 7.

PAIRING_DIM = 7
PAIRING_SIZE = math.comb(PAIRING_DIM, 2)  # 21


def pairing_matrix(omega: Multivector) -> list[list[int]]:
    """Symmetric contraction pairing of a degree-3 multivector in dimension 7.

    Entry [row eta', column eta] is the top-form coefficient of
    eta ^ eta' ^ omega, rows and columns running over colex-ranked 2-subsets.
    Entries are exact integers.
    """
    if omega.dim != PAIRING_DIM or omega.degree != 3:
        raise ValueError("pairing matrix requires dim 7, degree 3")
    rank2 = {s: subset_rank(s) for s in combinations(range(PAIRING_DIM), 2)}
    M = [[0] * PAIRING_SIZE for _ in range(PAIRING_SIZE)]
    for term, c in omega.terms.items():
        rest = tuple(i for i in range(PAIRING_DIM) if i not in term)
        for a in combinations(rest, 2):
            b = tuple(i for i in rest if i not in a)
            s1, ab = merge_sign(a, b)
            s2, _ = merge_sign(ab, term)
            M[rank2[b]][rank2[a]] += s1 * s2 * c
    return M


# ---------------------------------------------------------------------------
# Tensor text format, shared with the CLI:
#   # comment
#   dim 7 degree 3 [one_based]
#   1 3 5 : 1
#   ...


def parse_tensor(text: str) -> Multivector:
    dim = degree = None
    one_based = False
    terms: dict[tuple[int, ...], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if dim is None:
            tokens = line.split()
            if len(tokens) < 4 or tokens[0] != "dim" or tokens[2] != "degree":
                raise ValueError(f"line {lineno}: expected 'dim <n> degree <d> [one_based]'")
            dim = int(tokens[1])
            degree = int(tokens[3])
            extra = tokens[4:]
            if extra == ["one_based"]:
                one_based = True
            elif extra:
                raise ValueError(f"line {lineno}: unexpected header tokens {extra}")
            continue
        if ":" not in line:
            raise ValueError(f"line {lineno}: expected '<indices> : <coefficient>'")
        left, right = line.split(":", 1)
        indices = [int(t) for t in left.split()]
        if one_based:
            indices = [i - 1 for i in indices]
        coeff = int(right.strip())
        norm = _normalize_blade(indices)
        if norm is None:
            raise ValueError(f"line {lineno}: repeated index in term")
        sign, idx = norm
        terms[idx] = terms.get(idx, 0) + sign * coeff
    if dim is None or degree is None:
        raise ValueError("missing 'dim ... degree ...' header")
    return Multivector(dim, degree, terms)
