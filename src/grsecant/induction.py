"""Counting formulas and the 6-step induction certificate for Gr(2,n) secants.

Formula evaluation is exact and floating point never touches a threshold.
The formulas the certificate uses are integer closed forms, one numerator
over a common denominator, floored by integer division (a ceiling is
-(-a // b)); the paper's rational forms are kept where they are reported.
Every base case, the direct probes at s1/s2 included, takes one route:
`_plan` gives its target rank and point counts, `_configuration` its
coordinate-subspace spans and each point's constraint, and `_check` probes
that layout for an exact GF(p) rank.  Everything in a certificate's record
but those ranks follows from the formulas (`_plan`), which is how `replays`
checks a cached record without building a layout or computing a rank.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .fieldcore import DEFAULT_PRIME
from .fieldcore import rank_mod_p  # noqa: F401  the benchmark's traced run patches induction.rank_mod_p
from .grassmann import CoordinateSubspace, counted_columns
from .terracini import (
    DEFAULT_TRIALS,
    SecantProblem,
    Verdict,
    expected_affine_dim,
    probe,
)

MIN_FORMULA_N = 9
# Largest n the CLI evaluates the formulas at: the integer closed forms are
# tested against the rational ones up to here, and `induction --n-max` or
# `formulas --n-to` at this bound takes about 1 s and 50 MB on a 2-vCPU
# x86_64 host (Python 3.11).
MAX_FORMULA_N = 10_000


def _require(n: int, lo: int = MIN_FORMULA_N):
    if n < lo:
        raise ValueError(f"formulas are defined for n >= {lo}, got {n}")


def ambient(n: int) -> int:
    """dim of the degree-3 exterior power: C(n+1, 3)."""
    return math.comb(n + 1, 3)


def f1(n: int) -> int:
    """floor(n^2/18 - 31n/54 + 125/81 - n/6 + 2)."""
    _require(n)
    return (9 * n * n - 120 * n + 574) // 162


def f2(n: int) -> int:
    """ceil(n^2/18 - 31n/54 + 125/81 + n/6 - 1)."""
    _require(n)
    return -(-(9 * n * n - 66 * n + 88) // 162)


def points_kept_floor(n: int) -> int:
    """floor((6n-13)/9)."""
    return (6 * n - 13) // 9


def points_kept_ceil(n: int) -> int:
    """ceil((6n-13)/9)."""
    return -(-(6 * n - 13) // 9)


def s1(n: int) -> int:
    """Largest s certified non-defective by the induction: f1(n) + floor((6n-13)/9).

    This floor-sum form is what the 6-step induction actually establishes; it
    keeps s1(n) * (3n-5) <= C(n+1,3), i.e. sigma_{s1} never fills.
    """
    _require(n)
    return f1(n) + points_kept_floor(n)


def s2(n: int) -> int:
    """Smallest s certified to fill: ceil(n^2/18 + 7n/27 - 73/81)."""
    _require(n)
    return -(-(9 * n * n + 42 * n - 146) // 162)


def s2_intro(n: int) -> int:
    """Two-ceiling closed form f2(n) + ceil((6n-13)/9); can exceed s2 by one."""
    _require(n)
    return math.ceil(Fraction(n * n, 18) - Fraction(11 * n, 27) + Fraction(44, 81)) + points_kept_ceil(n)


def closed_form_mismatches(lo: int = MIN_FORMULA_N, hi: int = MAX_FORMULA_N) -> list[dict]:
    """All n where the one-floor/one-ceiling closed forms disagree with s1/s2.

    The disagreements are real (the floor of a sum is not the sum of floors);
    they are reported rather than silently absorbed.
    """
    out = []
    for n in range(lo, hi + 1):
        a = math.floor(Fraction(n * n, 18) - Fraction(2 * n, 27) + Fraction(170, 81))
        if a != s1(n):
            out.append({"n": n, "function": "s1", "value": s1(n), "one_floor_form": a})
        b = s2_intro(n)
        if b != s2(n):
            out.append({"n": n, "function": "s2", "value": s2(n), "two_ceiling_form": b})
    return out


def generic_lower_bound(n: int, k: int) -> int:
    """ceil(C(n+1,k+1) / ((k+1)(n-k)+1)): no smaller s can fill."""
    if k < 2 or n <= k:
        raise ValueError("needs n > k >= 2")
    den = (k + 1) * (n - k) + 1
    return -(-math.comb(n + 1, k + 1) // den)


def ehrenborg_upper_bound(n: int) -> Fraction:
    """(n^2+3)/12 + 1, an upper bound for the typical rank when k = 2."""
    return Fraction(n * n + 3, 12) + 1


def bounds(n: int, k: int) -> tuple[int, Fraction | None]:
    """Generic lower bound for any k >= 2, plus the k=2 upper bound."""
    lower = generic_lower_bound(n, k)
    upper = ehrenborg_upper_bound(n) if k == 2 else None
    return lower, upper


def chain_inequalities(n: int) -> dict[str, bool]:
    """The four arithmetic inequalities driving the step from n-6 to n."""
    if n < 15:
        raise ValueError("chain inequalities start at n = 15")
    kf, kc = points_kept_floor(n - 6), points_kept_ceil(n - 6)  # (6n-49)/9
    return {
        "f1_step": f1(n) - kf <= f1(n - 6),
        "f2_step": f2(n - 6) <= f2(n) - kc,
        "s1_step": s1(n) - s1(n - 6) <= points_kept_floor(n),
        "s2_step": points_kept_ceil(n) <= s2(n) - s2(n - 6),
    }


# ---------------------------------------------------------------------------
# Base-case rank checks.


@dataclass
class PropCheck:
    prop: str
    n: int
    variant: str | None
    target_rank: int
    achieved_rank: int
    ambient: int
    expected_residual: int
    residual: int
    passed: bool
    span_rank: int | None = None
    details: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        rec = {
            "prop": self.prop,
            "n": self.n,
            "variant": self.variant,
            "target": self.target_rank,
            "achieved": self.achieved_rank,
            "ambient": self.ambient,
            "expected_residual": self.expected_residual,
            "residual": self.residual,
            "passed": self.passed,
        }
        if self.span_rank is not None:
            rec["span_rank"] = self.span_rank
        rec.update(self.details)
        return rec


def _plan(prop: str, n: int, variant: str | None) -> tuple[int, dict]:
    """A base case's target rank and the point counts its record carries."""
    if prop == "a":
        return ambient(n), {}
    if prop == "b":
        s = points_kept_floor(n - 6) if variant == "floor" else points_kept_ceil(n - 6)  # (6n-49)/9
        missing = 36 * (n - 6) - 36 * s - 4 * (3 * n - 5) if variant == "floor" else 0
        return ambient(n) - missing, {"points_per_span": s}
    if prop == "c":
        f, s = (f1(n), points_kept_floor(n)) if variant == "floor" else (f2(n), points_kept_ceil(n))
        missing = 3 * n * n - 18 * n + 35 - 18 * f - (3 * n - 5) * s if variant == "floor" else 0
        return ambient(n) - missing, {"points_on_span": f, "free_points": s}
    s = s1(n) if variant == "s1" else s2(n)
    return expected_affine_dim(2, n, s), {"s": s}


def _configuration(prop: str, n: int, counts: dict) -> tuple[tuple[CoordinateSubspace, ...], tuple]:
    """A base case's spans and each point's constraint (None if free), from `_plan`'s counts."""
    if prop == "a":
        spans = prop_a_supports(n)
        return spans, tuple(span for span in spans for _ in range(4))
    L = CoordinateSubspace(n, tuple(range(6, n + 1)))
    if prop == "b":
        M = CoordinateSubspace(n, tuple(range(0, n - 5)))
        s = counts["points_per_span"]
        return (L, M), (L,) * s + (M,) * s + (None,) * 4
    if prop == "c":
        return (L,), (L,) * counts["points_on_span"] + (None,) * counts["free_points"]
    return (), (None,) * counts["s"]


def _base_case(prop: str, n: int, variant: str | None, achieved: int, span_rank: int | None = None) -> PropCheck:
    """A base case from its achieved rank (and Prop. A's span rank); the rest follows from `_plan`.

    Raises ValueError unless 0 <= achieved <= target <= ambient and, for
    Prop. A, 0 <= span_rank <= ambient.
    """
    target, details = _plan(prop, n, variant)
    amb = ambient(n)
    verdict = Verdict.of(achieved, target, amb)
    passed = verdict.is_certified()
    if prop == "a":
        if not 0 <= span_rank <= amb:
            raise ValueError(f"span rank {span_rank} out of range [0, {amb}]")
        details["span_residual"] = amb - span_rank
        passed = passed and details["span_residual"] == 6**3
    elif prop == "probe":
        details["verdict"] = verdict.value
        passed = verdict is (Verdict.CERTIFIED_EXPECTED if variant == "s1" else Verdict.CERTIFIED_FILLS)
    return PropCheck(prop, n, variant, target, achieved, amb, amb - target, amb - achieved, passed, span_rank, details)


def _check(prop: str, n: int, variant: str | None, prime: int, seed: int, trials: int) -> PropCheck:
    """Probe a base case's configuration against its target rank."""
    target, counts = _plan(prop, n, variant)
    spans, constraints = _configuration(prop, n, counts)
    problem = SecantProblem(2, n, len(constraints), prime, seed, trials, point_constraints=constraints, extra_spans=spans)
    achieved = probe(problem, target_rank=target).achieved_rank
    span_rank = int(counted_columns(n + 1, 3, [span.support for span in spans]).sum()) if prop == "a" else None
    return _base_case(prop, n, variant, achieved, span_rank)


def prop_a_supports(n: int) -> tuple[CoordinateSubspace, CoordinateSubspace, CoordinateSubspace]:
    """Three codimension-6 coordinate subspaces in mutually general position."""
    if n < 17:
        raise ValueError("the three-span configuration needs n >= 17")
    all_idx = range(n + 1)
    L = CoordinateSubspace(n, tuple(i for i in all_idx if i >= 6))
    M = CoordinateSubspace(n, tuple(i for i in all_idx if i < 6 or i >= 12))
    N = CoordinateSubspace(n, tuple(i for i in all_idx if i < 12 or i >= 18))
    return L, M, N


def check_prop_a(
    n: int = 17,
    prime: int = DEFAULT_PRIME,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
) -> PropCheck:
    """Three spans plus four constrained points each must fill C(n+1,3).

    The three spans alone miss exactly 6^3 = 216 hyperplane directions (their
    rank counts the Plücker coordinates inside some span); the twelve
    tangent frames contribute 18 fresh conditions apiece.
    """
    return _check("a", n, None, prime, seed, trials)


def check_prop_b(
    n: int,
    variant: str,
    prime: int = DEFAULT_PRIME,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
) -> PropCheck:
    """Two spans, s constrained points on each, four free points.

    The floor variant must leave exactly 36(n-6) - 36s - 4(3n-5) hyperplanes
    (20, 8 or 32 according to n mod 3); the ceiling variant must leave none.
    The probe places up to two points of M on {0,1,2} and {3,4,5} and up
    to two of L on {n-5,n-4,n-3} and {n-2,n-1,n}, the coordinates only
    that span holds (terracini._coordinate_planes), and samples the rest.
    """
    if n < 11:
        raise ValueError("needs n >= 11")
    if variant not in ("floor", "ceil"):
        raise ValueError("variant must be floor or ceil")
    return _check("b", n, variant, prime, seed, trials)


def check_prop_c(
    n: int,
    variant: str,
    prime: int = DEFAULT_PRIME,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
) -> PropCheck:
    """One span, f1/f2 points on it, floor/ceil((6n-13)/9) free points.

    The probe places up to ⌊(n-5)/3⌋ points of L on {6,7,8}, {9,10,11}, ...
    and two free points on {0,1,2} and {3,4,5}, the coordinates outside L
    (terracini._coordinate_planes), and samples the rest.
    """
    if n < 9:
        raise ValueError("needs n >= 9")
    if variant not in ("floor", "ceil"):
        raise ValueError("variant must be floor or ceil")
    return _check("c", n, variant, prime, seed, trials)


def _probe_base(n: int, which: str, prime: int, seed: int, trials: int) -> PropCheck:
    return _check("probe", n, which, prime, seed, trials)


# certify_theorem's base cases as (prop, n, variant), in the order it checks them.
_BASE_CASES = (
    (("a", 17, None),)
    + tuple(("b", n, variant) for n in range(11, 17) for variant in ("floor", "ceil"))
    + tuple(("c", n, variant) for n in range(9, 15) for variant in ("floor", "ceil"))
    + tuple(("probe", n, which) for n in range(9, 15) for which in ("s1", "s2"))
)


@dataclass
class InductionCertificate:
    n_max: int
    prime: int
    seed: int
    base_cases: list[PropCheck]
    chain_checks: dict[int, dict[str, bool]] = field(init=False)

    def __post_init__(self):
        self.chain_checks = {n: chain_inequalities(n) for n in range(15, self.n_max + 1)}

    @property
    def conclusion(self) -> tuple[int, int] | None:
        """[9, n_max] exactly when every base case passes and every chain inequality holds."""
        ok = all(c.passed for c in self.base_cases) and all(all(v.values()) for v in self.chain_checks.values())
        return (MIN_FORMULA_N, self.n_max) if ok else None

    @property
    def passed(self) -> bool:
        return self.conclusion is not None

    def to_record(self) -> dict:
        return {
            "n_max": self.n_max,
            "prime": self.prime,
            "seed": self.seed,
            "base_cases": [c.to_record() for c in self.base_cases],
            "chain": [
                {"n": n, "ok": all(v.values()), **v} for n, v in sorted(self.chain_checks.items())
            ],
            "conclusion": list(self.conclusion) if self.conclusion else None,
        }


def certify_theorem(
    n_max: int,
    prime: int = DEFAULT_PRIME,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
) -> InductionCertificate:
    """Assemble the certificate: base cases, direct probes, chain inequalities.

    The conclusion covers [9, n_max] exactly when every constituent passes:
    the three-span check at n=17, the two-span checks for n=11..16, the
    one-span checks for n=9..14 (both variants each), direct probes at
    s1(n)/s2(n) for n=9..14, and the four inequalities for 15 <= n <= n_max.
    """
    if n_max < 14:
        raise ValueError("needs n_max >= 14")
    base = [
        check_prop_a(n, prime, seed, trials) if prop == "a"
        else check_prop_b(n, variant, prime, seed, trials) if prop == "b"
        else check_prop_c(n, variant, prime, seed, trials) if prop == "c"
        else _probe_base(n, variant, prime, seed, trials)
        for prop, n, variant in _BASE_CASES
    ]
    return InductionCertificate(n_max=n_max, prime=prime, seed=seed, base_cases=base)


def replays(n_max: int, prime: int, seed: int, result) -> bool:
    """Whether a cached induction result is the record `certify_theorem` writes.

    Only each base case's achieved rank, and Prop. A's span rank, are read
    from the result, and must be exact ints.  The base cases are rebuilt
    from them in certify_theorem's order, the chain and the conclusion from
    the formulas, and the rebuilt record must dump to the same JSON as the
    result.  No rank is computed, so an edit is caught only where it
    disagrees with the record's own ranks.
    """
    if not isinstance(result, dict) or not isinstance(result.get("base_cases"), list):
        return False
    if len(result["base_cases"]) != len(_BASE_CASES):
        return False
    cases = []
    for (prop, n, variant), case in zip(_BASE_CASES, result["base_cases"]):
        if not isinstance(case, dict):
            return False
        ranks = [case.get("achieved")] + ([case.get("span_rank")] if prop == "a" else [])
        if any(type(rank) is not int for rank in ranks):
            return False
        try:
            cases.append(_base_case(prop, n, variant, *ranks))
        except ValueError:
            return False
    rebuilt = InductionCertificate(n_max=n_max, prime=prime, seed=seed, base_cases=cases).to_record()
    return json.dumps(rebuilt, sort_keys=True) == json.dumps(result, sort_keys=True)
