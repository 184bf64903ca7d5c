import copy
import hashlib
import json
import math
from fractions import Fraction

import pytest
from oracle import induction_formulas_reference, s1_intro

from grsecant import induction
from grsecant.fieldcore import DEFAULT_PRIME, SECOND_PRIME
from grsecant.induction import (
    ambient,
    bounds,
    certify_theorem,
    chain_inequalities,
    check_prop_a,
    check_prop_b,
    check_prop_c,
    closed_form_mismatches,
    ehrenborg_upper_bound,
    f1,
    f2,
    generic_lower_bound,
    replays,
    s1,
    s2,
    s2_intro,
)
from grsecant.terracini import SecantProblem, Verdict, probe


class TestFormulas:
    def test_frozen_values(self):
        # Re-derived with exact rationals, independent of the implementation.
        assert f1(9) == math.floor(Fraction(81, 18) - Fraction(279, 54) + Fraction(125, 81) - Fraction(9, 6) + 2) == 1
        assert s1(9) == 5
        assert s2(9) == 6
        assert s1_intro(9) == math.floor(Fraction(81, 18) - Fraction(180, 27) + Fraction(287, 81)) + 4 == 5

    def test_integer_forms_match_rationals(self):
        names = ("f1", "f2", "points_kept_floor", "points_kept_ceil", "s1", "s2")
        for n in range(9, 10_001):
            assert {name: getattr(induction, name)(n) for name in names} == induction_formulas_reference(n), n

    def test_split_and_intro_forms_identical(self):
        for n in range(9, 2000):
            assert s1(n) == s1_intro(n)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            s1(8)
        with pytest.raises(ValueError):
            f2(5)

    def test_one_floor_mismatches_are_reported_and_genuine(self):
        mismatches = closed_form_mismatches(9, 400)
        assert mismatches  # the one-floor closed forms do deviate
        seen = {(m["n"], m["function"]) for m in mismatches}
        assert (11, "s1") in seen
        assert (9, "s2") in seen
        for m in mismatches:
            n = m["n"]
            if m["function"] == "s1":
                one_floor = math.floor(Fraction(n * n, 18) - Fraction(2 * n, 27) + Fraction(170, 81))
                assert one_floor == m["one_floor_form"] != s1(n)
            else:
                two_ceil = s2_intro(n)
                assert two_ceil == m["two_ceiling_form"] != s2(n)

    def test_no_unreported_mismatch(self):
        reported = {(m["n"], m["function"]) for m in closed_form_mismatches(9, 300)}
        for n in range(9, 301):
            one_floor = math.floor(Fraction(n * n, 18) - Fraction(2 * n, 27) + Fraction(170, 81))
            assert (one_floor != s1(n)) == ((n, "s1") in reported)
            assert (s2_intro(n) != s2(n)) == ((n, "s2") in reported)

    def test_sandwich(self):
        for n in range(9, 2000):
            assert s1(n) * (3 * n - 5) <= ambient(n) <= s2(n) * (3 * n - 5)

    def test_asymptotics(self):
        for n in range(200, 1500, 7):
            assert abs(18 * s1(n) / n**2 - 1) < 0.05
            assert abs(18 * s2(n) / n**2 - 1) < 0.05


class TestBounds:
    def test_gr26(self):
        lower, upper = bounds(6, 2)
        assert lower == math.ceil(Fraction(35, 13)) == 3
        assert upper == Fraction(39, 12) + 1

    def test_gr25_typical_rank_two(self):
        # sigma_2(Gr(2,5)) fills, so the generic bound must allow 2.
        assert generic_lower_bound(5, 2) == 2
        v = probe(SecantProblem(2, 5, 2, seed=0))
        assert v.verdict is Verdict.CERTIFIED_FILLS

    def test_consistency_with_fill_threshold(self):
        assert generic_lower_bound(9, 2) == 6 == s2(9)

    def test_upper_only_for_k2(self):
        lower, upper = bounds(9, 3)
        assert upper is None and lower == math.ceil(Fraction(210, 25))

    def test_ehrenborg_value(self):
        assert ehrenborg_upper_bound(6) == Fraction(39, 12) + 1


class TestChainInequalities:
    def test_hold_at_15(self):
        assert all(chain_inequalities(15).values())

    def test_hold_at_100(self):
        assert all(chain_inequalities(100).values())

    def test_hold_on_range(self):
        for n in range(15, 400):
            checks = chain_inequalities(n)
            assert all(checks.values()), (n, checks)

    def test_domain(self):
        with pytest.raises(ValueError):
            chain_inequalities(14)


class TestPropChecks:
    def test_prop_a(self):
        check = check_prop_a(17, seed=0)
        assert check.passed
        assert check.span_rank == 600
        assert check.achieved_rank == 816
        assert check.details["span_residual"] == 216

    def test_prop_a_marginal_contributions(self):
        # Each constrained point adds exactly 18 fresh conditions on top of
        # the three spans.
        import numpy as np
        from oracle import full_frame, span_unit_rows, subgrassmannian_span

        from grsecant.fieldcore import rank_mod_p
        from grsecant.grassmann import random_point
        from grsecant.induction import prop_a_supports

        n, p = 17, 32003
        L, M, N = prop_a_supports(n)
        stack = np.vstack([span_unit_rows(subgrassmannian_span(S, 3), n + 1, 3) for S in (L, M, N)])
        rank = rank_mod_p(stack, p)
        assert rank == 600
        rng = np.random.default_rng(0)
        for i, constraint in enumerate([L] * 4 + [M] * 4 + [N] * 4):
            pt = random_point(2, n, rng, constraint, p)
            stack = np.vstack([stack, full_frame(pt.rows, p)])
            new_rank = rank_mod_p(stack, p)
            assert new_rank == rank + 18, f"point {i} added {new_rank - rank}"
            rank = new_rank

    def test_prop_a_needs_17(self):
        with pytest.raises(ValueError):
            check_prop_a(16)

    @pytest.mark.parametrize("n,residual", [(11, 32), (12, 20), (13, 8)])
    def test_prop_b_floor_residuals(self, n, residual):
        check = check_prop_b(n, "floor", seed=0)
        assert check.passed
        assert check.residual == check.expected_residual == residual

    def test_prop_b_residual_pattern_mod3(self):
        pattern = {0: 20, 1: 8, 2: 32}
        for n in range(11, 17):
            check = check_prop_b(n, "floor", seed=0)
            assert check.expected_residual == pattern[n % 3]
            assert check.passed

    def test_prop_b_ceil(self):
        for n in (11, 14, 16):
            check = check_prop_b(n, "ceil", seed=0)
            assert check.passed
            assert check.residual == 0

    def test_prop_c_floor_n9(self):
        check = check_prop_c(9, "floor", seed=0)
        assert check.passed
        assert check.target_rank == 110
        assert check.residual == 10
        assert check.details["points_on_span"] == 1
        assert check.details["free_points"] == 4

    def test_prop_c_full_base_range(self):
        for n in range(9, 15):
            for variant in ("floor", "ceil"):
                assert check_prop_c(n, variant, seed=0).passed, (n, variant)

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            check_prop_b(11, "round")
        with pytest.raises(ValueError):
            check_prop_c(8, "floor")


class TestCertificate:
    def test_small_certificate(self):
        cert = certify_theorem(16, seed=0)
        assert cert.passed
        assert cert.conclusion == (9, 16)
        kinds = {(c.prop, c.variant) for c in cert.base_cases}
        assert ("a", None) in kinds
        assert ("b", "floor") in kinds and ("c", "ceil") in kinds
        assert ("probe", "s1") in kinds and ("probe", "s2") in kinds

    def test_record_shape(self):
        cert = certify_theorem(15, seed=0)
        rec = cert.to_record()
        assert rec["conclusion"] == [9, 15]
        assert {c["n"] for c in rec["chain"]} == {15}
        assert all("passed" in c for c in rec["base_cases"])

    def test_second_prime_full_size(self):
        cert = certify_theorem(50, prime=SECOND_PRIME, seed=0)
        assert cert.passed and cert.conclusion == (9, 50)

    def test_needs_14(self):
        with pytest.raises(ValueError):
            certify_theorem(13)

    @pytest.mark.parametrize(
        "prime, digest",
        [
            (DEFAULT_PRIME, "3ed982b45af773bbaba12a37c891bdb5bc4324dc90b02843b24a1e2477e20d8f"),
            (SECOND_PRIME, "4d2398f09234e2cef7f78d2fb4c3478d1e8b51c29d5fd3e5cfb818ade61ad4c3"),
        ],
    )
    def test_record_bytes_pinned(self, prime, digest):
        # Cached induction records replay only while these bytes stay put.
        record = certify_theorem(50, prime, 0).to_record()
        assert hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest() == digest

    def test_base_cases_called_through_module_attributes(self, monkeypatch):
        # The induction-cert benchmark rebinds these names on the module and
        # times each call as one operation.
        calls = dict.fromkeys(("check_prop_a", "check_prop_b", "check_prop_c", "_probe_base"), 0)
        for name in calls:

            def counted(*args, name=name, original=getattr(induction, name), **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(induction, name, counted)
        assert certify_theorem(50).passed
        assert calls == {"check_prop_a": 1, "check_prop_b": 12, "check_prop_c": 12, "_probe_base": 12}

    def test_spot_probe_beyond_base_range(self):
        v1 = probe(SecantProblem(2, 15, s1(15), seed=0))
        assert v1.verdict is Verdict.CERTIFIED_EXPECTED
        v2 = probe(SecantProblem(2, 15, s2(15), seed=0))
        assert v2.verdict is Verdict.CERTIFIED_FILLS


@pytest.fixture(scope="module")
def record14():
    return certify_theorem(14, seed=0).to_record()


def _set(path, value):
    """An edit that sets record[path[0]][path[1]]... to value."""

    def edit(record):
        target = record
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value

    return edit


class TestReplays:
    def test_written_record_replays_without_computing_a_rank(self, record14, monkeypatch):
        def no_rank(*args, **kwargs):
            raise AssertionError("replays built a layout or computed a rank")

        monkeypatch.setattr(induction, "_configuration", no_rank)
        monkeypatch.setattr(induction, "probe", no_rank)
        monkeypatch.setattr(induction, "rank_mod_p", no_rank)
        assert replays(14, DEFAULT_PRIME, 0, record14)
        # A rank cannot be checked without computing it: an edit that keeps
        # the record consistent with its own ranks still replays.
        failing = copy.deepcopy(record14)
        case = failing["base_cases"][1]
        case.update(achieved=case["achieved"] - 1, residual=case["residual"] + 1, passed=False)
        failing["conclusion"] = None
        assert replays(14, DEFAULT_PRIME, 0, failing)

    @pytest.mark.parametrize(
        "edit",
        [
            _set(["conclusion"], [9, 1000]),
            _set(["conclusion"], None),
            _set(["n_max"], 15),
            _set(["prime"], SECOND_PRIME),
            _set(["seed"], 1),
            _set(["chain"], [{"n": 15, "ok": True}]),
            _set(["base_cases", 3, "passed"], False),
            _set(["base_cases", 3, "target"], 1),
            _set(["base_cases", 3, "achieved"], 1),
            _set(["base_cases", 3, "achieved"], 188.0),
            _set(["base_cases", 3, "achieved"], True),
            _set(["base_cases", 3, "achieved"], 10**6),
            _set(["base_cases", 3, "span_rank"], 600),
            _set(["base_cases", 3, "variant"], "ceil"),
            _set(["base_cases", 0, "span_rank"], None),
            _set(["base_cases", 0, "span_rank"], 601),
            _set(["base_cases", 0, "span_rank"], -1),
            _set(["base_cases", 0, "span_residual"], 215),
            _set(["base_cases", 29, "verdict"], "CertifiedFills"),
            _set(["base_cases", 30, "prop"], "c"),
            lambda record: record["base_cases"].pop(),
            lambda record: record["base_cases"].reverse(),
            lambda record: record["base_cases"].__setitem__(5, [1]),
            lambda record: record.__setitem__("base_cases", {}),
        ],
        ids=[
            "conclusion-widened", "conclusion-dropped", "n-max", "prime", "seed", "chain", "passed", "target",
            "achieved", "achieved-float", "achieved-bool", "achieved-above-target", "span-rank-on-prop-b",
            "variant", "span-rank-missing", "span-rank", "span-rank-negative", "span-residual", "probe-verdict",
            "prop", "case-dropped", "cases-reordered", "case-not-object", "cases-not-list",
        ],
    )
    def test_edited_record_does_not_replay(self, record14, edit):
        record = copy.deepcopy(record14)
        edit(record)
        assert not replays(14, DEFAULT_PRIME, 0, record)

    @pytest.mark.parametrize("result", [None, [], {}, "record"])
    def test_non_record_does_not_replay(self, result):
        assert not replays(14, DEFAULT_PRIME, 0, result)
