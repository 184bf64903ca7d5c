"""Tests of the benchmark's own helpers.  Run: python3 -m pytest benchmarks/test_harness.py"""

import json
from pathlib import Path

import pytest

from harness import Recorder, Tracer, covered_length, mean, median, percentile, tail_level

ROOT = Path(__file__).resolve().parents[1]


def test_percentile_interpolates_between_order_statistics():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 100) == 5.0
    assert median(xs) == 3.0
    assert percentile([1.0, 2.0], 50) == 1.5
    assert percentile(range(11), 90) == pytest.approx(9.0)


def test_mean_follows_the_share_of_slow_samples_where_the_median_jumps():
    mostly_fast = [100.0] * 51 + [130.0] * 49
    mostly_slow = [100.0] * 49 + [130.0] * 51
    assert median(mostly_slow) - median(mostly_fast) == pytest.approx(30.0)
    assert mean(mostly_slow) - mean(mostly_fast) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        mean([])


@pytest.mark.parametrize(
    "n, level",
    [(0, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10_000, 99.9)],
)
def test_tail_level_needs_ten_samples_beyond(n, level):
    assert tail_level(n) == level
    if level is not None:
        assert n - n * level / 100 >= 10 - 1e-9


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert covered_length([(0.0, 2.0), (1.0, 3.0), (2.5, 2.75)]) == 3.0


def _tracer_with(spans):
    tracer = Tracer()
    tracer.spans = [list(s) for s in spans]
    return tracer


def test_self_time_subtracts_direct_children_only():
    # probe [0, 10] with children rank [1, 7] and frames [7, 9]; rank has a child [2, 3].
    tracer = _tracer_with(
        [
            ("probe", 0.0, 10.0, -1, 1),
            ("rank", 1.0, 7.0, 0, 1),
            ("inner", 2.0, 3.0, 1, 1),
            ("frames", 7.0, 9.0, 0, 1),
        ]
    )
    assert tracer.self_time("probe") == pytest.approx(2.0)
    assert tracer.self_time("rank") == pytest.approx(5.0)
    assert tracer.busy("probe") == pytest.approx(10.0)


def test_busy_counts_a_layer_nested_in_itself_once():
    tracer = _tracer_with([("probe", 0.0, 4.0, -1, 1), ("probe", 1.0, 2.0, 0, 1), ("probe", 5.0, 6.0, -1, 2)])
    assert tracer.busy("probe") == pytest.approx(5.0)
    assert tracer.calls("probe") == 3


def test_wrap_records_parent_op_and_counters():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    def add_result(counts, args, result, state):
        counts["sum"] += result

    traced_leaf = tracer.wrap("leaf", leaf, hook=add_result)
    outer = tracer.wrap("outer", lambda: traced_leaf(1) + traced_leaf(2))
    tracer.op = 7
    assert outer() == 5
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "leaf", "leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert {s[4] for s in tracer.spans} == {7}
    assert tracer.counts["leaf"]["sum"] == 5
    assert traced_leaf.__wrapped__ is leaf


def test_recorder_flags_a_doctored_record(capsys):
    reference = json.dumps({"result": {"achieved": 35, "expected": 35, "verdict": "CertifiedFills"}}).encode()
    doctored = reference.replace(b"35,", b"34,", 1)
    rec = Recorder()
    for observed in (reference, doctored, reference):
        rec.run_op("replay", lambda observed=observed: observed, lambda out: out == reference, rec.op_ms)
    assert (rec.attempted, rec.failed) == (3, 1)
    assert rec.failed_frac == pytest.approx(1 / 3)
    assert len(rec.op_ms) == 3
    assert "MISMATCH: replay" in capsys.readouterr().err


def test_recorder_counts_an_error_as_failed_and_untimed():
    rec = Recorder()

    def broken():
        raise ValueError("rank bookkeeping broken")

    assert rec.run_op("probe", broken, lambda _: True, rec.op_ms) is None
    assert (rec.attempted, rec.failed, rec.op_ms) == (1, 1, [])


def test_benchmark_json_declares_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {"setup_s", "solve_s", "op_ms_mean", "op_ms_p90", "peak_rss_mb"}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_run_refuses_a_tree_without_sources(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.chdir(tmp_path)
    import run

    with pytest.raises(SystemExit) as exit_info:
        run.main(["--workload", "small-grid", "--seed", "1", "--seconds", "1"])
    assert exit_info.value.code not in (0, None)
