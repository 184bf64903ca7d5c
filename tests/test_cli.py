import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from oracle import cache_index_reference, cache_replay_reference, format_tensor

from grsecant import __version__, cli
from grsecant import cache as cache_module
from grsecant.cache import ResultCache, cache_key
from grsecant.cli import main
from grsecant.codes import MAX_LEXICODE_SUPPORTS
from grsecant.gr26 import fano_tensor, five_term_tensor


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, tmp_path, *args):
    return runner.invoke(main, ["--cache-dir", str(tmp_path / "cache"), *args])


def invoke_in_1gib(tmp_path, *args):
    """Run the CLI in a fresh interpreter under a 1 GiB address-space limit,
    so that work which outgrew it would fail at once instead of filling memory."""
    script = (
        "import resource; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
        "from grsecant.cli import main; main()"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cache_module.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", script, "--cache-dir", str(tmp_path / "cache"), *args],
        capture_output=True, env=env, text=True, timeout=120,
    )


class TestCheck:
    def test_defective_case(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "check", "-k", "2", "-n", "6", "-s", "3")
        assert result.exit_code == 0
        assert "InconclusiveDeficit" in result.output
        assert "achieved 34 / expected 35" in result.output

    def test_fills(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "check", "-k", "2", "-n", "9", "-s", "6")
        assert result.exit_code == 0
        assert "CertifiedFills" in result.output

    def test_monomial_refusal(self, runner, tmp_path):
        # 3 * 13 = 39 tangent columns exceed the 35 of Gr(2,6): no certificate.
        for _ in range(2):
            result = invoke(runner, tmp_path, "check", "-k", "2", "-n", "6", "-s", "3", "--strategy", "monomial")
            assert result.exit_code == 1
            assert result.stdout == ""
            assert result.stderr == "error: no monomial certificate for (k=2, n=6, s=3)\n"
            assert not (tmp_path / "cache").exists()

    def test_k1_baseline(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "check", "-k", "1", "-n", "5", "-s", "3")
        assert result.exit_code == 0
        assert "CertifiedFills" in result.output

    def test_usage_error(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "check", "-k", "0", "-n", "6", "-s", "3")
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args, bound",
        [
            (["check", "-k", "10", "-n", "30", "-s", "1"], "MAX_PROBE_ENTRIES"),
            (["scan", "-k", "2", "--n-from", "9", "--n-to", "100"], "MAX_PROBE_ENTRIES"),
            (["induction", "--n-max", "30000000"], "MAX_FORMULA_N"),
            (["formulas", "--n-to", "30000000"], "MAX_FORMULA_N"),
        ],
        ids=["check", "scan", "induction", "formulas"],
    )
    def test_oversized_problem_is_usage_error(self, tmp_path, args, bound):
        # Ambient C(31, 11) = 84 672 315 for check, Gr(2,100) at s2 for scan,
        # and 3e7 values of n for the formula ranges.
        result = invoke_in_1gib(tmp_path, *args)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "too large" in result.stderr and bound in result.stderr
        assert "Traceback" not in result.stderr

    def test_huge_s_fills_in_bounded_memory(self, tmp_path):
        # A probe holds nothing per point, so s = 10^12 draws the same 18
        # points as s2(20) = 27 and fits the same 1 GiB.
        result = invoke_in_1gib(tmp_path, "check", "-k", "2", "-n", "20", "-s", "1000000000000")
        assert result.returncode == 0, result.stderr
        assert "CertifiedFills achieved 1330 / expected 1330" in result.stdout

    def test_bad_prime(self, runner, tmp_path):
        result = runner.invoke(main, ["--prime", "32001", "check", "-k", "2", "-n", "6", "-s", "3"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [["check", "-k", "2", "-n", "6", "-s", "3"], ["conjecture-table"]])
    @pytest.mark.parametrize("flag", ["--prime", "--second-prime"])
    def test_prime_above_exact_bound(self, runner, tmp_path, flag, args):
        # Above MAX_PRIME float64 elimination is not exact; at this prime the
        # defective sigma_3 Gr(2,6) once came out CertifiedFills.
        result = invoke(runner, tmp_path, flag, "1099511627791", *args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "MAX_PRIME" in result.output

    def test_second_prime_runs_both(self, runner, tmp_path):
        result = invoke(
            runner, tmp_path, "--second-prime", "46337", "check", "-k", "2", "-n", "6", "-s", "3"
        )
        assert result.exit_code == 0
        assert "p=32003" in result.output and "p=46337" in result.output

    def test_json_output(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "--json", "check", "-k", "2", "-n", "9", "-s", "5")
        record = json.loads(result.output)
        assert record["command"] == "probe"
        assert record["result"]["verdict"] == "CertifiedExpected"
        assert record["result"]["achieved"] == 110

    # The `result` of `--json check` at the default prime, byte for byte;
    # elapsed_ms sits outside it.  The four defective cases, two probes that
    # sample points (no monomial certificate exists for them), two lexicode
    # certificates counted in one trial, and the k = 1 deficit whose
    # coordinate planes share tangent columns: a change to how a probe picks,
    # counts or ranks its points must leave these records as they are.
    PINNED_RESULTS = {
        ("2", "6", "3"): '{"achieved": 34, "ambient": 35, "deficit": 1, "expected": 35, "k": 2, "n": 6, '
        '"prime": 32003, "s": 3, "seed": 0, "trials": 3, "verdict": "InconclusiveDeficit"}',
        ("3", "7", "3"): '{"achieved": 50, "ambient": 70, "deficit": 1, "expected": 51, "k": 3, "n": 7, '
        '"prime": 32003, "s": 3, "seed": 0, "trials": 3, "verdict": "InconclusiveDeficit"}',
        ("3", "7", "4"): '{"achieved": 64, "ambient": 70, "deficit": 4, "expected": 68, "k": 3, "n": 7, '
        '"prime": 32003, "s": 4, "seed": 0, "trials": 3, "verdict": "InconclusiveDeficit"}',
        ("2", "8", "4"): '{"achieved": 74, "ambient": 84, "deficit": 2, "expected": 76, "k": 2, "n": 8, '
        '"prime": 32003, "s": 4, "seed": 0, "trials": 3, "verdict": "InconclusiveDeficit"}',
        ("2", "9", "5"): '{"achieved": 110, "ambient": 120, "expected": 110, "k": 2, "n": 9, '
        '"prime": 32003, "s": 5, "seed": 0, "trials": 1, "verdict": "CertifiedExpected"}',
        ("3", "9", "6"): '{"achieved": 150, "ambient": 210, "expected": 150, "k": 3, "n": 9, '
        '"prime": 32003, "s": 6, "seed": 0, "trials": 1, "verdict": "CertifiedExpected"}',
        ("3", "9", "5"): '{"achieved": 125, "ambient": 210, "expected": 125, "k": 3, "n": 9, '
        '"prime": 32003, "s": 5, "seed": 0, "trials": 1, "verdict": "CertifiedExpected"}',
        ("4", "12", "6"): '{"achieved": 246, "ambient": 1287, "expected": 246, "k": 4, "n": 12, '
        '"prime": 32003, "s": 6, "seed": 0, "trials": 1, "verdict": "CertifiedExpected"}',
        ("1", "9", "4"): '{"achieved": 44, "ambient": 45, "deficit": 1, "expected": 45, "k": 1, "n": 9, '
        '"prime": 32003, "s": 4, "seed": 0, "trials": 3, "verdict": "InconclusiveDeficit"}',
    }

    @pytest.mark.parametrize("k, n, s", sorted(PINNED_RESULTS), ids="-".join)
    def test_probe_results_are_pinned(self, runner, tmp_path, k, n, s):
        result = invoke(runner, tmp_path, "--json", "--second-prime", "46337", "check", "-k", k, "-n", n, "-s", s)
        assert result.exit_code == 0
        pinned = self.PINNED_RESULTS[k, n, s]
        expected = [pinned, pinned.replace('"prime": 32003', '"prime": 46337')]
        assert [json.dumps(json.loads(line)["result"], sort_keys=True) for line in result.stdout.splitlines()] == expected


class TestCache:
    def test_replay_is_byte_identical(self, runner, tmp_path):
        args = ["--json", "check", "-k", "2", "-n", "6", "-s", "3"]
        first = invoke(runner, tmp_path, *args)
        second = invoke(runner, tmp_path, *args)
        assert first.output == second.output  # including elapsed_ms: replayed
        cache_file = tmp_path / "cache" / "results.jsonl"
        assert len(cache_file.read_text().splitlines()) == 1

    def test_no_cache_recomputes_and_matches(self, runner, tmp_path):
        args = ["--json", "check", "-k", "2", "-n", "6", "-s", "3"]
        first = invoke(runner, tmp_path, *args)
        fresh = invoke(runner, tmp_path, "--no-cache", *args)
        cache_file = tmp_path / "cache" / "results.jsonl"
        assert len(cache_file.read_text().splitlines()) == 1
        a, b = json.loads(first.output), json.loads(fresh.output)
        assert a["result"] == b["result"]

    def test_no_cache_appends_when_no_line_is_sound(self, runner, tmp_path):
        args, first, cache_file, line = _cold_check(runner, tmp_path, "-k", "2", "-n", "6", "-s", "3")
        entry = json.loads(line)
        entry["record"]["result"]["deficit"] = 2
        bad = json.dumps(entry, sort_keys=True)
        cache_file.write_text(bad + "\n")
        fresh = invoke(runner, tmp_path, "--no-cache", *args)
        assert fresh.exit_code == 0
        assert json.loads(fresh.stdout)["result"] == json.loads(first.stdout)["result"]
        lines = cache_file.read_text().splitlines()
        assert len(lines) == 2 and lines[0] == bad
        # Later runs replay the appended line.
        again = invoke(runner, tmp_path, *args)
        assert again.stdout == fresh.stdout
        assert cache_file.read_text().splitlines() == lines

    def test_torn_line_is_skipped_with_warning(self, runner, tmp_path):
        args = ["--json", "check", "-k", "2", "-n", "6", "-s", "3"]
        first = invoke(runner, tmp_path, *args)
        cache_file = tmp_path / "cache" / "results.jsonl"
        with open(cache_file, "a") as fh:
            fh.write('{"key": "0123", "record": {"comm')  # a killed append
        replay = invoke(runner, tmp_path, *args)
        assert replay.exit_code == 0
        assert replay.stdout == first.stdout
        assert "skipped 1 undecodable line(s)" in replay.stderr
        # The next append starts on a fresh line and is replayed afterwards.
        fresh = invoke(runner, tmp_path, "--json", "check", "-k", "2", "-n", "9", "-s", "5")
        assert fresh.exit_code == 0
        lines = cache_file.read_text().splitlines()
        assert len(lines) == 3 and json.loads(lines[-1])["key"]
        again = invoke(runner, tmp_path, "--json", "check", "-k", "2", "-n", "9", "-s", "5")
        assert again.stdout == fresh.stdout
        assert len(cache_file.read_text().splitlines()) == 3

    @pytest.mark.parametrize("bad", ["[]", "{}", '{"key": "x"}', '"str"'])
    def test_non_record_line_is_skipped_with_warning(self, runner, tmp_path, bad):
        args = ["--json", "check", "-k", "2", "-n", "6", "-s", "2"]
        cache_file = tmp_path / "cache" / "results.jsonl"
        cache_file.parent.mkdir()
        cache_file.write_text(bad + "\n")
        first = invoke(runner, tmp_path, *args)
        assert first.exit_code == 0
        assert "skipped 1 undecodable line(s)" in first.stderr
        replay = invoke(runner, tmp_path, *args)
        assert replay.exit_code == 0
        assert replay.stdout == first.stdout
        assert cache_file.read_text().splitlines()[0] == bad
        assert len(cache_file.read_text().splitlines()) == 2

    def test_key_without_kernel_tag_is_not_replayed(self, runner, tmp_path):
        # A record keyed without the kernel tag, as before the float64 kernel,
        # claiming the false certificate once computed at an unsafe prime.
        payload = {
            "command": "probe",
            "parameters": {"k": 2, "n": 6, "s": 3, "strategy": "auto", "trials": 3},
            "prime": 32003,
            "seed": 0,
            "version": __version__,
        }
        stale = dict(payload, result={"verdict": "CertifiedFills", "achieved": 35, "expected": 35, "ambient": 35})
        cache_file = tmp_path / "cache" / "results.jsonl"
        cache_file.parent.mkdir()
        cache_file.write_text(json.dumps({"key": cache_key(payload), "record": stale}) + "\n")
        result = invoke(runner, tmp_path, "check", "-k", "2", "-n", "6", "-s", "3")
        assert result.exit_code == 0
        assert "InconclusiveDeficit" in result.output and "achieved 34 / expected 35" in result.output

    def test_second_prime_equal_to_prime_replays_its_own_put(self, runner, tmp_path):
        # The one CLI path that looks a key up twice in one process: the cold
        # run computes the record once and replays it for the second prime.
        args = ["--prime", "32003", "--second-prime", "32003", "--json", "check", "-k", "2", "-n", "9", "-s", "4"]
        cache_file = tmp_path / "cache" / "results.jsonl"
        cold = invoke(runner, tmp_path, *args)
        assert cold.exit_code == 0
        first, second = cold.stdout.splitlines()
        assert first == second
        lines = cache_file.read_text().splitlines()
        assert len(lines) == 1
        warm = invoke(runner, tmp_path, *args)
        assert warm.exit_code == 0
        assert warm.stdout == cold.stdout and warm.stderr == ""
        assert cache_file.read_text().splitlines() == lines

    def test_scan_reuses_probe_records(self, runner, tmp_path):
        invoke(runner, tmp_path, "check", "-k", "2", "-n", "9", "-s", "5")
        result = invoke(runner, tmp_path, "scan", "-k", "2", "--n-from", "9", "--n-to", "9")
        assert result.exit_code == 0
        cache_file = tmp_path / "cache" / "results.jsonl"
        lines = cache_file.read_text().splitlines()
        # check wrote s=5; scan added only s=6 (s=5 was replayed).
        assert len(lines) == 2


def _cold_check(runner, tmp_path, *args):
    """Run a --json check into an empty cache; returns (args, result, cache file, its one line)."""
    args = ("--json", "check", *args)
    first = invoke(runner, tmp_path, *args)
    cache_file = tmp_path / "cache" / "results.jsonl"
    (line,) = cache_file.read_text().splitlines()
    return args, first, cache_file, line


APPEND_SCRIPT = """
import sys
from grsecant.cache import ResultCache

cache, tag = ResultCache(sys.argv[1]), sys.argv[2]
print("ready", flush=True)
sys.stdin.readline()
for i in range(200):
    # Lines over 8 KiB span pages: another appender can see one half written.
    cache.put(f"{tag}{i:063d}", {"command": "note", "i": i, "pad": "x" * (9000 if i % 10 == 0 else 10)})
"""


def _count_reads(monkeypatch) -> list:
    """Record every path whose bytes are read whole."""
    reads, read_bytes = [], Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self) or read_bytes(self))
    return reads


ORACLE_KEYS = [hashlib.sha256(f"oracle {i}".encode()).hexdigest() for i in range(4)]


def _not_bad(record: dict) -> bool:
    return "bad" not in record


def _put_line(key: str, record: dict) -> bytes:
    return json.dumps({"key": key, "record": record}, sort_keys=True).encode()


def _cache_files() -> dict[str, bytes]:
    """Cache files the vectorised index must read exactly as the line-by-line reference does."""
    k0, k1, k2, k3 = ORACLE_KEYS
    a, b, c = (_put_line(k, {"line": i}) for i, k in enumerate((k0, k1, k2)))
    shortest = _put_line(k0, {})
    assert len(shortest) == 89
    too_short = [b'{"key": "%s", "record": {}' % k1.encode(), b'{"key": "%s", "record": }}' % k2.encode()]
    assert {len(line) for line in too_short} == {88}
    return {
        "empty": b"",
        "newlines-only": b"\n\n\n",
        "crlf": b"\r\n".join((a, b, c, b"")),
        "padded": b" " + a + b"\t\n\t" + b + b"  \n" + c + b" \x0b\x0c\n",
        "blank-lines": b"\n\n" + a + b"\n \t \n\n" + b + b"\n\n",
        "torn-last-line": a + b"\n" + b + b"\n" + c[:-1],
        "torn-short-last-line": a + b"\n" + b[:40],
        "uppercase-hex-key": _put_line(k0.upper(), {"line": "upper"}) + b"\n" + a + b"\n",
        "nested-line-form": _put_line(k0, {"inner": {"key": k1, "record": {"x": 1}}}) + b"\n" + a[:40] + b + b"\n",
        "duplicate-first-unsound": (
            b'{"key": "%s", "record": {"x": {oops}}\n' % k0.encode()
            + b'{"key": "%s", "record": {"x": 1}, "key": "%s", "z": {}}\n' % (k0.encode(), k3.encode())
            + _put_line(k0, {"bad": 1}) + b"\n" + a + b"\n" + _put_line(k0, {"line": "later"}) + b"\n"
            + _put_line(k2, {"bad": 2}) + b"\n"
        ),
        "shortest-lines": shortest + b"\n" + b"\n".join(too_short) + b"\n",
        # Newlines are searched a chunk at a time; lines here straddle chunk ends.
        "several-newline-chunks": (b"\n" + a + b"\n  " + b + b"\n" + c[:50] + b"\n")
        * (3 * cache_module._NEWLINE_CHUNK // 300),
        "stripped-line-first": b"  " + _put_line(k0, {"line": "padded"}) + b"\n" + a + b"\n" + b + b"\r\n" + b + b"\n",
        "utf8": _put_line(k3, {"note": "x"}).replace(b"x", "\u00e9".encode()) + b'\n{"key": "\xc3\xa9' + b"0" * 62 + b'", "record": {}}\n',
        "tiny-file": b'{"key": "x"}\n{}',
    }


CACHE_FILES = _cache_files()


class TestCacheIndex:
    def test_warm_scan_decodes_only_replayed_records(self, runner, tmp_path, monkeypatch):
        args = ["--json", "scan", "-k", "2", "--n-from", "9", "--n-to", "9"]
        cold = invoke(runner, tmp_path, *args)
        cache_file = tmp_path / "cache" / "results.jsonl"
        real = cache_file.read_text().splitlines()
        padding = []
        for i in range(2000 - len(real)):
            entry = json.loads(real[i % len(real)])
            entry["key"] = hashlib.sha256(f"pad {i}".encode()).hexdigest()
            entry["record"]["seed"] = 10**9 + i
            padding.append(json.dumps(entry, sort_keys=True))
        cache_file.write_text("".join(line + "\n" for line in padding + real))
        decoded, reads = [], _count_reads(monkeypatch)
        loads = cache_module.json.loads
        monkeypatch.setattr(cache_module.json, "loads", lambda s, *a, **kw: decoded.append(s) or loads(s, *a, **kw))
        warm = invoke(runner, tmp_path, *args)
        monkeypatch.undo()
        assert warm.exit_code == 0 and warm.stdout == cold.stdout
        replayed = warm.stdout.splitlines()
        assert len(replayed) == 2
        assert len(decoded) == len(replayed)
        # The whole clean file is indexed from one read.
        assert reads == [cache_file]
        assert len(cache_file.read_text().splitlines()) == 2000

    @pytest.mark.parametrize("head, tail", [(b"", b"\r"), (b" ", b""), (b"", b"  ")], ids=["crlf", "lead", "trail"])
    def test_padded_line_is_recomputed_not_replayed(self, runner, tmp_path, head, tail):
        # Only `put`'s bytes are in the line form: a key whose only line is
        # padded is recomputed and appended, and later runs replay that line.
        args, first, cache_file, line = _cold_check(runner, tmp_path, "-k", "2", "-n", "6", "-s", "3")
        padded = head + line.encode() + tail + b"\n"
        cache_file.write_bytes(padded)
        warning = f"warning: skipped 1 undecodable line(s) in {cache_file}: not in the cache's line form\n"
        fresh = invoke(runner, tmp_path, *args)
        assert fresh.exit_code == 0 and fresh.stderr == warning
        assert json.loads(fresh.stdout)["result"] == json.loads(first.stdout)["result"]
        data = cache_file.read_bytes()
        appended = data.removeprefix(padded).decode()
        assert appended.count("\n") == 1 and json.loads(appended)["key"] == json.loads(line)["key"]
        warm = invoke(runner, tmp_path, *args)
        assert (warm.exit_code, warm.stdout, warm.stderr) == (0, fresh.stdout, warning)
        assert cache_file.read_bytes() == data

    def test_cold_scan_reads_the_file_once(self, runner, tmp_path, monkeypatch):
        cache_file = tmp_path / "cache" / "results.jsonl"
        cache_file.parent.mkdir()
        cache_file.write_text(json.dumps({"key": "0" * 64, "record": {}}) + "\n")
        reads = _count_reads(monkeypatch)
        args = ["--json", "scan", "-k", "2", "--n-from", "9", "--n-to", "14"]
        cold = invoke(runner, tmp_path, *args)
        assert cold.exit_code == 0 and len(cold.stdout.splitlines()) == 12
        assert reads == [cache_file]
        assert len(cache_file.read_text().splitlines()) == 13
        warm = invoke(runner, tmp_path, *args)
        assert warm.stdout == cold.stdout and warm.stderr == ""

    def test_put_is_seen_by_a_later_get_without_a_reread(self, tmp_path, monkeypatch):
        key, record = "1" * 64, {"command": "note"}
        (tmp_path / "results.jsonl").write_text(json.dumps({"key": "0" * 64, "record": {}}) + "\n")
        reads = _count_reads(monkeypatch)
        cache = ResultCache(tmp_path)
        assert cache.get(key) is None
        cache.put(key, record)
        assert cache.get(key) == record
        assert reads == [tmp_path / "results.jsonl"]

    @pytest.mark.parametrize("name", sorted(CACHE_FILES))
    def test_index_matches_line_by_line_reference(self, tmp_path, capsys, name):
        data = CACHE_FILES[name]
        path = tmp_path / "results.jsonl"
        path.write_bytes(data)
        lines, load_skipped = cache_index_reference(data)
        keys = ORACLE_KEYS + [key.upper() for key in ORACLE_KEYS] + ["f" * 64]
        cache = ResultCache(tmp_path)
        for i, key in enumerate(keys):
            want, skipped = cache_replay_reference(lines.get(key, []), key, _not_bad)
            assert cache.get(key, _not_bad) == want, key
            warnings = [(load_skipped, "not in the cache's line form")] if i == 0 else []
            warnings.append((skipped, "did not decode or failed the replay check"))
            assert capsys.readouterr().err == "".join(
                f"warning: skipped {n} undecodable line(s) in {path}: {cause}\n" for n, cause in warnings if n
            ), key
        # Every line is tried once: asking again replays the same and warns of nothing.
        for key in keys:
            assert cache.get(key, _not_bad) == cache_replay_reference(lines.get(key, []), key, _not_bad)[0]
        assert capsys.readouterr().err == ""

    def test_corrupt_body_falls_through_to_next_line(self, runner, tmp_path):
        args, first, cache_file, line = _cold_check(runner, tmp_path, "-k", "2", "-n", "6", "-s", "3")
        key = json.loads(line)["key"]
        # A body that is not JSON, and one nested past the recursion limit.
        for corrupt in (
            '{"key": "%s", "record": {"command": "probe", "result": {oops}}' % key,
            '{"key": "%s", "record": {"command": "probe", "result": %s}}' % (key, "[" * 100_000 + "]" * 100_000),
        ):
            cache_file.write_text(corrupt + "\n" + line + "\n")
            replay = invoke(runner, tmp_path, *args)
            assert replay.exit_code == 0
            assert replay.stdout == first.stdout
            assert replay.stderr == (
                f"warning: skipped 1 undecodable line(s) in {cache_file}: did not decode or failed the replay check\n"
            )
            assert cache_file.read_text().splitlines() == [corrupt, line]

    def test_warning_names_load_cause(self, runner, tmp_path):
        args, first, cache_file, line = _cold_check(runner, tmp_path, "-k", "2", "-n", "6", "-s", "3")
        cache_file.write_text(line + "\n" + '{"key": "0123", "record": {"comm' + "\n")
        replay = invoke(runner, tmp_path, *args)
        assert replay.stdout == first.stdout
        assert replay.stderr == f"warning: skipped 1 undecodable line(s) in {cache_file}: not in the cache's line form\n"

    def test_warning_names_replay_cause(self, runner, tmp_path):
        args, first, cache_file, line = _cold_check(runner, tmp_path, "-k", "2", "-n", "6", "-s", "3")
        entry = json.loads(line)
        entry["record"]["result"]["deficit"] = 2
        cache_file.write_text(json.dumps(entry, sort_keys=True) + "\n" + line + "\n")
        replay = invoke(runner, tmp_path, *args)
        assert replay.stdout == first.stdout
        assert replay.stderr == (
            f"warning: skipped 1 undecodable line(s) in {cache_file}: did not decode or failed the replay check\n"
        )

    def test_first_of_two_valid_lines_wins(self, runner, tmp_path):
        args, first, cache_file, line = _cold_check(runner, tmp_path, "-k", "2", "-n", "6", "-s", "3")
        entry = json.loads(line)
        entry["record"]["elapsed_ms"] = 987654
        earlier = json.dumps(entry, sort_keys=True)
        cache_file.write_text(earlier + "\n" + line + "\n")
        replay = invoke(runner, tmp_path, *args)
        assert replay.exit_code == 0 and replay.stderr == ""
        assert json.loads(replay.stdout) == entry["record"]

    @pytest.mark.parametrize(
        "dump",
        [
            lambda entry: json.dumps({"record": entry["record"], "key": entry["key"]}),
            lambda entry: json.dumps(entry, sort_keys=True, separators=(",", ":")),
        ],
        ids=["key-order", "separators"],
    )
    def test_entry_not_in_put_form_is_recomputed(self, runner, tmp_path, dump):
        args, first, cache_file, line = _cold_check(runner, tmp_path, "-k", "2", "-n", "6", "-s", "3")
        entry = json.loads(line)
        entry["record"]["elapsed_ms"] = 987654
        other = dump(entry)
        assert json.loads(other) == entry
        cache_file.write_text(other + "\n")
        fresh = invoke(runner, tmp_path, *args)
        assert fresh.exit_code == 0
        assert "skipped 1 undecodable line(s)" in fresh.stderr
        assert json.loads(fresh.stdout)["result"] == json.loads(first.stdout)["result"]
        assert json.loads(fresh.stdout)["elapsed_ms"] != 987654
        assert cache_file.read_text().splitlines()[0] == other
        assert len(cache_file.read_text().splitlines()) == 2

    @pytest.mark.parametrize(
        "check, fields",
        [
            (("-k", "2", "-n", "9", "-s", "6"), {"achieved": 119}),  # CertifiedFills below ambient
            (("-k", "2", "-n", "9", "-s", "6"), {"ambient": 121}),
            (("-k", "2", "-n", "9", "-s", "5"), {"expected": 120, "achieved": 120}),  # CertifiedExpected at ambient
            (("-k", "2", "-n", "9", "-s", "5"), {"achieved": 109}),
            (("-k", "2", "-n", "6", "-s", "3"), {"deficit": 2}),  # InconclusiveDeficit: 34/35
            (("-k", "2", "-n", "6", "-s", "3"), {"achieved": 35, "deficit": 0}),
            (("-k", "2", "-n", "6", "-s", "3"), {"achieved": "34"}),
            (("-k", "2", "-n", "6", "-s", "3"), {"verdict": "Certified"}),
            # Ranks that agree with their verdict but not with the problem asked.
            (("-k", "2", "-n", "6", "-s", "3"), {"expected": 34, "verdict": "CertifiedExpected"}),
            (("-k", "2", "-n", "6", "-s", "3"), {"achieved": -1, "expected": -1, "ambient": -1, "verdict": "CertifiedFills"}),
            (
                ("-k", "2", "-n", "6", "-s", "3"),
                {"n": 9, "s": 5, "trials": 1, "achieved": 110, "expected": 110, "ambient": 120, "verdict": "CertifiedExpected"},
            ),
            (("-k", "2", "-n", "6", "-s", "3"), {"trials": 7}),  # above --trials 3
            (("-k", "2", "-n", "9", "-s", "5"), {"achieved": 110.0}),
        ],
        ids=[
            "fills-short", "fills-ambient", "expected-at-ambient", "expected-short",
            "deficit-wrong", "deficit-none", "rank-string", "unknown-verdict",
            "defect-certified", "negative-ranks", "other-problem", "trials-above-budget", "rank-float",
        ],
    )
    def test_failed_bookkeeping_is_skipped(self, runner, tmp_path, check, fields):
        args, first, cache_file, line = _cold_check(runner, tmp_path, *check)
        entry = json.loads(line)
        entry["record"]["result"].update(fields)
        bad = json.dumps(entry, sort_keys=True)
        # Followed by a sound line with the same key, that line is replayed.
        cache_file.write_text(bad + "\n" + line + "\n")
        replay = invoke(runner, tmp_path, *args)
        assert replay.exit_code == 0
        assert replay.stdout == first.stdout
        assert "skipped 1 undecodable line(s)" in replay.stderr
        # Alone, it is recomputed once; later runs replay the new line.
        cache_file.write_text(bad + "\n")
        fresh = invoke(runner, tmp_path, *args)
        assert json.loads(fresh.stdout)["result"] == json.loads(first.stdout)["result"]
        again = invoke(runner, tmp_path, *args)
        assert again.stdout == fresh.stdout
        assert len(cache_file.read_text().splitlines()) == 2

    @pytest.mark.parametrize(
        "fields",
        [
            {"command": "other"},
            {"seed": 99},
            {"prime": 31991},
            {"version": "0.0.0"},
            {"parameters": {"k": 2, "n": 6, "s": 3, "strategy": "monomial", "trials": 3}},
            {"command": "other", "seed": 99, "parameters": {"k": 2, "n": 6, "s": 3, "strategy": "monomial", "trials": 3}},
        ],
        ids=["command", "seed", "prime", "version", "strategy", "command-seed-strategy"],
    )
    def test_envelope_not_its_key_payload_is_skipped(self, runner, tmp_path, fields):
        args, first, cache_file, line = _cold_check(runner, tmp_path, "-k", "2", "-n", "6", "-s", "3")
        entry = json.loads(line)
        entry["record"].update(fields)
        bad = json.dumps(entry, sort_keys=True)
        cache_file.write_text(bad + "\n" + line + "\n")
        replay = invoke(runner, tmp_path, *args)
        assert replay.stdout == first.stdout
        assert replay.stderr == (
            f"warning: skipped 1 undecodable line(s) in {cache_file}: did not decode or failed the replay check\n"
        )
        cache_file.write_text(bad + "\n")
        fresh = invoke(runner, tmp_path, *args)
        assert fresh.exit_code == 0
        assert {**json.loads(fresh.stdout), "elapsed_ms": 0} == {**json.loads(first.stdout), "elapsed_ms": 0}
        assert cache_file.read_text().splitlines()[0] == bad
        assert len(cache_file.read_text().splitlines()) == 2

    def test_concurrent_appends_stay_whole_lines(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(cache_module.__file__).parents[1]))
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", APPEND_SCRIPT, str(tmp_path), tag],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
            )
            for tag in "ab"
        ]
        try:
            for writer in writers:
                assert writer.stdout.readline() == "ready\n"
            for writer in writers:  # release both at once
                writer.stdin.write("\n")
                writer.stdin.close()
            for writer in writers:
                assert writer.wait(timeout=60) == 0
        finally:
            for writer in writers:
                writer.kill()
                writer.stdout.close()
        lines = (tmp_path / "results.jsonl").read_text().splitlines()
        entries = [json.loads(line) for line in lines]
        assert sorted(e["key"] for e in entries) == sorted(f"{tag}{i:063d}" for tag in "ab" for i in range(200))
        assert max(map(len, lines)) > 8192
        cache = cache_module.ResultCache(tmp_path)
        assert all(cache.get(e["key"]) == e["record"] for e in entries)


class TestCacheLocation:
    @pytest.mark.parametrize("where", ["cache-dir-is-file", "env-dir-is-file", "results-is-dir"])
    def test_bad_location_is_usage_error(self, runner, tmp_path, where):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        args, env = ["--cache-dir", str(tmp_path / "cache")], {}
        if where == "cache-dir-is-file":
            args = ["--cache-dir", str(blocker)]
        elif where == "env-dir-is-file":
            args, env = [], {"GRSECANT_CACHE_DIR": str(blocker)}
        else:
            (tmp_path / "cache" / "results.jsonl").mkdir(parents=True)
        result = runner.invoke(main, [*args, "check", "-k", "2", "-n", "6", "-s", "3"], env=env)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "cache" in result.stderr


class TestConjectureTable:
    def test_all_rows_match(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "conjecture-table")
        assert result.exit_code == 0
        assert "MISMATCH" not in result.output
        for label in ("sigma_3 Gr(2,6)", "sigma_3 Gr(3,7)", "sigma_4 Gr(3,7)", "sigma_4 Gr(2,8)"):
            assert label in result.output

    def test_json_rows(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "--json", "conjecture-table")
        rows = [json.loads(line) for line in result.output.splitlines()]
        assert len(rows) == 4
        assert all(r["comparison"]["matches"] for r in rows)
        codims = [(r["comparison"]["actual_codim"], r["comparison"]["expected_codim"]) for r in rows]
        assert codims == [(1, 0), (20, 19), (6, 2), (10, 8)]


class TestScan:
    def test_threshold_scan(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "scan", "-k", "2", "--n-from", "9", "--n-to", "10")
        assert result.exit_code == 0
        assert "CertifiedExpected" in result.output and "CertifiedFills" in result.output
        assert "implies" in result.output

    def test_explicit_range(self, runner, tmp_path):
        result = invoke(
            runner, tmp_path, "scan", "-k", "3", "--n-from", "9", "--n-to", "9",
            "--s-from", "6", "--s-to", "6",
        )
        assert result.exit_code == 0
        assert "CertifiedExpected" in result.output

    def test_needs_range_for_k3(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "scan", "-k", "3", "--n-from", "9", "--n-to", "10")
        assert result.exit_code == 2


class TestInduction:
    def test_small_run(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "induction", "--n-max", "15")
        assert result.exit_code == 0
        assert "certified for n in [9, 15]" in result.output
        assert "chain inequalities 15..15: all hold" in result.output

    def test_json(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "--json", "induction", "--n-max", "15")
        record = json.loads(result.output)
        assert record["result"]["conclusion"] == [9, 15]

    def test_usage_guard(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "induction", "--n-max", "10")
        assert result.exit_code == 2

    def test_edited_record_is_recomputed(self, runner, tmp_path):
        args = ("induction", "--n-max", "14")
        first = invoke(runner, tmp_path, *args)
        cache_file = tmp_path / "cache" / "results.jsonl"
        (line,) = cache_file.read_text().splitlines()
        # The record as written replays, with no warning and no append.
        again = invoke(runner, tmp_path, *args)
        assert again.stdout == first.stdout and again.stderr == ""
        assert cache_file.read_text().splitlines() == [line]
        entry = json.loads(line)
        entry["record"]["result"]["conclusion"] = [9, 1000]
        for case in entry["record"]["result"]["base_cases"]:
            case["passed"] = True
        bad = json.dumps(entry, sort_keys=True)
        cache_file.write_text(bad + "\n")
        fresh = invoke(runner, tmp_path, *args)
        assert fresh.exit_code == 0
        assert fresh.stdout == first.stdout
        assert "certified for n in [9, 14]" in fresh.stdout and "1000" not in fresh.stdout
        assert "skipped 1 undecodable line(s)" in fresh.stderr
        assert cache_file.read_text().splitlines()[0] == bad


class TestClassify:
    def test_fano_file(self, runner, tmp_path):
        path = tmp_path / "fano.tensor"
        path.write_text(format_tensor(fano_tensor(), one_based=True))
        result = invoke(runner, tmp_path, "classify", str(path))
        assert result.exit_code == 0
        assert "rank 21" in result.output
        assert "invariant -1" in result.output

    def test_missing_file(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "classify", str(tmp_path / "nope.tensor"))
        assert result.exit_code == 2

    def test_malformed_file(self, runner, tmp_path):
        path = tmp_path / "bad.tensor"
        path.write_text("this is not a tensor\n")
        result = invoke(runner, tmp_path, "classify", str(path))
        assert result.exit_code == 2

    def test_json_report(self, runner, tmp_path):
        path = tmp_path / "dec.tensor"
        path.write_text("dim 7 degree 3\n0 1 2 : 1\n")
        result = invoke(runner, tmp_path, "--json", "classify", str(path))
        record = json.loads(result.output)
        assert record["result"]["rank"] == 6
        assert record["result"]["in_grassmannian"] is True

    PINNED = {
        ("fano", 32003): '"invariant_exact": -1, "invariant_mod_p": 32002, "prime": 32003, "rank": 21}',
        ("fano", 46337): '"invariant_exact": -1, "invariant_mod_p": 46336, "prime": 46337, "rank": 21}',
        ("five", 32003): '"invariant_exact": -8, "invariant_mod_p": 31995, "prime": 32003, "rank": 21}',
        ("five", 46337): '"invariant_exact": -8, "invariant_mod_p": 46329, "prime": 46337, "rank": 21}',
    }

    @pytest.mark.parametrize("name, prime", sorted(PINNED))
    def test_json_lines_are_pinned(self, runner, tmp_path, name, prime):
        omega = {"fano": fano_tensor(), "five": five_term_tensor(1, 2, 4, 1, 1)}[name]
        path = tmp_path / f"{name}.tensor"
        path.write_text(format_tensor(omega, one_based=True))
        result = invoke(runner, tmp_path, "--json", "--prime", str(prime), "classify", str(path))
        assert result.exit_code == 0
        assert result.output == (
            f'{{"command": "classify", "parameters": {{"file": "{name}.tensor"}}, "prime": {prime}, '
            '"result": {"in_grassmannian": false, "in_sigma2": false, "in_sigma3": false, '
            f'{self.PINNED[name, prime]}, "version": "0.1.0"}}\n'
        )

    def test_max_prime(self, runner, tmp_path):
        # 4194301 = 1 mod 3 is the largest prime the CLI accepts.
        path = tmp_path / "fano.tensor"
        path.write_text(format_tensor(fano_tensor(), one_based=True))
        result = invoke(runner, tmp_path, "--json", "--prime", "4194301", "classify", str(path))
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["result"]["invariant_mod_p"] == 4194300


class TestInvariantCommand:
    def test_identity(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "invariant", "2", "1", "1", "1", "1")
        assert result.exit_code == 0
        assert "det -16, predicted -16: match" in result.output


class TestCodesCommand:
    def test_words_one_per_line(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "codes", "-n", "10", "-w", "4")
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert "0 1 2 3" in lines
        assert any(line.startswith("lower bounds:") for line in lines)

    def test_json(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "--json", "codes", "-n", "10", "-w", "4")
        record = json.loads(result.output)
        assert record["result"]["size"] == 5
        assert record["result"]["graham_sloane"]["c"] == 1

    def test_usage(self, runner, tmp_path):
        assert invoke(runner, tmp_path, "codes", "-n", "3", "-w", "4").exit_code == 2
        assert invoke(runner, tmp_path, "codes", "-n", "8", "-w", "3", "-d", "5").exit_code == 2

    @pytest.mark.parametrize("n, w", [(60, 30), (10**9, 5 * 10**8), (4097, 1), (4097, 4096)])
    def test_too_many_supports_refused_before_the_scan(self, runner, tmp_path, monkeypatch, n, w):
        def refuse(*args):
            raise AssertionError("lexicode_greedy ran")

        monkeypatch.setattr(cli, "lexicode_greedy", refuse)
        result = invoke(runner, tmp_path, "codes", "-n", str(n), "-w", str(w))
        assert result.exit_code == 2
        assert "MAX_LEXICODE_SUPPORTS" in result.output

    def test_largest_accepted_support_count(self, runner, tmp_path):
        # C(4096, 1) = MAX_LEXICODE_SUPPORTS: accepted; one weight-1 word at distance 6.
        result = invoke(runner, tmp_path, "--json", "codes", "-n", str(MAX_LEXICODE_SUPPORTS), "-w", "1")
        assert result.exit_code == 0
        assert json.loads(result.output)["result"]["words"] == [[0]]


DEMO_TEXT = {
    "gr37": (
        "gr37: affine tangent-span rank 50 (expected dimension 51, ambient 70)\n"
        "  curve(1,0) matches anchor point: True\n"
        "  curve(0,1) matches anchor point: True\n"
        "  curve(1,1) matches anchor point: True\n"
        "  5 curve points span 5 dimensions, tangent-stack rank with them 50: True\n"
        "pass\n"
    ),
    "gr28": (
        "gr28: affine tangent-span rank 74 (expected dimension 76, ambient 84)\n"
        "  veronese(1,0,0) matches anchor point: True\n"
        "  veronese(0,1,0) matches anchor point: True\n"
        "  veronese(0,0,1) matches anchor point: True\n"
        "  veronese(1,1,1) matches anchor point: True\n"
        "  10 surface points span 10 dimensions, tangent-stack rank with them 74: True\n"
        "pass\n"
    ),
}
DEMO_JSON = {
    "gr37": (
        '{"command": "demo", "parameters": {"which": "gr37"}, "prime": 32003, "result": {"achieved": 50, '
        '"ambient": 70, "curve_checks": ["curve(1,0) matches anchor point: True", '
        '"curve(0,1) matches anchor point: True", "curve(1,1) matches anchor point: True", '
        '"5 curve points span 5 dimensions, tangent-stack rank with them 50: True"], "expected": 51, '
        '"name": "gr37", "passed": true}, "version": "0.1.0"}\n'
    ),
    "gr28": (
        '{"command": "demo", "parameters": {"which": "gr28"}, "prime": 32003, "result": {"achieved": 74, '
        '"ambient": 84, "curve_checks": ["veronese(1,0,0) matches anchor point: True", '
        '"veronese(0,1,0) matches anchor point: True", "veronese(0,0,1) matches anchor point: True", '
        '"veronese(1,1,1) matches anchor point: True", '
        '"10 surface points span 10 dimensions, tangent-stack rank with them 74: True"], "expected": 76, '
        '"name": "gr28", "passed": true}, "version": "0.1.0"}\n'
    ),
}


class TestDemo:
    @pytest.mark.parametrize("which", ["gr37", "gr28"])
    def test_output_is_pinned(self, runner, tmp_path, which):
        text = invoke(runner, tmp_path, "demo", which)
        assert text.exit_code == 0 and text.stdout == DEMO_TEXT[which]
        record = invoke(runner, tmp_path, "--json", "demo", which)
        assert record.exit_code == 0 and record.stdout == DEMO_JSON[which]

    def test_gr37(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "demo", "gr37")
        assert result.exit_code == 0
        assert "rank 50" in result.output

    def test_gr28(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "demo", "gr28")
        assert result.exit_code == 0
        assert "rank 74" in result.output

    def test_figure1(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "demo", "figure1")
        assert result.exit_code == 0
        assert "fano" in result.output

    def test_figure1_negative_seed(self, runner, tmp_path):
        negative = invoke(runner, tmp_path, "--seed", "-1", "demo", "figure1")
        assert negative.exit_code == 0, negative.output
        assert negative.output == invoke(runner, tmp_path, "--seed", "0", "demo", "figure1").output

    def test_unknown(self, runner, tmp_path):
        assert invoke(runner, tmp_path, "demo", "gr99").exit_code == 2

    @pytest.mark.parametrize("which, prime", [("gr37", 3), ("gr37", 5), ("gr28", 3), ("gr28", 5), ("gr28", 7)])
    def test_colliding_samples_are_usage_error(self, runner, tmp_path, which, prime):
        # The fixed sample parameters collide mod these primes, so their
        # images span too few dimensions whatever the tangent rank.
        result = invoke(runner, tmp_path, "--prime", str(prime), "demo", which)
        assert result.exit_code == 2
        assert f"collide mod {prime}" in result.output
        assert "Traceback" not in result.output and "FAIL" not in result.output


class TestFormulas:
    def test_table(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "formulas", "--n-from", "9", "--n-to", "12")
        assert result.exit_code == 0
        assert "disagreements in range" in result.output

    def test_json_mismatches(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "--json", "formulas", "--n-from", "9", "--n-to", "12")
        record = json.loads(result.output)
        ns = {m["n"] for m in record["result"]["one_floor_form_mismatches"]}
        assert 11 in ns and 9 in ns


class TestRecordShape:
    """Top-level keys of every command's --json record."""

    CACHED = {"command", "parameters", "prime", "seed", "version", "result", "elapsed_ms"}
    PLAIN = {"command", "parameters", "version", "result"}

    @pytest.mark.parametrize(
        "args, keys",
        [
            (["check", "-k", "2", "-n", "6", "-s", "2"], CACHED),
            (["scan", "-k", "3", "--n-from", "7", "--n-to", "7", "--s-from", "2", "--s-to", "2"], CACHED),
            (["induction", "--n-max", "14"], CACHED),
            (["conjecture-table"], CACHED | {"comparison"}),
            (["demo", "gr37"], PLAIN | {"prime"}),
            (["demo", "gr28"], PLAIN | {"prime"}),
            (["invariant", "1", "2", "3", "4", "5"], PLAIN),
            (["codes", "-n", "10", "-w", "4"], PLAIN),
            (["codes", "-n", "10", "-w", "4", "-d", "4"], PLAIN),
            (["formulas", "--n-from", "9", "--n-to", "10"], PLAIN),
            (["demo", "figure1"], PLAIN),
        ],
    )
    def test_keys(self, runner, tmp_path, args, keys):
        result = invoke(runner, tmp_path, "--json", *args)
        assert result.exit_code == 0
        records = [json.loads(line) for line in result.output.splitlines()]
        assert records and all(set(r) == keys for r in records)

    def test_classify_keys(self, runner, tmp_path):
        path = tmp_path / "fano.tensor"
        path.write_text(format_tensor(fano_tensor(), one_based=True))
        result = invoke(runner, tmp_path, "--json", "classify", str(path))
        assert result.exit_code == 0
        assert set(json.loads(result.output)) == self.PLAIN | {"prime"}
