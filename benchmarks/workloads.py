"""The four grsecant workloads: inputs from a seed, one timed pass, reference checks.

Every workload is a closed loop from one caller with no threads: the next
operation starts when the previous one has returned.  The workload seed is
passed to the program as `SecantProblem.seed` / `--seed`; nothing else about
the inputs depends on it.  Why each workload exists is written in NOTES.md.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import time
from functools import partial
from pathlib import Path
from typing import NamedTuple

from click.testing import CliRunner

from grsecant import cache, cli, codes, extalg, fieldcore, grassmann, induction, terracini
from grsecant.terracini import SecantProblem

from harness import Recorder, Tracer, clear_lru_caches

PACKAGE_MODULES = (cache, cli, codes, extalg, fieldcore, grassmann, induction, terracini)
PRIMES = (32003, 46337)

# Exact references.  Ranks are (achieved, expected) of the four known defective
# secant varieties; every other probe must reach its expected dimension.
DEFECTIVE = {(2, 6, 3): (34, 35), (3, 7, 3): (50, 51), (3, 7, 4): (64, 68), (2, 8, 4): (74, 76)}
THRESHOLD_N = 20
THRESHOLD_PROBES = ((21, 1155, "CertifiedExpected"), (27, 1330, "CertifiedFills"))  # s1(20), s2(20)
INDUCTION_N_MAX = 50
INDUCTION_BASE_CASES = 37
PROP_B_FLOOR_RESIDUAL = {0: 20, 1: 8, 2: 32}  # by n mod 3


def expected_dim(k: int, n: int, s: int) -> int:
    """min(s((k+1)(n-k)+1), C(n+1,k+1)), computed here rather than by the package."""
    return min(s * ((k + 1) * (n - k) + 1), math.comb(n + 1, k + 1))


def probe_ok(v, k: int, n: int, s: int) -> bool:
    if (k, n, s) in DEFECTIVE:
        return v.verdict.value == "InconclusiveDeficit" and (v.achieved_rank, v.expected_rank) == DEFECTIVE[k, n, s]
    want = expected_dim(k, n, s)
    fills = want == math.comb(n + 1, k + 1)
    verdict = "CertifiedFills" if fills else "CertifiedExpected"
    return v.verdict.value == verdict and v.achieved_rank == v.expected_rank == want


@contextlib.contextmanager
def patched(replacements):
    """Rebind (owner, attribute) to make(original) for the duration of the block."""
    saved = []
    try:
        for owner, attr, make in replacements:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Tracing.  The package imports with `from .x import y`, so a function is
# patched where each caller looks it up, not where it is defined.

TRACE_SITES = (
    (terracini, "rank_mod_p", "fieldcore.rank_mod_p"),
    (induction, "rank_mod_p", "fieldcore.rank_mod_p"),
    (grassmann, "rank_mod_p", "fieldcore.rank_mod_p"),
    (grassmann, "rank_exact", "fieldcore.rank_exact"),
    (terracini, "random_point", "grassmann.random_point"),
    (terracini, "frame_rows", "grassmann.frame_rows"),
    (grassmann, "maximal_minors_mod", "grassmann.maximal_minors_mod"),
    (terracini, "probe", "terracini.probe"),
    (induction, "probe", "terracini.probe"),
    (cli, "probe", "terracini.probe"),
    (codes, "monomial_certificate", "codes.monomial_certificate"),
    (induction, "check_prop_a", "induction.check_prop_a"),
    (induction, "check_prop_b", "induction.check_prop_b"),
    (induction, "check_prop_c", "induction.check_prop_c"),
    (induction, "chain_inequalities", "induction.chain_inequalities"),
    (cache.ResultCache, "get", "cache.get"),
    (cache.ResultCache, "put", "cache.put"),
)


def _file_size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def _count_rank(counts, args, result, _):
    rows, cols = args[0].shape
    counts["entries"] += rows * cols
    counts["rank_sum"] += result


def _count_rows(counts, args, result, _):
    counts["rows"] += result.shape[0]


def _count_trials(counts, args, result, _):
    counts["trials"] += result.trials_used


def _count_hit(counts, args, result, _):
    counts["hits"] += result is not None


def _count_bytes(counts, args, result, size_before):
    counts["bytes"] += _file_size(args[0].path) - size_before


HOOKS = {
    "fieldcore.rank_mod_p": (_count_rank, None),
    "grassmann.frame_rows": (_count_rows, None),
    "terracini.probe": (_count_trials, None),
    "codes.monomial_certificate": (_count_hit, None),
    "cache.get": (_count_hit, None),
    "cache.put": (_count_bytes, lambda args: _file_size(args[0].path)),
}


def traced_calls(tracer: Tracer):
    """Context in which every call site in TRACE_SITES records spans into `tracer`."""

    def make(layer):
        hook, before = HOOKS.get(layer, (None, None))
        return lambda original: tracer.wrap(layer, original, hook, before)

    return patched([(owner, attr, make(layer)) for owner, attr, layer in TRACE_SITES])


CORE_LAYERS = (
    "fieldcore.rank_mod_p",
    "fieldcore.rank_exact",
    "grassmann.random_point",
    "grassmann.frame_rows",
    "grassmann.maximal_minors_mod",
    "terracini.probe",
)


# ---------------------------------------------------------------------------
# Workloads.


class Workload:
    """One workload: `prepare` makes inputs once, `setup` is the repeatable set-up
    that setup_s times, `run_pass` runs and checks one timed pass."""

    name = ""
    # Layers that must record calls in a traced run; zero calls there means
    # the tracing lost a call site.
    busy_layers: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        clear_lru_caches(*PACKAGE_MODULES)
        for k, n in self.shapes():
            terracini.probe(SecantProblem(k, n, 1, seed=self.seed))

    def shapes(self):
        """(k, n) pairs whose lookup tables the set-up warms."""
        return ()

    def run_pass(self, rec: Recorder) -> float:
        raise NotImplementedError


class ThresholdProbe(Workload):
    name = "threshold-probe"
    busy_layers = CORE_LAYERS

    def shapes(self):
        return [(2, THRESHOLD_N)]

    def run_pass(self, rec: Recorder) -> float:
        t0 = time.perf_counter()
        for s, rank, verdict in THRESHOLD_PROBES:
            problem = SecantProblem(2, THRESHOLD_N, s, seed=self.seed)
            rec.run_op(
                f"probe Gr(2,{THRESHOLD_N}) s={s} seed={self.seed}",
                partial(terracini.probe, problem),
                lambda v, rank=rank, verdict=verdict: (
                    (v.achieved_rank, v.expected_rank, v.verdict.value) == (rank, rank, verdict)
                ),
                rec.op_ms,
            )
        return time.perf_counter() - t0


class InductionCert(Workload):
    """certify_theorem(50); each base-case call inside it is one timed operation."""

    name = "induction-cert"
    busy_layers = CORE_LAYERS + (
        "induction.check_prop_a",
        "induction.check_prop_b",
        "induction.check_prop_c",
        "induction.chain_inequalities",
    )
    BASE_CASE_FUNCTIONS = ("check_prop_a", "check_prop_b", "check_prop_c", "_probe_base")

    def shapes(self):
        return [(2, n) for n in range(9, 18)]

    def certificate_ok(self, cert) -> bool:
        if cert.conclusion != (9, INDUCTION_N_MAX) or len(cert.base_cases) != INDUCTION_BASE_CASES:
            return False
        a = cert.base_cases[0]
        if (a.prop, a.span_rank, a.achieved_rank) != ("a", 600, 816):
            return False
        floors = [c for c in cert.base_cases if c.prop == "b" and c.variant == "floor"]
        return len(floors) == 6 and all(c.residual == PROP_B_FLOOR_RESIDUAL[c.n % 3] for c in floors)

    def run_pass(self, rec: Recorder) -> float:
        def timed(original):
            def base_case(*args, **kwargs):
                return rec.run_op(
                    f"induction.{original.__name__}{args} seed={self.seed}",
                    partial(original, *args, **kwargs),
                    lambda check: check.passed,
                    rec.op_ms,
                )

            return base_case

        with patched([(induction, name, timed) for name in self.BASE_CASE_FUNCTIONS]):
            t0 = time.perf_counter()
            rec.run_op(
                f"certify_theorem({INDUCTION_N_MAX}) seed={self.seed}",
                partial(induction.certify_theorem, INDUCTION_N_MAX, seed=self.seed),
                self.certificate_ok,
            )
            return time.perf_counter() - t0


class SmallGrid(Workload):
    """The acceptance grid under strategy=auto, then the defective cases at three
    seeds and two primes."""

    name = "small-grid"
    busy_layers = CORE_LAYERS + ("codes.monomial_certificate",)
    GRID = tuple((k, n, s) for k in (2, 3, 4) for n in range(2 * k + 1, 15) for s in range(1, 7))

    def shapes(self):
        return sorted({(k, n) for k, n, _ in self.GRID})

    def run_pass(self, rec: Recorder) -> float:
        t0 = time.perf_counter()
        for k, n, s in self.GRID:
            rec.run_op(
                f"probe auto Gr({k},{n}) s={s} seed={self.seed}",
                partial(terracini.probe, SecantProblem(k, n, s, seed=self.seed), strategy="auto"),
                partial(probe_ok, k=k, n=n, s=s),
                rec.op_ms,
            )
        for k, n, s in DEFECTIVE:
            for seed in (self.seed, self.seed + 1, self.seed + 2):
                for prime in PRIMES:
                    rec.run_op(
                        f"probe Gr({k},{n}) s={s} p={prime} seed={seed}",
                        partial(terracini.probe, SecantProblem(k, n, s, prime=prime, seed=seed)),
                        partial(probe_ok, k=k, n=n, s=s),
                        rec.op_ms,
                    )
        return time.perf_counter() - t0


class Invocation(NamedTuple):
    exit_code: int
    stdout: bytes


class CliReplay(Workload):
    """In-process `grsecant --json` invocations against a private cache file
    padded to PAD_RECORDS valid records.

    Every pass restores the file to the same bytes, runs the cold `check`
    invocations (compute, append, load), then replays them warm together with
    three commands whose records the padded file already holds.  The pass time
    is the sum of the invocation times.
    """

    name = "cli-replay"
    busy_layers = ("cache.get", "cache.put", "cli.invoke", "terracini.probe", "fieldcore.rank_mod_p")
    PAD_RECORDS = 10_000
    COLD_CHECKS = ((2, 9, 4), (2, 10, 5), (2, 11, 6), (2, 12, 3), (3, 8, 3), (3, 9, 5))
    REPLAYS = (
        ("scan", "-k", "2", "--n-from", "9", "--n-to", "14"),
        ("conjecture-table",),
        ("induction", "--n-max", str(INDUCTION_N_MAX)),
    )

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.cache_dir = workdir / "cache"
        self.cache_file = self.cache_dir / "results.jsonl"
        self.runner = CliRunner()
        self.replay_stdout: dict[tuple, bytes] = {}
        self.records: list[str] = []
        self.file_bytes = b""

    def invoke(self, args, tracer: Tracer | None = None) -> Invocation:
        argv = ["--json", "--cache-dir", str(self.cache_dir), "--seed", str(self.seed), *map(str, args)]
        if tracer is None:
            return self._run(argv)
        return tracer.span("cli.invoke", self._run, argv)

    def _run(self, argv) -> Invocation:
        # Only exit code and bytes are kept: click's result holds a traceback
        # whose frames reach the invocation's whole cache index.
        result = self.runner.invoke(cli.main, argv)
        return Invocation(result.exit_code, result.stdout_bytes)

    def prepare(self) -> None:
        """Compute the records the warm replays read, into an empty cache."""
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.cache_file.unlink(missing_ok=True)
        for args in self.REPLAYS:
            result = self.invoke(args)
            self.replay_stdout[args] = result.stdout if result.exit_code == 0 else b""
        self.records = self.cache_file.read_text(encoding="utf-8").splitlines()

    def padding(self) -> list[str]:
        """Copies of the computed probe records under fresh keys and seeds, never looked up."""
        templates = [json.loads(line) for line in self.records]
        templates = [t for t in templates if t["record"].get("command") == "probe"]
        lines = []
        for i in range(self.PAD_RECORDS - len(self.records)):
            entry = json.loads(json.dumps(templates[i % len(templates)]))
            entry["key"] = hashlib.sha256(f"pad {self.seed} {i} {entry['key']}".encode()).hexdigest()
            entry["record"]["seed"] = 10**9 + i
            lines.append(json.dumps(entry, sort_keys=True))
        return lines

    def shapes(self):
        return [(k, n) for k, n, _ in self.COLD_CHECKS]

    def setup(self) -> None:
        super().setup()
        self.file_bytes = "".join(line + "\n" for line in self.padding() + self.records).encode()
        self.cache_file.write_bytes(self.file_bytes)

    def check_ok(self, result, k: int, n: int, s: int) -> bool:
        if result.exit_code != 0:
            return False
        r = json.loads(result.stdout)["result"]
        want = expected_dim(k, n, s)
        return r["achieved"] == r["expected"] == want and r["verdict"].startswith("Certified")

    def replay_ok(self, result, args) -> bool:
        reference = self.replay_stdout[args]
        if result.exit_code != 0 or result.stdout != reference:
            return False
        records = [json.loads(line) for line in reference.decode().splitlines()]
        if args[0] == "scan":
            return len(records) == 12 and all(
                r["result"]["verdict"].startswith("Certified") and r["result"]["achieved"] == r["result"]["expected"]
                for r in records
            )
        if args[0] == "conjecture-table":
            return len(records) == 4 and all(r["comparison"]["matches"] for r in records)
        return records[0]["result"]["conclusion"] == [9, INDUCTION_N_MAX]

    def run_pass(self, rec: Recorder) -> float:
        """Restore the cache file, then time the invocations; returns their summed time."""
        self.cache_file.write_bytes(self.file_bytes)
        busy = 0.0

        def invocation(what, args, check, samples):
            nonlocal busy
            t0 = time.perf_counter()
            result = rec.run_op(
                f"{what} grsecant {args} seed={self.seed}", partial(self.invoke, args, rec.tracer), check, samples
            )
            busy += time.perf_counter() - t0
            # click's context keeps each invocation's cache index in a reference
            # cycle; free it here as the exit of a real CLI process would.
            gc.collect()
            return result

        cold = {}
        for k, n, s in self.COLD_CHECKS:
            args = ("check", "-k", k, "-n", n, "-s", s)
            result = invocation("cold", args, partial(self.check_ok, k=k, n=n, s=s), rec.write_ms)
            cold[args] = result.stdout if result is not None and result.exit_code == 0 else None
        for args, first in cold.items():
            invocation(
                "warm",
                args,
                lambda r, first=first: first is not None and r.exit_code == 0 and r.stdout == first,
                rec.op_ms,
            )
        for args in self.REPLAYS:
            invocation("warm", args, partial(self.replay_ok, args=args), rec.op_ms)
        return busy


WORKLOADS = {w.name: w for w in (ThresholdProbe, InductionCert, SmallGrid, CliReplay)}
