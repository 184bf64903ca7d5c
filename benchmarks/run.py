"""grsecant benchmark: time to verdict on one workload, or a traced per-layer run.

Run from the repository root:

    python3 benchmarks/run.py --workload threshold-probe --seed 1 --seconds 20 --trace 0

The package is imported from ./src.  The last line of standard output is one
JSON object {correct, attempted, failed, metrics}; with --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.
The lines before it repeat every metric with its unit, the environment, the
sample counts and the failure fraction.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

from harness import Recorder, Tracer, environment, mean, median, peak_rss_mb, percentile, tail_level

# BLAS/OpenMP threads, pinned before numpy is imported; no larger than nproc
# on any machine, and the same on every machine.
BLAS_THREADS = 1
SETUP_REPEATS = 5
MIN_PASSES = 2
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []


def next_cpu(i: int) -> None:
    """Pin the process to the i-th allowed CPU, round robin.

    Each vCPU of a shared host slows down by up to 1.8x for seconds at a time,
    independently of the others, and the scheduler leaves a lone busy process
    on one of them.  Moving the process between passes makes a run sample the
    speed of every allowed CPU instead of whichever one it started on.
    """
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})


def measure(workload, rec: Recorder, deadline: float, min_passes: int) -> list[float]:
    """Timed passes until the next one would end after `deadline`."""
    passes = []
    while True:
        next_cpu(len(passes))
        t0 = time.perf_counter()
        passes.append(workload.run_pass(rec))
        wall = time.perf_counter() - t0
        if len(passes) >= min_passes and time.perf_counter() + wall > deadline:
            return passes


def end_to_end(setup_s: float, passes: list[float], rec: Recorder) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "solve_s": mean(passes),
        "op_ms_mean": mean(rec.op_ms),
        "op_ms_p90": percentile(rec.op_ms, 90),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tracer: Tracer, traced: list[float], untraced: list[float], write_ms: list[float]) -> dict[str, float]:
    """Layer totals per traced pass."""
    n = len(traced)
    m: dict[str, float] = {}
    for layer in (
        "fieldcore.rank_mod_p",
        "fieldcore.rank_exact",
        "grassmann.random_point",
        "grassmann.frame_rows",
        "grassmann.maximal_minors_mod",
        "terracini.probe",
        "codes.monomial_certificate",
        "cache.get",
        "cache.put",
    ):
        m[f"{layer}.calls"] = tracer.calls(layer) / n
        m[f"{layer}.busy_s"] = tracer.busy(layer) / n
    for layer in ("check_prop_a", "check_prop_b", "check_prop_c", "chain_inequalities"):
        m[f"induction.{layer}.busy_s"] = tracer.busy(f"induction.{layer}") / n
    counts = tracer.counts
    rank = counts["fieldcore.rank_mod_p"]
    m["fieldcore.rank_mod_p.entries"] = rank["entries"] / n
    m["fieldcore.rank_mod_p.rank_sum"] = rank["rank_sum"] / n
    m["fieldcore.rank_mod_p.share"] = tracer.busy("fieldcore.rank_mod_p") / sum(traced)
    m["grassmann.frame_rows.rows"] = counts["grassmann.frame_rows"]["rows"] / n
    probes = tracer.calls("terracini.probe")
    m["terracini.probe.self_s"] = tracer.self_time("terracini.probe") / n
    m["terracini.probe.trials_per_probe"] = counts["terracini.probe"]["trials"] / probes if probes else 0.0
    certs = tracer.calls("codes.monomial_certificate")
    m["codes.monomial_certificate.hit_ratio"] = counts["codes.monomial_certificate"]["hits"] / certs if certs else 0.0
    m["cache.get.hits"] = counts["cache.get"]["hits"] / n
    m["cache.put.bytes"] = counts["cache.put"]["bytes"] / n
    m["cli.invoke.self_s"] = tracer.self_time("cli.invoke") / n
    m["cli.write_ms_p50"] = median(write_ms) if write_ms else 0.0
    m["trace.solve_s"] = mean(traced)
    m["trace.overhead_s"] = mean(traced) - mean(untraced)
    return m


def import_program(root: Path) -> float:
    """Import grsecant from ./src and return the seconds the imports took."""
    src = root / "src"
    if not (src / "grsecant" / "__init__.py").is_file():
        raise SystemExit(f"error: no grsecant sources under {src}; run from the repository root")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # Every cache the benchmark touches is a private directory passed explicitly.
    os.environ.pop("GRSECANT_CACHE_DIR", None)
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import grsecant.cli

    import_s = time.perf_counter() - t0
    if Path(grsecant.cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"error: grsecant imported from {grsecant.cli.__file__}, not from {src}")
    return import_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    spec_file = root / "BENCHMARK.json"
    if not spec_file.is_file():
        raise SystemExit("error: BENCHMARK.json not found; run from the repository root")
    spec = json.loads(spec_file.read_text())
    import_s = import_program(root)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workdir = root / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        setups = []
        for i in range(SETUP_REPEATS):
            next_cpu(i)
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + median(setups)

        start = time.perf_counter()
        rec = Recorder()
        if args.trace:
            untraced = measure(workload, rec, start + args.seconds / 2, 1)
            write_ms = list(rec.write_ms)
            rec.tracer = Tracer()
            with workloads.traced_calls(rec.tracer):
                traced = measure(workload, rec, start + args.seconds, 1)
            idle = [layer for layer in workload.busy_layers if rec.tracer.calls(layer) == 0]
            if idle:
                raise SystemExit(f"error: traced run recorded no calls into {idle}; a call site was missed")
            metrics = per_layer(rec.tracer, traced, untraced, write_ms)
            declared = spec["per_layer"]
            passes = untraced + traced
        else:
            passes = measure(workload, rec, start + args.seconds, MIN_PASSES)
            metrics = end_to_end(setup_s, passes, rec)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only if no other run is using it

    if set(metrics) != {d["name"] for d in declared}:
        raise SystemExit(f"error: emitted metrics {sorted(metrics)} differ from BENCHMARK.json")
    env = environment(BLAS_THREADS) | {"rotated_cpus": CPUS}
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes, "
        f"{rec.attempted} operations checked, failed_frac {rec.failed}/{rec.attempted} = {rec.failed_frac}"
    )
    for samples, label in ((rec.op_ms, "op_ms"), (rec.write_ms, "write_ms")):
        if not samples:
            continue
        level = tail_level(len(samples))
        tail = (
            f"p{level:g} {percentile(samples, level):.3f} ms (>= 10 samples beyond)"
            if level is not None
            else "no tail percentile has 10 samples beyond it"
        )
        print(f"{label}: n={len(samples)} p50 {median(samples):.3f} ms, {tail}")
    result_metrics = {}
    for d in declared:
        value = float(metrics[d["name"]])
        print(f"{d['name']} = {value:.6g} {d['unit']}")
        result_metrics[d["name"]] = {"value": value, "unit": d["unit"]}
    print(
        json.dumps(
            {
                "correct": rec.failed == 0,
                "attempted": rec.attempted,
                "failed": rec.failed,
                "metrics": result_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
