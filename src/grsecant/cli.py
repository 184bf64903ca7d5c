"""Command-line surface: probes, reports, certificates, classification.

Every record is built by `_record` and printed by `_emit`.  Every
probabilistic command funnels through cached probe records keyed by
(command, parameters, prime, seed, version); identical invocations replay
byte-identical results.  Exit codes: 0 = pass, 1 = a checked assertion
failed, 2 = usage error.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import click

from . import __version__, induction
from .cache import ResultCache, cache_key
from .codes import MAX_LEXICODE_SUPPORTS, graham_sloane_bounds, lexicode_greedy, lexicode_supports
from .extalg import parse_tensor
from .fieldcore import DEFAULT_PRIME, KERNEL, validate_prime
from .gr26 import classify, demo_gr28, demo_gr37, figure1_table, five_term_identity
from .terracini import (
    DEFAULT_TRIALS,
    CertificateUnavailable,
    SecantProblem,
    Verdict,
    monotone_extend,
    probe,
    replays,
)

CONJECTURE_ROWS = (
    # (label, k, n, s, known actual codim, known expected codim)
    ("sigma_3 Gr(2,6)", 2, 6, 3, 1, 0),
    ("sigma_3 Gr(3,7)", 3, 7, 3, 20, 19),
    ("sigma_4 Gr(3,7)", 3, 7, 4, 6, 2),
    ("sigma_4 Gr(2,8)", 2, 8, 4, 10, 8),
)


@dataclass
class RunConfig:
    primes: list[int]
    seed: int
    trials: int
    as_json: bool
    cache: ResultCache
    read_cache: bool


pass_config = click.make_pass_decorator(RunConfig)


def _record(command: str, parameters: dict, result: dict | None = None, **fields) -> dict:
    """A command's JSON record; `fields` adds `prime` and `seed` where they apply.

    Without a result it is the payload a cached record is keyed by.
    """
    record = {"command": command, "parameters": parameters, "version": __version__, **fields}
    if result is not None:
        record["result"] = result
    return record


def _emit(config: RunConfig, record: dict, *lines: str):
    """Print the record as one JSON line, or else the text lines."""
    click.echo(json.dumps(record, sort_keys=True) if config.as_json else "\n".join(lines))


def _run_cached(config: RunConfig, command: str, parameters: dict, prime: int, compute, check):
    """Replay a cached record that passes `check`, or compute and return it.

    A cached record is sound only if its envelope (command, parameters,
    prime, seed, version) is the payload its key hashes and `check` accepts
    it.  A computed record is appended only when the cache has no sound
    line for its key: with --no-cache the first sound line would still win
    every later replay, so a second line could never be read.
    """
    payload = _record(command, parameters, prime=prime, seed=config.seed)
    # The kernel tag is hashed but not stored: a record computed by another
    # elimination kernel is never replayed.
    key = cache_key(dict(payload, kernel=KERNEL))

    def sound(record: dict) -> bool:
        envelope = {field: record.get(field) for field in payload}
        return cache_key(dict(envelope, kernel=KERNEL)) == key and check(record)

    hit = config.cache.get(key, sound)
    if hit is not None and config.read_cache:
        return hit
    t0 = time.perf_counter()
    result = compute()
    record = dict(payload, result=result, elapsed_ms=int((time.perf_counter() - t0) * 1000))
    if hit is None:
        config.cache.put(key, record)
    return record


def _problem(config: RunConfig, k: int, n: int, s: int, prime: int) -> SecantProblem:
    """The probe problem asked for; a problem SecantProblem refuses, such as one too large, is a usage error."""
    try:
        return SecantProblem(k=k, n=n, s=s, prime=prime, seed=config.seed, trials=config.trials)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _formula_bound(option: str, n: int):
    """Refuse an n above induction.MAX_FORMULA_N as a usage error, before any work starts."""
    if n > induction.MAX_FORMULA_N:
        raise click.UsageError(f"{option} {n} too large: above MAX_FORMULA_N = {induction.MAX_FORMULA_N}")


def _probe_record(config: RunConfig, problem: SecantProblem, strategy: str) -> dict:
    parameters = {"k": problem.k, "n": problem.n, "s": problem.s, "strategy": strategy, "trials": config.trials}
    return _run_cached(
        config,
        "probe",
        parameters,
        problem.prime,
        lambda: probe(problem, strategy=strategy).to_record(),
        lambda record: replays(problem, record.get("result")),
    )


@click.group()
@click.option("--prime", type=int, default=DEFAULT_PRIME, show_default=True, help="Field characteristic.")
@click.option("--second-prime", type=int, default=None, help="Re-run verdicts at a second prime.")
@click.option("--seed", type=int, default=0, show_default=True, help="Base seed for random points.")
@click.option("--trials", type=int, default=DEFAULT_TRIALS, show_default=True, help="Retry budget per probe.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON records instead of text.")
@click.option("--no-cache", is_flag=True, help="Recompute even if a cached record exists.")
@click.option("--cache-dir", type=click.Path(path_type=Path), default=None, help="Cache directory.")
@click.version_option(__version__)
@click.pass_context
def main(ctx, prime, second_prime, seed, trials, as_json, no_cache, cache_dir):
    """Exact secant-dimension probes for Grassmannians over GF(p)."""
    try:
        validate_prime(prime)
        if second_prime is not None:
            validate_prime(second_prime)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if trials < 1:
        raise click.UsageError("--trials must be at least 1")
    cache = ResultCache(cache_dir)
    # The nearest existing ancestor of the directory is the one mkdir meets.
    existing = next(d for d in (cache.directory, *cache.directory.parents) if d.exists())
    if not existing.is_dir():
        raise click.UsageError(f"cache directory: {existing} is not a directory")
    if cache.path.is_dir():
        raise click.UsageError(f"cache file {cache.path} is a directory")
    primes = [prime] + ([second_prime] if second_prime is not None else [])
    ctx.obj = RunConfig(
        primes=primes,
        seed=seed,
        trials=trials,
        as_json=as_json,
        cache=cache,
        read_cache=not no_cache,
    )


@main.command()
@click.option("-k", type=int, required=True)
@click.option("-n", type=int, required=True)
@click.option("-s", type=int, required=True)
@click.option("--strategy", type=click.Choice(["random", "monomial", "auto"]), default="auto", show_default=True)
@pass_config
def check(config: RunConfig, k: int, n: int, s: int, strategy: str):
    """Probe the dimension of the s-secant variety of Gr(k,n)."""
    if k < 1 or n <= k or s < 1:
        raise click.UsageError(f"need k >= 1, n > k, s >= 1; got k={k}, n={n}, s={s}")
    try:
        for prime in config.primes:
            record = _probe_record(config, _problem(config, k, n, s, prime), strategy)
            r = record["result"]
            human = (
                f"Gr({k},{n}) s={s} p={prime}: {r['verdict']} "
                f"achieved {r['achieved']} / expected {r['expected']} (ambient {r['ambient']})"
            )
            _emit(config, record, human)
    except CertificateUnavailable as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


@main.command("conjecture-table")
@pass_config
def conjecture_table(config: RunConfig):
    """Reproduce the four known defective cases and compare with the table."""
    failures = 0
    header = f"{'case':18s} {'prime':>6s} {'achieved':>8s} {'expected':>8s} {'ambient':>7s} {'codim':>11s} {'known':>11s}"
    if not config.as_json:
        click.echo(header)
    for label, k, n, s, known_actual, known_expected in CONJECTURE_ROWS:
        for prime in config.primes:
            record = _probe_record(config, _problem(config, k, n, s, prime), "random")
            r = record["result"]
            actual_codim = r["ambient"] - r["achieved"]
            expected_codim = r["ambient"] - r["expected"]
            ok = actual_codim == known_actual and expected_codim == known_expected
            failures += 0 if ok else 1
            comparison = {
                "case": label,
                "actual_codim": actual_codim,
                "expected_codim": expected_codim,
                "known_actual_codim": known_actual,
                "known_expected_codim": known_expected,
                "matches": ok,
            }
            human = (
                f"{label:18s} {prime:6d} {r['achieved']:8d} {r['expected']:8d} {r['ambient']:7d} "
                f"{actual_codim:5d}/{expected_codim:<5d} {known_actual:5d}/{known_expected:<5d}"
                + ("" if ok else "  MISMATCH")
            )
            _emit(config, dict(record, comparison=comparison), human)
    if failures:
        sys.exit(1)


@main.command()
@click.option("-k", type=int, required=True)
@click.option("--n-from", type=int, required=True)
@click.option("--n-to", type=int, required=True)
@click.option("--s-from", type=int, default=None)
@click.option("--s-to", type=int, default=None)
@pass_config
def scan(config: RunConfig, k: int, n_from: int, n_to: int, s_from: int | None, s_to: int | None):
    """Probe a range of n; defaults to s1(n)/s2(n) thresholds for k=2."""
    if n_from > n_to or k < 1 or n_from <= k:
        raise click.UsageError("bad range")
    explicit = s_from is not None or s_to is not None
    if explicit and (s_from is None or s_to is None or s_from > s_to or s_from < 1):
        raise click.UsageError("--s-from and --s-to must both be given, with s-from <= s-to")
    if not explicit and (k != 2 or n_from < 9):
        raise click.UsageError("default thresholds exist only for k=2 and n >= 9; give --s-from/--s-to")
    # A probe's size grows with n and s, so if the last problem fits, all do.
    _problem(config, k, n_to, s_to if explicit else max(induction.s1(n_to), induction.s2(n_to)), config.primes[0])
    for n in range(n_from, n_to + 1):
        svals = range(s_from, s_to + 1) if explicit else sorted({induction.s1(n), induction.s2(n)})
        for s in svals:
            for prime in config.primes:
                record = _probe_record(config, _problem(config, k, n, s, prime), "auto")
                r = record["result"]
                verdict = Verdict(r["verdict"])
                note = ""
                if verdict.is_certified():
                    rng = monotone_extend(verdict, s)
                    upper = "inf" if rng.s_max is None else rng.s_max
                    note = f"  [implies {rng.verdict.value} for s in [{rng.s_min}, {upper}]]"
                human = (
                    f"Gr({k},{n}) s={s} p={prime}: {r['verdict']} "
                    f"({r['achieved']}/{r['expected']}, ambient {r['ambient']}){note}"
                )
                _emit(config, record, human)


@main.command("induction")
@click.option("--n-max", type=int, required=True)
@pass_config
def induction_cmd(config: RunConfig, n_max: int):
    """Certify the two-threshold theorem for 9 <= n <= n_max."""
    if n_max < 14:
        raise click.UsageError("--n-max must be at least 14")
    _formula_bound("--n-max", n_max)
    exit_code = 0
    for prime in config.primes:
        def compute():
            cert = induction.certify_theorem(n_max, prime, config.seed, config.trials)
            return cert.to_record()

        record = _run_cached(
            config,
            "induction",
            {"n_max": n_max, "trials": config.trials},
            prime,
            compute,
            lambda record: induction.replays(n_max, prime, config.seed, record.get("result")),
        )
        result = record["result"]
        lines = []
        for case in result["base_cases"]:
            status = "pass" if case["passed"] else "FAIL"
            name = f"prop {case['prop']}" if case["prop"] != "probe" else f"probe {case['variant']}"
            lines.append(f"  {status}  {name:12s} n={case['n']:3d} achieved {case['achieved']} / {case['target']}")
        bad_chain = [c["n"] for c in result["chain"] if not c["ok"]]
        lines.append(f"  chain inequalities 15..{n_max}: {'all hold' if not bad_chain else f'FAIL at {bad_chain}'}")
        conclusion = result["conclusion"]
        lines.append(
            f"p={prime}: " + (f"certified for n in [{conclusion[0]}, {conclusion[1]}]" if conclusion else "NOT certified")
        )
        _emit(config, record, *lines)
        if not conclusion:
            exit_code = 1
    sys.exit(exit_code)


@main.command("classify")
@click.argument("tensor_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@pass_config
def classify_cmd(config: RunConfig, tensor_file: Path):
    """Classify a degree-3 tensor in dimension 7 from a tensor text file."""
    try:
        omega = parse_tensor(tensor_file.read_text())
        report = classify(omega, config.primes[0])
    except ValueError as exc:
        raise click.UsageError(f"{tensor_file}: {exc}")
    r = report.to_record()
    record = _record("classify", {"file": tensor_file.name}, r, prime=config.primes[0])
    human = (
        f"rank {r['rank']}: "
        f"grassmannian={r['in_grassmannian']} sigma2={r['in_sigma2']} sigma3={r['in_sigma3']}, "
        f"invariant {r['invariant_exact']} ({r['invariant_mod_p']} mod {r['prime']})"
    )
    _emit(config, record, human)


@main.command("invariant")
@click.argument("a135", type=int)
@click.argument("a147", type=int)
@click.argument("a126", type=int)
@click.argument("a234", type=int)
@click.argument("a567", type=int)
@pass_config
def invariant_cmd(config: RunConfig, a135: int, a147: int, a126: int, a234: int, a567: int):
    """Check the determinant identity on the five-parameter family."""
    det, predicted = five_term_identity(a135, a147, a126, a234, a567)
    ok = det == predicted
    record = _record(
        "invariant",
        {"a135": a135, "a147": a147, "a126": a126, "a234": a234, "a567": a567},
        {"det": det, "predicted": predicted, "matches": ok},
    )
    _emit(config, record, f"det {det}, predicted {predicted}: {'match' if ok else 'MISMATCH'}")
    if not ok:
        sys.exit(1)


@main.command("codes")
@click.option("-n", "length", type=int, required=True, help="Code length.")
@click.option("-w", "weight", type=int, required=True, help="Constant weight.")
@click.option("-d", "distance", type=int, default=6, show_default=True, help="Minimum distance (even).")
@pass_config
def codes_cmd(config: RunConfig, length: int, weight: int, distance: int):
    """Greedy constant-weight code and the classical lower bounds."""
    if not 1 <= weight <= length:
        raise click.UsageError("need 1 <= w <= n")
    if distance % 2 != 0 or distance < 2:
        raise click.UsageError("distance must be a positive even integer")
    if lexicode_supports(length, weight) > MAX_LEXICODE_SUPPORTS:
        raise click.UsageError(
            f"C({length}, {weight}) supports exceed MAX_LEXICODE_SUPPORTS = {MAX_LEXICODE_SUPPORTS}; "
            "the greedy scan would not finish in bounded time"
        )
    code = lexicode_greedy(length, weight, distance)
    result: dict = {"length": length, "weight": weight, "distance": distance, "size": len(code),
                    "words": [list(w) for w in code.words]}
    lines = []
    if distance == 6:
        gs = graham_sloane_bounds(length, weight)
        result["graham_sloane"] = {"a": gs.bound_a, "q_a": gs.q_a, "b": gs.bound_b, "q_b": gs.q_b, "c": gs.bound_c}
        lines.append(f"lower bounds: {gs.bound_a} (q={gs.q_a}), {gs.bound_b} (q={gs.q_b}), {gs.bound_c}")
    lines.append(f"greedy code size {len(code)}:")
    lines.extend(" ".join(str(i) for i in w) for w in code.words)
    _emit(config, _record("codes", {"n": length, "w": weight, "d": distance}, result), *lines)


@main.command("demo")
@click.argument("which", type=click.Choice(["gr37", "gr28", "figure1"]))
@pass_config
def demo_cmd(config: RunConfig, which: str):
    """Run a geometric demonstration and verify its expected ranks."""
    prime = config.primes[0]
    if which == "figure1":
        rows = figure1_table(seed=config.seed)
        passed = all(r.matches for r in rows)
        result = {
            "rows": [
                {"label": r.label, "rank": r.rank, "expected": r.expected_rank, "matches": r.matches}
                for r in rows
            ],
            "passed": passed,
        }
        lines = [f"  {r.label:22s} rank {r.rank:2d} (expected {r.expected_rank:2d})" for r in rows]
        _emit(config, _record("demo", {"which": which}, result), *lines, "pass" if passed else "FAIL")
        sys.exit(0 if passed else 1)
    try:
        report = demo_gr37(prime) if which == "gr37" else demo_gr28(prime)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(
        config,
        _record("demo", {"which": which}, report.to_record(), prime=prime),
        f"{which}: affine tangent-span rank {report.achieved_rank} "
        f"(expected dimension {report.expected_rank}, ambient {report.ambient})",
        *(f"  {c}" for c in report.curve_checks),
        "pass" if report.passed else "FAIL",
    )
    sys.exit(0 if report.passed else 1)


@main.command("formulas")
@click.option("--n-from", type=int, default=9, show_default=True)
@click.option("--n-to", type=int, default=30, show_default=True)
@pass_config
def formulas_cmd(config: RunConfig, n_from: int, n_to: int):
    """Print the counting formulas and bounds over a range of n."""
    if n_from < 9 or n_from > n_to:
        raise click.UsageError("need 9 <= n-from <= n-to")
    _formula_bound("--n-to", n_to)
    rows = []
    for n in range(n_from, n_to + 1):
        lower, upper = induction.bounds(n, 2)
        rows.append(
            {"n": n, "f1": induction.f1(n), "f2": induction.f2(n), "s1": induction.s1(n),
             "s2": induction.s2(n), "generic_lower": lower, "ehrenborg_upper": float(upper)}
        )
    mismatches = induction.closed_form_mismatches(n_from, n_to)
    record = _record(
        "formulas", {"n_from": n_from, "n_to": n_to}, {"rows": rows, "one_floor_form_mismatches": mismatches}
    )
    _emit(
        config,
        record,
        f"{'n':>4s} {'f1':>5s} {'f2':>5s} {'s1':>5s} {'s2':>5s} {'lower':>6s} {'upper':>8s}",
        *(
            f"{r['n']:4d} {r['f1']:5d} {r['f2']:5d} {r['s1']:5d} {r['s2']:5d} "
            f"{r['generic_lower']:6d} {r['ehrenborg_upper']:8.2f}"
            for r in rows
        ),
        f"one-floor closed-form disagreements in range: {len(mismatches)}",
    )


if __name__ == "__main__":
    main()
