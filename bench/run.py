"""Benchmark harness for sternlike: end-to-end metrics, or per-layer metrics traced.

    python3 bench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Closed loop, one client.  Every repeat runs in a fresh interpreter
(`worker.py`) with a fixed environment, because the package's process-global
caches are part of what a user pays for on each run; one untimed warm-up
first writes the .pyc files.  Repeats run until `--seconds` is used up, at
least MIN_REPEATS of them (cli-cold: batches of CLI_BATCH invocations, at
least CLI_MIN_INVOCATIONS in all).  `--trace 1` runs the same jobs once plain
and once traced (`tracer.py`) and reports per-layer metrics.

Every job output is judged by `checks.py`; a wrong or missing output counts
as a failed job and never stops the harness.  The last stdout line is the
result object; the line before it holds the run metadata.  README.md defines
each workload and metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402

MIN_REPEATS = 3
SETUP_SAMPLES = 9
CLI_BATCH = 20
CLI_MIN_INVOCATIONS = 100
INTERPRETER_SAMPLES = 9
RUN_BUDGET_S = 170  # every run must end well inside 180 s
ENV = {
    "PATH": os.defpath,
    "PYTHONPATH": str(ROOT / "src"),
    "PYTHONHASHSEED": "0",
    "PYTHONIOENCODING": "utf-8",
}

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "latency_p50_s", "latency_p90_s", "ok_rate")
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "latency_p50_s": "s",
         "latency_p90_s": "s", "ok_rate": "ratio"}


class Repeat:
    """One worker process: its jobs, their records, and its timings."""

    def __init__(self, jobs, records, spawn_to_ready, result, problem):
        self.jobs = jobs
        self.records = records
        self.setup_s = spawn_to_ready
        self.result = result or {}
        self.problem = problem

    @property
    def ok(self) -> bool:
        return self.problem is None

    @property
    def wall_s(self) -> float:
        return sum(r["t"] for r in self.records.values() if r.get("t") is not None)


def run_worker(workload: str, seed: int, start: int, count: int, mode: str,
               deadline: float) -> Repeat:
    """Spawn one worker; mode is "run", "trace" or "setup" (stop once ready)."""
    jobs = [] if mode == "setup" else inputs.jobs(workload, seed, start, count)
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(start),
           str(count), mode]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - spawned, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Repeat(jobs, {}, None, None, "worker timed out")
    lines = out.splitlines()
    try:
        ready = json.loads(lines[0])["ready"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        tail = err.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return Repeat(jobs, {}, None, None, f"worker failed: {tail[0]}")
    records = {r["id"]: r for r in result["jobs"]}
    return Repeat(jobs, records, ready - spawned, result, None)


def judge(repeats: list[Repeat]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    reasons = []
    for rep in repeats:
        for job in rep.jobs:
            attempted += 1
            reason = checks.judge(job, rep.records.get(job.id))
            if reason is not None:
                failed += 1
                reasons.append(f"{job.id}: {reason}")
    return attempted, failed, reasons


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def timed_run(workload: str, seed: int, seconds: int, deadline: float) -> list[Repeat]:
    cli = workload == "cli-cold"
    min_repeats = CLI_MIN_INVOCATIONS // CLI_BATCH if cli else MIN_REPEATS
    start = time.monotonic()
    repeats = []
    while True:
        before = time.monotonic()
        repeats.append(run_worker(workload, seed, len(repeats) * CLI_BATCH,
                                  CLI_BATCH if cli else 0, "run", deadline))
        now = time.monotonic()
        last = now - before
        if now + last > deadline or not repeats[-1].ok:
            break
        if len(repeats) >= min_repeats and now - start + last / 2 >= seconds:
            break
    return repeats


def setup_times(workload: str, seed: int, repeats: list[Repeat], deadline: float) -> list[float]:
    """The repeats' set-up times, topped up to SETUP_SAMPLES by set-up-only workers."""
    setups = [rep.setup_s for rep in repeats if rep.ok]
    while len(setups) < SETUP_SAMPLES and time.monotonic() < deadline:
        probe = run_worker(workload, seed, 0, CLI_BATCH if workload == "cli-cold" else 0,
                           "setup", deadline)
        if not probe.ok:
            break
        setups.append(probe.setup_s)
    return setups


def end_to_end(repeats: list[Repeat], setups: list[float], attempted: int, failed: int) -> dict:
    good = [rep for rep in repeats if rep.ok]
    latencies = [r["t"] for rep in good for r in rep.records.values() if r.get("t") is not None]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rep.wall_s for rep in good),
        "peak_rss_mb": statistics.median(rep.result["rss_mb"] for rep in good),
        "latency_p50_s": nearest_rank(latencies, 0.5),
        "latency_p90_s": nearest_rank(latencies, 0.9),
        "ok_rate": (attempted - failed) / attempted,
    }
    return {name: {"value": values[name], "unit": UNITS[name]} for name in END_TO_END}


def interpreter_baseline() -> float:
    samples = []
    for _ in range(INTERPRETER_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=ENV, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def per_layer(trace: dict, import_s: float, interpreter_s: float, overhead: float) -> dict:
    counts, self_s, total_s = trace["counts"], trace["self_s"], trace["total_s"]
    c = lambda key: counts.get(key, 0)  # noqa: E731
    s = lambda key: self_s.get(key, 0.0)  # noqa: E731
    instances = c("identities.instances")
    verify_total = total_s.get("identities.verify", 0.0)
    invocations = trace.get("cli_invocations", [])
    values = {
        "identities.verify_s": (s("identities.verify"), "s"),
        "identities.instances": (instances, "count"),
        "identities.instances_per_s": (instances / verify_total if verify_total else 0.0, "1/s"),
        "identities.term_lookups": (c("identities.term_lookups"), "count"),
        "identities.coeff_lookups": (c("identities.coeff_lookups"), "count"),
        "identities.term_lookups_per_instance": (
            c("identities.term_lookups") / instances if instances else 0.0, "ratio"),
        "recurrence.term_calls": (c("recurrence.term"), "count"),
        "recurrence.eval_direct_calls": (c("recurrence.eval_direct"), "count"),
        "recurrence.eval_direct_s": (s("recurrence.eval_direct"), "s"),
        "recurrence.eval_range_s": (s("recurrence.eval_range"), "s"),
        "recurrence.eval_range_terms": (c("recurrence.eval_range_terms"), "count"),
        "linrep.eval_fast_calls": (c("linrep.eval_fast"), "count"),
        "linrep.eval_fast_s": (s("linrep.eval_fast"), "s"),
        "linrep.eval_fast_bits": (c("linrep.eval_fast_bits"), "count"),
        "linrep.evaluate_s": (s("linrep.evaluate"), "s"),
        "linrep.coeff_table_s": (s("linrep.coeff_table"), "s"),
        "linrep.coeff_at_calls": (c("linrep.coeff_at"), "count"),
        "linrep.coeff_at_s": (s("linrep.coeff_at"), "s"),
        "series.mul_calls": (c("series.mul"), "count"),
        "series.mul_s": (s("series.mul"), "s"),
        "series.mul_coeffs_out": (c("series.mul_coeffs_out"), "count"),
        "series.mul_pairs": (c("series.mul_pairs"), "count"),
        "series.divide_calls": (c("series.divide"), "count"),
        "series.divide_s": (s("series.divide"), "s"),
        "series.divide_coeffs_out": (c("series.divide_coeffs_out"), "count"),
        "series.sequence_series_s": (s("series.sequence_series"), "s"),
        "series.first_mismatch_s": (s("series.first_mismatch"), "s"),
        **{f"series.check.{name}_s": (s(f"series.check.{name}"), "s") for name in inputs.SERIES_NAMES},
        "oeis.write_bfile_s": (s("oeis.write_bfile"), "s"),
        "oeis.write_bfile_bytes": (c("oeis.write_bfile_bytes"), "count"),
        "oeis.parse_bfile_s": (s("oeis.parse_bfile"), "s"),
        "oeis.parse_bfile_records": (c("oeis.parse_bfile_records"), "count"),
        "oeis.crosscheck_s": (s("oeis.crosscheck"), "s"),
        "tm_oracle.prefix_s": (s("tm_oracle.prefix"), "s"),
        "tm_oracle.factor_complexity_s": (s("tm_oracle.factor_complexity"), "s"),
        "tm_oracle.windows": (c("tm_oracle.windows"), "count"),
        "cli.interpreter_s": (interpreter_s, "s"),
        "cli.import_s": (statistics.median(i for i, _ in invocations) if invocations
                         else import_s, "s"),
        "cli.main_s": (statistics.median(m for _, m in invocations) if invocations else 0.0, "s"),
        "trace.overhead_factor": (overhead, "x"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def traced_run(workload: str, seed: int, deadline: float) -> tuple[list[Repeat], dict]:
    count = CLI_MIN_INVOCATIONS if workload == "cli-cold" else 0
    plain = run_worker(workload, seed, 0, count, "run", deadline)
    if not plain.ok:
        return [plain], {}
    traced = run_worker(workload, seed, 0, count, "trace", deadline)
    if not traced.ok:
        return [plain, traced], {}
    trace = traced.result["trace"]
    spans_file = ROOT / inputs.WORK_DIR / f"spans-{workload}-seed{seed}.json"
    spans_file.write_text(json.dumps(trace))
    metrics = per_layer(trace, plain.result["import_s"], interpreter_baseline(),
                        traced.wall_s / plain.wall_s)
    return [plain, traced], metrics


def metadata(args, repeats: list[Repeat], reasons: list[str]) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "platform": platform.platform(), "nproc": os.cpu_count(), "git_sha": sha,
            "src_lines": src_lines, "repeats": len(repeats),
            "repeat_wall_s": [rep.wall_s for rep in repeats if rep.ok],
            "invocations": sum(len(rep.jobs) for rep in repeats)
            if args.workload == "cli-cold" else len(repeats),
            "failures": reasons[:20]}


def prepare() -> None:
    """Write the CLI jobs' b-files and warm the bytecode caches, untimed."""
    if not (ROOT / "src" / "sternlike" / "__init__.py").is_file():
        sys.exit(f"error: no sternlike package under {ROOT / 'src'}")
    for rel, text in checks.bfiles().items():
        path = ROOT / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    for cmd, cwd in (([sys.executable, "-m", "sternlike", "catalog"], ROOT),
                     ([sys.executable, "-c", "import inputs, tracer"], BENCH)):
        proc = subprocess.run(cmd, cwd=cwd, env=ENV, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"error: warm-up {' '.join(cmd[1:])} failed:\n{proc.stderr}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_BUDGET_S
    prepare()
    if args.trace:
        repeats, metrics = traced_run(args.workload, args.seed, deadline)
    else:
        repeats = timed_run(args.workload, args.seed, args.seconds, deadline)
        setups = setup_times(args.workload, args.seed, repeats, deadline)
        metrics = {}
    if not any(rep.ok for rep in repeats) or (args.trace and not metrics):
        print(f"error: {args.workload}: " + "; ".join(
            rep.problem for rep in repeats if rep.problem), file=sys.stderr)
        return 1
    attempted, failed, reasons = judge(repeats)
    if not args.trace:
        metrics = end_to_end(repeats, setups, attempted, failed)
    for reason in reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({"meta": metadata(args, repeats, reasons)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
