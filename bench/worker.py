"""One workload child: a fresh interpreter that runs one repeat of a workload.

    python bench/worker.py WORKLOAD SEED START COUNT MODE

It imports `sternlike` (except on cli-cold), generates its jobs from the
seed, prints one `ready` line, runs every job, and prints one result line: per-job time and a digest
of each output, its peak RSS and, in MODE trace, the tracer's report.  MODE
setup stops once ready (a set-up time sample); MODE run is untraced.  The
harness judges the outputs; this process never decides pass or fail.  A job
that raises is recorded with its exception and the rest still run.

For cli-cold each job is a cold `python -m sternlike` subprocess (traced:
`cli_driver.py` in its place), START/COUNT select a slice of the
seeded command sequence, and peak RSS is that of the largest such child.
"""

import sys
import time

# The library is imported first, so IMPORT_S is a cold import.  The cli-cold
# client never imports it: a child's ru_maxrss starts at its parent's peak
# RSS, and the client must stay smaller than the CLI children it measures.
_t0 = time.perf_counter()
if sys.argv[1:2] != ["cli-cold"]:
    from sternlike import identities, linrep, oeis, recurrence, series, tm_oracle
IMPORT_S = time.perf_counter() - _t0

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
from inputs import digest  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CLI_TIMEOUT_S = 60


def _plain(value):
    """JSON-safe copy of report artifacts (tuples to lists, keys to str)."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _verdict(v) -> dict:
    ce = v.counterexample
    return {"holds": v.holds, "count": v.checked_count,
            "ce": list(ce) if ce is not None else None}


def run_library_job(job):
    """Call the library for one job; returns (output, seconds in the library)."""
    kind, args = job.kind, job.args
    start = time.perf_counter()
    if kind == "verify":
        name, e_max, n_max = args
        result = identities.verify(identities.catalog_entry(name), e_max, n_max)
    elif kind == "generic":
        result = [identities.verify(identities.generic_corollary(recurrence.make_spec(*spec)),
                                    *inputs.GENERIC_GRID) for spec in args]
    elif kind == "discrepancy":
        result = identities.discrepancy_report(*args)
    elif kind == "series":
        name, order, e_max = args
        result = series.check_named(name, order=order, e_max=e_max)
    elif kind == "sparse":
        spec = recurrence.preset(args[0])
        result = ([recurrence.eval_direct(spec, n) for n in args[1]],
                  [linrep.eval_fast(spec, n) for n in args[1]])
    elif kind == "bigint_fast":
        result = linrep.eval_fast(recurrence.preset(args[0]), args[1])
    elif kind == "bigint_linrep":
        result = linrep.linear_representation(recurrence.preset(args[0])).evaluate(args[1])
    elif kind == "dense":
        spec = recurrence.preset(args[0])
        values = recurrence.eval_range(spec, 0, args[1])
        text = oeis.write_bfile(spec, 0, args[1])
        table = oeis.parse_bfile(text)
        result = (values, text, table, oeis.crosscheck(spec, table))
    elif kind == "coeff_table":
        result = linrep.coeff_table(recurrence.preset(args[0]), args[1])
    elif kind == "tm_oracle":
        result = tm_oracle.verify_y_preset(*args)
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    seconds = time.perf_counter() - start
    return summarize(kind, result), seconds


def summarize(kind: str, result) -> dict:
    if kind == "verify":
        return _verdict(result)
    if kind == "generic":
        return {"verdicts": [_verdict(v) for v in result]}
    if kind == "discrepancy":
        return {"rows": [[ident.name, *_verdict(v).values()] for ident, v in result.rows],
                "text": result.text()}
    if kind == "series":
        return {"levels": [[lv.level, lv.holds, lv.first_bad_exponent] for lv in result.levels],
                "params": _plain(result.params), "artifacts": _plain(result.artifacts)}
    if kind == "sparse":
        return {"direct": digest(result[0]), "fast": digest(result[1])}
    if kind in ("bigint_fast", "bigint_linrep"):
        return {"value": digest([result])}
    if kind == "dense":
        values, text, table, report = result
        return {"values": digest(values),
                "text": hashlib.sha256(text.encode()).hexdigest(),
                "records": digest(x for record in table.records for x in record),
                "checked": report.checked, "skipped": report.skipped,
                "mismatches": len(report.mismatches)}
    if kind == "coeff_table":
        return {"A": digest(x for row in result.A for x in row),
                "B": digest(x for row in result.B for x in row),
                "rows": len(result.A)}
    if kind == "tm_oracle":
        return {"ok": result.ok, "mismatches": len(result.mismatches),
                "unsaturated": len(result.unsaturated), "prefix": result.prefix_length}
    raise ValueError(f"unknown job kind {kind!r}")


class CliRunner:
    """Runs one CLI job as a cold child; with tracing, merges each child's trace."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.trace_file = ROOT / inputs.WORK_DIR / f"cli-trace-{os.getpid()}.json"
        self.invocations = []  # per traced invocation: import_s, main self time
        self.counts, self.self_s, self.total_s, self.spans = {}, {}, {}, []

    def __call__(self, job):
        if self.trace:
            cmd = [sys.executable, str(BENCH_DIR / "cli_driver.py"), str(self.trace_file), job.id]
        else:
            cmd = [sys.executable, "-m", "sternlike"]
        start = time.perf_counter()
        proc = subprocess.run(cmd + list(job.args), cwd=ROOT, capture_output=True,
                              timeout=CLI_TIMEOUT_S)
        seconds = time.perf_counter() - start
        if self.trace:
            self._merge(json.loads(self.trace_file.read_text()))
        return {"code": proc.returncode,
                "stdout": hashlib.sha256(proc.stdout).hexdigest()}, seconds

    def _merge(self, rep):
        self.invocations.append((rep["import_s"], rep["self_s"].get("cli.main", 0.0)))
        for mine, theirs in ((self.counts, rep["counts"]), (self.self_s, rep["self_s"]),
                             (self.total_s, rep["total_s"])):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value
        self.spans.extend(rep["spans"])

    def report(self) -> dict:
        return {"counts": self.counts, "self_s": self.self_s, "total_s": self.total_s,
                "spans": self.spans, "cli_invocations": self.invocations}


def main(argv: list[str]) -> int:
    workload, seed, start, count, mode = argv[0], int(argv[1]), int(argv[2]), int(argv[3]), argv[4]
    trace = mode == "trace"
    jobs = inputs.jobs(workload, seed, start, count)
    cli = CliRunner(trace) if workload == "cli-cold" else None
    tracer = None
    if trace and cli is None:
        import tracer as tracer_module
        tracer = tracer_module.install()
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    if mode == "setup":
        jobs = []

    records = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
        try:
            out, seconds = cli(job) if cli is not None else run_library_job(job)
            records.append({"id": job.id, "t": seconds, "out": out})
        except Exception as exc:  # a failing job is a result, not a harness crash
            records.append({"id": job.id, "t": None, "error": f"{type(exc).__name__}: {exc}"})

    who = resource.RUSAGE_CHILDREN if cli is not None else resource.RUSAGE_SELF
    result = {"jobs": records, "import_s": IMPORT_S,
              "rss_mb": resource.getrusage(who).ru_maxrss / 1024}
    if cli is not None and trace:
        result["trace"] = cli.report()
        cli.trace_file.unlink(missing_ok=True)
    elif tracer is not None:
        result["trace"] = tracer.report()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
