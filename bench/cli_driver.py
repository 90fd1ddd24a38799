"""Traced stand-in for `python -m sternlike`, used by traced cli-cold runs.

    python bench/cli_driver.py TRACE_FILE JOB_ID ARGV...

Times `import sternlike.cli`, installs the tracer, runs `cli.main(ARGV)` in
this process inside a `cli.main` span, writes the trace to TRACE_FILE and
exits with main's exit code.  Standard output is the CLI's own.
"""

import time

_t0 = time.perf_counter()
import sternlike.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402
import sys  # noqa: E402

import tracer  # noqa: E402


def main() -> int:
    trace_file, job_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tr = tracer.install()
    tr.job = job_id
    code = tr.span("cli.main", sternlike.cli.main)(argv)
    sys.stdout.flush()
    report = tr.report()
    report["import_s"] = IMPORT_S
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
