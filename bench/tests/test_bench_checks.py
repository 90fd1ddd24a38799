"""Tests of the benchmark's own judging: wrong outputs must become failed jobs.

    python3 -m pytest bench/tests
"""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402

# A002487 and the twisted variant, as published.
STERN = [0, 1, 1, 2, 1, 3, 2, 3, 1, 4, 3, 5, 2, 5, 3, 4, 1]
TWISTED = [0, 1, -1, 0, 1, 1, 0, -1, -1, -2, -1, -1, 0, 1, 1, 2]


def _repeat(job, out):
    record = {"id": job.id, "t": 0.1, "out": out}
    return run.Repeat([job], {job.id: record}, 0.1, {"jobs": [record]}, None)


def _grid_job(name="prop1"):
    return next(job for job in inputs.jobs("grid", 1) if job.id.startswith(f"verify:{name}:"))


def _cli_job(kind, seed=1):
    return next(job for job in inputs.jobs("cli-cold", seed, 0, 48) if job.kind == kind)


def _cli_out(job, code=None, stdout=None):
    want_code, want_stdout = checks.expected_cli(job.kind, job.args)
    sha = (checks.CATALOG_STDOUT_SHA if want_stdout is None
           else hashlib.sha256(want_stdout.encode()).hexdigest())
    return {"code": want_code if code is None else code, "stdout": sha if stdout is None else stdout}


def test_reference_matches_published_terms():
    assert ref.prefix(ref.PRESETS["stern"], 16) == STERN
    assert [ref.term(ref.PRESETS["twisted"], n) for n in range(16)] == TWISTED


def test_reference_term_agrees_with_prefix():
    for spec in ref.PRESETS.values():
        values = ref.prefix(spec, 600)
        assert [ref.term(spec, n) for n in range(601)] == values


def test_inputs_come_from_the_seed():
    for workload in inputs.WORKLOADS:
        assert inputs.jobs(workload, 7, 0, 30) == inputs.jobs(workload, 7, 0, 30)
    assert inputs.jobs("grid", 7) != inputs.jobs("grid", 8)
    assert inputs.jobs("cli-cold", 7, 0, 30) != inputs.jobs("cli-cold", 8, 0, 30)
    block = inputs.jobs("cli-cold", 7, 0, len(inputs.CLI_KINDS))
    assert sorted(job.kind for job in block) == sorted(inputs.CLI_KINDS)


def test_recorded_counterexamples_are_the_reference_first_failures():
    for name, (coords, sides) in checks.PRINTED_FAILURES.items():
        n_min, _ = checks.catalog_shape(name)
        assert tuple(checks.scan(sides, 6, 32, n_min)[:3]) == coords, name


def test_correct_outputs_pass():
    job = _grid_job()
    out = {"holds": True, "count": checks.GRID_COUNTS[job.args], "ce": None}
    assert run.judge([_repeat(job, out)]) == (1, 0, [])
    job = _cli_job("verify")
    assert run.judge([_repeat(job, _cli_out(job))]) == (1, 0, [])


def test_corrupted_expected_value_is_a_failed_job(monkeypatch):
    job = _grid_job()
    out = {"holds": True, "count": checks.GRID_COUNTS[job.args], "ce": None}
    monkeypatch.setitem(checks.GRID_COUNTS, job.args, checks.GRID_COUNTS[job.args] + 1)
    attempted, failed, reasons = run.judge([_repeat(job, out)])
    assert (attempted, failed) == (1, 1)
    assert "count" in reasons[0]


@pytest.mark.parametrize("kind", ["eval", "oeis-bad", "usage-error"])
def test_wrong_exit_code_is_a_failed_job(kind):
    job = _cli_job(kind)
    code, _ = checks.expected_cli(job.kind, job.args)
    attempted, failed, reasons = run.judge([_repeat(job, _cli_out(job, code=(code + 1) % 3))])
    assert (attempted, failed) == (1, 1)
    assert "exit code" in reasons[0]


def test_wrong_stdout_is_a_failed_job():
    job = _cli_job("table")
    assert run.judge([_repeat(job, _cli_out(job, stdout="0" * 64))])[1] == 1


def test_missing_or_raised_job_is_a_failed_job():
    job = _grid_job()
    dead = run.Repeat([job], {}, None, None, "worker failed")
    raised = run.Repeat([job], {job.id: {"id": job.id, "t": None, "error": "RecursionError: x"}},
                        0.1, {}, None)
    assert run.judge([dead, raised])[:2] == (2, 2)


def test_wrong_counterexample_side_is_a_failed_job():
    job = next(j for j in inputs.jobs("grid", 1) if j.kind == "discrepancy")
    e_max, n_max = job.args
    rows = [[name, *checks.catalog_verdict(name, e_max, n_max).values()]
            for name in checks.DISCREPANCY_ROWS]
    good = {"rows": rows, "text": checks.discrepancy_text(e_max, n_max, rows)}
    assert run.judge([_repeat(job, good)])[1] == 0
    bad_rows = [list(row) for row in rows]
    failing = next(row for row in bad_rows if not row[1])
    failing[3] = failing[3][:3] + [failing[3][3] + 1, failing[3][4]]
    bad = {"rows": bad_rows, "text": checks.discrepancy_text(e_max, n_max, bad_rows)}
    assert run.judge([_repeat(job, bad)])[1] == 1
