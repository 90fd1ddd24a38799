"""CLI subcommands and the 0/1/2/3 exit-code contract."""

import io
import os
import random
import shlex
import subprocess
import sys
import urllib.request
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sternlike import catalog, cli, oeis
from sternlike.cli import main

from conftest import FIXTURES, STERN_TERMS, FakeResponse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "stern", "11")
    assert (code, out.strip()) == (0, "5")
    code, out, _ = run(capsys, "eval", "stern", "11", "--direct")
    assert (code, out.strip()) == (0, "5")


def test_eval_direct_deep_index(capsys):
    n = str(2**1200 + 5)
    direct = run(capsys, "eval", "stern", n, "--direct")
    assert direct == (0, "3596\n", "")
    assert direct == run(capsys, "eval", "stern", n, "--fast")


def test_eval_huge_decimal_index_fast_and_direct_agree(capsys):
    # about 20000 bits in 6021 decimal digits: past the int/str digit limit,
    # and past the size where the fast path multiplies in a product tree
    rng = random.Random(20_000)
    n = rng.choice("123456789") + "".join(rng.choices("0123456789", k=6020))
    fast = run(capsys, "eval", "tm_complexity_shift", n, "--fast")
    code, out, err = fast
    assert (code, err) == (0, "")
    assert out.strip().lstrip("-").isdigit()
    assert fast == run(capsys, "eval", "tm_complexity_shift", n, "--direct")


def test_eval_spec_file(capsys, tmp_path):
    path = tmp_path / "seq.spec"
    path.write_text("a = 2\nb = 1\nc = 1\nn0 = 2\ninit = 2, 4, 6, 10\n")
    code, out, _ = run(capsys, "eval", str(path), "5")
    assert (code, out.strip()) == (0, "16")


def test_table_bfile_matches_terms(capsys):
    code, out, _ = run(capsys, "table", "stern", "--from", "0", "--to", "16")
    assert code == 0
    values = [int(line.split()[1]) for line in out.splitlines()]
    assert values == STERN_TERMS


@pytest.mark.parametrize("fmt", [(), ("--format", "bfile"), ("--format", "csv")])
def test_table_rejects_an_empty_range_in_every_format(capsys, fmt):
    code, out, err = run(capsys, "table", "stern", "--from", "5", "--to", "2", *fmt)
    assert (code, out, err) == (2, "", "error: empty range: lo=5 > hi=2\n")


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "twisted", "--from", "0", "--to", "3",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,value", "0,0", "1,1", "2,-1", "3,0"]


def test_coeffs(capsys):
    code, out, _ = run(capsys, "coeffs", "stern", "--e-max", "1")
    assert code == 0
    assert out.splitlines() == ["# e r A B", "0 0 1 0", "0 1 0 1",
                                "1 0 1 0", "1 1 1 1", "1 2 0 1"]


def test_compile(capsys):
    code, out, _ = run(capsys, "compile", "tm_complexity_shift")
    assert code == 0
    assert "M0 2 0 1 1" in out
    assert "base 3 10 12" in out


def test_verify_catalog_name(capsys):
    code, out, _ = run(capsys, "verify", "stern_reflect", "--e-max", "10")
    assert code == 0
    assert "holds" in out


def test_verify_expr_counterexample(capsys):
    code, out, _ = run(capsys, "verify", "--expr", "s(r)==s(r+1)",
                       "--e-max", "1", "--n-max", "1")
    assert code == 1
    assert "e=0 r=0" in out and "lhs=0 rhs=1" in out


def test_verify_expr_with_coefficient_references(capsys):
    code, out, _ = run(capsys, "verify",
                       "--expr", "A(e, r)*y(n) + B(e, r)*y(n + 1) == y(2^e*n + r)",
                       "--e-max", "4", "--n-max", "16", "--n-min", "2")
    assert code == 0
    assert "holds" in out


def test_verify_expr_coefficients_one_level_up(capsys):
    # e + 1 lies outside the level's coefficient rows; the lookup must still serve it
    expr = "s(2^(e + 1)*n + r) == A(e + 1, r)*s(n) + B(e + 1, r)*s(n + 1)"
    code, out, err = run(capsys, "verify", "--expr", expr, "--e-max", "5", "--n-max", "16")
    assert (code, out, err) == (0, f"identity {expr}: holds checked=1173\n", "")


def test_verify_expr_coefficient_index_out_of_range(capsys):
    expr = "s(2^e*n + r + 1) == A(e, r + 1)*s(n) + B(e, r + 1)*s(n + 1)"
    code, out, err = run(capsys, "verify", "--expr", expr, "--e-max", "5", "--n-max", "16")
    assert (code, out, err) == (2, "", "error: r must lie in [0, 2^0], got 2\n")


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run(capsys, "verify", "prop1", "--e-max", "2", "--jobs", jobs)
    assert (code, out, err) == (2, "", f"error: jobs must be >= 1, got {jobs}\n")


def test_verify_deep_expression_is_a_parse_error(capsys):
    expr = "(" * 1500 + "s(n)" + ")" * 1500 + " == s(n)"
    code, out, err = run(capsys, "verify", "--expr", expr)
    assert (code, out) == (2, "")
    assert err == "error: expression nests deeper than 50 levels (at position 50)\n"


def test_verify_n_min_applies_only_to_expr(capsys):
    code, out, err = run(capsys, "verify", "prop1", "--n-min", "5")
    assert (code, out) == (2, "")
    assert err == "error: --n-min applies only with --expr; prop1 has n_min = 0\n"


def test_verify_requires_exactly_one_target(capsys):
    assert run(capsys, "verify")[0] == 2
    assert run(capsys, "verify", "coons", "--expr", "s(r)==s(r)")[0] == 2


def test_jobs_invariance(capsys):
    runs = {}
    for jobs in ("1", "8"):
        code, out, err = run(capsys, "verify", "coons",
                             "--e-max", "5", "--n-max", "24", "--jobs", jobs)
        runs[jobs] = (code, out, err)
    assert runs["1"] == runs["8"]
    assert runs["1"][0] == 0

    for jobs in ("1", "8"):
        code, out, err = run(capsys, "verify", "z2_cor_printed",
                             "--e-max", "5", "--n-max", "24", "--jobs", jobs)
        runs[jobs] = (code, out, err)
    assert runs["1"] == runs["8"]
    assert runs["1"][0] == 1


@pytest.mark.parametrize("expr", ["s(n - 1) == s(r - 5)", "s(n - 1) == s(2^e - 5)"])
def test_verify_reports_the_first_error_of_the_scan(capsys, expr):
    code, out, err = run(capsys, "verify", "--expr", expr, "--e-max", "2", "--n-max", "3")
    assert (code, out, err) == (2, "", "error: index of s(...) evaluated negative: -1\n")


def _run_capped(*argv, megabytes=512):
    """`python -m sternlike *argv` in a child whose address space is capped."""
    def cap():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (megabytes << 20, megabytes << 20))
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "sternlike", *argv], env=env,
                          capture_output=True, text=True, timeout=30, preexec_fn=cap)


def test_verify_reports_an_early_error_without_computing_a_later_huge_power():
    # 3^(3^20) takes about 690 MB; the scan meets s(-1) first and never computes
    # it, and the child's 512 MB address space makes a regression fail fast
    proc = _run_capped("verify", "--expr", "s(n - 1) == 3^(3^20)", "--e-max", "0", "--n-max", "0")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: index of s(...) evaluated negative: -1\n")


def test_verify_bounds_a_level_by_its_largest_index_only_after_its_first_instance():
    # the level's largest index is 3^(3^20); its first instance meets s(-1)
    # first, so the bound on the level's prefix is never computed
    proc = _run_capped("verify", "--expr", "s(n - 1) == s(3^(3^20))", "--e-max", "0",
                       "--n-max", "0")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: index of s(...) evaluated negative: -1\n")


def test_verify_holds_one_value_of_each_side_at_a_time():
    # each product takes about 125 KB; comparing a row's sides as whole lists
    # of thousands of instances would need about 1 GB, the plain scan 1 MB
    expr = "s(n)*2^1000000 == s(n)*2^1000000"
    proc = _run_capped("verify", "--expr", expr, "--e-max", "0", "--n-max", "5000")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, f"identity {expr}: holds checked=10002\n", "")


# each fails at its first level; binding the prefixes or the coefficient table
# of a level the scan never reaches (here e = 40, 2^41 rows) exhausts 512 MB
@pytest.mark.parametrize("expr,n_max,verdict", [
    ("s(2^(e + 40)) + s(r) == 1", "0", "FAILS e=0 r=1 n=0 lhs=2 rhs=1 checked=2199023255592"),
    ("A(e, r)*s(n) == s(n)", "1", "FAILS e=0 r=1 n=1 lhs=0 rhs=1 checked=4398046511184"),
])
def test_a_scan_that_stops_early_binds_no_later_level(expr, n_max, verdict):
    proc = _run_capped("verify", "--expr", expr, "--e-max", "40", "--n-max", n_max)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, f"identity {expr}: {verdict}\n", "")


def test_running_out_of_memory_exits_3_not_1():
    # s(0) .. s(1.6e9) does not fit in 768 MB; the crash report used to build
    # the traceback while its frames still held the prefix, ran out of memory
    # again, and that second MemoryError exited 1, the counterexample code
    proc = _run_capped("verify", "--expr", "s(n) == s(n) + 0*s(1600000000 - n)",
                       "--e-max", "0", "--n-max", "100000000", megabytes=768)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("Traceback (most recent call last):\n")
    assert proc.stderr.splitlines()[-1] == "MemoryError"


_PERTURBING_INDICES = ("n - 1", "r - 2", "2^e - 3", "2^e*n + r", "n + r", "3*n", "r")


@st.composite
def _verify_texts(draw):
    """A catalog identity's text as is, plus a difference of two terms that
    may clash, or with one slice replaced by digit-free grammar characters
    (a drawn digit run could make an index too large to evaluate)."""
    text = draw(st.sampled_from([identity.text for identity in catalog()]))
    how = draw(st.sampled_from(("as is", "perturbed", "edited")))
    if how == "perturbed":
        seq = draw(st.sampled_from(("s", "t", "z1", "y")))
        first, second = (draw(st.sampled_from(_PERTURBING_INDICES)) for _ in range(2))
        text += f" + {draw(st.integers(1, 3))}*({seq}({first}) - {seq}({second}))"
    elif how == "edited":
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, len(text)))
        text = text[:start] + draw(st.text(alphabet="stzyABern()+-*^=, ", max_size=6)) + text[stop:]
    return text


@settings(deadline=None, max_examples=80)
@given(_verify_texts())
def test_verify_exits_1_exactly_when_it_prints_a_counterexample(text):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--expr", text, "--e-max", "2", "--n-max", "4"])
    assert code in (0, 1, 2), err.getvalue()
    assert (code == 1) == (f"identity {text}: FAILS e=" in out.getvalue())
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


def test_series_machine_lines(capsys):
    code, out, _ = run(capsys, "series", "sum_s", "--e-max", "3", "--order", "128")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check=sum_s e=0 holds=true order=128"
    assert len(lines) == 4


def test_series_choices_are_the_named_checks_in_order():
    # the parser lists them without importing series
    from sternlike import series
    assert cli._SERIES_CHECKS == series.CHECK_NAMES


def test_oracle_tm(capsys):
    code, out, _ = run(capsys, "oracle-tm", "--ell-max", "4")
    assert code == 0
    assert out.splitlines()[0] == "ell=1 recurrence=2 ok=true"


def test_oeis_check(capsys, fixtures_dir):
    code, out, _ = run(capsys, "oeis", "check", "stern",
                       "--bfile", str(fixtures_dir / "b002487_ref.txt"))
    assert code == 0
    assert "no mismatches" in out


def test_catalog_lists_names(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "coons" in out and "z3_cor_derived" in out
    assert len(out.splitlines()) >= 15


def test_catalog_listing_matches_fixture(capsys, fixtures_dir):
    code, out, err = run(capsys, "catalog")
    expected = (fixtures_dir / "catalog.txt").read_text(encoding="utf-8")
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("expr", [
    "A(e, r)*s(n) == t(n)",   # two sequences
    "A(e, r) == A(e, r)",     # none
])
def test_verify_expr_coefficients_need_one_bound_sequence(capsys, expr):
    code, out, err = run(capsys, "verify", "--expr", expr, "--jobs", "4")
    assert (code, out) == (2, "")
    assert err == ("error: A(e, r)/B(e, r) need exactly one bound sequence "
                   "to supply the coefficient table\n")


@pytest.mark.parametrize("argv", [
    ("series", "sum_s", "--e-max", "-1"),
    ("series", "bconj1", "--e-max", "-1"),
    ("series", "bconj2", "--e-max", "-1"),
    ("series", "bconj3", "--e-max", "-1"),
    ("series", "coons_lemma8", "--e-max", "-1"),
    ("series", "coons_lemma8", "--e-max", "-2"),
    ("verify", "prop1", "--e-max", "-1"),
])
def test_negative_e_max_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: e_max must be >= 0, got {argv[-1]}\n"


def test_carlitz_ignores_e_max(capsys):
    code, out, _ = run(capsys, "series", "carlitz", "--order", "64", "--e-max", "-1")
    assert (code, out) == (0, "check=carlitz e=0 holds=true order=64\n")


@pytest.mark.parametrize("order", ["-5", "0", "1"])
def test_carlitz_rejects_orders_below_two(capsys, order):
    code, out, err = run(capsys, "series", "carlitz", "--order", order)
    assert (code, out, err) == (2, "", f"error: order must be >= 2, got {order}\n")


@pytest.mark.parametrize("argv,message", [
    (("verify", "prop1", "--n-max", "-1"), "n_max must be >= n_min = 0, got -1"),
    (("verify", "prop2", "--n-max", "0"), "n_max must be >= n_min = 1, got 0"),
    (("verify", "--expr", "s(n) == s(n)", "--n-min", "3", "--n-max", "2"),
     "n_max must be >= n_min = 3, got 2"),
    # the earlier checks keep their messages when several apply
    (("verify", "prop1", "--n-max", "-1", "--jobs", "0"), "jobs must be >= 1, got 0"),
    (("verify", "prop1", "--n-max", "-1", "--e-max", "-1"), "e_max must be >= 0, got -1"),
    (("verify", "--expr", "A(e, r)*s(n) == t(n)", "--n-max", "-1"),
     "A(e, r)/B(e, r) need exactly one bound sequence to supply the coefficient table"),
])
def test_empty_n_range_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("ell_max", [1, 4, 16, 64])
def test_oracle_tm_output_is_pinned(capsys, fixtures_dir, ell_max):
    lines = (fixtures_dir / "oracle_tm_64.txt").read_text(encoding="utf-8").splitlines(True)
    code, out, err = run(capsys, "oracle-tm", "--ell-max", str(ell_max))
    assert (code, out) == (0, "".join(lines[:ell_max]))
    assert err == (f"block lengths 1..{ell_max}: recurrence matches brute-force counts "
                   f"(prefix {1024 * ell_max}, saturated)\n")


@pytest.mark.parametrize("argv,expected", [
    (("eval", "stern", "11"), 0),                                   # success
    (("verify", "prop1", "--e-max", "3", "--n-max", "8"), 0),       # holds
    (("verify", "z3_cor_printed", "--e-max", "3", "--n-max", "8"), 1),  # counterexample
    (("verify", "--expr", "s(r) + == s(n)"), 2),                    # parse error
    (("eval", "nosuchpreset", "3"), 2),                             # unknown preset
    (("series", "carlitz", "--order", "64"), 0),                    # series holds
    (("table", "stern", "--from", "5", "--to", "2"), 2),            # bad range
    (("nonsense-subcommand",), 2),                                  # usage error
])
def test_exit_code_matrix(capsys, argv, expected):
    assert main(list(argv)) == expected
    capsys.readouterr()


def test_exit_code_mismatch_and_bad_bfile(capsys, tmp_path):
    bad_values = tmp_path / "bad_values.txt"
    bad_values.write_text("0 0\n1 999\n")
    assert run(capsys, "oeis", "check", "stern", "--bfile", str(bad_values))[0] == 1

    malformed = tmp_path / "malformed.txt"
    malformed.write_text("0 0\nnot a record\n")
    assert run(capsys, "oeis", "check", "stern", "--bfile", str(malformed))[0] == 2

    assert run(capsys, "oeis", "check", "stern", "--bfile", str(tmp_path / "missing.txt"))[0] == 2

    bad_spec = tmp_path / "bad.spec"
    bad_spec.write_text("a = 1\n")
    assert run(capsys, "eval", str(bad_spec), "3")[0] == 2


def _cli_cases(fixture):
    """(argv, exit code, stdout, stderr) per `$ ...` block of a transcript
    fixture; the command line is split with shell quoting rules."""
    text = (FIXTURES / fixture).read_text(encoding="utf-8")
    cases = []
    for block in text.split("$ ")[1:]:
        command, exit_line, rest = block.split("\n", 2)
        out, err = rest.removeprefix("stdout:\n").split("stderr:\n")
        cases.append(pytest.param(shlex.split(command), int(exit_line.split()[1]), out, err,
                                  id=command))
    return cases


@pytest.mark.parametrize("argv,code,out,err", _cli_cases("series_cli.txt"))
def test_series_output_is_pinned(capsys, argv, code, out, err):
    assert run(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize("argv,code,out,err", _cli_cases("verify_cli.txt"))
def test_verify_output_is_pinned(capsys, argv, code, out, err):
    assert run(capsys, *argv) == (code, out, err)


def _no_fetch(a_number):
    raise AssertionError(f"network access for {a_number}")


@pytest.mark.parametrize("argv,code,out,err", _cli_cases("table_cli.txt"))
def test_table_and_oeis_edge_cases_are_pinned(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setattr(oeis, "fetch_bfile", _no_fetch)
    assert run(capsys, *argv) == (code, out, err)


def test_a_crash_exits_3_with_its_traceback(capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_catalog", crash)
    code, out, err = run(capsys, "catalog")
    assert (code, out) == (3, "")
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("\nRuntimeError: boom\n")


def test_keyboard_interrupt_is_not_caught(monkeypatch):
    def interrupt(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_catalog", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["catalog"])


@pytest.mark.parametrize("jobs", ["1", "4"])
def test_verify_reports_a_counterexample_before_a_later_levels_error(capsys, jobs):
    # s(2 - 2^e) fails at e = 0 and its index turns negative from e = 2 on
    code, out, err = run(capsys, "verify", "--expr", "s(2 - 2^e) == 0",
                         "--e-max", "3", "--n-max", "0", "--jobs", jobs)
    assert (code, out, err) == (
        1, "identity s(2 - 2^e) == 0: FAILS e=0 r=0 n=0 lhs=1 rhs=0 checked=19\n", "")


@pytest.mark.parametrize("jobs", ["1", "4"])
@pytest.mark.parametrize("expr,message", [
    # each raises at e = 0 and has a counterexample at a later level
    ("s(2^e - 2) == 1", "index of s(...) evaluated negative: -1"),
    ("s(n) == 2^(e - 1)", "exponent evaluated negative: -1"),
])
def test_verify_error_that_comes_first_decides(capsys, jobs, expr, message):
    code, out, err = run(capsys, "verify", "--expr", expr, "--e-max", "3", "--n-max", "2",
                         "--jobs", jobs)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_literals_past_the_int_str_digit_limit_are_parsed(capsys):
    big = "9" * 5000
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "verify", "--expr", f"s(n) + {big} == s(n)",
                             "--e-max", "0", "--n-max", "0")
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, err) == (1, "")
    assert out == (f"identity s(n) + {big} == s(n): FAILS e=0 r=0 n=0 lhs={big} rhs=0 "
                   "checked=2\n")


def test_values_past_the_int_str_digit_limit_are_printed(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    try:
        code, out, err = run(capsys, "verify", "--expr", "s(n) == 10^4400",
                             "--e-max", "0", "--n-max", "0")
        assert sys.get_int_max_str_digits() == 4321   # restored on return
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, err) == (1, "")
    assert out == (f"identity s(n) == 10^4400: FAILS e=0 r=0 n=0 lhs=0 rhs=1{'0' * 4400} "
                   "checked=2\n")


def test_undecodable_bfile_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"0 0\n1 1 \xe9\n")
    code, out, err = run(capsys, "oeis", "check", "stern", "--bfile", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: not UTF-8 text (")
    assert err.count("\n") == 1


def test_undecodable_fetched_bfile_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(urllib.request, "urlopen",
                        lambda url, timeout: FakeResponse(b"1 1\n2 \xff\n"))
    code, out, err = run(capsys, "oeis", "check", "stern", "--fetch")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {oeis.bfile_url('A002487')}: not UTF-8 text (")
    assert err.count("\n") == 1


def test_undecodable_spec_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "latin1.spec"
    path.write_bytes(b"a = 1\nname = caf\xe9\n")
    code, out, err = run(capsys, "eval", str(path), "3")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: not UTF-8 text (")
    assert err.count("\n") == 1
