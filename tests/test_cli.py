"""CLI subcommands and the 0/1/2 exit-code contract."""

import pytest

from sternlike.cli import main

from conftest import STERN_TERMS


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


def test_series_machine_lines(capsys):
    code, out, _ = run(capsys, "series", "sum_s", "--e-max", "3", "--order", "128")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check=sum_s e=0 holds=true order=128"
    assert len(lines) == 4


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
