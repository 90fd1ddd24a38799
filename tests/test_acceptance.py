"""Acceptance suite: every criterion at its stated parameters and time limit.

Each test prints one PASS line (visible with `pytest -s`); a failure raises,
so the pytest verdict doubles as the pass/fail line per criterion.
"""

import random
import time

from sternlike import (catalog_entry, check_named, coeff_table, coeffs,
                       crosscheck, discrepancy_report, eval_direct, eval_fast,
                       eval_range, generic_corollary, make_spec, parse_bfile,
                       preset, verify, verify_y_preset, write_bfile)
from sternlike.cli import main
from sternlike.recurrence import PRESET_NAMES

from conftest import STERN_TERMS, TWISTED_TERMS, scan_only


class _criterion:
    def __init__(self, number, name, limit_seconds):
        self.number, self.name, self.limit = number, name, limit_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded {self.limit}s ({elapsed:.1f}s)")
            print(f"ACCEPTANCE {self.number} {self.name}: PASS "
                  f"({elapsed:.2f}s < {self.limit}s)")
        else:
            print(f"ACCEPTANCE {self.number} {self.name}: FAIL ({elapsed:.2f}s)")
        return False


def test_criterion_1_term_fidelity(capsys):
    with _criterion(1, "term-fidelity", 1.0):
        assert main(["table", "stern", "--from", "0", "--to", "16"]) == 0
        out = capsys.readouterr().out
        assert [int(line.split()[1]) for line in out.splitlines()] == STERN_TERMS
        assert main(["table", "twisted", "--from", "0", "--to", "15"]) == 0
        out = capsys.readouterr().out
        assert [int(line.split()[1]) for line in out.splitlines()] == TWISTED_TERMS


def test_criterion_2_identity_suite():
    with _criterion(2, "identity-suite", 60.0):
        grids = [
            ("prop1", 10, 256), ("prop2", 10, 256), ("coons", 10, 256),
            ("stern_reflect", 16, 0), ("t_aux", 16, 0), ("t_similar", 10, 128),
            ("z2_aux", 12, 0), ("z1_thm_derived", 10, 128),
            ("z2_thm_derived", 10, 128), ("z3_thm_derived", 10, 128),
        ]
        for name, e_max, n_max in grids:
            verdict = verify(catalog_entry(name), e_max, n_max)
            assert verdict.holds, (name, verdict.counterexample)
            # the certificates and the instance-by-instance scan check each other
            assert verdict == scan_only(catalog_entry(name), e_max, n_max), name
        expected = sum(2**e + 1 for e in range(11)) * 257
        assert verify(catalog_entry("prop1"), 10, 256).checked_count == expected

        rng = random.Random(20240810)
        for _ in range(10):
            n0 = rng.choice((0, 1, 2))
            spec = make_spec(rng.randint(-3, 3), rng.randint(-3, 3),
                             rng.randint(-3, 3), n0,
                             [rng.randint(-5, 5) for _ in range(2 * max(n0, 1))])
            verdict = verify(generic_corollary(spec), 6, 64)
            assert verdict.holds, (spec, verdict.counterexample)
            assert verdict == scan_only(generic_corollary(spec), 6, 64), spec

        # closed-form coefficient identities, e <= 10
        s, t = preset("stern"), preset("twisted")
        z1, z3 = preset("z1"), preset("z3")
        tables = {p.name: coeff_table(p, 10) for p in (s, t, z1, z3)}
        for e in range(11):
            for r in range(2**e + 1):
                assert coeffs(tables["stern"], e, r) == (
                    eval_direct(s, 2**e - r), eval_direct(s, r))
                assert coeffs(tables["twisted"], e, r) == (
                    -eval_direct(t, 2**(e + 1) + r), -eval_direct(t, 3 * 2**e - r))
                assert coeffs(tables["z1"], e, r) == (
                    eval_direct(z1, 2**(e + 1) + r), eval_direct(z1, r))
                assert coeffs(tables["z3"], e, r) == (
                    -eval_direct(z3, 2**(e + 1) + r), eval_direct(z3, r))


def test_criterion_3_discrepancy_report():
    with _criterion(3, "discrepancy-report", 60.0):
        report = discrepancy_report(e_max=6, n_max=32)  # runs every variant; must not abort
        assert report.derived_all_hold
        text = report.text()
        for identity, verdict in report.failing():
            assert identity.variant.startswith("printed")
            ce = verdict.counterexample
            assert f"{identity.name}: FAILS at e={ce.e} r={ce.r} n={ce.n}" in text


def test_criterion_4_fast_direct_equivalence():
    with _criterion(4, "fast-direct-equivalence", 30.0):
        rng = random.Random(424242)
        for name in PRESET_NAMES:
            spec = preset(name)
            for n in range(2**16 + 1):
                assert eval_fast(spec, n) == eval_direct(spec, n)
            for _ in range(1000):
                n = rng.randrange(2**40)
                assert eval_fast(spec, n) == eval_direct(spec, n)
            # huge indices, where the fast path multiplies in a product tree
            for _ in range(3):
                bits = rng.randint(4096, 16384)
                n = rng.getrandbits(bits) | 1 << (bits - 1)
                assert eval_fast(spec, n) == eval_direct(spec, n)


def test_criterion_5_series_suite():
    with _criterion(5, "series-suite", 60.0):
        assert check_named("carlitz", order=4096).holds
        sum_s = check_named("sum_s", e_max=6, order=1024)
        assert sum_s.holds
        assert not any(any(res) for res in
                       sum_s.artifacts["negative_exponent_residues"].values())
        assert check_named("coons_lemma8", e_max=10).holds
        bconj1 = check_named("bconj1", e_max=5, order=256)
        assert bconj1.holds and bconj1.artifacts["u_prefix"][:4] == (1, 0, -2, 0)
        assert check_named("bconj2", e_max=5, order=256).holds
        assert check_named("bconj3", e_max=5, order=256).holds


def test_criterion_6_tm_oracle():
    with _criterion(6, "thue-morse-oracle", 30.0):
        report = verify_y_preset(64)
        assert report.mismatches == ()
        assert report.unsaturated == ()


def test_criterion_7_z3_periodicity():
    with _criterion(7, "z3-periodicity", 30.0):
        pattern = (0, 1, -1)
        values = eval_range(preset("z3"), 0, 10**5)
        assert all(v == pattern[n % 3] for n, v in enumerate(values))


def test_criterion_8_io_contract(capsys, tmp_path, fixtures_dir):
    with _criterion(8, "io-contract", 60.0):
        # b-file round trip, byte-identical modulo comments
        fixture_text = (fixtures_dir / "b002487_ref.txt").read_text()
        table = parse_bfile(fixture_text)
        assert write_bfile(preset("stern"), 0, 16) == "".join(
            line + "\n" for line in fixture_text.splitlines()
            if line and not line.startswith("#"))
        assert crosscheck(preset("stern"), table).ok

        # exit-code matrix
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0\n1 999\n")
        matrix = [
            (["eval", "stern", "11"], 0),
            (["series", "carlitz", "--order", "128"], 0),
            (["verify", "t_aux", "--e-max", "8"], 0),
            (["verify", "z1_cor_printed", "--e-max", "3", "--n-max", "8"], 1),
            (["oeis", "check", "stern", "--bfile", str(bad)], 1),
            (["verify", "--expr", "s(r"], 2),
            (["eval", "nosuch", "1"], 2),
            (["table", "stern", "--from", "2", "--to", "1"], 2),
        ]
        for argv, expected in matrix:
            assert main(argv) == expected, argv
            capsys.readouterr()

        # --jobs invariance on the identity suite
        for name in ("prop1", "coons", "z3_cor_printed"):
            outputs = []
            for jobs in ("1", "8"):
                code = main(["verify", name, "--e-max", "6", "--n-max", "32",
                             "--jobs", jobs])
                outputs.append((code, capsys.readouterr().out))
            assert outputs[0] == outputs[1], name
