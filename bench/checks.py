"""Expected outputs of every job, and the judge that compares them.

Expected values come from three places, never from the program under test
at run time:
  * recorded facts: verdicts and grid counts, the printed variants'
    counterexample coordinates, series artifacts, the catalog listing digest;
  * `reference.py`, for every sequence value, coefficient row and the two
    sides of each reported counterexample;
  * the documented output formats of the CLI and the discrepancy report.

`judge` returns None for a correct job and a one-line reason otherwise.  A
job the worker could not run, or whose output is missing, is a failure too.
"""

from __future__ import annotations

import functools
import hashlib

import inputs
import reference as ref

# ---------------------------------------------------------------------------
# Recorded facts

GRID_COUNTS = {  # (name, e_max, n_max) -> instances; every grid holds
    ("prop1", 10, 256): 528906, ("prop2", 10, 256): 526848, ("coons", 10, 256): 528906,
    ("stern_reflect", 16, 0): 131088, ("t_aux", 16, 0): 131088,
    ("t_similar", 10, 128): 263424, ("z2_aux", 12, 0): 8204,
    ("z1_thm_derived", 10, 128): 265482, ("z2_thm_derived", 10, 128): 265482,
    ("z3_thm_derived", 10, 128): 265482,
}

# name -> (n_min, uses n); names outside this table are generic_cor_<preset>
_NO_N = {"stern_reflect", "t_aux", "z2_aux"}
_N_MIN = {"prop2": 1, "t_similar": 1, **{f"generic_cor_{p}": ref.PRESETS[p].n0
                                          for p in inputs.PRESET_NAMES}}


def catalog_shape(name: str) -> tuple[int, bool]:
    return _N_MIN.get(name, 0), name not in _NO_N


def _v(name):
    spec = ref.PRESETS[name]
    return lambda k: ref.term(spec, k)


_z1, _z2, _z3, _s, _t = _v("z1"), _v("z2"), _v("z3"), _v("stern"), _v("twisted")

# The printed variants that fail, with their lexicographically smallest
# counterexample (e, r, n) on any grid e <= 3, n <= 8 or larger, and both
# sides of the printed statement.
PRINTED_FAILURES = {
    "z2_thm_printed": ((0, 0, 2), lambda e, r, n: (
        _z2(2**e * n + r), -_z2(5 * 2**e * n + r) * _z2(n) + _z2(r) * _z2(n + 1))),
    "z2_thm_printed_no_n": ((0, 1, 1), lambda e, r, n: (
        _z2(2**e * n + r), -_z2(5 * 2**e + r) * _z2(n) + _z2(r) * _z2(n + 1))),
    "z1_cor_printed": ((0, 0, 0), lambda e, r, n: (
        _z1(2**(e + 1) + r) * _z1(2 * n + 5) + _z1(r) * _z1(2 * n + 3),
        -_z1(2**e * (n + 2) + r) + _z1(2**e * (n + 1) + r))),
    "z2_cor_printed": ((0, 0, 0), lambda e, r, n: (
        -_z2(5 * 2**e + r) * _z2(2 * n + 5) + _z2(r) * _z2(2 * n + 3),
        -_z2(2**e * (n + 2) + r) + _z2(2**e * (n + 1) + r))),
    "z3_cor_printed": ((0, 0, 0), lambda e, r, n: (
        -_z3(2**(e + 1) + r) * _z3(2 * n + 5) + _z3(r) * _z3(2 * n + 3),
        _z3(2**e * (n + 2) + r) + _z3(2**e * (n + 1) + r))),
}

EXPRESSION_SIDES = {  # text of inputs.EXPRESSIONS -> both sides by reference
    "s(2*n + 1) == s(n) + s(n + 1)": lambda e, r, n: (_s(2 * n + 1), _s(n) + _s(n + 1)),
    "s(2^e*n + r) == s(r)*s(n + 1) + s(2^e - r)*s(n)": lambda e, r, n: (
        _s(2**e * n + r), _s(r) * _s(n + 1) + _s(2**e - r) * _s(n)),
    "t(2*n) == 0 - t(n)": lambda e, r, n: (_t(2 * n), -_t(n)),
    "z3(n + 3) == z3(n)": lambda e, r, n: (_z3(n + 3), _z3(n)),
    "s(n) == s(n + 1)": lambda e, r, n: (_s(n), _s(n + 1)),
}

DISCREPANCY_ROWS = (
    "t_corollary_printed", "t_corollary_derived", "z1_thm_printed", "z1_thm_derived",
    "z2_thm_printed", "z2_thm_printed_no_n", "z2_thm_derived", "z3_thm_printed",
    "z3_thm_derived", "z1_cor_printed", "z1_cor_derived", "z2_cor_printed",
    "z2_cor_derived", "z3_cor_printed", "z3_cor_derived",
)

SERIES_ARTIFACTS = {  # check name -> (artifact key, recorded leading coefficients)
    "bconj1": ("u_prefix", [1, 0, -2, 0]),
    "bconj2": ("a_prefix", [1, -2, 2, 0, -4, 4, 2, -6]),
    "bconj3": ("b_prefix", [-1, 2, 2, -4, 0, 0, -6, 6]),
}

# sha256 of `sternlike catalog` stdout (byte-identical CLI output is a contract)
CATALOG_STDOUT_SHA = "1238b987c36753fdf83cfede817019b25a8f56b02f64c8752ab32b5d882fe8dd"

# ---------------------------------------------------------------------------
# Helpers


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def grid_count(e_max: int, n_max: int, n_min: int, uses_n: bool) -> int:
    per_n = max(n_max - n_min + 1, 0) if uses_n else 1
    return sum(2**e + 1 for e in range(e_max + 1)) * per_n


def scan(sides, e_max, n_max, n_min):
    """First (e, r, n, lhs, rhs) in lexicographic order where the sides differ."""
    for e in range(e_max + 1):
        for r in range(2**e + 1):
            for n in range(n_min, n_max + 1):
                lhs, rhs = sides(e, r, n)
                if lhs != rhs:
                    return [e, r, n, lhs, rhs]
    return None


def catalog_verdict(name: str, e_max: int, n_max: int) -> dict:
    n_min, uses_n = catalog_shape(name)
    ce = None
    if name in PRINTED_FAILURES:
        (e, r, n), sides = PRINTED_FAILURES[name]
        if e <= e_max and n <= n_max:
            ce = [e, r, n, *sides(e, r, n)]
    return {"holds": ce is None, "count": grid_count(e_max, n_max, n_min, uses_n), "ce": ce}


def _compare(expected: dict, out: dict, keys) -> str | None:
    for key in keys:
        if out.get(key) != expected[key]:
            return f"{key}: expected {expected[key]!r}, got {out.get(key)!r}"
    return None


def resolve(name: str) -> ref.Spec:
    return ref.PRESETS[ref.ALIASES.get(name, name)]


@functools.lru_cache(maxsize=None)
def _prefix_digests(name: str, hi: int) -> tuple[str, str, str]:
    spec = ref.PRESETS[name]
    values = ref.prefix(spec, hi)
    start = spec.output_min_index
    text = "".join(f"{n} {values[n]}\n" for n in range(start, hi + 1))
    records = [x for n in range(start, hi + 1) for x in (n, values[n])]
    return inputs.digest(values), _sha(text), inputs.digest(records)


@functools.lru_cache(maxsize=None)
def _term_digest(name: str, ns: tuple) -> str:
    spec = ref.PRESETS[name]
    return inputs.digest(ref.term(spec, n) for n in ns)


# ---------------------------------------------------------------------------
# Library jobs


def _judge_library(job: inputs.Job, out: dict) -> str | None:
    kind, args = job.kind, job.args
    if kind == "verify":
        return _compare({"holds": True, "count": GRID_COUNTS[args], "ce": None},
                        out, ("holds", "count", "ce"))
    if kind == "generic":
        e_max, n_max = inputs.GENERIC_GRID
        verdicts = [{"holds": True, "count": grid_count(e_max, n_max, spec[3], True), "ce": None}
                    for spec in args]
        return _compare({"verdicts": verdicts}, out, ("verdicts",))
    if kind == "discrepancy":
        e_max, n_max = args
        rows = [[name, *catalog_verdict(name, e_max, n_max).values()]
                for name in DISCREPANCY_ROWS]
        return _compare({"rows": rows, "text": discrepancy_text(e_max, n_max, rows)},
                        out, ("rows", "text"))
    if kind == "series":
        name, order, e_max = args
        levels = range(1) if name == "carlitz" else range(e_max + 1)
        reason = _compare({"levels": [[lv, True, None] for lv in levels]}, out, ("levels",))
        if reason:
            return reason
        artifacts = out.get("artifacts", {})
        if name in SERIES_ARTIFACTS:
            key, lead = SERIES_ARTIFACTS[name]
            got = artifacts.get(key, [])[:len(lead)]
            if got != lead:
                return f"{key} starts {got}, expected {lead}"
        if name == "sum_s":
            residues = artifacts.get("negative_exponent_residues", {})
            if sorted(residues) != [str(e) for e in range(e_max + 1)] or any(
                    any(row) for row in residues.values()):
                return "sum_s negative-exponent residues are not all zero"
        return None
    if kind == "sparse":
        want = _term_digest(args[0], args[1])
        return _compare({"direct": want, "fast": want}, out, ("direct", "fast"))
    if kind in ("bigint_fast", "bigint_linrep"):
        return _compare({"value": _term_digest(args[0], (args[1],))}, out, ("value",))
    if kind == "dense":
        name, hi = args
        values, text, records = _prefix_digests(name, hi)
        count = hi + 1 - ref.PRESETS[name].output_min_index
        return _compare({"values": values, "text": text, "records": records,
                         "checked": count, "skipped": 0, "mismatches": 0}, out,
                        ("values", "text", "records", "checked", "skipped", "mismatches"))
    if kind == "coeff_table":
        name, e_max = args
        rows = ref.coeff_rows(ref.PRESETS[name], e_max)
        return _compare({"A": inputs.digest(x for a, _ in rows for x in a),
                         "B": inputs.digest(x for _, b in rows for x in b),
                         "rows": e_max + 1}, out, ("A", "B", "rows"))
    if kind == "tm_oracle":
        return _compare({"ok": True, "mismatches": 0, "unsaturated": 0,
                         "prefix": 1024 * args[0]}, out,
                        ("ok", "mismatches", "unsaturated", "prefix"))
    return f"unknown job kind {kind!r}"


def discrepancy_text(e_max: int, n_max: int, rows) -> str:
    lines = [f"variant adjudication over e <= {e_max}, n <= {n_max}"]
    for name, holds, count, ce in rows:
        if holds:
            lines.append(f"  {name}: holds ({count} instances)")
        else:
            e, r, n, lhs, rhs = ce
            lines.append(f"  {name}: FAILS at e={e} r={r} n={n} (lhs={lhs}, rhs={rhs})")
    lines.append("  every derived variant holds")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI jobs: expected (exit code, stdout text)


def _verify_line(label: str, verdict: dict) -> str:
    if verdict["holds"]:
        return f"identity {label}: holds checked={verdict['count']}\n"
    e, r, n, lhs, rhs = verdict["ce"]
    return (f"identity {label}: FAILS e={e} r={r} n={n} lhs={lhs} rhs={rhs} "
            f"checked={verdict['count']}\n")


def _option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def expected_cli(kind: str, argv: tuple) -> tuple[int, str | None]:
    """(exit code, stdout); stdout None means 'compare CATALOG_STDOUT_SHA'."""
    if kind == "eval":
        return 0, f"{ref.term(resolve(argv[1]), int(argv[2]))}\n"
    if kind == "table":
        spec = resolve(argv[1])
        lo, hi = int(_option(argv, "--from")), int(_option(argv, "--to"))
        values = ref.prefix(spec, hi)
        ns = range(max(lo, spec.output_min_index), hi + 1)
        if _option(argv, "--format", "bfile") == "csv":
            return 0, "n,value\n" + "".join(f"{n},{values[n]}\n" for n in ns)
        return 0, "".join(f"{n} {values[n]}\n" for n in ns)
    if kind == "coeffs":
        rows = ref.coeff_rows(resolve(argv[1]), int(_option(argv, "--e-max")))
        body = "".join(f"{e} {r} {A[r]} {B[r]}\n" for e, (A, B) in enumerate(rows)
                       for r in range(len(A)))
        return 0, "# e r A B\n" + body
    if kind == "compile":
        name = ref.ALIASES.get(argv[1], argv[1])
        spec = ref.PRESETS[name]
        a, b, c = spec.a, spec.b, spec.c
        values = ref.prefix(spec, len(spec.init))
        lines = [f"name {name}", f"a {a}", f"b {b}", f"c {c}", f"n_eff {len(spec.init) // 2}"]
        lines += [f"base {k} {values[k]} {values[k + 1]}" for k in range(len(spec.init))]
        lines += [f"M0 {a} 0 {b} {c}", f"M1 {b} {c} 0 {a}", "projection first"]
        return 0, "\n".join(lines) + "\n"
    if kind == "catalog":
        return 0, None
    if kind == "verify":
        name = argv[1]
        verdict = catalog_verdict(name, int(_option(argv, "--e-max")), int(_option(argv, "--n-max")))
        return (0 if verdict["holds"] else 1), _verify_line(name, verdict)
    if kind == "verify-expr":
        text = _option(argv, "--expr")
        e_max, n_max = int(_option(argv, "--e-max")), int(_option(argv, "--n-max"))
        n_min = int(_option(argv, "--n-min", 0))
        ce = scan(EXPRESSION_SIDES[text], e_max, n_max, n_min)
        verdict = {"holds": ce is None, "count": grid_count(e_max, n_max, n_min, True), "ce": ce}
        return (0 if ce is None else 1), _verify_line(text, verdict)
    if kind == "series":
        name = argv[1]
        if name == "carlitz":
            levels, order = [0], int(_option(argv, "--order"))
        elif name == "coons_lemma8":
            k_max = int(_option(argv, "--e-max"))
            levels, order = range(k_max + 1), 2 ** (k_max + 1)
        else:
            levels, order = range(int(_option(argv, "--e-max")) + 1), int(_option(argv, "--order"))
        return 0, "".join(f"check={name} e={lv} holds=true order={order}\n" for lv in levels)
    if kind == "oracle-tm":
        y = resolve("y")
        ell_max = int(_option(argv, "--ell-max"))
        return 0, "".join(f"ell={ell} recurrence={ref.term(y, ell - 1)} ok=true\n"
                          for ell in range(1, ell_max + 1))
    if kind == "oeis-good":
        name, path = argv[2], argv[4]
        skipped = ref.PRESETS[name].output_min_index
        checked = inputs.GOOD_BFILE_HI + 1 - skipped
        return 0, (f"{name} vs {path} (shift +0): {checked} compared, {skipped} skipped, "
                   "no mismatches\n")
    if kind == "oeis-bad":
        name, path = argv[2], argv[4]
        got = ref.term(ref.PRESETS[name], 1)
        return 1, (f"{name} vs {path} (shift +0): 2 compared, 0 skipped, "
                   f"1 MISMATCHES: v(1)={got} file=999\n")
    if kind == "usage-error":
        return 2, ""
    raise ValueError(f"unknown CLI job kind {kind!r}")


def _judge_cli(job: inputs.Job, out: dict) -> str | None:
    code, stdout = expected_cli(job.kind, job.args)
    want_sha = CATALOG_STDOUT_SHA if stdout is None else _sha(stdout)
    if out.get("code") != code:
        return f"exit code {out.get('code')}, expected {code}"
    if out.get("stdout") != want_sha:
        return "stdout differs from the expected bytes"
    return None


def judge(job: inputs.Job, record: dict | None) -> str | None:
    if record is None:
        return "no result (the workload child died or timed out)"
    if "error" in record:
        return record["error"]
    if job.id.startswith("cli:"):
        return _judge_cli(job, record["out"])
    return _judge_library(job, record["out"])


def bfiles() -> dict[str, str]:
    """Relative path -> content of every b-file the cli-cold jobs read."""
    files = {inputs.BAD_BFILE: inputs.BAD_BFILE_TEXT}
    for name in inputs.GOOD_BFILE_PRESETS:
        values = ref.prefix(ref.PRESETS[name], inputs.GOOD_BFILE_HI)
        files[inputs.good_bfile(name)] = "".join(f"{n} {v}\n" for n, v in enumerate(values))
    return files
