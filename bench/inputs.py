"""Workload inputs, generated from the seed alone, and the output digest.

Both the workload child and the harness call `jobs(workload, seed, ...)`, so
the harness knows every job the child will run without asking the program.
This module imports nothing from `sternlike`.
"""

from __future__ import annotations

import hashlib
import random
from typing import NamedTuple

WORKLOADS = ("grid", "series", "terms", "cli-cold")

WORK_DIR = ".bench_work"


class Job(NamedTuple):
    id: str
    kind: str
    args: tuple


def digest(values) -> str:
    """sha256 of integers written in hex (no decimal digit limit applies)."""
    text = ",".join(format(v, "x") for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


PRESET_NAMES = ("stern", "twisted", "z1", "z2", "z3", "tm_complexity_shift", "josephus")

# ---------------------------------------------------------------------------
# grid: acceptance criterion 2's catalog grids, seeded generic corollaries and
# the printed/derived discrepancy report.

CATALOG_GRIDS = (
    ("prop1", 10, 256), ("prop2", 10, 256), ("coons", 10, 256),
    ("stern_reflect", 16, 0), ("t_aux", 16, 0), ("t_similar", 10, 128),
    ("z2_aux", 12, 0), ("z1_thm_derived", 10, 128),
    ("z2_thm_derived", 10, 128), ("z3_thm_derived", 10, 128),
)
GENERIC_SPECS = 10
GENERIC_GRID = (6, 64)
DISCREPANCY_GRID = (6, 32)


def _grid_jobs(rng: random.Random) -> list[Job]:
    out = [Job(f"verify:{name}:{e}:{n}", "verify", (name, e, n))
           for name, e, n in CATALOG_GRIDS]
    specs = []
    for _ in range(GENERIC_SPECS):
        n0 = rng.choice((0, 1, 2))
        a, b, c = (rng.randint(-3, 3) for _ in range(3))
        specs.append((a, b, c, n0, tuple(rng.randint(-5, 5) for _ in range(2 * max(n0, 1)))))
    out.append(Job(f"generic:{GENERIC_SPECS}", "generic", tuple(specs)))
    out.append(Job("discrepancy:{}:{}".format(*DISCREPANCY_GRID), "discrepancy",
                   DISCREPANCY_GRID))
    return out


# ---------------------------------------------------------------------------
# series: every named check above its acceptance order; dense mul/divide in
# bconj1-3 and sum_s, dense x zero-padded factors in coons_lemma8, and the
# sparse-operand product in carlitz.  The seed orders the jobs.

SERIES_CHECKS = (  # (name, order, e_max)
    ("bconj1", 2048, 5), ("bconj2", 2048, 5), ("bconj3", 2048, 5),
    ("sum_s", 4096, 6), ("coons_lemma8", None, 11), ("carlitz", 16384, None),
)


def _series_jobs(rng: random.Random) -> list[Job]:
    checks = list(SERIES_CHECKS)
    rng.shuffle(checks)
    return [Job(f"series:{name}", "series", (name, order, e_max))
            for name, order, e_max in checks]


# ---------------------------------------------------------------------------
# terms: sparse single terms, one huge index, and a dense prefix round trip.

SPARSE_PER_PRESET = 2000
SPARSE_BITS = 40
BIGINT_BITS = 100_000
DENSE_HI = 2 ** 17 - 1
COEFF_E = 16
TM_ELL_MAX = 64


def _terms_jobs(rng: random.Random) -> list[Job]:
    out = []
    for name in PRESET_NAMES:
        ns = tuple(rng.randrange(2 ** SPARSE_BITS) for _ in range(SPARSE_PER_PRESET))
        out.append(Job(f"sparse:{name}", "sparse", (name, ns)))
    big = (1 << BIGINT_BITS) | rng.getrandbits(BIGINT_BITS)
    out.append(Job("bigint:eval_fast", "bigint_fast", ("stern", big)))
    out.append(Job("bigint:evaluate", "bigint_linrep", ("stern", big)))
    out.append(Job("dense:stern", "dense", ("stern", DENSE_HI)))
    out.append(Job("coeff_table:stern", "coeff_table", ("stern", COEFF_E)))
    out.append(Job(f"tm_oracle:{TM_ELL_MAX}", "tm_oracle", (TM_ELL_MAX,)))
    return out


# ---------------------------------------------------------------------------
# cli-cold: one cold `python -m sternlike` per job.  Each block of
# len(CLI_KINDS) invocations holds every kind once, in seeded order, so the
# mix is the same for every seed and only the arguments vary.

CLI_KINDS = ("eval", "table", "coeffs", "compile", "catalog", "verify",
             "verify-expr", "series", "oracle-tm", "oeis-good", "oeis-bad",
             "usage-error")
SEQUENCE_ARGS = PRESET_NAMES + ("s", "t", "y", "d")
CATALOG_NAMES = (
    "prop1", "prop2", "coons", "stern_reflect", "t_similar", "t_aux", "z2_aux",
    "t_corollary_printed", "t_corollary_derived", "z1_thm_printed",
    "z1_thm_derived", "z2_thm_printed", "z2_thm_printed_no_n", "z2_thm_derived",
    "z3_thm_printed", "z3_thm_derived", "z1_cor_printed", "z1_cor_derived",
    "z2_cor_printed", "z2_cor_derived", "z3_cor_printed", "z3_cor_derived",
    *(f"generic_cor_{name}" for name in PRESET_NAMES),
)
EXPRESSIONS = (  # (text, n_min)
    ("s(2*n + 1) == s(n) + s(n + 1)", 0),
    ("s(2^e*n + r) == s(r)*s(n + 1) + s(2^e - r)*s(n)", 0),
    ("t(2*n) == 0 - t(n)", 1),
    ("z3(n + 3) == z3(n)", 0),
    ("s(n) == s(n + 1)", 0),
)
SERIES_NAMES = ("sum_s", "carlitz", "coons_lemma8", "bconj1", "bconj2", "bconj3")
GOOD_BFILE_PRESETS = ("stern", "twisted", "z1", "z2", "z3", "josephus")
GOOD_BFILE_HI = 63
BAD_BFILE = f"{WORK_DIR}/bad.txt"
BAD_BFILE_TEXT = "0 0\n1 999\n"
USAGE_ERRORS = (
    ("verify", "--expr", "s(r"),
    ("eval", "nosuch", "1"),
    ("table", "stern", "--from", "2", "--to", "1"),
    ("verify",),
    ("eval", "stern", "-5"),
    ("coeffs", "stern", "--e-max", "-1"),
    ("series", "nosuch"),
    ("oeis", "check", "stern", "--bfile", f"{WORK_DIR}/missing.txt"),
)


def good_bfile(name: str) -> str:
    return f"{WORK_DIR}/good_{name}.txt"


def _cli_argv(kind: str, rng: random.Random) -> tuple[str, ...]:
    if kind == "eval":
        mode = rng.choice(((), ("--direct",), ("--fast",)))
        return ("eval", rng.choice(SEQUENCE_ARGS), str(rng.randrange(2 ** 64)), *mode)
    if kind == "table":
        lo = rng.randrange(64)
        hi = lo + rng.randrange(256)
        fmt = rng.choice(((), ("--format", "csv"), ("--format", "bfile")))
        return ("table", rng.choice(SEQUENCE_ARGS), "--from", str(lo), "--to", str(hi), *fmt)
    if kind == "coeffs":
        return ("coeffs", rng.choice(SEQUENCE_ARGS), "--e-max", str(rng.randrange(7)))
    if kind == "compile":
        return ("compile", rng.choice(SEQUENCE_ARGS))
    if kind == "catalog":
        return ("catalog",)
    if kind == "verify":
        return ("verify", rng.choice(CATALOG_NAMES), "--e-max", str(rng.choice((3, 4, 5))),
                "--n-max", str(rng.choice((8, 12, 16))))
    if kind == "verify-expr":
        text, n_min = rng.choice(EXPRESSIONS)
        n_min_args = ("--n-min", str(n_min)) if n_min else ()
        return ("verify", "--expr", text, "--e-max", str(rng.choice((3, 4, 5))),
                "--n-max", str(rng.choice((8, 12, 16))), *n_min_args)
    if kind == "series":
        name = rng.choice(SERIES_NAMES)
        if name == "carlitz":
            return ("series", name, "--order", str(rng.choice((64, 128, 256, 512))))
        if name == "coons_lemma8":
            return ("series", name, "--e-max", str(rng.randint(3, 6)))
        return ("series", name, "--e-max", str(rng.choice((2, 3))),
                "--order", str(rng.choice((64, 128))))
    if kind == "oracle-tm":
        return ("oracle-tm", "--ell-max", str(rng.randint(4, 16)))
    if kind == "oeis-good":
        name = rng.choice(GOOD_BFILE_PRESETS)
        return ("oeis", "check", name, "--bfile", good_bfile(name))
    if kind == "oeis-bad":
        return ("oeis", "check", "stern", "--bfile", BAD_BFILE)
    if kind == "usage-error":
        return rng.choice(USAGE_ERRORS)
    raise ValueError(f"unknown CLI job kind {kind!r}")


def _cli_jobs(rng: random.Random, stop: int) -> list[Job]:
    out = []
    while len(out) < stop:
        kinds = list(CLI_KINDS)
        rng.shuffle(kinds)
        for kind in kinds:
            out.append(Job(f"cli:{len(out)}", kind, _cli_argv(kind, rng)))
    return out[:stop]


def jobs(workload: str, seed: int, start: int = 0, count: int = 0) -> list[Job]:
    """The jobs of one workload child; `start`/`count` slice the cli-cold sequence."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "grid":
        return _grid_jobs(rng)
    if workload == "series":
        return _series_jobs(rng)
    if workload == "terms":
        return _terms_jobs(rng)
    if workload == "cli-cold":
        return _cli_jobs(rng, start + count)[start:]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
