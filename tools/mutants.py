"""Mutation check of the certificate and the scan in `sternlike.identities`,
of the prefix bound and the descent's stride step in `sternlike.recurrence`,
of the digit walk in `sternlike.linrep`, of the Kronecker slots in
`sternlike.series`, of the substitution and the chunked window pass in
`sternlike.tm_oracle`, and of the value classes' equality and hash in
`sternlike._frozen`.

Each mutant is one small edit of the source, the kind of slip that would let
the certificate claim "holds for all n" or "for all e" when it does not, or
refuse what it should prove, let the scan skip an instance, let a prefix
grow a round or more past the largest index read, let a series product
read a wrong coefficient from its slots, let the Thue-Morse oracle build a
wrong word or miss a window, or let two different values compare or hash
alike.  The check applies each mutant alone to a copy
of the repository and runs only the tests listed for it; a mutant that those
tests do not kill survives.

    python3 tools/mutants.py

checks first that each old text occurs exactly once in its file and that
each listed test is defined, then runs every mutant, and exits 1 on a
problem or a survivor.  A mutant is killed only when pytest exits 1, a
failing test; any other exit code but 0 is a problem.  The full run takes
about a minute on a 2-vCPU VM.  `tests/test_mutants.py` runs only the
first check, `check()`, so that a refactor which moves a mutated line must
update the table.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    reason: str
    tests: tuple[str, ...]


_IDENTITIES = "src/sternlike/identities.py"
_RECURRENCE = "src/sternlike/recurrence.py"
_FROZEN = "src/sternlike/_frozen.py"
_LINREP = "src/sternlike/linrep.py"
_SERIES = "src/sternlike/series.py"
_TM = "src/sternlike/tm_oracle.py"
_T = "tests/test_identities.py::"
_LEVELS = _T + "test_levels_certificates_prove_or_refuse_identities_without_n"
_DRAWN_LEVELS = _T + "test_level_certificates_match_the_reference_scan"
_WITH_N = _T + "test_all_certificates_prove_or_refuse_identities_with_n"
_DRAWN_ALL = _T + "test_all_certificates_match_the_reference_scan_on_drawn_identities"
_SHAPES = _T + "test_the_shape_of_each_index_and_side_with_n_decides_the_path"
_CATALOG = _T + "test_holding_catalog_identities_with_n_are_certified_for_all_n"
_BASIS = _T + "test_the_window_basis_spans_the_windows_from_its_start"
_FIRST_EVENT = _T + "test_verify_is_the_first_event_of_the_lexicographic_scan"
_PATHS = _T + "test_verdicts_compare_without_path_and_scope"
_OWN_INSTANCE = _T + "test_check_instance_evaluates_only_its_own_instance"
_DRAWN_SCAN = _T + "test_verify_matches_the_reference_scan_on_drawn_identities"
_GROWTH = "tests/test_recurrence.py::test_term_lookup_grows_less_than_a_round_past_its_largest_read"
_SCAN_GROWTH = _T + "test_a_whole_scan_ends_its_prefix_less_than_a_round_past_its_largest_read"
_STRIDE_EDGES = "tests/test_recurrence.py::test_evaluate_equals_descent_around_the_tree_crossover"
_COEFF_AT = "tests/test_recurrence.py::test_coeff_at_equals_a_one_digit_descent"
_SLOT_WIDTHS = "tests/test_series.py::test_mul_matches_schoolbook_at_every_slot_width"
_SLOT_EDGES = "tests/test_series.py::test_mul_matches_schoolbook_at_pinned_slot_edges"
_TMT = "tests/test_tm_oracle.py::"
_PER_LETTER = _TMT + "test_prefix_equals_the_per_letter_substitution"
_DOUBLING = _TMT + "test_prefix_satisfies_doubling_relations"
_CHUNK_EDGES = _TMT + "test_factor_counts_at_chunk_edges"
_TM_2_14 = _TMT + "test_factor_counts_on_a_thue_morse_prefix_of_2_to_14_letters"
_F = "tests/test_frozen.py::"
_ENTRIES = "tests/test_lazy_imports.py::test_each_catalog_entry_is_the_catalog_one"

MUTANTS: tuple[Mutant, ...] = (
    # the certificate read from the tree, for every (e, r) and n
    Mutant(_IDENTITIES, "if min(p0, p1, p0 + rest, p1 + rest) < 0:\n            return None\n"
           "        if n is not None:", "if n is not None:",
           "the negative-index corner check dropped", (_WITH_N,)),
    Mutant(_IDENTITIES, "if b or s not in (1, -1) or any(",
           "if b or s not in (1, -1) or least < spec.n_eff or any(",
           "the recurrence required from n_eff: the windows may not read v(0)",
           (_LEVELS, _CATALOG)),
    Mutant(_IDENTITIES, "if b or s not in (1, -1) or any(", "if s not in (1, -1) or any(",
           "a value at (e, r) with a constant term in its index accepted", (_LEVELS,)),
    Mutant(_IDENTITIES, "if shape is None or shape[2]:", "if shape is None:",
           "e outside a power of two accepted in an index", (_LEVELS,)),
    Mutant(_IDENTITIES, "for k in range(least, spec.n_eff)):",
           "for k in range(least + 1, spec.n_eff)):",
           "windows that read one index where the recurrence fails accepted",
           (_LEVELS, _DRAWN_LEVELS)),
    Mutant(_IDENTITIES, "v, least = spec.init, p - (s < 0)", "v, least = spec.init, p",
           "the least index of a window with s = -1 taken as p*2^e", (_LEVELS, _DRAWN_LEVELS)),
    Mutant(_IDENTITIES, "rhs[:3] == (0, 0, 1) and not any(rhs[4:])", "rhs[2] and not any(rhs[4:])",
           "2^(q*e + k) read as 2^(e + k)", (_LEVELS,)),
    Mutant(_IDENTITIES, "if coeffs is None or (_shape(node.e_arg), _shape(node.r_arg)) != (\n"
           "                (0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 0)):", "if coeffs is None:",
           "A(e, r)/B(e, r) read whatever their arguments", (_WITH_N, _DRAWN_ALL)),
    Mutant(_IDENTITIES, "if atom and atom2 or entry and entry2:", "if entry and entry2:",
           "a product of two values at (e, r) accepted", (_WITH_N, _LEVELS)),
    Mutant(_IDENTITIES, "if atom and atom2 or entry and entry2:", "if atom and atom2:",
           "a product of two terms with n accepted", (_SHAPES,)),
    Mutant(_IDENTITIES, "return {(base < 0, None, None): base ** (exp[3] & 1)}",
           "return {(False, None, None): base ** (exp[3] & 1)}",
           "(0 - 1)^e read as a constant", (_CATALOG, _WITH_N)),
    Mutant(_IDENTITIES, " or any(exp[4:]) or exp[3] < 0:", " or any(exp[4:]):",
           "a sign with a negative exponent accepted", (_WITH_N,)),
    Mutant(_IDENTITIES, "(atom[2] << e) + atom[3] * r", "(atom[2] << e) + r",
           "s ignored in the windows of v(p*2^e + s*r)", (_LEVELS, _CATALOG)),
    Mutant(_IDENTITIES, "at_row(atom, e, r + k)",
           'at_row(atom, e, r + k * (atom is None or atom[0] == "v"))',
           "the A/B window without its r + 1 entry", (_CATALOG, _WITH_N)),
    Mutant(_IDENTITIES, "for form in forms for j in (0, 1)]", "for form in forms for j in (0,)]",
           "the form of the row r = 2^e dropped", (_WITH_N, _DRAWN_LEVELS)),
    Mutant(_IDENTITIES, "for u in basis:", "for u in basis[:1]:",
           "U cut to its first basis vector", (_WITH_N,)),
    Mutant(_IDENTITIES, "for n in range(n_min, start - lo):",
           "for n in range(n_min, start - lo - 1):",
           "the last instance below the shift windows' start left out", (_WITH_N,)),
    # the shift windows and the closure the certificate reads them with
    Mutant(_IDENTITIES, "value(spec, i + d) for spec in specs",
           "value(spec, i + d + 1) for spec in specs",
           "the shift windows shifted by one", (_BASIS,)),
    Mutant(_IDENTITIES, "for spec in specs for d in range(width + 1)), 1])",
           "for spec in specs for d in range(width + 1)), 0])",
           "the shift window's constant entry at 0", (_BASIS,)),
    Mutant(_IDENTITIES, "todo += [2 * i, 2 * i + 1]", "todo += [2 * i]",
           "_span queues only 2i", (_BASIS,)),
    Mutant(_IDENTITIES, "todo += [2 * i, 2 * i + 1]", "todo += [2 * i + 1]",
           "_span queues only 2i + 1", (_BASIS,)),
    Mutant(_IDENTITIES, "todo = list(range(start, 2 * start))",
           "todo = list(range(start + 1, 2 * start))", "_span seeded from start + 1", (_BASIS,)),
    # the scan
    Mutant(_IDENTITIES, "if certify and _certified(identity):", "if _certified(identity):",
           "the scan that tests compare against certified as well", (_PATHS,)),
    Mutant(_IDENTITIES, "for n in range(n_lo + 1, n_hi + 1):", "for n in range(n_lo + 1, n_hi):",
           "each row's scan stopped one n short", (_FIRST_EVENT,)),
    Mutant(_IDENTITIES, "for r in range(r_lo, r_hi + 1):", "for r in range(r_hi + 1):",
           "the rows start at 0 whatever r_lo", (_OWN_INSTANCE,)),
    # the emitter of the kernel's texts
    Mutant(_IDENTITIES, "if any(with_n):", "if all(with_n):",
           "a subtree with n in one child only named, so the loop reads a stale value",
           (_DRAWN_SCAN,)),
    # the prefix bound
    Mutant(_RECURRENCE, "min(max(n + 1, 2 * len(values)), n + _ROUND, limit)",
           "min(max(n + 1, 2 * len(values)), limit)",
           "a read past the prefix doubles it up to the limit", (_GROWTH, _SCAN_GROWTH)),
    Mutant(_RECURRENCE, "min(max(n + 1, 2 * len(values)), n + _ROUND, limit)",
           "min(max(n + 1, 2 * len(values)), n + 2 * _ROUND, limit)",
           "a read past the prefix grows it two rounds past the index", (_GROWTH, _SCAN_GROWTH)),
    # eight digits per step: the descent's stride rows and the digit walk's products
    Mutant(_RECURRENCE, "alpha * p + beta * r, alpha * q + beta * s",
           "alpha * p + beta * q, alpha * r + beta * s",
           "A(8, j + 1) and B(8, j) swapped in the descent's stride step",
           (_COEFF_AT, _STRIDE_EDGES)),
    Mutant(_LINREP, "for run in runs:", "for run in runs[:-1]:",
           "the digit walk's stride loop stops one stride early", (_STRIDE_EDGES,)),
    Mutant(_LINREP, "if lead:\n        x, y = _replay(", "if False:\n        x, y = _replay(",
           "the leading j % 8 digits not replayed", (_STRIDE_EDGES,)),
    # the series product's Kronecker slots: width, pack and unpack
    Mutant(_SERIES, "w = (bound.bit_length() + 8) // 8", "w = (bound.bit_length() + 7) // 8",
           "a slot one bit short of the bound's sign bit when its bit length is a multiple of 8",
           (_SLOT_EDGES, _SLOT_WIDTHS)),
    Mutant(_SERIES, "return u - (((u >> (8 * w - 1)) & ones) << (8 * w))", "return u",
           "the packed negative slots keep the 2^(8w) they borrowed from the slot above",
           (_SLOT_EDGES, _SLOT_WIDTHS)),
    Mutant(_SERIES, "slots[k::w] = wide[k::8]", "slots[k::w] = wide[k + 1::8]",
           "the strided pack reads each slot's bytes one byte too high",
           (_SLOT_EDGES, _SLOT_WIDTHS)),
    Mutant(_SERIES, " ^ bias).to_bytes(", ").to_bytes(",
           "the product's slots read with their bias left in", (_SLOT_EDGES, _SLOT_WIDTHS)),
    Mutant(_SERIES, "for k in range(w, 8):", "for k in range(w + 1, 8):",
           "the sign extension leaves the first byte above each slot zero",
           (_SLOT_EDGES, _SLOT_WIDTHS)),
    # the Thue-Morse oracle: the substitution and the windows read from chunks
    Mutant(_TM, "word += word.translate(_FLIP)", "word += word",
           "the second half copied without its complement", (_PER_LETTER, _DOUBLING)),
    Mutant(_TM, "range(0, len(word), ell_max)", "range(0, len(word), ell_max + 1)",
           "the chunks one letter too far apart, so a window in each gap is missed",
           (_CHUNK_EDGES,)),
    Mutant(_TM, "2 * ell_max - 1", "2 * ell_max - 2",
           "a chunk one letter short, so its last window is cut", (_CHUNK_EDGES, _TM_2_14)),
    Mutant(_TM, "min(ell_max, len(c))", "min(ell_max - 1, len(c))",
           "the last offset of each chunk left out", (_CHUNK_EDGES, _TM_2_14)),
    Mutant(_TM, "len(w) >= ell", "len(w) > ell",
           "the windows exactly ell long left out of the length-ell count",
           (_CHUNK_EDGES, _TM_2_14)),
    # the value classes and the catalog lookup
    Mutant(_FROZEN, "value = hash(self._key(self))", "value = hash(self._key(self)[1:])",
           "the hash leaves out a field", (_F + "test_the_hash_is_the_tuple_of_compared_fields",)),
    Mutant(_FROZEN, "if other.__class__ is self.__class__:", "if isinstance(other, Frozen):",
           "equality ignores the class",
           (_F + "test_equal_fields_give_equal_objects_of_one_class_only",)),
    Mutant(_IDENTITIES, '_uncompared = ("path",)', "_uncompared = ()",
           "Verdict equality compares path",
           (_F + "test_verdicts_that_differ_only_in_path_are_equal_and_hash_alike",)),
    Mutant(_IDENTITIES, "*parse_equation(text), n_min=n_min,", "*parse_equation(text),",
           "a catalog entry drops its n_min",
           (_ENTRIES,)),
)


def check(root: Path = ROOT) -> list[str]:
    """The rows whose old text does not occur exactly once in its file, and
    the listed tests whose function is not defined in its file."""
    problems = []
    for at, mutant in enumerate(MUTANTS):
        count = (root / mutant.file).read_text(encoding="utf-8").count(mutant.old)
        if count != 1:
            problems.append(f"mutant {at} ({mutant.reason}): old text occurs {count} times")
        for test in mutant.tests:
            path, name = test.split("::")
            if f"\ndef {name}(" not in (root / path).read_text(encoding="utf-8"):
                problems.append(f"mutant {at} ({mutant.reason}): no test {test}")
    return problems


def run(mutant: Mutant, root: Path = ROOT) -> int:
    """The exit code of pytest running the tests listed for `mutant` on a
    copy of `root` with the mutant applied: 0 if it survives, 1 if a test
    fails and so kills it; any other code (say 4, a test that is not there)
    is a problem, not a kill."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work"))
        path = copy / mutant.file
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new, 1),
                        encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *mutant.tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    problems = check()
    for problem in problems:
        print(problem)
    if problems:
        return 1
    survivors = failures = 0
    for at, mutant in enumerate(MUTANTS):
        code = run(mutant)
        survivors += code == 0
        failures += code not in (0, 1)
        status = {0: "SURVIVED", 1: "killed  "}.get(code, f"pytest exited {code}")
        print(f"{at:2d} {status} {mutant.reason}", flush=True)
    print(f"{survivors} of {len(MUTANTS)} survived, {failures} not run to a verdict")
    return int(bool(survivors or failures))


if __name__ == "__main__":
    sys.exit(main())
