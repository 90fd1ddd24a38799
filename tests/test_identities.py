"""Identity grammar, catalog, and the exhaustive verifier."""

import random
from dataclasses import replace

import pytest

from sternlike import (DomainError, ParseError, RangeError,
                       UnknownIdentityError, catalog, catalog_entry,
                       catalog_names, check_instance, discrepancy_report,
                       generic_corollary, make_spec, parse_identity, preset,
                       verify)
from sternlike import identities
from sternlike.identities import (Counterexample, bind_presets, render,
                                  VARIANT_FAMILIES)


def test_parse_coons():
    ident = parse_identity(
        "s(r)*s(2*n+5) + s(2^e - r)*s(2*n+3) == s(2^e*(n+2)+r) + s(2^e*(n+1)+r)")
    assert ident.seq_names == ("s",)
    assert ident.uses_n


def test_parse_error_with_position():
    with pytest.raises(ParseError) as err:
        parse_identity("s(r) + == s(n)")
    assert err.value.position is not None


@pytest.mark.parametrize("text,position", [
    ("(" * 1500 + "s(n)" + ")" * 1500 + " == s(n)", 50),   # nested parentheses
    ("+".join(["s(n)"] * 300) + " == s(n)", 247),          # a long chain nests the AST
    ("s(n) == " + "*".join(["2"] * 60), 108),              # so does a long product
])
def test_parse_rejects_deep_nesting_with_position(text, position):
    with pytest.raises(ParseError) as err:
        parse_identity(text)
    assert err.value.position == position
    assert "nests deeper than 50 levels" in str(err.value)


def test_parse_accepts_moderate_nesting():
    ident = bind_presets(parse_identity("(" * 20 + "s(n)" + ")" * 20 + " == "
                                        + " + ".join(["s(n)"] * 20)))
    assert verify(ident, 1, 2).counterexample.n == 1


def test_parse_literal_base_power():
    ident = parse_identity("t(2^e*n + r) == (0-1)^e * (s(r)*t(n+1) + s(2^e - r)*t(n))")
    assert set(ident.seq_names) == {"s", "t"}


@pytest.mark.parametrize("bad", [
    "s(r)",                      # no ==
    "s(r) == s(q)",              # unknown variable
    "s(r) == r",                 # bare variable at top level
    "s(t(n)) == s(n)",           # nested sequence call inside an index
    "A(e) == s(n)",              # reserved name with one argument
    "s(e, r) == s(n)",           # two arguments on a plain sequence
    "s(n)^e == s(n)",            # non-constant power base
    "s(r) == s(r) s(r)",         # missing operator
])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_identity(bad)


def test_tokenizer_reports_an_unexpected_character_with_its_position():
    with pytest.raises(ParseError) as err:
        parse_identity("s(n) == s(n) $")
    assert str(err.value) == "unexpected character '$' (at position 13)"
    assert err.value.position == 13


def test_tokenizer_skips_trailing_whitespace():
    ident = bind_presets(parse_identity("s(n) == s(n)   "))
    assert verify(ident, 2, 3).holds


def test_coefficient_reference_inside_an_index_is_rejected():
    with pytest.raises(ParseError, match=r"^coefficient reference A\(\.\.\.\) cannot "
                                         r"appear inside an index expression$"):
        parse_identity("s(A(e, r)) == 0")


def test_printer_parser_fixpoint_for_catalog():
    for entry in catalog():
        again = parse_identity(entry.text)
        assert (again.lhs, again.rhs) == (entry.lhs, entry.rhs), entry.name


def test_render_precedence():
    ident = parse_identity("s(n)*(s(n) + 1) == s(n)*s(n) + s(n)")
    assert ident.text == "s(n)*(s(n) + 1) == s(n)*s(n) + s(n)"


@pytest.mark.parametrize("text", [
    "s(n)*(2*s(n)) == 2 - (1 - s(n)) - (1 + 1)",
    "(s(n) - 1)*2^(e + 1) == (2^3)^e + (0 - 1)^(e*(r - 1))",
    *(entry.text for entry in catalog()),
])
def test_render_reparses_to_the_same_tree(text):
    ident = parse_identity(text)
    assert ident.text == text
    reparsed = parse_identity(ident.text)
    assert (reparsed.lhs, reparsed.rhs) == (ident.lhs, ident.rhs)


def test_catalog_contents():
    names = catalog_names()
    assert len(names) >= 15
    assert catalog_entry("coons").n_min == 0
    assert catalog_entry("prop2").n_min == 1
    assert catalog_entry("t_similar").n_min == 1
    with pytest.raises(UnknownIdentityError):
        catalog_entry("nonsense")


def test_check_instance_examples():
    coons = catalog_entry("coons")
    assert check_instance(coons, 2, 3, 1) == (9, 9, True)
    prop2 = catalog_entry("prop2")
    assert check_instance(prop2, 1, 1, 3) == (-1, -1, True)
    # below prop2's n_min the two sides genuinely differ
    assert check_instance(prop2, 1, 1, 0) == (1, -1, False)


def test_check_instance_domain_error():
    ident = bind_presets(parse_identity("s(n - 5) == s(n)"))
    with pytest.raises(DomainError):
        check_instance(ident, 0, 0, 0)


def test_verify_prop1_counts_full_grid():
    verdict = verify(catalog_entry("prop1"), 4, 16)
    assert verdict.holds
    assert verdict.checked_count == sum(2**e + 1 for e in range(5)) * 17


def test_verify_no_n_identity_grid():
    verdict = verify(catalog_entry("stern_reflect"), 10, 999)
    assert verdict.holds
    assert verdict.checked_count == sum(2**e + 1 for e in range(11))


def test_verify_mutated_coons_minimal_counterexample():
    mutated = bind_presets(parse_identity(
        "s(r)*s(2*n + 4) + s(2^e - r)*s(2*n + 3)"
        " == s(2^e*(n + 2) + r) + s(2^e*(n + 1) + r)"))
    verdict = verify(mutated, 4, 16)
    assert not verdict.holds
    assert verdict.counterexample == Counterexample(e=0, r=1, n=0, lhs=1, rhs=3)
    assert verdict.checked_count == sum(2**e + 1 for e in range(5)) * 17


def test_verify_is_deterministic_across_runs_and_jobs():
    ident = catalog_entry("z3_cor_printed")
    verdicts = [verify(ident, 4, 12),
                verify(ident, 4, 12),
                verify(ident, 4, 12, jobs=4)]
    assert verdicts[0] == verdicts[1] == verdicts[2]
    assert not verdicts[0].holds


def test_verify_rejects_fewer_than_one_job():
    for jobs in (0, -3):
        with pytest.raises(RangeError):
            verify(catalog_entry("prop1"), 2, 4, jobs=jobs)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size, runs in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("jobs,levels,cpus,size", [
    (64, 3, 8, 3),       # capped by the number of e-levels
    (64, 11, 4, 4),      # capped by the CPU count
    (3, 11, 8, 3),       # as asked
    (8, 1, 8, None),     # one level: no pool
    (8, 11, 1, None),    # one CPU: no pool
])
def test_verify_caps_worker_pool(monkeypatch, jobs, levels, cpus, size):
    monkeypatch.setattr(identities, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(identities.os, "cpu_count", lambda: cpus)
    _RecordingPool.sizes = []
    ident = catalog_entry("z3_cor_printed")
    assert verify(ident, levels - 1, 8, jobs=jobs) == verify(ident, levels - 1, 8)
    assert _RecordingPool.sizes == ([] if size is None else [size])


@pytest.mark.parametrize("ident,message", [
    (bind_presets(parse_identity("A(e, r)*s(n) == t(n)")), "exactly one bound sequence"),
    (bind_presets(parse_identity("A(e, r) == B(e, r)")), "exactly one bound sequence"),
    (parse_identity("s(n) == s(n)"), "unbound sequence names: s"),
])
def test_verify_binding_errors_raise_before_any_level(monkeypatch, ident, message):
    monkeypatch.setattr(identities, "ProcessPoolExecutor", _RecordingPool)
    _RecordingPool.sizes = []
    for jobs in (1, 4):
        with pytest.raises(DomainError, match=message):
            verify(ident, 3, 4, jobs=jobs)
    assert _RecordingPool.sizes == []


def test_verify_coefficients_accept_one_spec_under_two_names():
    ident = bind_presets(parse_identity("A(e, r)*s(n) == stern(n)*A(e, r)"))
    assert verify(ident, 3, 4).holds


def test_verify_rejects_negative_e_max():
    with pytest.raises(RangeError, match="e_max must be >= 0, got -1"):
        verify(catalog_entry("prop1"), -1, 4)


@pytest.mark.parametrize("name,n_max", [("prop1", -1), ("prop2", 0)])
def test_verify_rejects_an_empty_n_range(name, n_max):
    entry = catalog_entry(name)
    with pytest.raises(RangeError, match=f"n_max must be >= n_min = {entry.n_min}, got {n_max}"):
        verify(entry, 3, n_max)


def test_verify_pins_n_for_identities_without_n():
    entry = catalog_entry("stern_reflect")
    assert verify(entry, 4, -3) == verify(entry, 4, entry.n_min) == verify(entry, 4, 99)


def reference_verify(identity, e_max, n_max):
    """The grid walked in lexicographic (e, r, n) order, one `check_instance`
    per point, stopping at the first mismatch or exception; the count is the
    full grid."""
    n_hi = n_max if identity.uses_n else identity.n_min
    points = [(e, r, n) for e in range(e_max + 1) for r in range((1 << e) + 1)
              for n in range(identity.n_min, n_hi + 1)]
    for e, r, n in points:
        lhs, rhs, ok = check_instance(identity, e, r, n)
        if not ok:
            return identities.Verdict(False, len(points), Counterexample(e, r, n, lhs, rhs))
    return identities.Verdict(True, len(points))


def _outcome(run, *args, **kwargs):
    try:
        return run(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)


# true identities, each perturbed below by a difference of two terms whose
# indices may coincide, differ or turn negative somewhere in the grid; the
# second index is random, or the first plus a summand that vanishes on the
# early levels or at r = 0 or n = 0
_BASES = (
    ("s", "s(2^e*n + r) == s(r)*s(n + 1) + s(2^e - r)*s(n)"),
    ("s", "s(2^e + r) - s(r) == s(2^e - r)"),
    ("t", "t(2^(e + 1) + r) + t(2^e + r) == t(3*2^e - r)"),
    ("z1", "z1(2^e*n + r) == A(e, r)*z1(n) + B(e, r)*z1(n + 1)"),
    ("z3", "A(e, r)*z3(2*n + 3) + B(e, r)*z3(2*n + 5)"
           " == z3(2^e*(n + 2) + r) + z3(2^e*(n + 1) + r)"),
)
_INDEX_ATOMS = ("2^e*n", "2^e", "r", "n", "1")
_VANISHING = ("r*n", "n*(2^e - 1)", "r*(2^e - 2)", "(2^e - 1)*(2^e - 2)", "r*(r - 1)")


def _random_index(rng):
    parts = []
    for atom in rng.sample(_INDEX_ATOMS, rng.randint(1, 3)):
        k = rng.randint(-1, 3)
        parts.append(f"{k}*{atom}" if k >= 0 else f"(0 - {-k})*{atom}")
    return " + ".join(parts)


def _random_identity(rng):
    seq, text = rng.choice(_BASES)
    if rng.random() < 0.8:
        first = _random_index(rng)
        second = rng.choice((_random_index(rng), f"{first} + {rng.choice(_VANISHING)}"))
        text += f" + {rng.randint(1, 3)}*({seq}({first}) - {seq}({second}))"
    return replace(bind_presets(parse_identity(text)), n_min=rng.choice((0, 0, 1)))


def test_verify_is_the_first_event_of_the_lexicographic_scan():
    rng = random.Random(20261018)
    kinds = set()
    for case in range(150):
        ident = _random_identity(rng)
        e_max = rng.randint(0, 3)
        n_max = rng.randint(ident.n_min, 6)
        expected = _outcome(reference_verify, ident, e_max, n_max)
        assert _outcome(verify, ident, e_max, n_max) == expected, (ident.text, e_max, n_max)
        # the pool path too, wherever a later level could run or raise
        later_levels = (not isinstance(expected, tuple) and not expected.holds
                        and expected.counterexample.e < e_max)
        if later_levels or case % 15 == 0:
            assert _outcome(verify, ident, e_max, n_max, jobs=2) == expected, ident.text
        kinds.add(expected[0] if isinstance(expected, tuple) else expected.holds)
    assert kinds == {True, False, DomainError}


def test_variant_families_follow_the_catalog():
    families = [ident.family for ident in catalog() if ident.variant]
    assert VARIANT_FAMILIES == tuple(dict.fromkeys(families))


def test_catalog_identities_hold_on_small_grids():
    skip = {"z2_thm_printed", "z2_thm_printed_no_n",
            "z1_cor_printed", "z2_cor_printed", "z3_cor_printed"}
    for entry in catalog():
        verdict = verify(entry, 5, 24)
        if entry.name in skip:
            assert not verdict.holds, entry.name
        else:
            assert verdict.holds, (entry.name, verdict.counterexample)


def test_discrepancy_report_adjudicates_variants():
    report = discrepancy_report(e_max=5, n_max=16)
    assert report.derived_all_hold
    outcomes = {ident.name: verdict.holds for ident, verdict in report.rows}
    assert outcomes["t_corollary_printed"]
    assert outcomes["z1_thm_printed"]
    assert outcomes["z3_thm_printed"]
    assert not outcomes["z2_thm_printed"]
    assert not outcomes["z2_thm_printed_no_n"]
    assert not outcomes["z1_cor_printed"]
    assert not outcomes["z2_cor_printed"]
    assert not outcomes["z3_cor_printed"]
    # the report names every failing variant with its minimal counterexample
    text = report.text()
    for ident, verdict in report.failing():
        assert ident.name in text
        assert f"e={verdict.counterexample.e}" in text
    assert {ident.family for ident, _ in report.rows} == set(VARIANT_FAMILIES)


def test_every_derived_variant_holds_at_full_depth():
    for entry in catalog():
        if entry.variant == "derived":
            verdict = verify(entry, 10, 128)
            assert verdict.holds, (entry.name, verdict.counterexample)


def test_generic_corollary_random_specs():
    rng = random.Random(20240810)
    for _ in range(10):
        n0 = rng.choice((0, 1, 2))
        spec = make_spec(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3),
                         n0, [rng.randint(-5, 5) for _ in range(2 * max(n0, 1))])
        verdict = verify(generic_corollary(spec), 4, 24)
        assert verdict.holds, (spec, verdict.counterexample)


def test_generic_corollary_round_trips():
    ident = generic_corollary(preset("tm_complexity_shift"))
    assert ident.n_min == 2
    again = parse_identity(ident.text)
    assert (again.lhs, again.rhs) == (ident.lhs, ident.rhs)


def test_custom_n_min_override():
    ident = catalog_entry("prop2")
    lowered = replace(ident, n_min=0)
    verdict = verify(lowered, 3, 8)
    assert not verdict.holds
    assert verdict.counterexample.n == 0


def test_render_round_trip_random_texts():
    texts = [
        "s(2^e*n + r) == s(r)*s(n + 1) + s(2^e - r)*s(n)",
        "-s(r)*s(n) + 2*s(n + 1) == s(3*2^e - r) - (0 - 2)^e",
        "A(e, r)*v(n) + B(e, r)*v(n + 1) == v(2^e*n + r)",
    ]
    for text in texts:
        first = parse_identity(text)
        second = parse_identity(first.text)
        assert (first.lhs, first.rhs) == (second.lhs, second.rhs)
        assert render(first.lhs) == render(second.lhs)
