"""Identity grammar, catalog, and the exhaustive verifier."""

import gc
import random
import sys
from fractions import Fraction
from math import lcm
from operator import add, mul, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sternlike import (DomainError, ParseError, RangeError,
                       UnknownIdentityError, catalog, catalog_entry,
                       catalog_names, check_instance, coeff_at, discrepancy_report,
                       eval_direct, generic_corollary, make_spec, parse_identity,
                       preset, verify)
from sternlike import identities, recurrence
from sternlike.recurrence import _ROUND, PRESET_NAMES
from sternlike.identities import (BinOp, Coeff, Counterexample, Lit, Term, Var, bind_presets,
                                  render, VARIANT_FAMILIES)

from conftest import scan_only


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


def test_a_literal_past_the_int_str_digit_limit_is_a_parse_error():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ParseError) as err:
            parse_identity("s(n) == " + "9" * 5000)
    finally:
        sys.set_int_max_str_digits(limit)
    assert err.value.position == 8
    assert str(err.value) == ("integer literal has 5000 digits, past the interpreter's "
                              "int/str conversion limit (at position 8)")


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


def test_check_instance_evaluates_only_its_own_instance():
    ident = bind_presets(parse_identity("s(r - 1) == s(r - 1)"))
    # row 0 of level 1 reads s(-1); row 1 alone does not
    with pytest.raises(DomainError):
        check_instance(ident, 1, 0, 0)
    assert check_instance(ident, 1, 1, 0) == (0, 0, True)


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


@pytest.mark.parametrize("ident,message", [
    (bind_presets(parse_identity("A(e, r)*s(n) == t(n)")), "exactly one bound sequence"),
    (bind_presets(parse_identity("A(e, r) == B(e, r)")), "exactly one bound sequence"),
    (parse_identity("s(n) == s(n)"), "unbound sequence names: s"),
])
def test_verify_binding_errors_raise_before_any_level(ident, message):
    for jobs in (1, 4):
        with pytest.raises(DomainError, match=message):
            verify(ident, 3, 4, jobs=jobs)


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
    """The grid walked in lexicographic (e, r, n) order, one call of the
    kernel's `_level(e, r, r, n, n)` per point, a row's first instance alone,
    which computes each value it names before reading it; loaded once and
    bound once per level with no prefix (every term by descent), stopping at
    the first mismatch or exception; the count is the full grid."""
    n_hi = n_max if identity.uses_n else identity.n_min
    points = [(e, r, n) for e in range(e_max + 1) for r in range((1 << e) + 1)
              for n in range(identity.n_min, n_hi + 1)]
    params = tuple(identities._bind(identity, 0, 0))
    make = identities._load(identities._kernel_source(identity, params))
    instances = {}
    for e, r, n in points:
        if e not in instances:
            instances[e] = make(**identities._bind(identity, e, 0))
        _, _, lhs, rhs = instances[e](e, r, r, n, n)
        if lhs != rhs:
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
_N_FREE_BASES = tuple(base for base in _BASES if not parse_identity(base[1]).uses_n)
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
    return bind_presets(parse_identity(text)).replace(n_min=rng.choice((0, 0, 1)))


def test_verify_is_the_first_event_of_the_lexicographic_scan():
    rng = random.Random(20261018)
    kinds = set()
    for case in range(150):
        ident = _random_identity(rng)
        e_max = rng.randint(0, 3)
        n_max = rng.randint(ident.n_min, 6)
        expected = _outcome(reference_verify, ident, e_max, n_max)
        assert _outcome(verify, ident, e_max, n_max) == expected, (ident.text, e_max, n_max)
        # jobs changes nothing, wherever a later level could run or raise
        later_levels = (not isinstance(expected, tuple) and not expected.holds
                        and expected.counterexample.e < e_max)
        if later_levels or case % 15 == 0:
            assert _outcome(verify, ident, e_max, n_max, jobs=2) == expected, ident.text
        kinds.add(expected[0] if isinstance(expected, tuple) else expected.holds)
    assert kinds == {True, False, DomainError}


# the same two terms added to both sides of a true identity, so that only
# their errors decide: the first index, negative in n, is negative at the
# level's first instance or at the first instance of row 1, where the second,
# to its right, is negative too, mostly at another index; or, in an identity
# without n, the first index is negative at r = 0 and the second, free of r,
# at the level.  A kernel that computes a hoisted value before the first
# instance of its pass reports the second error
def _clashing_identity(rng):
    n_min, stage = rng.choice((0, 1, 2)), rng.choice(("level", "row", "n-free"))
    if stage == "n-free":
        seq, text = rng.choice(_N_FREE_BASES)
        first = f"r - {rng.randint(1, 2)}"
    else:
        seq, text = rng.choice(_BASES)
        first = f"n - {n_min + rng.randint(1, 2)}" + ("*r" if stage == "row" else "")
    second = f"{rng.randint(0, 2)} - {rng.randint(3, 4)}*" + ("r" if stage == "row" else "2^e")
    lhs, rhs = (f"{side} + {seq}({first}) + {seq}({second})" for side in text.split(" == "))
    return bind_presets(parse_identity(f"{lhs} == {rhs}")).replace(n_min=n_min)


@settings(deadline=None, max_examples=60)
@given(st.integers(), st.integers(0, 3), st.integers(0, 6), st.booleans(), st.booleans())
def test_verify_matches_the_reference_scan_on_drawn_identities(seed, e_max, n_max, rerun, clash):
    ident = (_clashing_identity if clash else _random_identity)(random.Random(seed))
    n_max = max(n_max, ident.n_min)
    expected = _outcome(reference_verify, ident, e_max, n_max)
    assert _outcome(verify, ident, e_max, n_max) == expected, ident.text
    if rerun:
        assert _outcome(verify, ident, e_max, n_max, jobs=2) == expected, ident.text


def tree_instance(identity, e, r, n):
    """`check_instance` computed from the tree alone, sharing no code with the
    kernel: a plain recursion, left to right, with terms by `eval_direct`,
    A(e, r)/B(e, r) by `coeff_at`, and the kernel's errors for a negative
    index or exponent."""
    specs = dict(identity.bindings)

    def value(node):
        if isinstance(node, Lit):
            return node.value
        if isinstance(node, Var):
            return {"e": e, "r": r, "n": n}[node.name]
        if isinstance(node, Term):
            index = value(node.arg)
            if index < 0:
                raise DomainError(f"index of {node.seq}(...) evaluated negative: {index}")
            return eval_direct(specs[node.seq], index)
        if isinstance(node, Coeff):
            at = value(node.e_arg), value(node.r_arg)
            return coeff_at(*set(specs.values()), *at)["AB".index(node.kind)]
        lhs, rhs = value(node.lhs), value(node.rhs)
        if node.op == "^" and rhs < 0:
            raise DomainError(f"exponent evaluated negative: {rhs}")
        return {"+": add, "-": sub, "*": mul, "^": pow}[node.op](lhs, rhs)

    lhs, rhs = value(identity.lhs), value(identity.rhs)
    return lhs, rhs, lhs == rhs


@settings(deadline=None, max_examples=150)
@given(st.integers(), st.booleans(), st.integers(0, 4), st.data())
def test_check_instance_matches_a_tree_evaluator_on_drawn_identities(seed, clash, e, data):
    ident = (_clashing_identity if clash else _random_identity)(random.Random(seed))
    r, n = data.draw(st.integers(0, 1 << e)), data.draw(st.integers(0, 10))
    expected = _outcome(tree_instance, ident, e, r, n)
    assert _outcome(check_instance, ident, e, r, n) == expected, (ident.text, e, r, n)


# negative exponents, and A(e, r)/B(e, r) outside 0 <= r <= 2^e or at e < 0,
# each met before or after a negative index
_INSTANCE_ERRORS = ("(0 - 1)^(n - 3)*s(n) == s(n)", "s(n)*2^(r - 1) == s(2^e - r) - 2^(e - n)",
                    "A(e, r - 1)*s(n) == B(e - n, r)*s(n + 1)", "s(2^e - 3*r) == A(e, 2*r)",
                    "2^(n - e)*s(r) == s(r - n)")


def test_check_instance_matches_a_tree_evaluator_on_the_catalog_and_at_errors():
    for ident in (*catalog(), *(bind_presets(parse_identity(text)) for text in _INSTANCE_ERRORS)):
        for e in range(4):
            for r in (0, (1 << e) // 2, 1 << e):
                for n in (0, 1, 5):
                    expected = _outcome(tree_instance, ident, e, r, n)
                    assert _outcome(check_instance, ident, e, r, n) == expected, ident.name


# the lhs reads s(-1) at the first instance, where a row value (r - 5) or a
# level value (2^e - 5) of the rhs is negative too, or at the first instance
# of row 1, where the row value s(1 - 4*r) reads s(-3), or, without n, at
# r = 0, where the level value s(2 - 2^(e + 2)) reads s(-2): the -1 comes first
@pytest.mark.parametrize("text", ["s(n - 1) == s(r - 5)", "s(n - 1) == s(2^e - 5)",
                                  "s(n - r) + s(1 - 4*r) == s(n - r) + s(1 - 4*r)",
                                  "s(r - 1) + s(2 - 2^(e + 2)) == s(r - 1) + s(2 - 2^(e + 2))"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_verify_raises_the_first_error_of_the_first_instance(text, jobs):
    ident = bind_presets(parse_identity(text))
    with pytest.raises(DomainError) as caught:
        verify(ident, 2, 3, jobs=jobs)
    assert str(caught.value) == "index of s(...) evaluated negative: -1"


def test_verify_computes_no_power_before_the_first_error(monkeypatch):
    calls = []

    def counting_pow(base, exp):
        calls.append((base, exp))
        return base ** exp
    monkeypatch.setattr(identities, "_int_pow", counting_pow)
    with pytest.raises(DomainError) as caught:
        verify(bind_presets(parse_identity("s(n - 1) == 2^(e + 5)")), 2, 3)
    assert str(caught.value) == "index of s(...) evaluated negative: -1"
    assert calls == []


def test_a_serial_scan_grows_one_prefix_across_its_levels(monkeypatch):
    appended, longest = [], [0]
    extend = recurrence._extend

    def counting_extend(spec, values, size):
        appended.append(max(size - len(values), 0))
        out = extend(spec, values, size)
        longest[0] = max(longest[0], len(out))
        return out
    monkeypatch.setattr(recurrence, "_extend", counting_extend)
    entry = catalog_entry("prop1")
    assert verify(entry, 6, 32).holds
    # the one prefix, the early binding check's, starts from the 2*n_eff
    # initial values and keeps every term the scan appends to it
    n_eff = preset("stern").n_eff
    assert sum(appended) == longest[0] - 2 * n_eff


# edges of the kernel's passes, each checked against the reference scan:
# negative strides (1 and 2^e, without and with n), a zero stride, passes that
# run past the prefix end or beyond the limit into descent, a term-free side,
# indices and exponents that turn negative mid-pass, counterexamples inside a
# pass, and passes whose coefficient reference, power or non-affine index
# mentions n
@pytest.mark.parametrize("text, e_max, n_max", [
    ("s(2^e + r) - s(r) == s(2^e - r)", 6, 0),
    ("t(2^e - r + 4)*t(2^e - r + 4)*t(2^e - r + 4) == t(2^e - r + 4)", 5, 0),
    ("t(3*2^e - 2*r)*t(3*2^e - 2*r)*t(3*2^e - 2*r) == t(3*2^e - 2*r)", 5, 0),
    ("s((0 - 1)*2^e*n + 2^(e + 3)) == s(8 - n)", 3, 8),
    ("s((0 - 1)*2^e*n + 2^(e + 3)) == s(8 - n)", 3, 10),
    ("t(13 - 2*n)*t(13 - 2*n)*t(13 - 2*n) == t(13 - 2*n)", 0, 6),
    ("s(0*n + r)*s(n + 1) + s(2^e - r)*s(n) == s(2^e*n + r)", 4, 16),
    ("t(0*n + 3)*t(n) == t(3*n)", 2, 12),
    ("s(64*n) == s(n)", 0, 300),
    ("s(2*n + 1) - s(n) - s(n + 1) == 0", 2, 200),
    ("s(5 - n) == s(5 - n)", 1, 8),
    ("s(3 - r) + s(r) == s(3 - r) + s(r)", 2, 0),
    ("t(n)*t(n)*t(n) == t(n)", 2, 16),
    ("t(2^e*n + r)*t(2^e*n + r)*t(2^e*n + r) == t(2^e*n + r)", 2, 7),
    ("A(e + n, r)*s(n) == A(e + n, r)*s(2*n)", 3, 8),
    ("A(e, r + n)*s(n) == A(e, r + n)*s(2*n)", 3, 8),
    ("(0 - 1)^n*t(2*n) == (0 - 1)^(n + 1)*t(n)", 3, 8),
    ("(0 - 1)^(3 - n)*s(n) == (0 - 1)^(3 - n)*s(2*n)", 1, 8),
    ("s(n*n) == s(2*n*n)", 2, 12),
])
def test_the_scan_meets_its_edges_as_the_reference_scan_does(text, e_max, n_max):
    ident = bind_presets(parse_identity(text))
    expected = _outcome(reference_verify, ident, e_max, n_max)
    assert _outcome(verify, ident, e_max, n_max) == expected
    assert _outcome(verify, ident, e_max, n_max, jobs=2) == expected
    assert _outcome(scan_only, ident, e_max, n_max) == expected


def test_a_whole_scan_ends_its_prefix_less_than_a_round_past_its_largest_read(monkeypatch):
    lengths = []
    extend = recurrence._extend

    def recording_extend(spec, values, size):
        lengths.append(len(extend(spec, values, size)))
        return values
    monkeypatch.setattr(recurrence, "_extend", recording_extend)
    assert scan_only(catalog_entry("t_aux"), 16, 0).holds
    # t(3*2^16) at r = 2^16 is the largest read
    assert 3 * 2**16 < max(lengths) <= 3 * 2**16 + _ROUND


# acceptance criterion 2's catalog grids
CRITERION_2_GRIDS = (
    ("prop1", 10, 256), ("prop2", 10, 256), ("coons", 10, 256),
    ("stern_reflect", 16, 0), ("t_aux", 16, 0), ("t_similar", 10, 128),
    ("z2_aux", 12, 0), ("z1_thm_derived", 10, 128),
    ("z2_thm_derived", 10, 128), ("z3_thm_derived", 10, 128),
)


def test_holding_catalog_identities_with_n_are_certified_for_all_n():
    for name, e_max, n_max in CRITERION_2_GRIDS:
        ident = catalog_entry(name)
        verdict = verify(ident, e_max, n_max)
        assert verdict.holds, name
        assert (verdict.path, verdict.scope) == (
            ("all", "all e ≥ 0, 0 ≤ r ≤ 2^e, n ≥ n_min") if ident.uses_n
            else ("levels", "all e ≥ 0, 0 ≤ r ≤ 2^e")), name
    for ident in catalog():
        verdict = verify(ident, 4, 16)
        if verdict.holds:
            assert verdict.path == ("all" if ident.uses_n else "levels"), ident.name


_REZNICK = parse_identity("v(2^e*n + r) == A(e, r)*v(n) + B(e, r)*v(n + 1)")


def _perturbed(ident, how):
    """A copy of Reznick's relation or of the general corollary with one
    slip: the sign of the right side's second summand flipped, the index of
    its term shifted by 1, or A(e, r) read at r + 1, past its row at r = 2^e."""
    rhs = ident.rhs
    if how == "sign":
        rhs = BinOp("-", rhs.lhs, rhs.rhs)
    elif how == "shift":
        factor, term = rhs.rhs.lhs, rhs.rhs.rhs
        shifted = Term(term.seq, BinOp("+", term.arg, Lit(1)))
        rhs = BinOp(rhs.op, rhs.lhs, BinOp("*", factor, shifted))
    else:
        def read_next(node):
            if isinstance(node, Coeff):
                return Coeff(node.kind, node.e_arg, BinOp("+", node.r_arg, Lit(1)))
            if isinstance(node, BinOp):
                return BinOp(node.op, read_next(node.lhs), read_next(node.rhs))
            return node
        return ident.replace(lhs=read_next(ident.lhs), rhs=read_next(rhs))
    return ident.replace(rhs=rhs)


# Reznick's relation and the general corollary for drawn specs, from every
# start n_min <= 2, as they are or with one slip (`_perturbed`): each verdict
# or error is the reference scan's, a verdict for every (e, r, n) holds on a
# grid 2 levels and 40 n larger, and a copy that fails or raises there is
# refused.  Below n_eff, or at n = 0 when v(0) != a*v(0), the relation may
# fail, so the certificate must not reach below n_eff
@settings(deadline=None, max_examples=80)
@given(st.tuples(*[st.integers(-3, 3)] * 3), st.sampled_from((0, 1, 2)),
       st.lists(st.integers(-5, 5), min_size=4, max_size=4), st.sampled_from((0, 1, 2, None)),
       st.sampled_from((None, "sign", "shift", "coeff")), st.integers(0, 3), st.integers(0, 8))
@example((1, 1, 1), 0, [0, 1, 0, 0], 0, None, 2, 4)
@example((2, 1, 1), 0, [1, 1, 0, 0], 0, None, 2, 4)  # v(0) = 1, a*v(0) = 2
@example((2, 1, 1), 0, [1, 1, 0, 0], None, None, 2, 4)
# n_eff = 2: holds at n = 0 and fails at n = 1
@example((-1, 0, 2), 2, [0, 0, 0, -2], 0, None, 1, 0)
@example((-1, 0, 2), 2, [0, 0, 0, -2], 0, None, 1, 1)
@example((1, 1, 1), 0, [0, 1, 0, 0], None, "sign", 2, 4)
@example((-1, -1, 1), 1, [0, 1, 0, 0], 0, "shift", 2, 4)
@example((-1, 1, 1), 1, [0, 1, 0, 0], None, "coeff", 2, 4)
def test_all_certificates_match_the_reference_scan_on_drawn_identities(abc, n0, init, n_min,
                                                                      slip, e_max, n_max):
    spec = make_spec(*abc, n0, init[:2 * max(n0, 1)])
    if n_min is None:
        ident = generic_corollary(spec)
    else:
        ident = _REZNICK.replace(bindings=(("v", spec),), n_min=n_min)
    if slip:
        ident = _perturbed(ident, slip)
    n_max = max(n_max, ident.n_min)
    verdict = _outcome(verify, ident, e_max, n_max)
    assert verdict == _outcome(reference_verify, ident, e_max, n_max), ident.text
    further = _outcome(scan_only, ident, e_max + 2, n_max + 40)
    if getattr(verdict, "path", None) == "all":
        assert further.holds, ident.text
    if slip and getattr(further, "holds", False) is False:
        assert getattr(verdict, "path", None) != "all", ident.text


# identities whose difference reduces to a nonzero relation among shifts of
# the sequence, which only the span of its windows proves: z3 is 3-periodic
# with zero sum, and v below is 1 from v(1) on; the tree's reading refuses the
# index 2^e*n + r + 3, so the second is scanned
@pytest.mark.parametrize("text, spec, path", [
    ("z3(n) + z3(n + 1) + z3(n + 2) == 0", None, "all"),
    ("z3(2^e*n + r + 3) == z3(2^e*n + r)", None, "grid"),
    ("v(n + 1) == 1", make_spec(1, 1, 0, 1, (5, 1)), "all"),
])
def test_certificates_rest_on_relations_among_shifts(text, spec, path):
    ident = parse_identity(text)
    ident = bind_presets(ident) if spec is None else ident.replace(bindings=(("v", spec),))
    verdict = verify(ident, 4, 16)
    assert (verdict.holds, verdict.path) == (True, path)
    assert verdict == reference_verify(ident, 4, 16)


# each holds on its grid, where it is scanned, and fails just beyond it
@pytest.mark.parametrize("text, e_max, n_max, failure", [
    ("s(2*n) == 0*s(n)", 2, 0, (0, 0, 1)),
    ("s(2*n + 8) == s(n + 8) + s(n + 6) - 2*s(n + 2)", 1, 6, (0, 0, 7)),
])
def test_a_refused_identity_is_followed_by_a_counterexample(text, e_max, n_max, failure):
    ident = bind_presets(parse_identity(text))
    verdict = verify(ident, e_max, n_max)
    assert (verdict.holds, verdict.path, verdict.scope) == (True, "grid", "n_min ≤ n ≤ N")
    assert verify(ident, e_max, 64).counterexample[:3] == failure


# identities whose n-terms read two sequences, so that each window holds one
# block per sequence and A/B come from `coeff_at`: one certified, one refused,
# which fails just beyond its grid
@pytest.mark.parametrize("text, e_max, n_max, path, failure", [
    ("s(2*n) - s(n) + t(2*n) + t(n) == 0", 4, 24, "all", None),
    ("s(2*n + 8) + t(n) == s(n + 8) + s(n + 6) - 2*s(n + 2) + t(n)", 1, 6, "grid", (0, 0, 7)),
])
def test_certificates_over_two_sequences(text, e_max, n_max, path, failure):
    ident = bind_presets(parse_identity(text))
    verdict = verify(ident, e_max, n_max)
    assert (verdict.holds, verdict.path) == (True, path)
    assert verdict == reference_verify(ident, e_max, n_max)
    if failure:
        assert verify(ident, e_max, 64).counterexample[:3] == failure


# a term whose n coefficient is 0 is free of n: the tree's reading takes it
# as a value at (e, r), or as a constant, even inside a product with a term
# that mentions n
@pytest.mark.parametrize("text", [
    "s(0*n + r) + s(2^e - r)*s(n) == s(2^e*n + r) - s(r)*s(n + 1) + s(r)",
    "s(0*n + 3) + s(2*n) == s(n) + 2",
    "s(0*n + 3) == 2",
    "s(0*n + r)*s(n + 1) + s(2^e - r)*s(n) == s(2^e*n + r)",
])
def test_a_term_with_n_coefficient_zero_is_read_free_of_n(text):
    ident = bind_presets(parse_identity(text))
    verdict = verify(ident, 4, 16)
    assert (verdict.holds, verdict.path) == (True, "all")
    assert verdict == reference_verify(ident, 4, 16)


# an index or side shape with n that the tree's reading takes or refuses: an
# index of degree 1 in n, or of a higher degree, a power of n, a coefficient
# reference with n, or a product of two terms with n; None marks an error
@pytest.mark.parametrize("text, path", [
    ("s(n*n) == s(2*n*n)", "grid"),
    ("s(2^(n + 1)) == s(2^n)", "grid"),
    ("s(r*n + 2^e*n) == s((r + 2^e)*n)", "grid"),
    ("s((n + 1)*2^e + r) == s(r)*s(n + 2) + s(2^e - r)*s(n + 1)", "all"),
    ("s(2*(3*n + 1)) == s(3*n + 1)", "grid"),
    ("A(n, r)*s(n) == A(n, r)*s(2*n)", None),
    ("s(n)*s(n) == s(2*n)*s(2*n)", "grid"),
    ("s(0*n + r)*s(n + 1) + s(2^e - r)*s(n) == s(2^e*n + r)", "all"),
])
def test_the_shape_of_each_index_and_side_with_n_decides_the_path(text, path):
    ident = bind_presets(parse_identity(text))
    outcome = _outcome(verify, ident, 4, 16)
    assert outcome == _outcome(reference_verify, ident, 4, 16)
    assert getattr(outcome, "path", None) == path


# identities whose n coefficient is not a power of two are scanned, though they hold
@pytest.mark.parametrize("text", ["s(6*n) == s(3*n)", "s(3*n) == s(3*n)",
                                  "s(6*n + 2) == s(3*n + 1)"])
def test_rows_whose_n_coefficient_is_not_a_power_of_two_are_scanned(text):
    ident = bind_presets(parse_identity(text))
    verdict = verify(ident, 3, 12)
    assert (verdict.holds, verdict.path) == (True, "grid")
    assert verdict == reference_verify(ident, 3, 12)


# identities without n: the catalog's three and two more that hold, all
# certified at every level; two that fail after their first instance, one
# that holds on every row r < 2^e but not at r = 2^e (with constant terms in
# its indices), one with e outside a power in an index, one with e outside
# the term indices and two with B(e, r) or a product of two terms, which
# must all be refused; four that hold but whose indices are not p*2^e + s*r
# as written or whose side multiplies two terms; and one whose scan raises
# at its first level.  A literal power outside the term indices refuses the
# certificate and is left to the scan: the first below holds, the second
# raises the scan's error, and the third, which a reading of `^` as `-`
# would certify, fails at its first instance
@pytest.mark.parametrize("text, path", [
    ("s(2^e + r) - s(r) == s(2^e - r)", "levels"),
    ("t(2^(e + 1) + r) + t(2^e + r) == t(3*2^e - r)", "levels"),
    ("z2(2^e + r) - z2(r) == -z2(5*2^e + r)", "levels"),
    ("s(2^(e + 1) + r) == s(2^e + r) + s(r)", "levels"),
    ("z3(2^e + r) == z3(2^(e + 2) + r)", "levels"),
    ("s(2^e + r) == s(2^e - r)", "grid"),
    ("t(2^(e + 1) + r) + t(2^e + r) == -t(3*2^e - r)", "grid"),
    ("s(2^(e + 1) - r - 1) == s(2^e + r + 1)", "grid"),
    ("s(e + 2^e + r) - s(r) == s(2^e - r)", "grid"),
    ("s(2^e + r) == s(r) + 0^e*s(2^e - r)", "grid"),
    ("s(2^e + r) - s(r) + B(e, r) == s(2^e - r)", "grid"),
    ("s(2^e + r) - s(r) + s(r)*s(r) == s(2^e - r)", "grid"),
    ("s(2^e + r) - s(r) + s(r)*s(r) == s(2^e - r) + s(r)*s(r)", "grid"),
    ("s(4^e + r) - s(r) == s(4^e - r)", "grid"),
    ("s(2^(2*e) + r) - s(r) == s(2^(2*e) - r)", "grid"),
    ("s(2^(e + 1) + r + 1) == s(r + 1) + s(2^(e + 1) - r - 1)", "grid"),
    ("s(2^e + r + 1) - s(r + 1) == s(2^e - r - 1)", "index of s(...) evaluated negative: -1"),
    ("s(2^e + r) - s(r) == (0 - 1)^2*s(2^e - r)", "grid"),
    ("s(2^e + r) - s(r) == 2^(0 - 1)*s(2^e - r)", "exponent evaluated negative: -1"),
    ("s(2^e + r) - s(r) == 3^2*s(2^e - r)", "grid"),
])
def test_levels_certificates_prove_or_refuse_identities_without_n(text, path):
    ident = bind_presets(parse_identity(text))
    for e_max in (0, 2, 5):
        expected = _outcome(reference_verify, ident, e_max, 0)
        verdict = _outcome(verify, ident, e_max, 0)
        assert verdict == expected, e_max
        if path not in ("levels", "grid"):
            assert verdict == (DomainError, path)
        elif verdict.holds:
            assert (verdict.path, verdict.scope) == (
                (path, "all e ≥ 0, 0 ≤ r ≤ 2^e") if path == "levels"
                else (path, "n_min ≤ n ≤ N")), e_max
    if path == "levels":
        assert scan_only(ident, 9, 0).holds


def test_certified_identities_load_no_kernel_and_grow_no_prefix(monkeypatch):
    appended = []
    extend = recurrence._extend

    def counting_extend(spec, values, size):
        appended.append(max(size - len(values), 0))
        return extend(spec, values, size)

    def no_load(source):
        raise AssertionError("a kernel was loaded")
    monkeypatch.setattr(recurrence, "_extend", counting_extend)
    for name, e_max, n_max in CRITERION_2_GRIDS:
        ident = catalog_entry(name)
        identities._bind(ident, 0, 0)
        bound = sum(appended)  # a binding's prefix, e.g. t(0) .. t(2) from t(0), t(1)
        appended.clear()
        with monkeypatch.context() as patch:
            patch.setattr(identities, "_load", no_load)
            assert verify(ident, e_max, n_max).path == ("all" if ident.uses_n else "levels"), name
        # only the binding of `verify` built its prefix; nothing appended to it
        assert sum(appended) == bound, name
        appended.clear()


# the closure over n seeds one window per index from its start to twice it,
# so shift windows that start past `_WINDOW` (a large n_min, or a large
# shift) or are wider than it are left to the scan
@pytest.mark.parametrize("text, n_min, n_max", [
    ("s(2^e*n + r) == s(r)*s(n + 1) + s(2^e - r)*s(n)", 100000, 100003),
    ("s(n + 70) == s(n + 70)", 0, 16),
    ("s(n + 70) + s(n) == s(n + 70) + s(n)", 0, 16),
])
def test_late_or_wide_shift_windows_are_left_to_the_scan(text, n_min, n_max):
    ident = bind_presets(parse_identity(text)).replace(n_min=n_min)
    verdict = verify(ident, 2, n_max)
    assert (verdict, verdict.path) == (scan_only(ident, 2, n_max), "grid")


_ALTERNATING = make_spec(-1, 1, 0, 0, (0, 3))  # v(2m) = -v(m), v(2m + 1) = v(m)


# identities with n, each compared with the reference scan: one that holds
# only from n_min = 1 on, read at n = 1 without n, and one that fails only at
# n = 1, where v(0) != 2*v(0) breaks the recurrence; a per-level sign; one that
# fails only at r = 2^e, since v(3*2^e + r) = v(2^e + r) for r < 2^e; one
# whose form meets only the second basis vector of the shift windows' span;
# products of two values at (e, r), one failing and one holding, which the
# tree's reading refuses; terms that read a negative index at a corner of the
# grid, in n or in r; a sign with a negative exponent; A(e, r + 1), which
# raises at r = 2^e; an n coefficient 2^e without r beside it; and a power
# 2^(e + k) with k past `_MAX_K`, which the tree's reading leaves to the scan
@pytest.mark.parametrize("text, spec, n_min, path", [
    ("s(n - 1) + s(2^e*n + r) == s(n - 1) + s(r)*s(n + 1) + s(2^e - r)*s(n)", None, 1, "all"),
    ("v(2*n - 2) == 2*v(n - 1)", make_spec(2, 1, 1, 1, (1, 1)), 1, "grid"),
    ("(0 - 1)^(e + 3)*t(2^e*n + r) == 0 - s(r)*t(n + 1) - s(2^e - r)*t(n)", None, 1, "all"),
    ("v(3*2^e + r)*v(n) == v(2^e + r)*v(n)", _ALTERNATING, 0, "grid"),
    ("s(n + 2) == s(n + 1)", None, 0, "grid"),
    ("s(r)*s(r)*s(n) == s(r)*s(n)", None, 0, "grid"),
    ("s(r)*s(2^e - r)*s(n + 1) == s(2^e - r)*s(r)*s(n + 1)", None, 0, "grid"),
    ("s(n - 1) + s(2^e*n + r) == s(n - 1) + s(r)*s(n + 1) + s(2^e - r)*s(n)", None, 0,
     "index of s(...) evaluated negative: -1"),
    ("s(2^e*n + r) + s(0 - r) == s(r)*s(n + 1) + s(2^e - r)*s(n) + s(0 - r)", None, 0,
     "index of s(...) evaluated negative: -1"),
    ("(0 - 1)^(e - 1)*s(2^e*n + r) == (0 - 1)^(e - 1)*s(2^e*n + r)", None, 0,
     "exponent evaluated negative: -1"),
    ("s(2^e*n + r) == A(e, r + 1)*s(n) + B(e, r)*s(n + 1)", None, 0, "grid"),
    ("s(2^e*n) == s(n)", None, 0, "grid"),
    ("s(2^(e + 65)*n + r) == s(2^(e + 65)*n + r)", None, 0, "grid"),
])
def test_all_certificates_prove_or_refuse_identities_with_n(text, spec, n_min, path):
    ident = parse_identity(text)
    ident = (bind_presets(ident) if spec is None else ident.replace(
        bindings=(("v", spec),))).replace(n_min=n_min)
    for e_max in (0, 2, 4):
        expected = _outcome(reference_verify, ident, e_max, 12)
        verdict = _outcome(verify, ident, e_max, 12)
        assert verdict == expected, e_max
        if path not in ("all", "grid"):
            assert verdict[1] == path
        elif verdict.holds:
            assert verdict.path == path, e_max
    if path == "all":
        assert scan_only(ident, 6, 52).holds


# identities that the tree's reading refuses, so that each is scanned; all
# hold at e = 4 but the fourth, whose s(r)*s(r) is s(r) only for r <= 2, so
# each runs at e = 0 as well
_REFUSED = (
    "z3(2^e*n + r + 3) == z3(2^e*n + r)",
    "s(n + 70) == s(n + 70)",
    "s(n + 70) + s(n) == s(n + 70) + s(n)",
    "s(r)*s(r)*s(n) == s(r)*s(n)",
    "s(r)*s(2^e - r)*s(n + 1) == s(2^e - r)*s(r)*s(n + 1)",
    "s(2^e*n) == s(n)",
    "s(2^(e + 65)*n + r) == s(2^(e + 65)*n + r)",
    "s(r)*s(r)*s(2^e*n + r) == s(r)*s(r)*(s(r)*s(n + 1) + s(2^e - r)*s(n))",
)


def test_verify_is_certified_from_the_tree_or_scans_the_grid():
    runs = [(ident, 4) for ident in catalog()]
    runs += [(bind_presets(parse_identity(text)), e_max) for text in _REFUSED for e_max in (0, 4)]
    for ident, e_max in runs:
        verdict = verify(ident, e_max, 16)
        assert verdict.path in ("all", "levels", "grid"), ident.text
        assert (verdict.path == "grid") is not identities._certified(ident), ident.text
    assert [verify(bind_presets(parse_identity(text)), 4, 16).holds for text in _REFUSED] == [
        True, True, True, False, True, True, True, True]


def _relation(rows, width):
    """A nonzero integer vector orthogonal to every row, or None: the first
    free column of the rows' reduced echelon form set to 1."""
    pivots = []  # (column, row): 1 at its column, 0 at every other pivot column
    for row in rows:
        row = [Fraction(u) for u in row]
        for col, pivot in pivots:
            row = [u - row[col] * v for u, v in zip(row, pivot)]
        col = next((c for c, u in enumerate(row) if u), None)
        if col is not None:
            row = [u / row[col] for u in row]
            pivots = [(c, [u - pivot[col] * v for u, v in zip(pivot, row)])
                      for c, pivot in pivots] + [(col, row)]
    free = next((c for c in range(width) if c not in dict(pivots)), None)
    if free is None:
        return None
    x = [Fraction(c == free) for c in range(width)]
    for col, row in pivots:
        x[col] = -row[free]
    scale = lcm(*(u.denominator for u in x))
    return [int(u * scale) for u in x]


def _lit(k):
    return str(k) if k >= 0 else f"(0 - {-k})"


# identities without n, sum of x*v(p*2^e + s*r + b) == c, over the presets and
# drawn specs, some with v(0) != a*v(0), so that the recurrence holds only
# from n_ok > 0 on: with drawn x and c, or, when `related`, the relation the
# drawn terms satisfy on levels 0..5 wherever their indices are non-negative,
# so that the level certificate meets true identities to prove.  Of the
# last three examples, the first holds on every row r < 2^e but not at
# r = 2^e: v(3*2^e + r) == v(2^e + r) for v(2m) = -v(m), v(2m + 1) = v(m),
# v(0), v(1) = 0, 3.  The other two fail at e = 2, but their windows span
# no more than (1, 2, 2) until they read past v(3), and the stored values
# 0, 2, 2, 2 obey v(2m) = v(m), v(2m + 1) = 2v(m) only from m = 2 on.
@settings(deadline=None, max_examples=80)
@given(st.one_of(st.sampled_from(PRESET_NAMES),
                 st.tuples(st.tuples(*[st.integers(-3, 3)] * 3), st.sampled_from((0, 1, 2)),
                           st.lists(st.integers(-5, 5), min_size=4, max_size=4))),
       st.lists(st.tuples(st.integers(0, 3), st.sampled_from((1, -1)), st.integers(-1, 1),
                          st.integers(-2, 2)), min_size=1, max_size=3, unique_by=lambda t: t[:3]),
       st.integers(-2, 2), st.booleans(), st.integers(0, 4))
@example("stern", [(1, 1, 0, 1), (0, 1, 0, -1), (1, -1, 0, -1)], 0, False, 3)
@example("twisted", [(2, 1, 0, 1), (1, 1, 0, 1), (3, -1, 0, 1)], 0, True, 3)
@example(((2, 1, 1), 0, [1, 1, 0, 0]), [(1, 1, 0, 1), (0, 1, 1, 1)], 0, True, 3)
@example(((2, 1, 1), 0, [1, 1, 0, 0]), [(1, -1, 0, 1), (2, 1, 0, 1)], 0, True, 3)
@example(((-1, 1, 0), 0, [0, 3, 0, 0]), [(3, 1, 0, 1), (1, 1, 0, -1)], 0, False, 3)
@example(((1, 2, 0), 2, [0, 2, 2, 2]), [(1, 1, 0, 1)], 2, False, 3)
@example(((1, 2, 0), 2, [0, 2, 2, 2]), [(2, -1, 0, 1)], 2, False, 3)
def test_level_certificates_match_the_reference_scan(spec, terms, const, related, e_max):
    spec = preset(spec) if isinstance(spec, str) else make_spec(
        *spec[0], spec[1], spec[2][:2 * max(spec[1], 1)])
    xs = [x for *_, x in terms] + [const]
    if related:
        rows = [[*(eval_direct(spec, (p << e) + s * r + b) for p, s, b, _ in terms), 1]
                for e in range(6) for r in range((1 << e) + 1)
                if all((p << e) + s * r + b >= 0 for p, s, b, _ in terms)]
        xs = _relation(rows, len(terms) + 1) or xs
    lhs = " + ".join(f"{_lit(x)}*v({p}*2^e + {_lit(s)}*r + {_lit(b)})"
                     for (p, s, b, _), x in zip(terms, xs))
    ident = parse_identity(f"{lhs} == {_lit(xs[-1])}").replace(bindings=(("v", spec),))
    expected = _outcome(reference_verify, ident, e_max, 0)
    verdict = _outcome(verify, ident, e_max, 0)
    assert verdict == expected, ident.text
    if not isinstance(verdict, tuple) and verdict.path == "levels":
        assert scan_only(ident, e_max + 4, 0).holds, ident.text


def _rank(rows):
    """The rank of integer rows, by fraction-free elimination."""
    rows, rank = [list(row) for row in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        at = next((k for k in range(rank, len(rows)) if rows[k][col]), None)
        if at is None:
            continue
        rows[rank], rows[at] = rows[at], rows[rank]
        pivot = rows[rank]
        for k in range(rank + 1, len(rows)):
            if rows[k][col]:
                rows[k] = [pivot[col] * u - rows[k][col] * v for u, v in zip(rows[k], pivot)]
        rank += 1
    return rank


# the basis of the shift windows w(i) = (v(i), .., v(i + width), 1) spans
# exactly the windows from its start on, here checked against 257 of them, for
# every preset and for a sequence that is 1 at 1 and 0 beyond, whose first
# window lies outside the span of the later ones
@pytest.mark.parametrize("spec", [*map(preset, PRESET_NAMES), make_spec(0, 0, 1, 1, (0, 1))],
                         ids=[*PRESET_NAMES, "one_at_1"])
def test_the_window_basis_spans_the_windows_from_its_start(spec):
    for width in range(1, 5):
        for start in range(spec.n_eff, spec.n_eff + 4):
            basis = identities._shifts([spec], width, start)
            windows = [[*(eval_direct(spec, i + d) for d in range(width + 1)), 1]
                       for i in range(start, start + 257)]
            rank = _rank(windows)
            assert _rank(basis) == rank, (width, start)
            assert _rank(basis + windows) == rank, (width, start)


# the closure over i = 2^e + r spans exactly the windows of the values at
# (e, r) from i = 1 on, checked against 257 of them: A(e, r) and B(e, r) of
# every preset, and the values v(p*2^e + s*r) of the presets whose stored
# values obey the recurrence from v(0) on, each once plain and once times
# (-1)^e, with the constant 1 and (-1)^e beside them
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_the_row_windows_span_the_windows_from_i_1(name):
    spec = preset(name)
    v = spec.init
    atoms = [(False, None), (True, None), (False, ("A", spec)), (True, ("B", spec))]
    if all((v[2 * k], v[2 * k + 1]) == (spec.a * v[k], spec.b * v[k] + spec.c * v[k + 1])
           for k in range(spec.n_eff)):
        atoms += [(False, ("v", spec, 0, 1)), (True, ("v", spec, 3, -1)),
                  (False, ("v", spec, 2, 1))]
    windows = identities._rows(atoms)
    rows = [windows(i) for i in range(1, 258)]
    basis = identities._span(1, windows)
    assert _rank(basis) == _rank(rows) == _rank(basis + rows)


def test_verdicts_compare_without_path_and_scope():
    ident = catalog_entry("prop1")
    certified, scanned = verify(ident, 3, 8), scan_only(ident, 3, 8)
    assert (certified.path, scanned.path) == ("all", "grid")
    assert certified == scanned and hash(certified) == hash(scanned)


def test_an_identity_walks_its_tree_once(monkeypatch):
    ident = bind_presets(parse_identity("s(2^e*n + r) == s(r)*s(n + 1) + s(2^e - r)*s(n)"))
    walks = []
    walk = identities.walk

    def counting_walk(node):
        walks.append(node)
        return walk(node)
    monkeypatch.setattr(identities, "walk", counting_walk)
    derived = (ident.seq_names, ident.uses_coeffs, ident.uses_n)
    first = len(walks)
    assert (ident.seq_names, ident.uses_coeffs, ident.uses_n) == derived
    assert verify(ident, 3, 8).holds
    assert len(walks) == first


def test_verify_leaves_no_cyclic_garbage():
    idents = [catalog_entry("prop1"), catalog_entry("z1_thm_derived")]
    gc.collect()
    gc.disable()
    try:
        for ident in idents:
            assert verify(ident, 6, 32).holds
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    lowered = ident.replace(n_min=0)
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


_GRAMMAR_CHARS = "svzABern0123()+-*^=, \t"


@st.composite
def _edited_catalog_texts(draw):
    """A catalog identity's text with one slice replaced by grammar characters."""
    text = draw(st.sampled_from([identity.text for identity in catalog()]))
    start = draw(st.integers(0, len(text)))
    stop = draw(st.integers(start, len(text)))
    return text[:start] + draw(st.text(alphabet=_GRAMMAR_CHARS, max_size=8)) + text[stop:]


@given(st.one_of(st.text(), st.text(alphabet=_GRAMMAR_CHARS), _edited_catalog_texts()))
@example("s(n) == " + "9" * 5000)  # past the default int/str digit limit
def test_parse_identity_raises_only_parse_errors(text):
    try:
        parse_identity(text)
    except ParseError:
        pass
