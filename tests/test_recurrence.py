"""Spec construction, presets, and direct evaluation."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sternlike import (DomainError, RangeError, SpecError, UnknownPresetError,
                       coeff_at, coeff_table, coeffs, eval_direct, eval_fast,
                       eval_range, linear_representation, make_spec,
                       parse_spec_text, preset)
from sternlike.recurrence import PRESET_NAMES, prefix

from conftest import STERN_TERMS, TWISTED_TERMS


def test_make_spec_stern():
    spec = make_spec(1, 1, 1, 0, [0, 1])
    assert (spec.a, spec.b, spec.c, spec.n0) == (1, 1, 1, 0)
    assert spec.n_eff == 1
    assert spec.init == (0, 1)


def test_make_spec_rejects_wrong_init_length():
    with pytest.raises(SpecError):
        make_spec(1, 1, 1, 0, [0, 1, 2])


def test_make_spec_y():
    spec = make_spec(2, 1, 1, 2, [2, 4, 6, 10])
    assert spec.n_eff == 2
    assert spec.init == (2, 4, 6, 10)


def test_make_spec_rejects_bad_fields():
    with pytest.raises(SpecError):
        make_spec(1, 1, 1, -1, [0, 1])
    with pytest.raises(SpecError):
        make_spec(1, 1, 1, 0, [0, "x"])


def test_preset_table():
    stern = preset("stern")
    assert (stern.a, stern.b, stern.c) == (1, 1, 1)
    assert stern.init == (0, 1)
    z3 = preset("z3")
    assert (z3.a, z3.b, z3.c) == (-1, 1, 1)
    assert z3.init == (0, 1)
    josephus = preset("josephus")
    assert josephus.output_min_index == 1
    assert josephus.init == (0, 1, 1, 2)


def test_preset_unknown():
    with pytest.raises(UnknownPresetError):
        preset("foo")


def test_preset_aliases():
    assert preset("s") is preset("stern")
    assert preset("y") is preset("tm_complexity_shift")


def test_eval_direct_examples():
    assert eval_direct(preset("stern"), 11) == 5
    assert eval_direct(preset("stern"), 0) == 0
    assert eval_direct(preset("twisted"), 9) == -2


def test_eval_direct_rejects_negative_index():
    with pytest.raises(DomainError):
        eval_direct(preset("stern"), -1)


def test_z3_is_3_periodic_with_direct_crosscheck():
    # the residue pattern is (0, 1, -1); in particular 10^6 + 1 = 2 mod 3
    z3 = preset("z3")
    n = 10**6 + 1
    assert n % 3 == 2
    assert eval_direct(z3, n) == -1
    pattern = (0, 1, -1)
    for k in range(3000):
        assert eval_direct(z3, k) == pattern[k % 3]


def test_eval_range_term_lists():
    assert eval_range(preset("stern"), 0, 16) == STERN_TERMS
    assert eval_range(preset("twisted"), 0, 15) == TWISTED_TERMS


def test_eval_range_singleton_and_errors():
    assert eval_range(preset("stern"), 5, 5) == [3]
    with pytest.raises(RangeError):
        eval_range(preset("stern"), 3, 2)
    with pytest.raises(DomainError, match=r"^sequence index must be >= 0, got -1$"):
        eval_range(preset("stern"), -1, 2)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_recurrence_invariant_holds_from_n0(name):
    spec = preset(name)
    value = lambda n: eval_direct(spec, n)
    for n in range(spec.n0, 2**10):
        assert value(2 * n) == spec.a * value(n)
        assert value(2 * n + 1) == spec.b * value(n) + spec.c * value(n + 1)


def test_stern_recurrence_additionally_at_zero():
    # the defining equalities extend below the start index for stern
    s = preset("stern")
    assert eval_direct(s, 0) == s.a * eval_direct(s, 0)
    assert eval_direct(s, 1) == s.b * eval_direct(s, 0) + s.c * eval_direct(s, 1)


def test_stern_nonnegative_and_powers_of_two():
    s = preset("stern")
    assert all(v >= 0 for v in eval_range(s, 0, 2**12))
    for k in range(17):
        assert eval_direct(s, 2**k) == 1


@st.composite
def _specs(draw):
    n0 = draw(st.integers(0, 3))
    a, b, c = (draw(st.integers(-3, 3)) for _ in range(3))
    size = 2 * max(n0, 1)
    init = draw(st.lists(st.integers(-5, 5), min_size=size, max_size=size))
    return make_spec(a, b, c, n0, init)


@settings(deadline=None)
@given(_specs(), st.lists(st.integers(0, 2**200), max_size=8), st.integers(0, 6))
def test_prefix_descent_and_replay_agree(spec, far, e):
    # three evaluations that share no code: bottom-up prefix, bit descent, bit replay
    values = prefix(spec, 300)
    assert len(values) == 301
    assert tuple(values[:len(spec.init)]) == spec.init
    for n, value in enumerate(values):
        assert eval_direct(spec, n) == value == eval_fast(spec, n)
    for n in far:
        assert eval_direct(spec, n) == eval_fast(spec, n)
    table = coeff_table(spec, e)
    for level in range(e + 1):
        for r in range(2**level + 1):
            assert coeff_at(spec, level, r) == coeffs(table, level, r)


@given(_specs())
def test_linear_representation_base_states_follow_prefix(spec):
    values = prefix(spec, 2 * spec.n_eff)
    assert linear_representation(spec).base_states == tuple(zip(values, values[1:]))


def test_prefix_edges():
    s = preset("stern")
    assert prefix(s, -1) == []
    assert prefix(s, 0) == [0]
    assert prefix(preset("josephus"), 1) == [0, 1]


def test_eval_direct_deep_index_needs_no_recursion():
    assert eval_direct(preset("stern"), 2**1200 + 5) == 3596


def test_eval_direct_retains_no_memory():
    spec = preset("stern")
    rng = random.Random(7)
    ns = [rng.randrange(2**40) for _ in range(20_000)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in ns:
            eval_direct(spec, n)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


def test_parse_spec_text():
    spec = parse_spec_text(
        "# a comment\n"
        "a = 1\n"
        "b = 1\n"
        "c = 1\n"
        "n0 = 0\n"
        "init = 0, 1\n"
        "name = mystern\n")
    assert spec.name == "mystern"
    assert eval_range(spec, 0, 16) == STERN_TERMS


def test_parse_spec_text_errors():
    with pytest.raises(SpecError):
        parse_spec_text("a = 1\nb = 1\nc = 1\n")  # missing keys
    with pytest.raises(SpecError):
        parse_spec_text("a = 1\nb = 1\nc = 1\nn0 = 0\ninit = 0, 1\nbogus = 3\n")
    with pytest.raises(SpecError):
        parse_spec_text("a = x\nb = 1\nc = 1\nn0 = 0\ninit = 0, 1\n")
    with pytest.raises(SpecError):
        parse_spec_text("a = 1\na = 2\nb = 1\nc = 1\nn0 = 0\ninit = 0, 1\n")
