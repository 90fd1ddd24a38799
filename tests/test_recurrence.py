"""Spec construction, presets, and direct evaluation."""

import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sternlike import (DomainError, RangeError, SpecError, UnknownPresetError,
                       coeff_at, coeff_table, coeffs, eval_direct, eval_fast,
                       eval_range, linear_representation, make_spec,
                       parse_spec_text, preset)
from sternlike.linrep import _TREE_MIN_DIGITS
from sternlike import recurrence
from sternlike.recurrence import _ROUND, PRESET_NAMES, _extend, _term_lookup, prefix

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


# digits per step through the stride tables of both walks
_STRIDE = 8


def _one_digit_descent(spec, m, steps):
    """(alpha, beta, m >> steps) of `recurrence._descent`, one digit per step."""
    a, b, c = spec.a, spec.b, spec.c
    alpha, beta = 1, 0
    for _ in range(steps):
        if m & 1:
            alpha, beta = alpha * b, alpha * c + beta * a
        else:
            alpha, beta = alpha * a + beta * b, beta * c
        m >>= 1
    return alpha, beta, m


# replayed digit counts j: every count up to three strides and one digit, and
# whole multiples of the stride, one digit less and one more, on both sides of
# the crossover from stride replay to product tree
_REPLAYED_DIGITS = list(range(3 * _STRIDE + 2)) + sorted(
    {k + d for k in range(_TREE_MIN_DIGITS - 2 * _STRIDE, _TREE_MIN_DIGITS + 3 * _STRIDE, _STRIDE)
     for d in (-1, 0, 1)})


def test_double_examples():
    assert recurrence._double(2, 3, 5, [7]) == [14]
    assert recurrence._double(2, 3, 5, [1, 10, 100]) == [2, 53, 20, 530, 200]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_double_maps_a_run_onto_the_next_level(name):
    # v(h) .. v(h + m) doubles to v(2h) .. v(2h + 2m), checked against descent
    spec = preset(name)
    a, b, c = spec.a, spec.b, spec.c
    for h in range(spec.n_eff, spec.n_eff + 24):
        for m in range(6):
            run = [eval_direct(spec, h + i) for i in range(m + 1)]
            expected = [eval_direct(spec, 2 * h + j) for j in range(2 * m + 1)]
            assert recurrence._double(a, b, c, run) == expected, (h, m)


@settings(deadline=None, max_examples=40)
@given(_specs(), st.lists(st.one_of(st.integers(1, 9), st.integers(_ROUND - 2, 2 * _ROUND + 2)),
                          min_size=1, max_size=4), st.booleans())
def test_extend_in_rounds_matches_descent(spec, steps, odd):
    # one prefix grown in steps from an odd or an even length; the long steps
    # cross the round cap, the short ones leave odd and even lengths behind
    values = prefix(spec, 2 * spec.n_eff + odd)
    for step in steps:
        _extend(spec, values, len(values) + step)
    assert values == [eval_direct(spec, n) for n in range(len(values))]


@settings(deadline=None, max_examples=40)
@given(_specs(), st.integers(0, 8 * _ROUND), st.integers(0, 3 * _ROUND),
       st.lists(st.tuples(st.booleans(), st.integers(-3, 6 * _ROUND), st.integers(1, 1500),
                          st.integers(1, 24)), min_size=1, max_size=4))
@example(preset("stern"), 8 * _ROUND, 0, [(False, 0, 1500, 16)])
def test_term_lookup_grows_less_than_a_round_past_its_largest_read(spec, limit, start, runs):
    # ascending runs of reads from 0 or from `limit`, each plus an offset: small
    # steps walk past 2*_ROUND, each later run jumps, and some reads land at or
    # past `limit`, where they descend; the prefix starts fresh or longer
    values, value = _term_lookup(spec, limit, "v", prefix(spec, max(start, 2 * spec.n_eff)))
    initial, largest = len(values), -_ROUND
    for at_limit, offset, count, step in runs:
        first = max((limit if at_limit else 0) + offset, 0)
        for n in range(first, first + count * step, step):
            assert value(n) == eval_direct(spec, n)
            if n < limit:
                largest = max(largest, n)
            assert len(values) <= max(initial, min(limit, largest + _ROUND)), n


@settings(deadline=None)
@given(_specs(), st.integers(2, 300), st.data())
def test_eval_range_straddling_its_limit_matches_descent(spec, width, data):
    # the window [lo, lo + width) holds index 2*width, below which the prefix
    # serves; at or beyond it each index descends onto the prefix, which stays
    # within the documented bound
    lo = data.draw(st.integers(width + 1, 2 * width - 1))
    lookups = []

    def recording(*args):
        lookups.append(_term_lookup(*args))
        return lookups[-1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recurrence, "_term_lookup", recording)
        values = eval_range(spec, lo, lo + width - 1)
    assert values == [eval_direct(spec, n) for n in range(lo, lo + width)]
    [(prefix_values, _)] = lookups
    assert len(prefix_values) == max(2 * width, 2 * spec.n_eff + 1)


@settings(deadline=None, max_examples=200)
@given(_specs(), st.sampled_from(_REPLAYED_DIGITS), st.data())
def test_evaluate_equals_descent_around_the_tree_crossover(spec, j, data):
    rep = linear_representation(spec)
    size = len(rep.base_states)
    # n >> j is a base index and n >> (j - 1) is not: exactly j digits are replayed
    lo = size << (j - 1) if j else 0
    n = data.draw(st.integers(lo, (size << j) - 1))
    # the reference: a one-digit descent of j steps onto the prefix
    values = prefix(spec, min(max(size, n), 4096))
    alpha, beta, k = _one_digit_descent(spec, n, j)
    expected = alpha * values[k] + beta * values[k + 1]
    assert n >= len(values) or values[n] == expected
    assert rep.evaluate(n) == eval_direct(spec, n) == eval_fast(spec, n) == expected


@settings(deadline=None, max_examples=200)
@given(_specs(), st.integers(0, 3 * _STRIDE + 1), st.data())
def test_coeff_at_equals_a_one_digit_descent(spec, e, data):
    r = data.draw(st.one_of(st.sampled_from([0, max(0, (1 << e) - 1), 1 << e]),
                            st.integers(0, 1 << e)))
    alpha, beta, carry = _one_digit_descent(spec, r, e)
    assert coeff_at(spec, e, r) == ((0, alpha) if carry else (alpha, beta))


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


def test_a_grid_job_builds_no_stride_table():
    # identity grids read prefixes and short descents, so no table is built
    from sternlike import identities, linrep
    tables = (recurrence._stride_rows, linrep._stride_products)
    for table in tables:
        table.cache_clear()
    for identity in identities.catalog():
        identities.verify(identity, 4, 16)
    identities.discrepancy_report(6, 32)
    assert [table.cache_info().misses for table in tables] == [0, 0]


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
