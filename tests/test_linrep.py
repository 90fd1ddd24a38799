"""Coefficient tables, transition matrices, fast evaluation, recovery."""

import random

import pytest

from sternlike import linrep, recurrence
from sternlike import (RangeError, SingularSystemError, coeff_table, coeffs,
                       eval_direct, eval_fast, linear_representation, preset,
                       recover_coefficients, transition_matrices)
from sternlike.recurrence import PRESET_NAMES


def test_coeff_table_base_cases():
    for name in PRESET_NAMES:
        table = coeff_table(preset(name), 0)
        assert coeffs(table, 0, 0) == (1, 0)
        assert coeffs(table, 0, 1) == (0, 1)


def test_coeff_table_examples():
    stern = coeff_table(preset("stern"), 3)
    assert coeffs(stern, 2, 1) == (2, 1)
    assert coeffs(stern, 3, 8) == (0, 1)
    twisted = coeff_table(preset("twisted"), 1)
    assert coeffs(twisted, 1, 1) == (-1, -1)


def test_coeffs_range_errors():
    table = coeff_table(preset("stern"), 5)
    with pytest.raises(RangeError):
        coeffs(table, 5, 40)
    with pytest.raises(RangeError):
        coeffs(table, 6, 0)
    with pytest.raises(RangeError):
        coeffs(table, 0, -1)


def test_coeff_table_splits_every_index():
    # v(2^e*n + r) == A(e,r)*v(n) + B(e,r)*v(n+1) for n in [n0, n0+64]
    for name in PRESET_NAMES:
        spec = preset(name)
        table = coeff_table(spec, 6)
        for e in range(7):
            for r in range(2**e + 1):
                a_coeff, b_coeff = coeffs(table, e, r)
                for n in range(spec.n0, spec.n0 + 65):
                    assert (eval_direct(spec, 2**e * n + r)
                            == a_coeff * eval_direct(spec, n)
                            + b_coeff * eval_direct(spec, n + 1))


def test_overlap_consistency():
    for name in PRESET_NAMES:
        spec = preset(name)
        table = coeff_table(spec, 16)
        for e in range(17):
            assert coeffs(table, e, 0) == (spec.a**e, 0)
            assert coeffs(table, e, 2**e) == (0, spec.a**e)


def test_closed_forms_match_tables():
    e_max = 8
    s = lambda n: eval_direct(preset("stern"), n)
    t = lambda n: eval_direct(preset("twisted"), n)
    z1 = lambda n: eval_direct(preset("z1"), n)
    z2 = lambda n: eval_direct(preset("z2"), n)
    z3 = lambda n: eval_direct(preset("z3"), n)
    tables = {name: coeff_table(preset(name), e_max)
              for name in ("stern", "twisted", "z1", "z2", "z3")}
    for e in range(e_max + 1):
        for r in range(2**e + 1):
            assert coeffs(tables["stern"], e, r) == (s(2**e - r), s(r))
            assert coeffs(tables["twisted"], e, r) == (-t(2**(e + 1) + r), -t(3 * 2**e - r))
            assert coeffs(tables["z1"], e, r) == (z1(2**(e + 1) + r), z1(r))
            assert coeffs(tables["z3"], e, r) == (-z3(2**(e + 1) + r), z3(r))
            # z2's A column does NOT equal -z2(5*2^e + r) (the discrepancy
            # report rejects that reading); the n=1 instantiation gives:
            assert coeffs(tables["z2"], e, r) == (z2(2**e + r) + z2(r), z2(r))


def test_transition_matrices():
    assert transition_matrices(preset("stern")).m0 == ((1, 0), (1, 1))
    assert transition_matrices(preset("stern")).m1 == ((1, 1), (0, 1))
    assert transition_matrices(preset("twisted")).m0 == ((-1, 0), (-1, -1))
    assert transition_matrices(preset("twisted")).m1 == ((-1, -1), (0, -1))
    y = transition_matrices(preset("tm_complexity_shift"))
    assert y.m0 == ((2, 0), (1, 1))
    assert y.m1 == ((1, 1), (0, 2))


def test_eval_fast_examples():
    assert eval_fast(preset("stern"), 11) == 5
    assert eval_fast(preset("stern"), 2**20 + 1) == 21
    for name in PRESET_NAMES:
        spec = preset(name)
        for n in range(2 * spec.n_eff):
            assert eval_fast(spec, n) == spec.init[n]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_eval_fast_equals_eval_direct(name):
    spec = preset(name)
    for n in range(2**12):
        assert eval_fast(spec, n) == eval_direct(spec, n)
    rng = random.Random(20240809)
    for _ in range(200):
        n = rng.randrange(2**40)
        assert eval_fast(spec, n) == eval_direct(spec, n)


def test_evaluate_calls_no_descent(monkeypatch):
    # the fast path must stay code-disjoint from the descent it is checked
    # against: its stride table comes from the digit matrices alone
    spec = preset("tm_complexity_shift")
    rng = random.Random(10_000)
    ns = [rng.getrandbits(10_000) | 1 << 9_999, rng.getrandbits(40) | 1 << 39]
    expected = [eval_direct(spec, n) for n in ns]

    def refuse(*args):
        raise AssertionError("evaluate called into the descent")

    for module, name in ((recurrence, "_descent"), (recurrence, "_term"),
                         (recurrence, "evaluator"), (recurrence, "_double"),
                         (recurrence, "_stride_rows"), (linrep, "_descent"),
                         (linrep, "evaluator"), (linrep, "_double")):
        monkeypatch.setattr(module, name, refuse)
    linrep._stride_products.cache_clear()
    assert [linear_representation(spec).evaluate(n) for n in ns] == expected
    linrep._stride_products.cache_clear()
    assert [eval_fast(spec, n) for n in ns] == expected


def test_recover_coefficients_examples():
    assert recover_coefficients(preset("stern"), 2, 1, 1, 2) == (2, 1)
    assert recover_coefficients(preset("twisted"), 1, 1, 1, 2) == (-1, -1)
    with pytest.raises(SingularSystemError):
        recover_coefficients(preset("z3"), 1, 0, 3, 6)


def test_recover_coefficients_matches_table_on_random_instances():
    rng = random.Random(99)
    hits = 0
    while hits < 100:
        name = rng.choice(PRESET_NAMES)
        spec = preset(name)
        e = rng.randrange(0, 7)
        r = rng.randrange(0, 2**e + 1)
        x0 = rng.randrange(spec.n0, spec.n0 + 40)
        y0 = rng.randrange(spec.n0, spec.n0 + 40)
        try:
            got = recover_coefficients(spec, e, r, x0, y0)
        except SingularSystemError:
            continue
        assert got == coeffs(coeff_table(spec, e), e, r)
        hits += 1


def test_linear_representation_export_and_replay():
    stern = linear_representation(preset("stern"))
    assert stern.base_states[1] == (1, 1)
    twisted = linear_representation(preset("twisted"))
    assert twisted.base_states[1] == (1, -1)
    assert stern.evaluate(11) == 5
    for name in PRESET_NAMES:
        rep = linear_representation(preset(name))
        spec = preset(name)
        for n in range(300):
            assert rep.evaluate(n) == eval_direct(spec, n)


def test_linear_representation_render_is_stable():
    text = linear_representation(preset("stern")).render()
    assert text == (
        "name stern\n"
        "a 1\nb 1\nc 1\n"
        "n_eff 1\n"
        "base 0 0 1\n"
        "base 1 1 1\n"
        "M0 1 0 1 1\n"
        "M1 1 1 0 1\n"
        "projection first\n")
