"""Laurent series arithmetic and the named generating-series checks."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sternlike import (DivisionError, RangeError, UnknownCheckError, add,
                       check_named, compose_power, divide, first_mismatch,
                       mul, preset, scale, sequence_series, shift, sub,
                       truncate)
from sternlike import series
from sternlike.series import LaurentSeries, from_coeffs, monomial, zero

from conftest import STERN_TERMS


def _random_series(rng, order=24, low=-4):
    val = rng.randint(low, 2)
    return LaurentSeries(val, tuple(rng.randint(-9, 9) for _ in range(order - val)))


def schoolbook_mul(f, g):
    """Reference product: every coefficient pair, with mul's order bookkeeping."""
    val = f.val + g.val
    order = min(f.order + g.val, g.order + f.val)
    if order <= val:
        raise RangeError("product has no sound exponent range")
    out = [0] * (order - val)
    for i, fc in enumerate(f.coeffs[:len(out)]):
        for j, gc in enumerate(g.coeffs[:len(out) - i]):
            out[i + j] += fc * gc
    return LaurentSeries(val, tuple(out))


def reference_divide(num, den):
    """Reference quotient: long division over a dict of remainders, with
    divide's order bookkeeping and error messages."""
    vd = den.valuation()
    if vd is None:
        raise DivisionError("denominator is zero through its whole sound range")
    vn = num.valuation()
    if vn is None:
        q_order = num.order - vd
        q_val = num.val - vd
        if q_order <= q_val:
            raise DivisionError("quotient has no sound exponent range")
        return zero(q_order, val=q_val)
    if vn < vd:
        raise DivisionError(
            f"valuation mismatch: numerator starts at X^{vn}, denominator at X^{vd}"
        )
    q_val = vn - vd
    q_order = min(num.order, den.order + q_val) - vd
    if q_order <= q_val:
        raise DivisionError("quotient has no sound exponent range")
    lead = den.coefficient(vd)
    rem = {e: num.coefficient(e) for e in range(vn, num.order)}
    out = []
    for k in range(q_val, q_order):
        q_k, leftover = divmod(rem.get(vd + k, 0), lead)
        if leftover:
            raise DivisionError(
                f"division step at X^{k} is not exact over the integers"
            )
        out.append(q_k)
        if q_k:
            for j in range(vd, min(den.order, num.order - k)):
                dc = den.coefficient(j)
                if dc:
                    rem[j + k] = rem.get(j + k, 0) - q_k * dc
    return LaurentSeries(q_val, tuple(out))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DivisionError as exc:
        return type(exc), str(exc)


_HUGE = st.tuples(st.sampled_from((1, -1)), st.integers(10**300, 10**320)).map(
    lambda t: t[0] * t[1])
_COEFF = st.one_of(st.integers(-9, 9), st.integers(-2**64, 2**64), _HUGE)
_ZEROS = st.lists(st.just(0), min_size=1, max_size=40)
_COEFFS = st.one_of(st.lists(_COEFF, min_size=1, max_size=40), _ZEROS)


def _series(coeffs=_COEFFS):
    return st.builds(LaurentSeries, st.integers(-8, 8), coeffs.map(tuple))


@st.composite
def _unit_lead_series(draw):
    """A series whose lowest nonzero coefficient is +-1, after some zeros."""
    zeros = draw(st.integers(0, 3))
    lead = draw(st.sampled_from((1, -1)))
    tail = draw(st.lists(_COEFF, max_size=30))
    return LaurentSeries(draw(st.integers(-8, 8)), (0,) * zeros + (lead, *tail))


def test_sequence_series_examples():
    s = sequence_series(preset("stern"), 0, 6)
    assert s.coeffs == (0, 1, 1, 2, 1, 3)
    t3 = sequence_series(preset("twisted"), 3, 5)
    assert t3.coeffs == (0, 1, 1, 0, -1)
    one = sequence_series(preset("stern"), 0, 1)
    assert one.coeffs == (0,)
    with pytest.raises(RangeError):
        sequence_series(preset("stern"), 0, 0)


def test_mul_monomials():
    x = monomial(1, 8)
    assert mul(x, x).coefficient(2) == 1
    assert mul(x, x).valuation() == 2


def test_compose_power_example():
    s8 = sequence_series(preset("stern"), 0, 8)
    s_sq = compose_power(s8, 2)
    assert s_sq.order == 16
    assert [s_sq.coefficient(j) for j in range(8)] == [0, 0, 1, 0, 1, 0, 2, 0]


def test_shift_negative():
    f = shift(from_coeffs([1, 1]), -1)
    assert f.val == -1
    assert f.coefficient(-1) == 1 and f.coefficient(0) == 1


def test_coefficient_bookkeeping():
    f = from_coeffs([5, 6], val=2)      # 5X^2 + 6X^3, sound below X^4
    assert f.coefficient(0) == 0        # below val: exactly zero
    with pytest.raises(RangeError):
        f.coefficient(4)                # beyond order: unknown, loud


def test_divide_examples():
    x = monomial(1, 6)
    q = divide(add(x, monomial(2, 6)), x)
    assert (q.coefficient(0), q.coefficient(1)) == (1, 1)

    num = sequence_series(preset("twisted"), 3, 8)
    den = sequence_series(preset("stern"), 0, 8)
    u = divide(num, den)
    assert u.coeffs[:4] == (1, 0, -2, 0)

    with pytest.raises(DivisionError):
        divide(from_coeffs([1, 1]), monomial(1, 2))   # valuation mismatch
    with pytest.raises(DivisionError):
        divide(from_coeffs([1]), from_coeffs([0, 0]))  # zero denominator
    with pytest.raises(DivisionError):
        divide(from_coeffs([1, 0]), from_coeffs([2, 0]))  # non-exact step


def test_mul_commutative_associative_distributive():
    rng = random.Random(4)
    for _ in range(40):
        f, g, h = (_random_series(rng) for _ in range(3))
        assert mul(f, g) == mul(g, f)
        assert first_mismatch(mul(mul(f, g), h), mul(f, mul(g, h))) is None
        assert first_mismatch(mul(f, add(g, h)), add(mul(f, g), mul(f, h))) is None


def test_divide_round_trips_mul():
    rng = random.Random(5)
    for _ in range(40):
        q = _random_series(rng, order=16, low=0)
        den_tail = tuple(rng.randint(-9, 9) for _ in range(15))
        den = LaurentSeries(0, (rng.choice((1, -1)),) + den_tail)
        back = divide(mul(q, den), den)
        assert first_mismatch(back, q) is None


def test_compose_power_laws():
    f = sequence_series(preset("stern"), 0, 12)
    assert compose_power(f, 1) == f
    assert compose_power(compose_power(f, 2), 2) == compose_power(f, 4)
    assert compose_power(f, 4).order == 48


def test_truncate_and_scale():
    f = sequence_series(preset("stern"), 0, 10)
    assert truncate(f, 4).coeffs == (0, 1, 1, 2)
    assert scale(f, -2).coefficient(3) == -4
    assert sub(f, f).valuation() is None


def test_check_carlitz():
    assert check_named("carlitz", order=1024).holds


def test_check_sum_s_no_negative_residue():
    report = check_named("sum_s", e_max=4, order=256)
    assert report.holds
    for residues in report.artifacts["negative_exponent_residues"].values():
        assert not any(residues)


def test_check_coons_lemma8_degree_15_polynomial():
    report = check_named("coons_lemma8", e_max=3)
    assert report.holds
    # at the top level both sides are X * (products), with coefficients
    # s(1..8) followed by the reflected s(7..1)
    s = STERN_TERMS
    expected = [0] + s[1:9] + [s[7 - i] for i in range(7)]
    lhs = monomial(1, 18)
    for i in range(3):
        factor = [0] * (2**(i + 1) + 1)
        factor[0] = 1
        factor[2**i] += 1
        factor[2**(i + 1)] += 1
        lhs = mul(lhs, from_coeffs(factor, order=18))
    assert [lhs.coefficient(j) for j in range(16)] == expected


@pytest.mark.parametrize("k_max", range(7))
def test_coons_lemma8_multiplies_once_per_level(monkeypatch, k_max):
    calls = []

    def counted_mul(f, g):
        calls.append(1)
        return mul(f, g)

    monkeypatch.setattr(series, "mul", counted_mul)
    assert check_named("coons_lemma8", e_max=k_max).holds
    assert len(calls) == k_max


def test_check_bconj1_artifacts():
    report = check_named("bconj1", e_max=5, order=256)
    assert report.holds
    assert report.artifacts["u_prefix"][:4] == (1, 0, -2, 0)


def test_check_bconj2_bconj3():
    assert check_named("bconj2", e_max=5, order=128).holds
    assert check_named("bconj3", e_max=5, order=128).holds


def test_check_machine_lines():
    report = check_named("bconj1", e_max=2, order=64)
    lines = report.machine_lines()
    assert lines[0] == "check=bconj1 e=0 holds=true order=64"
    assert len(lines) == 3


def test_unknown_check():
    with pytest.raises(UnknownCheckError):
        check_named("bogus")


def test_leveled_checks_reject_too_small_orders():
    with pytest.raises(RangeError):
        check_named("sum_s", e_max=8, order=64)
    with pytest.raises(RangeError):
        check_named("bconj1", e_max=8, order=64)


@pytest.mark.parametrize("name,e_max", [
    ("sum_s", -1), ("bconj1", -1), ("bconj2", -1), ("bconj3", -1),
    ("coons_lemma8", -1), ("coons_lemma8", -2),
])
def test_leveled_checks_reject_negative_e_max(name, e_max):
    with pytest.raises(RangeError, match=f"e_max must be >= 0, got {e_max}"):
        check_named(name, order=256, e_max=e_max)


@pytest.mark.parametrize("order", [-5, 0, 1])
def test_carlitz_rejects_orders_below_two(order):
    with pytest.raises(RangeError, match=f"order must be >= 2, got {order}"):
        check_named("carlitz", order=order)


def test_carlitz_smallest_orders_hold():
    assert check_named("carlitz", order=2).holds
    assert check_named("carlitz", order=3).holds


def test_first_mismatch_reports_smallest_exponent():
    f = from_coeffs([1, 2, 3])
    g = from_coeffs([1, 2, 4, 9])
    assert first_mismatch(f, g) == 2
    assert first_mismatch(f, from_coeffs([1, 2, 3, 7])) is None


@settings(deadline=None)
@given(_series(), _series())
@example(LaurentSeries(-3, (7,)), LaurentSeries(2, (0, 0, 0)))
@example(LaurentSeries(0, (-(10**300),) * 3), LaurentSeries(-1, (10**301, -1, 0, 10**300)))
def test_mul_matches_schoolbook(f, g):
    assert mul(f, g) == schoolbook_mul(f, g)


def _bounded_series(bits):
    top = (1 << bits) - 1
    coeffs = st.integers(-top, top) | st.sampled_from((-top, top))
    return _series(st.lists(coeffs, min_size=1, max_size=40))


@st.composite
def _slot_width_operands(draw):
    """(f, g) whose coefficient bit lengths add up to a drawn 0..72, so that
    every slot width from 1 to 10 bytes comes up."""
    bits = draw(st.integers(0, 72))
    split = draw(st.integers(0, bits))
    return draw(_bounded_series(split)), draw(_bounded_series(bits - split))


def _on_and_off_byte_edges():
    """(f, g) for every bound bit length 8w - 9, 8w - 8 and 8w - 7, w = 1..9:
    f is m equal coefficients of bit length L - p with m = 2^p and g is m
    ones, so that the product's top slot reaches the bound m * max|f|."""
    out = []
    for length in sorted({8 * w + d for w in range(1, 10) for d in (-9, -8, -7)} - {-1, 0}):
        p = min(4, length - 1)
        x = ((1 << length) - 1) >> p
        for fs, gs in ((1, 1), (-1, 1), (-1, -1)):
            out.append((from_coeffs([fs * x] * (1 << p)), from_coeffs([gs] * (1 << p))))
    return out


@settings(deadline=None, max_examples=300)
@given(_slot_width_operands())
def test_mul_matches_schoolbook_at_every_slot_width(operands):
    assert mul(*operands) == schoolbook_mul(*operands)


@pytest.mark.parametrize("f,g", [
    *_on_and_off_byte_edges(),
    # all-negative operands, at one- and eight-byte slots
    (from_coeffs([-1, -2, -3, -4]), from_coeffs([-5, -6, -7])),
    (from_coeffs([-(1 << 40)] * 9), from_coeffs([-(1 << 12)] * 9)),
    # the product's top slot negative, and f's and then both operands' too
    (from_coeffs([5, -3, 0, -7]), from_coeffs([1, 2, 0, 1])),
    (from_coeffs([1 << 30, -(1 << 29), -(1 << 31)]), from_coeffs([3, 1, -(1 << 20)])),
    # an operand longer than the product, whose tail must not widen the slots
    (from_coeffs([1, -1] * 3 + [10**30] * 7), from_coeffs([2, 3, -1, 4, -5, 6])),
    (LaurentSeries(-2, (7, -1, 2, -5, 1 << 70)), LaurentSeries(3, (-3, 4, 2, 1))),
    # a 500-term product with a series in X^8, as in the bconj checks
    (sequence_series(preset("twisted"), 3, 500),
     compose_power(sequence_series(preset("stern"), 0, 64), 8)),
    (compose_power(sequence_series(preset("stern"), 0, 75), 8),
     scale(sequence_series(preset("stern"), 0, 600), -1)),
])
def test_mul_matches_schoolbook_at_pinned_slot_edges(f, g):
    assert mul(f, g) == schoolbook_mul(f, g)


@settings(deadline=None)
@given(_series(), st.one_of(_unit_lead_series(), _series(_ZEROS)))
def test_unit_lead_divide_matches_long_division(num, den):
    # doubling both operands gives a lead of +-2; every division step stays
    # exact, so the quotient and every error are the same
    assert _outcome(divide, num, den) == _outcome(divide, scale(num, 2), scale(den, 2))


@settings(deadline=None)
@given(st.data())
def test_divide_inverts_mul_for_unit_leads(data):
    coeffs = data.draw(st.lists(_COEFF, min_size=1, max_size=30))
    head = data.draw(_COEFF.filter(bool))
    q = LaurentSeries(data.draw(st.integers(0, 8)), (head, *coeffs))
    # den stored from its lead and at least as long as q, so that the
    # quotient's sound range is exactly q's
    lead = data.draw(st.sampled_from((1, -1)))
    tail = data.draw(st.lists(_COEFF, min_size=len(q.coeffs) - 1, max_size=40))
    d = LaurentSeries(data.draw(st.integers(-8, 8)), (lead, *tail))
    assert divide(mul(q, d), d) == q


@st.composite
def _division_operands(draw):
    """(num, den) with arbitrary leads; num is often an exact multiple of den,
    possibly scaled, so that quotients as well as errors come out."""
    lead = draw(st.sampled_from((1, -1, 2, -2, 3, -3)) | _COEFF.filter(bool))
    zeros = draw(st.integers(0, 3))
    tail = draw(st.lists(_COEFF, max_size=30))
    den = LaurentSeries(draw(st.integers(-8, 8)), (0,) * zeros + (lead, *tail))
    den = draw(st.just(den) | _series(_ZEROS) | _series())
    num = draw(_series())
    if draw(st.booleans()) and den.valuation() is not None:
        num = mul(num, den)
    k = draw(st.sampled_from((1, 1, -1, 2, 3)))
    return scale(num, k), den


@settings(deadline=None, max_examples=300)
@given(_division_operands())
@example((from_coeffs([2, 1, 0]), from_coeffs([2, 0, 0])))
@example((LaurentSeries(3, (0, 0)), LaurentSeries(-2, (0, 5, 1))))
@example((LaurentSeries(0, (4, 6, 8, 1)), LaurentSeries(0, (2, 4))))
def test_divide_matches_reference_long_division(operands):
    assert _outcome(divide, *operands) == _outcome(reference_divide, *operands)


def test_non_unit_lead_divide_keeps_exactness_error():
    with pytest.raises(DivisionError, match=r"^division step at X\^1 is not exact over the integers$"):
        divide(from_coeffs([2, 1, 0]), from_coeffs([2, 0, 0]))


@given(_series(), st.integers(-4, 4), st.integers(1, 48), st.integers(0, 47), st.integers(-1, 1))
@example(LaurentSeries(3, (1,)), -3, 2, 0, 0)
@example(LaurentSeries(-2, (0, 5, 1)), 2, 4, 0, 0)
def test_first_mismatch_matches_coefficient_scan(f, dval, length, at, delta):
    # g copies f (zeros past f's order) from another valuation, with one
    # coefficient moved by delta
    val = f.val + dval
    coeffs = [f.coefficient(e) if e < f.order else 0 for e in range(val, val + length)]
    coeffs[at % length] += delta
    g = LaurentSeries(val, tuple(coeffs))
    shared = range(min(f.val, g.val), min(f.order, g.order))
    expected = next((e for e in shared if f.coefficient(e) != g.coefficient(e)), None)
    assert first_mismatch(f, g) == expected
    assert first_mismatch(g, f) == expected


@settings(deadline=None)
@given(_series(), _series(), st.sampled_from((add, sub)))
@example(LaurentSeries(-3, (7,)), LaurentSeries(2, (0, 0, 0)), sub)
def test_add_sub_match_coefficient_sums(f, g, op):
    sign = 1 if op is add else -1
    h = op(f, g)
    assert (h.val, h.order) == (min(f.val, g.val), min(f.order, g.order))
    assert [h.coefficient(e) for e in range(h.val, h.order)] == [
        f.coefficient(e) + sign * g.coefficient(e) for e in range(h.val, h.order)]


def test_check_carlitz_order_2_16():
    assert check_named("carlitz", order=1 << 16).holds


def test_check_sum_s_order_2_16():
    assert check_named("sum_s", e_max=8, order=1 << 16).holds


def test_check_bconj1_order_2_14():
    report = check_named("bconj1", order=1 << 14)
    assert report.holds
    assert report.artifacts["u_prefix"][:4] == (1, 0, -2, 0)


def test_check_bconj2_bconj3_order_2_14():
    report = check_named("bconj2", order=1 << 14)
    assert report.holds
    assert report.artifacts["a_prefix"] == (1, -2, 2, 0, -4, 4, 2, -6)
    report = check_named("bconj3", order=1 << 14)
    assert report.holds
    assert report.artifacts["b_prefix"] == (-1, 2, 2, -4, 0, 0, -6, 6)


def _quotient_form_bconj(name, order, e_max):
    """bconj levels and artifact the direct way: Q = N(1)/S at the full order,
    then L^e * N(2^e) against Q(X^(2^e)) * S at each level."""
    terms, _, level_sign = series._BCONJ[name]

    def numerator(m):
        total = zero(order)
        for sign, preset_name, multiple in terms:
            term = sequence_series(preset(preset_name), multiple * m, order)
            total = add(total, scale(term, sign))
        return total

    big = sequence_series(preset("stern"), 0, order)
    quotient = divide(numerator(1), big)
    levels = tuple(
        (e, first_mismatch(scale(numerator(1 << e), level_sign ** e),
                           mul(compose_power(quotient, 1 << e), big)))
        for e in range(e_max + 1))
    return levels, quotient.coeffs[:8]


def _bconj_outcome(check, name, order, e_max):
    try:
        return check(name, order, e_max)
    except DivisionError as exc:
        return type(exc), str(exc)


def _checked_bconj(name, order, e_max):
    report = check_named(name, order=order, e_max=e_max)
    assert report.params == {"e_max": e_max, "order": order}
    assert all(lv.holds == (lv.first_bad_exponent is None) for lv in report.levels)
    (artifact,) = report.artifacts.values()
    return tuple((lv.level, lv.first_bad_exponent) for lv in report.levels), artifact


# the real rows, the level sign flipped (odd levels fail), and every offset
# multiple plus one (N(1) starts at X^0, so the quotient does not exist)
_BCONJ_VARIANTS = {
    "real": lambda terms, sign: (terms, sign),
    "flipped_sign": lambda terms, sign: (terms, -sign),
    "offset_plus_one": lambda terms, sign: (
        tuple((s, p, m + 1) for s, p, m in terms), sign),
}
_BCONJ_SIZES = [(order, e_max) for order in (4, 5, 6, 7, 8, 9, 16, 33, 64, 256)
                for e_max in range(7) if order >= 4 << e_max]


@pytest.mark.parametrize("name", ["bconj1", "bconj2", "bconj3"])
def test_failing_check_reports_its_first_bad_exponent(monkeypatch, name):
    terms, artifact, sign = series._BCONJ[name]
    monkeypatch.setitem(series._BCONJ, name, (terms, artifact, -sign))
    report = check_named(name, order=64, e_max=3)
    assert [(lv.level, lv.first_bad_exponent) for lv in report.levels] == [
        (0, None), (1, 1), (2, None), (3, 1)]
    assert (report.holds, report.first_bad_exponent) == (False, 1)
    assert report.summary() == f"check {name} (e_max=3, order=64): FAILS at X^1"


@pytest.mark.parametrize("variant", _BCONJ_VARIANTS)
@pytest.mark.parametrize("name", ["bconj1", "bconj2", "bconj3"])
def test_bconj_matches_quotient_form(monkeypatch, name, variant):
    terms, artifact, sign = series._BCONJ[name]
    terms, sign = _BCONJ_VARIANTS[variant](terms, sign)
    monkeypatch.setitem(series._BCONJ, name, (terms, artifact, sign))
    failing_levels = 0
    for order, e_max in _BCONJ_SIZES:
        expected = _bconj_outcome(_quotient_form_bconj, name, order, e_max)
        assert _bconj_outcome(_checked_bconj, name, order, e_max) == expected
        if isinstance(expected[0], tuple):
            failing_levels += sum(bad is not None for _, bad in expected[0])
    assert (failing_levels > 0) == (variant == "flipped_sign")
