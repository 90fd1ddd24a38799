"""The brute-force Thue-Morse block-counting oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sternlike import (RangeError, eval_direct, factor_complexity,
                       factor_counts, preset, thue_morse_prefix,
                       verify_y_preset)


def test_prefix_examples():
    assert list(thue_morse_prefix(8)) == [0, 1, 1, 0, 1, 0, 0, 1]
    assert list(thue_morse_prefix(1)) == [0]
    assert list(thue_morse_prefix(2)) == [0, 1]
    with pytest.raises(RangeError):
        thue_morse_prefix(0)


_MORPHISM = {0: b"\x00\x01", 1: b"\x01\x00"}


def _per_letter_prefix(length):
    """The first `length` letters, substituting one letter at a time."""
    word = b"\x00"
    while len(word) < length:
        word = b"".join(_MORPHISM[letter] for letter in word)
    return word[:length]


def test_prefix_equals_the_per_letter_substitution():
    # the reference's prefixes are prefixes of each other, so one long
    # reference serves every length
    reference = _per_letter_prefix(2**17 + 1)
    for length in [*range(1, 4097), 2**17 - 1, 2**17 + 1]:
        word = thue_morse_prefix(length)
        assert type(word) is bytes and word == reference[:length], length


def test_prefix_satisfies_doubling_relations():
    word = thue_morse_prefix(2**17)
    half = word[:2**16]
    assert word[0] == 0
    assert word[0::2] == half
    assert word[1::2] == bytes(1 - letter for letter in half)


def test_factor_complexity_examples():
    word = thue_morse_prefix(2**17)
    assert factor_complexity(word, 1) == 2
    assert factor_complexity(word, 2) == 4
    assert factor_complexity(word, 4) == 10
    with pytest.raises(RangeError):
        factor_complexity(word, 0)
    with pytest.raises(RangeError):
        factor_complexity(word, len(word) + 1)


def test_complexity_growth_bounds():
    word = thue_morse_prefix(2**15)
    counts = [factor_complexity(word, ell) for ell in range(1, 24)]
    for prev, nxt in zip(counts, counts[1:]):
        assert prev <= nxt <= 2 * prev


def test_counts_match_y_preset_initial_segment():
    # the preset's derived init entries y(2)=6, y(3)=10 come from here
    word = thue_morse_prefix(2**14)
    spec = preset("tm_complexity_shift")
    for ell in range(1, 9):
        assert factor_complexity(word, ell) == eval_direct(spec, ell - 1)


def test_verify_y_preset_small():
    report = verify_y_preset(16)
    assert report.ok
    assert report.mismatches == ()
    assert report.unsaturated == ()
    assert report.prefix_length == 1024 * 16


def test_saturation_detects_short_prefixes():
    # a deliberately tiny prefix factor must trip the saturation check
    report = verify_y_preset(32, prefix_factor=2)
    assert report.unsaturated
    assert not report.ok
    assert report.summary() == (
        "15 mismatches: ((18, 47, 52), (19, 46, 56), (20, 45, 60)); "
        "unsaturated lengths: (18, 19, 20, 21, 22, 23, 24, 25, 26, 27)")


@st.composite
def _words_and_ell_max(draw):
    letters = draw(st.integers(1, 3))
    word = bytes(draw(st.lists(st.integers(0, letters - 1), min_size=1, max_size=400)))
    ell_max = draw(st.one_of(st.just(len(word)), st.integers(1, len(word))))
    return word, ell_max


@settings(deadline=None)
@given(_words_and_ell_max())
def test_factor_counts_match_per_length_counts(case):
    word, ell_max = case
    assert factor_counts(word, ell_max) == tuple(
        factor_complexity(word, ell) for ell in range(1, ell_max + 1))


def _edge_words(length):
    """Words of `length` letters: a Thue-Morse prefix, a seeded random
    ternary word, periodic words (most of their chunks repeat) and a
    periodic word whose last letter breaks the period."""
    rng = random.Random(length)
    periodic = [bytes(rng.randrange(2) for _ in range(period)) * length
                for period in (1, 2, 3, 5)]
    return [thue_morse_prefix(length), bytes(rng.randrange(3) for _ in range(length)),
            *(word[:length] for word in periodic), periodic[2][:length - 1] + b"\x02"]


def _per_length_counts(word, ell_max):
    return tuple(factor_complexity(word, ell) for ell in range(1, ell_max + 1))


@pytest.mark.parametrize("length, ell_max", sorted({
    # word lengths k*ell_max - 1, k*ell_max and k*ell_max + 1 end one letter
    # short of, at, and one letter past a multiple of the chunk stride
    *((k * ell_max + d, ell_max) for ell_max in (1, 2, 3, 5, 8, 16) for k in (1, 2, 3, 6)
      for d in (-1, 0, 1) if k * ell_max + d >= ell_max),
    # the extreme lengths: one letter, the whole word, just above half of it
    *((length, ell_max) for length in range(1, 41)
      for ell_max in (1, length, length // 2 + 1))}))
def test_factor_counts_at_chunk_edges(length, ell_max):
    for word in _edge_words(length):
        assert factor_counts(word, ell_max) == _per_length_counts(word, ell_max), word


def test_factor_counts_on_a_thue_morse_prefix_of_2_to_14_letters():
    word = thue_morse_prefix(2**14)
    counts = factor_counts(word, 64)
    assert counts == _per_length_counts(word, 64)
    assert counts[:8] == (2, 4, 6, 10, 12, 16, 20, 22)
    assert counts[-1] == 190


@pytest.mark.parametrize("ell_max", [-1, 0, 4])
def test_factor_counts_rejects_lengths_outside_the_word(ell_max):
    with pytest.raises(RangeError, match=rf"ell_max must lie in \[1, 3\], got {ell_max}"):
        factor_counts(b"\x00\x01\x01", ell_max)


@pytest.mark.parametrize("prefix_factor", [2, 1024])
@pytest.mark.parametrize("ell_max", [1, 16, 64])
def test_verify_y_preset_matches_per_length_recount(ell_max, prefix_factor):
    length = prefix_factor * ell_max
    word, double = thue_morse_prefix(length), thue_morse_prefix(2 * length)
    spec = preset("tm_complexity_shift")
    mismatches, unsaturated = [], []
    for ell in range(1, ell_max + 1):
        count = factor_complexity(word, ell)
        if factor_complexity(double, ell) != count:
            unsaturated.append(ell)
        expected = eval_direct(spec, ell - 1)
        if count != expected:
            mismatches.append((ell, count, expected))
    report = verify_y_preset(ell_max, prefix_factor=prefix_factor)
    assert (report.mismatches, report.unsaturated, report.prefix_length) == (
        tuple(mismatches), tuple(unsaturated), length)
