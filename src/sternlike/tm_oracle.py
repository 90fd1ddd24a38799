"""Brute-force factor counting on the Thue-Morse word.

The Thue-Morse word is the fixed point starting with 0 of the substitution
0 -> 01, 1 -> 10.  Counting its distinct length-ell blocks by direct window
enumeration gives an oracle for the tm_complexity_shift preset that shares
no code with the recurrence evaluator: the preset claims

    eval_direct(tm_complexity_shift, ell - 1) == #distinct blocks of length ell.

Counts are exact (set membership compares whole windows, hashing is only a
shortcut), and a saturation check re-counts on a doubled prefix to detect a
prefix too short to contain every block.

`factor_counts` gives every length 1..ell_max in one pass: it collects the
distinct maximal windows word[i:i + ell_max] (shorter near the end) once,
then counts the distinct ell-prefixes of those at least ell long.  Every
length-ell window is the ell-prefix of the maximal window starting at the
same place, so the counts equal per-length enumeration; `factor_complexity`
is that single-length count, kept as the independent check.
"""

from __future__ import annotations

from ._frozen import Frozen, set_field
from .errors import RangeError
from .recurrence import eval_direct, preset

__all__ = [
    "thue_morse_prefix",
    "factor_complexity",
    "factor_counts",
    "YPresetReport",
    "verify_y_preset",
]

_MORPHISM = {0: b"\x00\x01", 1: b"\x01\x00"}


def thue_morse_prefix(length: int) -> bytes:
    """First `length` letters (as 0/1 bytes) by iterating the substitution."""
    if length < 1:
        raise RangeError(f"prefix length must be >= 1, got {length}")
    word = b"\x00"
    while len(word) < length:
        word = b"".join(_MORPHISM[letter] for letter in word)
    return word[:length]


def factor_complexity(word: bytes, ell: int) -> int:
    """Number of distinct length-ell windows of `word`."""
    if not 1 <= ell <= len(word):
        raise RangeError(f"block length must lie in [1, {len(word)}], got {ell}")
    return len({word[i:i + ell] for i in range(len(word) - ell + 1)})


def factor_counts(word: bytes, ell_max: int) -> tuple[int, ...]:
    """(factor_complexity(word, ell) for ell = 1..ell_max), from one window pass."""
    if not 1 <= ell_max <= len(word):
        raise RangeError(f"ell_max must lie in [1, {len(word)}], got {ell_max}")
    blocks = {word[i:i + ell_max] for i in range(len(word))}
    return tuple(len({w[:ell] for w in blocks if len(w) >= ell})
                 for ell in range(1, ell_max + 1))


class YPresetReport(Frozen):
    __slots__ = ("ell_max", "prefix_length", "mismatches", "unsaturated")

    def __init__(self, ell_max: int, prefix_length: int,
                 mismatches: tuple[tuple[int, int, int], ...], unsaturated: tuple[int, ...]):
        set_field(self, "ell_max", ell_max)
        set_field(self, "prefix_length", prefix_length)
        # (ell, oracle count, recurrence value) for every disagreement
        set_field(self, "mismatches", mismatches)
        # ells whose count changed when the prefix was doubled
        set_field(self, "unsaturated", unsaturated)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.unsaturated

    def summary(self) -> str:
        if self.ok:
            return (f"block lengths 1..{self.ell_max}: recurrence matches "
                    f"brute-force counts (prefix {self.prefix_length}, saturated)")
        parts = []
        if self.mismatches:
            parts.append(f"{len(self.mismatches)} mismatches: {self.mismatches[:3]}")
        if self.unsaturated:
            parts.append(f"unsaturated lengths: {self.unsaturated[:10]}")
        return "; ".join(parts)


def verify_y_preset(ell_max: int, prefix_factor: int = 1024) -> YPresetReport:
    """Compare recurrence values against window counts for ell = 1..ell_max.

    The prefix length prefix_factor*ell_max is empirically safe for
    Thue-Morse; rather than trusting it, every count is recomputed on a
    doubled prefix and any change is reported as unsaturated.
    """
    if ell_max < 1:
        raise RangeError(f"ell_max must be >= 1, got {ell_max}")
    length = prefix_factor * ell_max
    double = thue_morse_prefix(2 * length)
    word = double[:length]  # Thue-Morse prefixes are prefixes of each other
    spec = preset("tm_complexity_shift")
    mismatches = []
    unsaturated = []
    counts = zip(factor_counts(word, ell_max), factor_counts(double, ell_max))
    for ell, (count, recount) in enumerate(counts, start=1):
        if recount != count:
            unsaturated.append(ell)
        expected = eval_direct(spec, ell - 1)
        if count != expected:
            mismatches.append((ell, count, expected))
    return YPresetReport(ell_max, length, tuple(mismatches), tuple(unsaturated))
