"""Stern-like integer sequences defined by a halving recurrence.

A sequence v is *Stern-like* when there are integers (a, b, c) and a start
index n0 such that for every n >= n0

    v(2n)   = a * v(n)
    v(2n+1) = b * v(n) + c * v(n+1)

The values v(0) .. v(2*n_eff - 1), with n_eff = max(n0, 1), are given
explicitly; every later value follows from the recurrence, because any
m >= 2*n_eff is 2n or 2n+1 for some n >= n_eff >= n0.

Everything is exact: coefficients and values are arbitrary-precision ints.
`prefix` builds v(0) .. v(hi) bottom-up; `eval_direct` descends from n,
least-significant bit first, keeping v(n) = alpha*v(m) + beta*v(m+1) with
m = n >> k: O(log n) steps, no recursion and no memo.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable

from .errors import DomainError, RangeError, SpecError, UnknownPresetError

__all__ = [
    "SternLikeSpec",
    "PRESET_NAMES",
    "PRESET_ALIASES",
    "make_spec",
    "preset",
    "resolve_preset_name",
    "prefix",
    "evaluator",
    "eval_direct",
    "eval_range",
    "parse_spec_text",
    "load_spec_file",
]


@dataclass(frozen=True)
class SternLikeSpec:
    """One Stern-like sequence: coefficients, start index and initial segment.

    `init` holds v(0) .. v(2*n_eff - 1).  `output_min_index` marks the first
    index at which the sequence is meaningful (earlier entries may be
    placeholders needed only to seed the recurrence).
    """

    a: int
    b: int
    c: int
    n0: int
    init: tuple[int, ...]
    name: str | None = None
    output_min_index: int = 0

    def __post_init__(self):
        for label in ("a", "b", "c"):
            if not isinstance(getattr(self, label), int):
                raise SpecError(f"coefficient {label} must be an integer")
        if not isinstance(self.n0, int) or self.n0 < 0:
            raise SpecError("n0 must be a non-negative integer")
        if not isinstance(self.output_min_index, int) or self.output_min_index < 0:
            raise SpecError("output_min_index must be a non-negative integer")
        init = tuple(self.init)
        if any(not isinstance(v, int) for v in init):
            raise SpecError("init values must be integers")
        if len(init) != 2 * self.n_eff:
            raise SpecError(
                f"init must list exactly {2 * self.n_eff} values "
                f"v(0)..v({2 * self.n_eff - 1}), got {len(init)}"
            )
        object.__setattr__(self, "init", init)

    @property
    def n_eff(self) -> int:
        return max(self.n0, 1)

    def label(self) -> str:
        return self.name or f"(a={self.a}, b={self.b}, c={self.c}, n0={self.n0})"


def make_spec(a: int, b: int, c: int, n0: int, init: Iterable[int],
              name: str | None = None, output_min_index: int = 0) -> SternLikeSpec:
    """Build and validate a spec; raises SpecError on a wrong init length."""
    return SternLikeSpec(a, b, c, n0, tuple(init), name, output_min_index)


# Preset table.  Initial segments cover v(0)..v(2*n_eff - 1); entries beyond
# the defining values were obtained by unrolling the recurrence (josephus) or
# by brute-force factor counting of a Thue-Morse prefix (tm_complexity_shift,
# confirmed by tm_oracle.verify_y_preset).
_PRESETS: dict[str, SternLikeSpec] = {
    "stern": SternLikeSpec(1, 1, 1, 0, (0, 1), "stern"),
    "twisted": SternLikeSpec(-1, -1, -1, 1, (0, 1), "twisted"),
    "z1": SternLikeSpec(1, -1, 1, 1, (0, 1), "z1"),
    "z2": SternLikeSpec(-1, -1, 1, 1, (0, 1), "z2"),
    "z3": SternLikeSpec(-1, 1, 1, 1, (0, 1), "z3"),
    "tm_complexity_shift": SternLikeSpec(2, 1, 1, 2, (2, 4, 6, 10), "tm_complexity_shift"),
    "josephus": SternLikeSpec(2, 1, 1, 2, (0, 1, 1, 2), "josephus", output_min_index=1),
}

PRESET_NAMES: tuple[str, ...] = tuple(_PRESETS)

# Short names accepted wherever a preset name is (CLI arguments, identity
# sequence bindings).
PRESET_ALIASES: dict[str, str] = {
    "s": "stern",
    "t": "twisted",
    "y": "tm_complexity_shift",
    "d": "josephus",
}


def resolve_preset_name(name: str) -> str:
    """Map a preset name or alias to its canonical name; raise if unknown."""
    canonical = PRESET_ALIASES.get(name, name)
    if canonical not in _PRESETS:
        raise UnknownPresetError(
            f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}"
        )
    return canonical


def preset(name: str) -> SternLikeSpec:
    """Return the preset spec for `name` (aliases accepted)."""
    return _PRESETS[resolve_preset_name(name)]


# ---------------------------------------------------------------------------
# Evaluation


def prefix(spec: SternLikeSpec, hi: int) -> list[int]:
    """[v(0), ..., v(hi)], built bottom-up from the initial segment."""
    return _extend(spec, list(spec.init[:max(hi + 1, 0)]), hi + 1)


def _extend(spec: SternLikeSpec, values: list[int], size: int) -> list[int]:
    """Append v(len(values)) .. v(size - 1) to a prefix holding all of `init`."""
    a, b, c = spec.a, spec.b, spec.c
    append = values.append
    for n in range(len(values), size):
        h = n >> 1  # n >= 2*n_eff, so h >= n0
        append(b * values[h] + c * values[h + 1] if n & 1 else a * values[h])
    return values


def _descent(spec: SternLikeSpec, m: int, steps: int) -> tuple[int, int, int]:
    """(alpha, beta, k = m >> steps) with v(2^steps*x + m) = alpha*v(x+k) +
    beta*v(x+k+1), wherever the recurrence holds at each index halved on the way."""
    a, b, c = spec.a, spec.b, spec.c
    alpha, beta = 1, 0
    for _ in range(steps):
        if m & 1:
            alpha, beta = alpha * b, alpha * c + beta * a
        else:
            alpha, beta = alpha * a + beta * b, beta * c
        m >>= 1
    return alpha, beta, m


def _term(spec: SternLikeSpec, n: int, table) -> int:
    """v(n), n >= 0, by descent onto table = [v(0), ..., v(t)], t >= 2*n_eff;
    it stops at the first m = n >> k below t, so every halved index is >= n0."""
    top = len(table) - 1
    steps = max(0, n.bit_length() - top.bit_length())
    if n >> steps >= top:
        steps += 1
    alpha, beta, m = _descent(spec, n, steps)
    return alpha * table[m] + beta * table[m + 1]


def _term_lookup(spec: SternLikeSpec, limit: int, label: str = "v") -> Callable[[int], int]:
    """v for one job: indices below `limit` come from a prefix grown on demand,
    larger ones descend onto it; a negative index raises DomainError."""
    values = prefix(spec, 2 * spec.n_eff)

    def value(n: int) -> int:
        if 0 <= n < len(values):
            return values[n]
        if n < 0:
            raise DomainError(f"index of {label}(...) evaluated negative: {n}")
        if n < limit:
            return _extend(spec, values, min(max(n + 1, 2 * len(values)), limit))[n]
        return _term(spec, n, values)

    return value


def eval_direct(spec: SternLikeSpec, n: int) -> int:
    """v(n) by descent onto the initial segment: O(log n) steps, no memo."""
    if n < 0:
        raise DomainError(f"sequence index must be >= 0, got {n}")
    return _term(spec, n, (*spec.init, spec.a * spec.init[spec.n_eff]))


def evaluator(spec: SternLikeSpec) -> Callable[[int], int]:
    """`eval_direct` bound to `spec`; it caches nothing."""
    return partial(eval_direct, spec)


def eval_range(spec: SternLikeSpec, lo: int, hi: int) -> list[int]:
    """[v(lo), ..., v(hi)] inclusive; memory is bounded by twice the range's length."""
    if lo > hi:
        raise RangeError(f"empty range: lo={lo} > hi={hi}")
    if lo < 0:
        raise DomainError(f"sequence index must be >= 0, got {lo}")
    value = _term_lookup(spec, min(hi + 1, 2 * (hi - lo + 1)))
    return [value(n) for n in range(lo, hi + 1)]


# ---------------------------------------------------------------------------
# Spec files
#
# Line-oriented `key = value` text; `#` begins a comment line.
# Keys: a, b, c, n0 (integers), init (comma-separated integers), name.

_SPEC_INT_KEYS = ("a", "b", "c", "n0")


def parse_spec_text(text: str, name: str | None = None) -> SternLikeSpec:
    """Parse the `key = value` spec-file format into a validated spec."""
    seen: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise SpecError(f"spec line {line_no}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key not in (*_SPEC_INT_KEYS, "init", "name"):
            raise SpecError(f"spec line {line_no}: unknown key {key!r}")
        if key in seen:
            raise SpecError(f"spec line {line_no}: duplicate key {key!r}")
        seen[key] = value.strip()

    missing = [k for k in (*_SPEC_INT_KEYS, "init") if k not in seen]
    if missing:
        raise SpecError(f"spec file is missing keys: {', '.join(missing)}")

    fields: dict[str, int] = {}
    for key in _SPEC_INT_KEYS:
        try:
            fields[key] = int(seen[key])
        except ValueError:
            raise SpecError(f"spec key {key!r}: not an integer: {seen[key]!r}") from None
    try:
        init = tuple(int(part) for part in seen["init"].split(","))
    except ValueError:
        raise SpecError(f"spec key 'init': not a comma-separated integer list: {seen['init']!r}") from None

    return make_spec(fields["a"], fields["b"], fields["c"], fields["n0"], init,
                     name=seen.get("name", name))


def load_spec_file(path) -> SternLikeSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise SpecError(f"{path}: not UTF-8 text ({exc})") from None
    spec = parse_spec_text(text)
    if spec.name is None:
        spec = replace(spec, name=str(path))
    return spec
