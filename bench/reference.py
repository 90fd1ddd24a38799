"""Reference arithmetic the benchmark checks the program against.

Nothing here imports `sternlike`: the preset table is the documented
definition of each sequence, and every value is computed by code that shares
no logic with the package.  Single terms replay the binary digits of n on the
pair (v(m), v(m+1)); dense prefixes are built bottom-up from a list; the
coefficient rows follow their defining doubling rule.
"""

from __future__ import annotations

from typing import NamedTuple


class Spec(NamedTuple):
    a: int
    b: int
    c: int
    n0: int
    init: tuple[int, ...]
    output_min_index: int = 0


# The documented presets (README table): (a, b, c), n0 and v(0)..v(2*max(n0,1)-1).
PRESETS: dict[str, Spec] = {
    "stern": Spec(1, 1, 1, 0, (0, 1)),
    "twisted": Spec(-1, -1, -1, 1, (0, 1)),
    "z1": Spec(1, -1, 1, 1, (0, 1)),
    "z2": Spec(-1, -1, 1, 1, (0, 1)),
    "z3": Spec(-1, 1, 1, 1, (0, 1)),
    "tm_complexity_shift": Spec(2, 1, 1, 2, (2, 4, 6, 10)),
    "josephus": Spec(2, 1, 1, 2, (0, 1, 1, 2), 1),
}
ALIASES = {"s": "stern", "t": "twisted", "y": "tm_complexity_shift", "d": "josephus"}


def term(spec: Spec, n: int) -> int:
    """v(n): start from the top bits of n inside the initial segment, replay the rest."""
    a, b, c, _, init, _ = spec
    top = len(init)
    if n < top:
        return init[n]
    half = top // 2
    shift = n.bit_length() - half.bit_length()
    if n >> shift < half:
        shift -= 1
    m = n >> shift                       # half <= m < top, so every step is >= n0
    x = init[m]
    y = init[m + 1] if m + 1 < top else a * init[half]
    for i in range(shift - 1, -1, -1):
        if (n >> i) & 1:
            x, y = b * x + c * y, a * y
        else:
            x, y = a * x, b * x + c * y
    return x


def prefix(spec: Spec, hi: int) -> list[int]:
    """[v(0), ..., v(hi)], bottom-up."""
    a, b, c, _, init, _ = spec
    v = list(init[:hi + 1])
    for k in range(len(v), hi + 1):
        h = k >> 1
        v.append(b * v[h] + c * v[h + 1] if k & 1 else a * v[h])
    return v


def coeff_rows(spec: Spec, e_max: int) -> list[tuple[list[int], list[int]]]:
    """Rows (A(e, .), B(e, .)) for e = 0..e_max, by their doubling rule."""
    a, b, c = spec.a, spec.b, spec.c
    rows = [([1, 0], [0, 1])]
    for _ in range(e_max):
        out = []
        for prev in rows[-1]:
            nxt = []
            for r in range(len(prev) - 1):
                nxt += [a * prev[r], b * prev[r] + c * prev[r + 1]]
            nxt.append(a * prev[-1])
            out.append(nxt)
        rows.append((out[0], out[1]))
    return rows
