"""Truncated Laurent series over the integers, and the named series checks.

A series is stored as the exact coefficients of X^val .. X^(order-1).
Exponents below `val` are exactly zero; exponents at or above `order` are
unknown (truncated).  `val` may be negative, which is needed because one of
the checks multiplies by a Laurent polynomial with terms down to X^(1-2^e).

Order bookkeeping is sound, never optimistic:

    add/sub:        order = min(order1, order2)
    mul:            order = min(order1 + val2, order2 + val1)
    compose_power:  order = m * order      (X -> X^m)
    shift:          order = order + d      (multiply by X^d)

Comparisons only ever look at exponents both operands are sound for;
asking beyond that is a harness bug, not a silent pass.

All coefficient arithmetic is exact; division refuses to leave the
integers.  Multiplication is Kronecker substitution: both operands are
packed into one integer each and multiplied once by CPython's bigint
multiply.  Division by a series whose lowest nonzero coefficient is +-1
(the stern series among them) multiplies by the inverse from Newton
iteration; any other denominator goes through exact long division, which
raises DivisionError at the first step that leaves the integers.  Results
and the order rules above do not depend on which algorithm ran.

The named checks verify relations between the generating series of the
stern/twisted presets and report the first bad exponent on failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterable

from .errors import DivisionError, RangeError, UnknownCheckError
from .recurrence import SternLikeSpec, eval_range, prefix, preset

__all__ = [
    "LaurentSeries",
    "from_coeffs",
    "zero",
    "monomial",
    "sequence_series",
    "add",
    "sub",
    "mul",
    "scale",
    "compose_power",
    "shift",
    "truncate",
    "divide",
    "first_mismatch",
    "agree",
    "CheckReport",
    "LevelResult",
    "CHECK_NAMES",
    "check_named",
]


@dataclass(frozen=True)
class LaurentSeries:
    """coeffs[i] is the coefficient of X^(val + i); sound for exponents < order."""

    val: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise RangeError("a series needs at least one stored coefficient")

    @property
    def order(self) -> int:
        return self.val + len(self.coeffs)

    def coefficient(self, exponent: int) -> int:
        """Exact coefficient of X^exponent; RangeError at or past the order."""
        if exponent >= self.order:
            raise RangeError(
                f"coefficient of X^{exponent} is beyond the sound order {self.order}"
            )
        if exponent < self.val:
            return 0
        return self.coeffs[exponent - self.val]

    def valuation(self) -> int | None:
        """Lowest exponent with a nonzero stored coefficient, None if all zero."""
        for i, coeff in enumerate(self.coeffs):
            if coeff:
                return self.val + i
        return None

    def __str__(self):
        terms = []
        for i, coeff in enumerate(self.coeffs):
            if coeff:
                e = self.val + i
                if e == 0:
                    terms.append(f"{coeff}")
                else:
                    terms.append(f"{coeff}*X^{e}" if e != 1 else f"{coeff}*X")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(X^{self.order})"


def from_coeffs(values: Iterable[int], val: int = 0, order: int | None = None) -> LaurentSeries:
    """Series from explicit coefficients of X^val upward.

    Passing `order` pads with zeros up to it; that asserts the extra
    coefficients really are zero (use it for exact polynomials only).
    """
    coeffs = list(values)
    if order is not None:
        pad = order - val - len(coeffs)
        if pad < 0:
            raise RangeError(f"order {order} is below the stored range")
        coeffs.extend([0] * pad)
    return LaurentSeries(val, tuple(coeffs))


def zero(order: int, val: int = 0) -> LaurentSeries:
    return from_coeffs([], val=val, order=order)


def monomial(exponent: int, order: int, coeff: int = 1) -> LaurentSeries:
    """coeff * X^exponent, exact up to `order`."""
    return from_coeffs([coeff], val=exponent, order=order)


def sequence_series(spec: SternLikeSpec, offset: int, order: int) -> LaurentSeries:
    """Sum of v(offset + n) * X^n for 0 <= n < order."""
    if order < 1:
        raise RangeError(f"order must be >= 1, got {order}")
    return LaurentSeries(0, tuple(eval_range(spec, offset, offset + order - 1)))


def add(f: LaurentSeries, g: LaurentSeries) -> LaurentSeries:
    return _combine(f, g, 1)


def sub(f: LaurentSeries, g: LaurentSeries) -> LaurentSeries:
    return _combine(f, g, -1)


def _combine(f: LaurentSeries, g: LaurentSeries, sign: int) -> LaurentSeries:
    val = min(f.val, g.val)
    order = min(f.order, g.order)
    if order <= val:
        raise RangeError("operands have no common sound exponent range")
    out = [0] * (order - val)
    for i, coeff in enumerate(f.coeffs):
        e = f.val + i
        if e < order:
            out[e - val] += coeff
    for i, coeff in enumerate(g.coeffs):
        e = g.val + i
        if e < order:
            out[e - val] += sign * coeff
    return LaurentSeries(val, tuple(out))


def mul(f: LaurentSeries, g: LaurentSeries) -> LaurentSeries:
    val = f.val + g.val
    order = min(f.order + g.val, g.order + f.val)
    if order <= val:
        raise RangeError("product has no sound exponent range")
    return LaurentSeries(val, tuple(_kronecker(f.coeffs, g.coeffs, order - val)))


def _kronecker(a, b, n: int) -> list[int]:
    """First n coefficients of the product of coefficient sequences a and b.

    Kronecker substitution: each operand becomes one integer with a w-byte
    slot per coefficient, so one bigint product holds every convolution sum
    in its own slot.  A slot fits the largest possible |sum| plus a sign
    bit, so slots never spill into each other.  Adding half a slot to each
    of the n wanted slots makes them all nonnegative, and the bias comes
    off again as each slot is cut out.
    """
    a, b = a[:n], b[:n]
    bound = max(map(abs, a)) * max(map(abs, b))
    if not bound:
        return [0] * n
    bound *= min(len(a), len(b))
    w = (bound.bit_length() + 8) // 8
    half = 1 << (8 * w - 1)
    bias = int.from_bytes(half.to_bytes(w, "little") * n, "little")
    buf = ((_pack(a, w) * _pack(b, w) + bias) & ((1 << (8 * w * n)) - 1)).to_bytes(
        w * n, "little")
    return [int.from_bytes(buf[i:i + w], "little") - half for i in range(0, w * n, w)]


def _pack(coeffs, w: int) -> int:
    """Sum of coeffs[i] * 2^(8*w*i), built exactly by merging neighbours.

    Plain integer additions keep negative coefficients exact, where
    concatenated two's-complement slots would not: a negative slot borrows
    from the one above it.
    """
    packed = list(coeffs)
    shift = 8 * w
    while len(packed) > 1:
        if len(packed) % 2:
            packed.append(0)
        pairs = iter(packed)
        packed = [lo + (hi << shift) for lo, hi in zip(pairs, pairs)]
        shift *= 2
    return packed[0]


def _inverse(d, m: int) -> list[int]:
    """First m coefficients of 1/d for a power series d with d[0] = +-1.

    Newton iteration g <- g + g*(1 - d*g): each step doubles the number of
    correct coefficients, and since d*g = 1 + X^p*h the step only needs h.
    """
    g = [d[0]]
    p = 1
    while p < m:
        q = min(2 * p, m)
        h = _kronecker(d[:q], g, q)[p:]
        g.extend(-c for c in _kronecker(g, h, q - p))
        p = q
    return g


def scale(f: LaurentSeries, k: int) -> LaurentSeries:
    return LaurentSeries(f.val, tuple(k * coeff for coeff in f.coeffs))


def compose_power(f: LaurentSeries, m: int) -> LaurentSeries:
    """Substitute X -> X^m (m >= 1); sound order becomes m * order."""
    if m < 1:
        raise RangeError(f"compose_power needs m >= 1, got {m}")
    if m == 1:
        return f
    out = [0] * (m * len(f.coeffs) - (m - 1))
    for i, coeff in enumerate(f.coeffs):
        out[m * i] = coeff
    out.extend([0] * (m - 1))  # gap exponents below m*order are exact zeros
    return LaurentSeries(m * f.val, tuple(out))


def shift(f: LaurentSeries, d: int) -> LaurentSeries:
    """Multiply by X^d (d may be negative)."""
    return LaurentSeries(f.val + d, f.coeffs)


def truncate(f: LaurentSeries, order: int) -> LaurentSeries:
    if order >= f.order:
        return f
    if order <= f.val:
        raise RangeError(f"cannot truncate below the valuation bound {f.val}")
    return LaurentSeries(f.val, f.coeffs[: order - f.val])


def divide(num: LaurentSeries, den: LaurentSeries) -> LaurentSeries:
    """Exact long division: q with num = den * q, over the integers.

    Requires valuation(num) >= valuation(den) and every division step to be
    exact; otherwise DivisionError.  The quotient is sound for exponents
    below min(order(num), order(den) + val(q)) - valuation(den).
    """
    vd = den.valuation()
    if vd is None:
        raise DivisionError("denominator is zero through its whole sound range")
    vn = num.valuation()
    if vn is None:
        # numerator vanishes through its sound range: quotient is 0 there
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
    if lead in (1, -1):
        # num/den = (num/X^vn) * (den/X^vd)^-1 * X^q_val, and the inverse is
        # integral; only q_order - q_val terms of each factor are sound
        m = q_order - q_val
        inverse = _inverse(den.coeffs[vd - den.val:], m)
        return LaurentSeries(q_val, tuple(_kronecker(num.coeffs[vn - num.val:], inverse, m)))
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


def first_mismatch(f: LaurentSeries, g: LaurentSeries) -> int | None:
    """Smallest exponent where f and g differ, over the shared sound range."""
    if f.val > g.val:
        f, g = g, f
    order = min(f.order, g.order)
    split = min(g.val, order)
    # below g.val, g is exactly zero
    for i, coeff in enumerate(f.coeffs[:split - f.val]):
        if coeff:
            return f.val + i
    if split < order:
        fs = f.coeffs[split - f.val:order - f.val]
        gs = g.coeffs[:order - g.val]
        if fs != gs:
            for i, (fc, gc) in enumerate(zip(fs, gs)):
                if fc != gc:
                    return split + i
    return None


def agree(f: LaurentSeries, g: LaurentSeries) -> bool:
    return first_mismatch(f, g) is None


# ---------------------------------------------------------------------------
# Named checks


@dataclass(frozen=True)
class LevelResult:
    level: int
    holds: bool
    first_bad_exponent: int | None


@dataclass(frozen=True)
class CheckReport:
    name: str
    params: dict
    levels: tuple[LevelResult, ...]
    artifacts: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return all(level.holds for level in self.levels)

    @property
    def first_bad_exponent(self) -> int | None:
        for level in self.levels:
            if not level.holds:
                return level.first_bad_exponent
        return None

    def machine_lines(self) -> list[str]:
        order = self.params.get("order", 0)
        return [
            f"check={self.name} e={lv.level} holds={str(lv.holds).lower()} order={order}"
            for lv in self.levels
        ]

    def summary(self) -> str:
        status = "holds" if self.holds else f"FAILS at X^{self.first_bad_exponent}"
        args = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"check {self.name} ({args}): {status}"


def _level(level: int, bad: int | None) -> LevelResult:
    return LevelResult(level, bad is None, bad)


def _require_depth(e_max: int, order: int) -> None:
    # each level needs a meaningful stretch of coefficients to compare
    if order < 4 * (1 << e_max):
        raise RangeError(
            f"order {order} is too small for e_max {e_max}; need >= {4 * (1 << e_max)}")


def _check_sum_s(order: int, e_max: int) -> CheckReport:
    _require_depth(e_max, order)
    s = preset("stern")
    full = sequence_series(s, 0, order)
    sval = prefix(s, 1 << e_max)
    levels = []
    residues = {}
    for e in range(e_max + 1):
        p = 1 << e
        comp = compose_power(sequence_series(s, 0, -(-order // p) + 1), p)
        # bracket: sum over 0 <= r < 2^e of s(2^e - r) X^r + s(r) X^(r - 2^e);
        # an exact Laurent polynomial, so padding to the target order is sound
        coeffs = [0] * (2 * p)
        for r in range(p):
            coeffs[r] += sval[r]            # X^(r - 2^e)
            coeffs[p + r] += sval[p - r]    # X^r
        bracket = from_coeffs(coeffs, val=-p, order=order + 1)
        product = mul(comp, bracket)
        residues[e] = [product.coefficient(j) for j in range(product.val, 0)]
        levels.append(_level(e, first_mismatch(product, full)))
    return CheckReport("sum_s", {"e_max": e_max, "order": order}, tuple(levels),
                       {"negative_exponent_residues": residues})


def _check_carlitz(order: int, e_max: int | None) -> CheckReport:
    s = preset("stern")
    half = sequence_series(s, 0, order // 2 + 2)
    lhs = mul(from_coeffs([1, 1, 1], order=order + 3), compose_power(half, 2))
    rhs = shift(sequence_series(s, 0, order + 1), 1)
    bad = first_mismatch(truncate(lhs, order), truncate(rhs, order))
    return CheckReport("carlitz", {"order": order}, (_level(0, bad),))


def _check_coons_lemma8(order: int | None, k_max: int) -> CheckReport:
    sval = prefix(preset("stern"), 1 << k_max)
    levels = []
    for k in range(k_max + 1):
        top = 1 << (k + 1)
        lhs = monomial(1, top + 1)
        for i in range(k):
            factor = [0] * ((1 << (i + 1)) + 1)
            factor[0] = 1
            factor[1 << i] += 1
            factor[1 << (i + 1)] += 1
            lhs = mul(lhs, from_coeffs(factor, order=top + 1))
        rhs = [0] * (top + 1)
        for n in range(1, (1 << k) + 1):
            rhs[n] += sval[n]
        for n in range(1, 1 << k):
            rhs[n + (1 << k)] += sval[(1 << k) - n]
        levels.append(_level(k, first_mismatch(lhs, from_coeffs(rhs))))
    return CheckReport("coons_lemma8", {"k_max": k_max, "order": 1 << (k_max + 1)},
                       tuple(levels))


# name -> (numerator terms (sign, preset, offset multiple), artifact key, level
# sign L).  N(m) sums sign * the preset's series from offset multiple*m; with S
# the Stern series and Q = N(1)/S, level e checks L^e * N(2^e) == Q(X^(2^e))*S.
# bconj3, the twisted bconj2, is consistent with its quotient for L = -1.
_BCONJ = {
    "bconj1": (((1, "twisted", 3),), "u_prefix", -1),
    "bconj2": (((1, "stern", 2), (-1, "stern", 1)), "a_prefix", 1),
    "bconj3": (((1, "twisted", 2), (1, "twisted", 1)), "b_prefix", -1),
}


def _numerator(terms: tuple[tuple[int, str, int], ...], m: int, order: int) -> LaurentSeries:
    (sign, name, multiple), *rest = terms
    total = sequence_series(preset(name), multiple * m, order)
    if sign < 0:
        total = scale(total, -1)
    for sign, name, multiple in rest:
        term = sequence_series(preset(name), multiple * m, order)
        total = add(total, term) if sign > 0 else sub(total, term)
    return total


def _check_bconj(name: str, order: int, e_max: int) -> CheckReport:
    _require_depth(e_max, order)
    terms, artifact, level_sign = _BCONJ[name]
    big = sequence_series(preset("stern"), 0, order)
    quotient = divide(_numerator(terms, 1, order), big)
    levels = []
    for e in range(e_max + 1):
        p = 1 << e
        lhs = _numerator(terms, p, order)
        if level_sign ** e < 0:
            lhs = scale(lhs, -1)
        rhs = mul(compose_power(quotient, p), big)
        levels.append(_level(e, first_mismatch(lhs, rhs)))
    return CheckReport(name, {"e_max": e_max, "order": order}, tuple(levels),
                       {artifact: quotient.coeffs[:8]})


# name -> (runner(order, e_max), default order, default e_max); carlitz has
# no levels and coons_lemma8's order follows from its e_max
_CHECKS = {
    "sum_s": (_check_sum_s, 1024, 5),
    "carlitz": (_check_carlitz, 1024, None),
    "coons_lemma8": (_check_coons_lemma8, None, 5),
    **{name: (partial(_check_bconj, name), 256, 5) for name in _BCONJ},
}

CHECK_NAMES = tuple(_CHECKS)


def check_named(name: str, order: int | None = None, e_max: int | None = None) -> CheckReport:
    """Run one named series check.

    `order` is the truncation order M; `e_max` is the top scale level E
    (for coons_lemma8 it is the top product length K).  Defaults: order 256,
    e_max 5, and order 1024 for carlitz and sum_s.  A negative e_max raises
    RangeError for every check with levels; carlitz ignores e_max.
    """
    if name not in _CHECKS:
        raise UnknownCheckError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    run, default_order, default_e_max = _CHECKS[name]
    if e_max is None:
        e_max = default_e_max
    elif e_max < 0 and default_e_max is not None:
        raise RangeError(f"e_max must be >= 0, got {e_max}")
    return run(default_order if order is None else order, e_max)
