"""Linear representations of Stern-like sequences.

For any spec there are integers A(e, r), B(e, r), 0 <= r <= 2^e, with

    v(2^e * n + r) = A(e, r) * v(n) + B(e, r) * v(n+1)      for n >= n0.

The coefficients satisfy A(0,0)=1, B(0,0)=0, A(0,1)=0, B(0,1)=1 and double
level by level:

    A(e+1, 2r)   = a * A(e, r)          B(e+1, 2r)   = a * B(e, r)
    A(e+1, 2r+1) = b * A(e, r) + c * A(e, r+1)
    B(e+1, 2r+1) = b * B(e, r) + c * B(e, r+1)

Equivalently, the pair state (v(k), v(k+1)) is advanced along the binary
digits of the index by two fixed 2x2 integer matrices, which exhibits the
sequence as 2-regular: v(n) is the first coordinate of the product of n's
digit matrices applied to a base state.  `LinearRepresentation.evaluate`
and `eval_fast` share one routine, `_evaluate`, which applies the digits'
matrices eight at a time, through the 256 products of eight digit matrices,
for indices of up to a few thousand bits.  Above that the state's integers
grow with every step, which makes the replay quadratic, so it multiplies
those products in a balanced product tree instead (Bernstein, "Fast
multiplication and its applications", 2008): the same exact product from a
few large, Karatsuba-sized multiplications.  The only state kept between
calls is that immutable 256-entry table, one per matrix pair, and each
spec's base states and matrices, for at most `_STRIDE_SPECS` of each.
"""

from __future__ import annotations

from functools import lru_cache

from ._frozen import Frozen, set_field
from .errors import DomainError, RangeError, SingularSystemError
from .recurrence import _STRIDE_SPECS, SternLikeSpec, _descent, _double, evaluator

__all__ = [
    "CoeffTable",
    "MatrixPair",
    "LinearRepresentation",
    "coeff_table",
    "coeff_at",
    "coeffs",
    "transition_matrices",
    "eval_fast",
    "recover_coefficients",
    "linear_representation",
]

Row = tuple[int, ...]


def coeff_at(spec: SternLikeSpec, e: int, r: int) -> tuple[int, int]:
    """(A(e, r), B(e, r)) by e descent steps on r: O(e) work, eight digits at
    a time, with no row cached but the descent's stride rows of (a, b, c).
    For r = 2^e the descent ends with carry 1: v(2^e*(n+1)) = a^e*v(n+1)."""
    if e < 0:
        raise RangeError(f"e must be >= 0, got {e}")
    if not 0 <= r <= 1 << e:
        raise RangeError(f"r must lie in [0, 2^{e}], got {r}")
    alpha, beta, carry = _descent(spec, r, e)
    return (0, alpha) if carry else (alpha, beta)


class CoeffTable(Frozen):
    """Materialized coefficient rows A(e, .), B(e, .) for e = 0..e_max."""

    __slots__ = ("spec", "e_max", "A", "B")

    def __init__(self, spec: SternLikeSpec, e_max: int, A: tuple[Row, ...], B: tuple[Row, ...]):
        set_field(self, "spec", spec)
        set_field(self, "e_max", e_max)
        set_field(self, "A", A)
        set_field(self, "B", B)


def coeff_table(spec: SternLikeSpec, e_max: int) -> CoeffTable:
    if e_max < 0:
        raise RangeError(f"e_max must be >= 0, got {e_max}")
    a, b, c = spec.a, spec.b, spec.c
    rows_a, rows_b = [(1, 0)], [(0, 1)]
    for _ in range(e_max):
        rows_a.append(tuple(_double(a, b, c, rows_a[-1])))
        rows_b.append(tuple(_double(a, b, c, rows_b[-1])))
    return CoeffTable(spec, e_max, tuple(rows_a), tuple(rows_b))


def coeffs(table: CoeffTable, e: int, r: int) -> tuple[int, int]:
    """Table lookup; RangeError outside e <= e_max, 0 <= r <= 2^e."""
    if not 0 <= e <= table.e_max:
        raise RangeError(f"e must lie in [0, {table.e_max}], got {e}")
    if not 0 <= r < len(table.A[e]):
        raise RangeError(f"r must lie in [0, 2^{e}], got {r}")
    return table.A[e][r], table.B[e][r]


Matrix = tuple[tuple[int, int], tuple[int, int]]


class MatrixPair(Frozen):
    """Digit matrices acting on the column state (v(k), v(k+1)).

    m0 maps it to (v(2k), v(2k+1)); m1 maps it to (v(2k+1), v(2k+2)).
    """

    __slots__ = ("m0", "m1")

    def __init__(self, m0: Matrix, m1: Matrix):
        set_field(self, "m0", m0)
        set_field(self, "m1", m1)


def _matrices(spec: SternLikeSpec) -> tuple[Matrix, Matrix]:
    a, b, c = spec.a, spec.b, spec.c
    return ((a, 0), (b, c)), ((b, c), (0, a))


def transition_matrices(spec: SternLikeSpec) -> MatrixPair:
    return MatrixPair(*_matrices(spec))


def _base_states(spec: SternLikeSpec) -> tuple[tuple[int, int], ...]:
    """(v(k), v(k+1)) for 0 <= k < 2*n_eff, read straight off `init`; the
    last one needs v(2*n_eff) = a*v(n_eff)."""
    init = spec.init
    return tuple(zip(init, (*init[1:], spec.a * init[spec.n_eff])))


def eval_fast(spec: SternLikeSpec, n: int) -> int:
    """v(n) through the linear representation: O(log n) matrix steps, from
    the same data as `linear_representation(spec).evaluate(n)`, which it
    does not build."""
    return _evaluate(*_representation(spec), n)


@lru_cache(maxsize=_STRIDE_SPECS)
def _representation(spec: SternLikeSpec) -> tuple:
    """(base states, m0, m1) of `spec`, kept for `eval_fast`."""
    return _base_states(spec), *_matrices(spec)


def recover_coefficients(spec: SternLikeSpec, e: int, r: int,
                         x0: int, y0: int) -> tuple[int, int]:
    """Solve for (A(e, r), B(e, r)) from four sequence values.

    Uses the 2x2 system v(2^e*x + r) = A*v(x) + B*v(x+1) at x = x0, y0,
    both >= n0.  Raises SingularSystemError when the determinant
    v(x0)*v(y0+1) - v(y0)*v(x0+1) vanishes.
    """
    if e < 0:
        raise RangeError(f"e must be >= 0, got {e}")
    if not 0 <= r <= 1 << e:
        raise RangeError(f"r must lie in [0, 2^{e}], got {r}")
    if x0 < spec.n0 or y0 < spec.n0:
        raise RangeError(f"x0, y0 must be >= n0 = {spec.n0}, got {x0}, {y0}")
    v = evaluator(spec)
    det = v(x0) * v(y0 + 1) - v(y0) * v(x0 + 1)
    if det == 0:
        raise SingularSystemError(
            f"rows ({v(x0)}, {v(x0 + 1)}) and ({v(y0)}, {v(y0 + 1)}) are dependent"
        )
    w_x = v((1 << e) * x0 + r)
    w_y = v((1 << e) * y0 + r)
    a_num = -(v(x0 + 1) * w_y - v(y0 + 1) * w_x)
    b_num = v(x0) * w_y - v(y0) * w_x
    a_val, a_rem = divmod(a_num, det)
    b_val, b_rem = divmod(b_num, det)
    if a_rem or b_rem:
        # cannot happen when the representation exists; guards impl bugs
        raise SingularSystemError("system is inconsistent over the integers")
    return a_val, b_val


# `evaluate` applies fewer than this many digits eight at a time and
# multiplies longer runs in a product tree of the same 8-digit products.
# Measured on a 2-vCPU VM (Python 3.11, three random indices per preset, best
# of 40 calls up to 8192 bits, of 10 to 32768 and of 3 above), the tree takes
# 1.08-1.24x the stride replay's time at 2048 bits, 1.00-1.17x at 3072,
# 0.85-1.03x at 4096, 0.69-0.91x at 6144, 0.58-0.81x at 8192, 0.39-0.58x at
# 16384 and 0.13-0.20x at 131072 bits; z3, whose terms stay in {-1, 0, 1},
# replays faster at every size (the tree takes 2.2-3.4x).
_TREE_MIN_DIGITS = 4096


@lru_cache(maxsize=_STRIDE_SPECS)
def _stride_products(m0: Matrix, m1: Matrix) -> tuple[tuple[int, int, int, int], ...]:
    """The product P = M_d8 ... M_d1 of the matrices of each run of eight
    digits d1..d8 (d1 the most significant), flattened row by row, at the
    index whose binary digits are d1..d8; built from m0 and m1 alone."""
    level = [(1, 0, 0, 1)]
    for _ in range(8):
        level = [(e * p + f * r, e * q + f * s, g * p + h * r, g * q + h * s)
                 for p, q, r, s in level for (e, f), (g, h) in (m0, m1)]
    return tuple(level)


def _replay(m0: Matrix, m1: Matrix, digits: str, x: int, y: int) -> tuple[int, int]:
    """Advance the column state (x, y) along `digits`, most-significant first."""
    (a00, a01), (a10, a11) = m0
    (b00, b01), (b10, b11) = m1
    for bit in digits:
        if bit == "1":
            x, y = b00 * x + b01 * y, b10 * x + b11 * y
        else:
            x, y = a00 * x + a01 * y, a10 * x + a11 * y
    return x, y


def _evaluate(base_states: tuple[tuple[int, int], ...], m0: Matrix, m1: Matrix, n: int) -> int:
    """v(n) from base states and digit matrices alone: the base state at n's
    top bits, advanced along the digits below them, most-significant first.

    The leading j % 8 of the j digits are replayed one at a time, the rest
    go eight at a time through `_stride_products`.  From `_TREE_MIN_DIGITS`
    digits on, those products are the leaves of a balanced product tree:
    neighbours are multiplied pairwise, so entries only get large in the
    last few levels, until the two subtrees of its root are left.  The
    earlier one is applied to the state and the later one's first row to
    the result, which takes two large multiplications where the root
    product would take eight.
    """
    if n < 0:
        raise DomainError(f"sequence index must be >= 0, got {n}")
    # the base index is n's top bits: the smallest shift j with n >> j
    # below len(base_states); the j digits under it advance its state
    size = len(base_states)
    j = max(0, n.bit_length() - size.bit_length())
    if n >> j >= size:
        j += 1
    x, y = base_states[n >> j]
    lead = j & 7
    if lead:
        x, y = _replay(m0, m1, format(n >> (j - lead), "b")[-lead:], x, y)
    if j < 8:
        return x
    # the remaining digits, eight at a time from the most significant
    runs = (n & ((1 << (j - lead)) - 1)).to_bytes(j >> 3, "big")
    products = _stride_products(m0, m1)
    if j < _TREE_MIN_DIGITS:
        for run in runs:
            p, q, r, s = products[run]
            x, y = p * x + q * y, r * x + s * y
        return x
    level = [products[run] for run in runs]
    while len(level) > 2:
        paired = [(p * e + q * g, p * f + q * h, r * e + s * g, r * f + s * h)
                  for (e, f, g, h), (p, q, r, s) in zip(level[::2], level[1::2])]
        level = paired + level[-1:] if len(level) % 2 else paired
    *earlier, (p, q, _, _) = level
    for e, f, g, h in earlier:
        x, y = e * x + f * y, g * x + h * y
    return p * x + q * y


class LinearRepresentation(Frozen):
    """Everything an external consumer needs to evaluate the sequence.

    `base_states[k] = (v(k), v(k+1))` for 0 <= k < 2*n_eff and the two digit
    matrices; a term is the first coordinate of the final state.
    """

    __slots__ = ("spec", "base_states", "matrices")

    def __init__(self, spec: SternLikeSpec, base_states: tuple[tuple[int, int], ...],
                 matrices: MatrixPair):
        set_field(self, "spec", spec)
        set_field(self, "base_states", base_states)
        set_field(self, "matrices", matrices)

    def evaluate(self, n: int) -> int:
        """v(n) from the exported data alone (see `_evaluate`)."""
        return _evaluate(self.base_states, self.matrices.m0, self.matrices.m1, n)

    def render(self) -> str:
        """Stable, diff-friendly plain-text export (`key value...` lines)."""
        lines = []
        if self.spec.name:
            lines.append(f"name {self.spec.name}")
        lines.append(f"a {self.spec.a}")
        lines.append(f"b {self.spec.b}")
        lines.append(f"c {self.spec.c}")
        lines.append(f"n_eff {self.spec.n_eff}")
        for k, (x, y) in enumerate(self.base_states):
            lines.append(f"base {k} {x} {y}")
        m0, m1 = self.matrices.m0, self.matrices.m1
        lines.append(f"M0 {m0[0][0]} {m0[0][1]} {m0[1][0]} {m0[1][1]}")
        lines.append(f"M1 {m1[0][0]} {m1[0][1]} {m1[1][0]} {m1[1][1]}")
        lines.append("projection first")
        return "\n".join(lines) + "\n"


def linear_representation(spec: SternLikeSpec) -> LinearRepresentation:
    return LinearRepresentation(spec, _base_states(spec), transition_matrices(spec))
