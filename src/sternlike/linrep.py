"""Linear representations of Stern-like sequences.

For any spec there are integers A(e, r), B(e, r), 0 <= r <= 2^e, with

    v(2^e * n + r) = A(e, r) * v(n) + B(e, r) * v(n+1)      for n >= n0.

The coefficients satisfy A(0,0)=1, B(0,0)=0, A(0,1)=0, B(0,1)=1 and double
level by level:

    A(e+1, 2r)   = a * A(e, r)          B(e+1, 2r)   = a * B(e, r)
    A(e+1, 2r+1) = b * A(e, r) + c * A(e, r+1)
    B(e+1, 2r+1) = b * B(e, r) + c * B(e, r+1)

Equivalently, the pair state (v(k), v(k+1)) is advanced along the binary
digits of the index by two fixed 2x2 integer matrices, which makes any term
computable in O(log n) exact matrix steps and exhibits the sequence as
2-regular.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, RangeError, SingularSystemError
from .recurrence import SternLikeSpec, _descent, evaluator

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
    """(A(e, r), B(e, r)) by e descent steps on r: O(e) work, nothing cached.
    For r = 2^e the descent ends with carry 1: v(2^e*(n+1)) = a^e*v(n+1)."""
    if e < 0:
        raise RangeError(f"e must be >= 0, got {e}")
    if not 0 <= r <= 1 << e:
        raise RangeError(f"r must lie in [0, 2^{e}], got {r}")
    alpha, beta, carry = _descent(spec, r, e)
    return (0, alpha) if carry else (alpha, beta)


@dataclass(frozen=True)
class CoeffTable:
    """Materialized coefficient rows A(e, .), B(e, .) for e = 0..e_max."""

    spec: SternLikeSpec
    e_max: int
    A: tuple[Row, ...]
    B: tuple[Row, ...]


def coeff_table(spec: SternLikeSpec, e_max: int) -> CoeffTable:
    if e_max < 0:
        raise RangeError(f"e_max must be >= 0, got {e_max}")
    rows_a, rows_b = [(1, 0)], [(0, 1)]
    for _ in range(e_max):
        rows_a.append(_next_row(spec, rows_a[-1]))
        rows_b.append(_next_row(spec, rows_b[-1]))
    return CoeffTable(spec, e_max, tuple(rows_a), tuple(rows_b))


def _next_row(spec: SternLikeSpec, row: Row) -> Row:
    """Row e+1 from row e: entry 2r is a*row[r], entry 2r+1 is b*row[r] + c*row[r+1]."""
    out = [0] * (2 * len(row) - 1)
    out[0::2] = [spec.a * x for x in row]
    out[1::2] = [spec.b * x + spec.c * y for x, y in zip(row, row[1:])]
    return tuple(out)


def coeffs(table: CoeffTable, e: int, r: int) -> tuple[int, int]:
    """Table lookup; RangeError outside e <= e_max, 0 <= r <= 2^e."""
    if not 0 <= e <= table.e_max:
        raise RangeError(f"e must lie in [0, {table.e_max}], got {e}")
    if not 0 <= r < len(table.A[e]):
        raise RangeError(f"r must lie in [0, 2^{e}], got {r}")
    return table.A[e][r], table.B[e][r]


Matrix = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class MatrixPair:
    """Digit matrices acting on the column state (v(k), v(k+1)).

    m0 maps it to (v(2k), v(2k+1)); m1 maps it to (v(2k+1), v(2k+2)).
    """

    m0: Matrix
    m1: Matrix


def transition_matrices(spec: SternLikeSpec) -> MatrixPair:
    a, b, c = spec.a, spec.b, spec.c
    return MatrixPair(((a, 0), (b, c)), ((b, c), (0, a)))


def eval_fast(spec: SternLikeSpec, n: int) -> int:
    """v(n) in O(log n) by replaying its bits through the linear representation."""
    return linear_representation(spec).evaluate(n)


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


@dataclass(frozen=True)
class LinearRepresentation:
    """Everything an external consumer needs to evaluate the sequence.

    `base_states[k] = (v(k), v(k+1))` for 0 <= k < 2*n_eff and the two digit
    matrices; a term is the first coordinate of the final state.
    """

    spec: SternLikeSpec
    base_states: tuple[tuple[int, int], ...]
    matrices: MatrixPair

    def evaluate(self, n: int) -> int:
        """Replay n's binary digits, most-significant first, using only the exported data."""
        if n < 0:
            raise DomainError(f"sequence index must be >= 0, got {n}")
        # the base index is n's top bits: the smallest shift j with n >> j
        # below len(base_states); the j digits under it are replayed
        size = len(self.base_states)
        j = max(0, n.bit_length() - size.bit_length())
        if n >> j >= size:
            j += 1
        x, y = self.base_states[n >> j]
        (a00, a01), (a10, a11) = self.matrices.m0
        (b00, b01), (b10, b11) = self.matrices.m1
        digits = format(n, "b")
        for bit in digits[len(digits) - j:]:
            if bit == "1":
                x, y = b00 * x + b01 * y, b10 * x + b11 * y
            else:
                x, y = a00 * x + a01 * y, a10 * x + a11 * y
        return x

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
    """Base states read straight off `init`; the last one needs v(2*n_eff) = a*v(n_eff).
    Nothing is cached, so `eval_fast` pays this on every call: keep it cheap."""
    init = spec.init
    ends = (*init[1:], spec.a * init[spec.n_eff])
    return LinearRepresentation(spec, tuple(zip(init, ends)), transition_matrices(spec))
