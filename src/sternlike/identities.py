"""Sequence identities: binding, the exhaustive verifier, and a verified catalog.

An identity is `expr == expr` in the expression language of `expr`: each
side is a sum of products of integer constants, powers with a constant base,
sequence terms like s(2^e*n + r), and coefficient references A(e, r) /
B(e, r) that resolve through the coefficient table of the identity's one
bound sequence.

Verification is exhaustive and exact over the grid

    0 <= e <= E,   0 <= r <= 2^e,   n_min <= n <= N

scanned in lexicographic (e, r, n) order; the first counterexample or
evaluation error in that order decides, so a failing identity yields the
lexicographically smallest counterexample.  The scan runs in one process.

Each identity is compiled, once per `verify`, into a kernel: one generated
function that scans rows of one e-level with the r and n loops in its code,
one pass over n per row (e, r), or, when the identity has no n, one
instance per row with n pinned; `check_instance` runs it on one row and
one n.  A row's first instance, evaluated left to right, names each subtree
that does not mention n where it first computes it: 2^e, s(r), s(2^e - r)
and A(e, r).  The row's later instances read those names in one plain
loop, so the first error, or the first expensive value, the kernel meets
is the one the scan meets first.  The scan keeps one prefix per
sequence and grows it level by level, each level at most one round of
`recurrence._term_lookup` past the largest index it reads, and never past
8x its grid.

Before any level runs, every identity is read from its tree (see
`_certified`).  When lhs - rhs is linear in the values at (e, r) --
v(p*2^e + s*r), s = 1 or -1, A(e, r) and B(e, r), each possibly times
(-1)^e -- once Reznick's relation has rewritten each term with n into
shifts v(n + d), the identity is certified for every e, r and n at once by
testing linear relations against the span of the sequences' windows (see
`_span`), closed once over n and once over i = 2^e + r; then no level runs.
Otherwise every instance of the grid is scanned.  Verdicts, counts,
counterexamples and errors are the scan's either way.

The catalog ships every identity this library asserts about the presets.
Statements whose published closed form is questionable appear twice, as a
`printed` variant (the closed form, verbatim reading) and a `derived`
variant (coefficient references, which hold by construction); the
discrepancy report runs both and says which survive.
"""

from __future__ import annotations

from functools import cache, cached_property
from math import gcd
from operator import mul
from typing import Callable, NamedTuple

from ._frozen import Frozen, set_field
from .errors import DomainError, RangeError, UnknownIdentityError
from .expr import (COEFF_NAMES, OPS, VARIABLES, BinOp, Coeff, Lit, Node, Term, Var,
                   parse_equation, render, walk)
from .linrep import CoeffTable, coeff_at, coeff_table
from .recurrence import (PRESET_ALIASES, PRESET_NAMES, SternLikeSpec, _term_lookup,
                         eval_direct, preset)

__all__ = [
    "Lit", "Var", "BinOp", "Term", "Coeff",
    "Identity", "Counterexample", "Verdict",
    "parse_identity", "render", "bind_presets",
    "catalog", "catalog_entry", "catalog_names", "generic_corollary",
    "check_instance", "verify",
    "VARIANT_FAMILIES", "DiscrepancyReport", "discrepancy_report",
]


# ---------------------------------------------------------------------------
# Identities


class Counterexample(NamedTuple):
    e: int
    r: int
    n: int
    lhs: int
    rhs: int


class Verdict(Frozen):
    """`path` is "all" when an identity with n was certified for every
    (e, r, n) at once, "levels" when an identity without n was certified at
    every level, and "grid" when every instance of the grid was scanned; it
    takes no part in equality or the hash.  `scope`, which follows from it,
    says which instances the verdict covers."""

    __slots__ = ("holds", "checked_count", "counterexample", "path")
    _uncompared = ("path",)

    def __init__(self, holds: bool, checked_count: int,
                 counterexample: Counterexample | None = None, path: str = "grid"):
        set_field(self, "holds", holds)
        set_field(self, "checked_count", checked_count)
        set_field(self, "counterexample", counterexample)
        set_field(self, "path", path)

    @property
    def scope(self) -> str:
        return {"all": "all e ≥ 0, 0 ≤ r ≤ 2^e, n ≥ n_min",
                "levels": "all e ≥ 0, 0 ≤ r ≤ 2^e"}.get(self.path, "n_min ≤ n ≤ N")


class Identity(Frozen):
    """A parsed identity plus its quantifier ranges and sequence bindings.

    `r` always ranges over [0, 2^e].  `n` ranges over [n_min, N] when the
    expression mentions n, and is pinned to n_min otherwise.  A(e, r) /
    B(e, r) references read the coefficient table of the one spec bound to
    the identity's sequence names.
    """

    __slots__ = ("name", "lhs", "rhs", "bindings", "n_min", "family", "variant", "__dict__")

    def __init__(self, name: str, lhs: Node, rhs: Node,
                 bindings: tuple[tuple[str, SternLikeSpec], ...] = (), n_min: int = 0,
                 family: str = "", variant: str = ""):
        set_field(self, "name", name)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)
        set_field(self, "bindings", bindings)
        set_field(self, "n_min", n_min)
        set_field(self, "family", family)
        set_field(self, "variant", variant)

    def replace(self, **changes) -> Identity:
        """A copy with the named fields changed; it keeps what the properties
        below read from the tree when the tree is unchanged."""
        copy = Identity(**{name: getattr(self, name) for name in self._fields} | changes)
        if "lhs" not in changes and "rhs" not in changes:
            copy.__dict__.update(self.__dict__)
        return copy

    @property
    def text(self) -> str:
        return f"{render(self.lhs)} == {render(self.rhs)}"

    # the AST is walked once per identity for each of these
    @cached_property
    def seq_names(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(node.seq for side in (self.lhs, self.rhs)
                                   for node in walk(side) if isinstance(node, Term)))

    @cached_property
    def uses_coeffs(self) -> bool:
        return any(isinstance(node, Coeff) for node in (*walk(self.lhs), *walk(self.rhs)))

    @cached_property
    def uses_n(self) -> bool:
        return any(isinstance(node, Var) and node.name == "n"
                   for node in (*walk(self.lhs), *walk(self.rhs)))


def parse_identity(text: str) -> Identity:
    """Parse `expr == expr`; ranges and bindings come later."""
    return Identity("", *parse_equation(text))


def bind_presets(identity: Identity, **overrides: SternLikeSpec) -> Identity:
    """Bind every sequence name, resolving unbound names as preset aliases."""
    pairs = dict(overrides)
    for seq in identity.seq_names:
        if seq not in pairs:
            pairs[seq] = preset(seq)
    return identity.replace(bindings=tuple(sorted(pairs.items())))


# ---------------------------------------------------------------------------
# Compilation and evaluation

def _int_pow(base: int, exp: int) -> int:
    if exp < 0:
        raise DomainError(f"exponent evaluated negative: {exp}")
    return base ** exp


def _emit(node: Node, slot: dict[str, int], hoisted: dict[Node, str]) -> tuple[str, str, bool]:
    """(first, loop, with_n): the Python source for `node` in a row's first
    instance and in the row's loop over n, and whether it mentions n.  A term
    reads the prefix `_v<slot>` inline while the index is below `_m<slot>`,
    and otherwise calls `_f<slot>`, which may grow the prefix, and re-reads
    its length into `_m<slot>`.  `first` names each subtree free of n, other
    than a literal or variable, as `(_h<k> := ...)` where it first computes
    it, k being the number of subtrees `hoisted` named before it; `loop`
    reads the name."""
    if isinstance(node, Lit):
        return repr(node.value), repr(node.value), False
    if isinstance(node, Var):
        return node.name, node.name, node.name == "n"
    if isinstance(node, BinOp):
        kids = node.lhs, node.rhs
        form = "_ip({}, {})" if node.op == "^" else f"({{}}{OPS[node.op][3]}{{}})"
    elif isinstance(node, Term):
        k = slot[node.seq]
        kids = node.arg,
        form = (f"(_v{k}[_i] if 0 <= (_i := {{}}) < _m{k} "
                f"else (_f{k}(_i), _m{k} := len(_v{k}))[0])")
    else:
        kids, form = (node.e_arg, node.r_arg), f"_c{node.kind}({{}}, {{}})"
    firsts, loops, with_n = zip(*[_emit(kid, slot, hoisted) for kid in kids])
    if any(with_n):
        return form.format(*firsts), form.format(*loops), True
    if node in hoisted:
        return hoisted[node], hoisted[node], False
    name = hoisted[node] = f"_h{len(hoisted)}"
    return f"({name} := {form.format(*firsts)})", name, False


# the largest k of a power 2^(e + k) that `_shape` reads; a larger one is
# left to the scan, which computes it where it meets it
_MAX_K = 64


def _shape(node: Node) -> tuple[int, int, int, int, int, int] | None:
    """(p, s, q, b, a, g) with the index `node` = p*2^e + s*r + q*e + b +
    a*n + g*2^e*n, read from the tree, or None unless it is built from
    literals, e, r, n and powers 2^(e + k), 0 <= k <= `_MAX_K`, by +, - and
    products with a constant or of p*2^e with a*n + b."""
    if isinstance(node, Lit):
        return 0, 0, 0, node.value, 0, 0
    if isinstance(node, Var):
        return {"r": (0, 1, 0, 0, 0, 0), "e": (0, 0, 1, 0, 0, 0), "n": (0, 0, 0, 0, 1, 0)}[node.name]
    lhs, rhs = _shape(node.lhs), _shape(node.rhs)
    if lhs is None or rhs is None:
        return None
    if node.op in "+-":
        return tuple(u + v if node.op == "+" else u - v for u, v in zip(lhs, rhs))
    if node.op == "*":
        for x, y in ((lhs, rhs), (rhs, lhs)):
            if not any(x[:3] + x[4:]):  # a constant
                return tuple(x[3] * v for v in y)
            if not any(x[1:] + y[:3] + y[5:]):  # p*2^e times a*n + b
                return x[0] * y[3], 0, 0, 0, 0, x[0] * y[4]
        return None
    if lhs == (0, 0, 0, 2, 0, 0) and rhs[:3] == (0, 0, 1) and not any(rhs[4:]) \
            and 0 <= rhs[3] <= _MAX_K:
        return 1 << rhs[3], 0, 0, 0, 0, 0
    return None


# `_certified` reads windows of at most this width from at most this start
_WINDOW = 64


def _shifts(specs: list[SternLikeSpec], width: int, start: int) -> list[list[int]]:
    """A basis of the span U of the windows w(i) = (v(i + d))_(v, 0<=d<=width)
    + (1,), one block per sequence v of `specs`, from i = `start` >= every
    n_eff on (see `_span`), where the recurrence makes each w(2i + d) one
    linear map of w(i)."""
    value = cache(eval_direct)
    return _span(start, lambda i: [
        *(value(spec, i + d) for spec in specs for d in range(width + 1)), 1])


# A side read by `_form` is {(sign, atom, entry): x}: the sum of each x times
# (-1)^e if `sign`, times the value `atom` at (e, r) unless it is None, times
# v(n + d) if `entry` is (v, d), not None.  An atom is ("v", v, p, s), the
# term v(p*2^e + s*r) with s = 1 or -1, or ("A" or "B", v), the coefficient
# A(e, r) or B(e, r) of v.  So a product holds at most one atom and one entry.
_Key = tuple[bool, tuple | None, tuple[SternLikeSpec, int] | None]
_SIGNS = {(0, 0, 0, 1, 0, 0): 1, (0, 0, 0, -1, 0, 0): -1}  # the base of a sign, by its shape


def _form(node: Node, term: Callable[[Term], dict[_Key, int] | None],
          coeffs: SternLikeSpec | None) -> dict[_Key, int] | None:
    """A side as above, each term read by `term` and A(e, r)/B(e, r) from
    `coeffs`, or None unless it is built from literals, terms, A(e, r),
    B(e, r) and signs (0 - 1)^(e + k), k >= 0, by +, - and products that
    multiply no two atoms and no two entries."""
    if isinstance(node, Lit):
        return {(False, None, None): node.value}
    if isinstance(node, Term):
        return term(node)
    if isinstance(node, Coeff):
        if coeffs is None or (_shape(node.e_arg), _shape(node.r_arg)) != (
                (0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 0)):
            return None
        return {(False, (node.kind, coeffs), None): 1}
    if node.op == "^":
        base, exp = _SIGNS.get(_shape(node.lhs)), _shape(node.rhs)
        if base is None or exp is None or exp[:3] != (0, 0, 1) or any(exp[4:]) or exp[3] < 0:
            return None
        return {(base < 0, None, None): base ** (exp[3] & 1)}
    lhs, rhs = _form(node.lhs, term, coeffs), _form(node.rhs, term, coeffs)
    if lhs is None or rhs is None:
        return None
    if node.op in "+-":
        sign = 1 if node.op == "+" else -1
        return {**lhs, **{k: lhs.get(k, 0) + sign * x for k, x in rhs.items()}}
    out: dict[_Key, int] = {}
    for (sign, atom, entry), x in lhs.items():
        for (sign2, atom2, entry2), y in rhs.items():
            if atom and atom2 or entry and entry2:
                return None
            key = (sign != sign2, atom or atom2, entry or entry2)
            out[key] = out.get(key, 0) + x * y
    return out


def _certified(identity: Identity) -> bool:
    """Whether the identity holds at every (e, r, n), 0 <= r <= 2^e and
    n >= n_min, read from its tree, with no instance that could raise.

    Each term index must read p*2^e + s*r + b + a*n + g*2^e*n (`_shape`), and
    be >= 0 at the corners e = 0 or large, r = 0 or 2^e, n = n_min, where an
    index of degree 1 in r and n takes its least values.  Reznick's relation
    writes a term v(2^j*n + b) as A(j, p)*v(n + q) + B(j, p)*v(n + q + 1),
    (q, p) = divmod(b, 2^j), and v(2^e*(n + q) + r) as A(e, r)*v(n + q) +
    B(e, r)*v(n + q + 1), p = r up to and including r = 2^e; a term free of n
    is a constant v(b) or an atom v(p*2^e + s*r).  Then lhs - rhs is
    L(e, r).w(n + lo), one `_form`, where w(i) = (v(i + d))_(v, d) + (1,) is
    the window over the shifts lo .. hi of every rewritten term, valid from
    n + lo >= n_eff on.  Every entry of L is linear in the atoms, and it
    vanishes for all those n exactly when L(e, r).u = 0 for each u of a
    basis of the span U of the windows (`_shifts`): one form in the atoms
    per u.  Each n_min <= n below that start is an identity without n, read
    the same way: one form more.

    The rows (e, r), 0 <= r < 2^e, are i = 2^e + r, and (e, r) -> (e + 1,
    2r + d) is i -> 2i + d.  Over i, each atom's window (x(e, r), x(e, r + 1))
    at 2i + d is one linear map of that at i: v(p*2^e + s*r) -> v(2I + s*d)
    while the stored values obey the recurrence at every index read, the
    least of which, p*2^e, or (p - 1)*2^e for s = -1, is smallest at level 0;
    A and B double by `recurrence._double`; (-1)^e changes sign.  A form
    vanishes at every row r < 2^e when it is orthogonal to the span of
    these windows from i = 1 (`_span`) with its coefficients on each
    window's first entry, and at r = 2^e, read at i = 2^(e + 1) - 1, with
    them on the second.  A power other than 2^(e + k) in an index or a sign
    outside them, A(e, r)/B(e, r) with other arguments, e outside a power,
    or a product of two atoms or of two terms with n refuses it; and no
    instance of a certified identity could raise."""
    specs, n_min = dict(identity.bindings), identity.n_min
    coeffs = set(specs.values())
    coeffs = coeffs.pop() if len(coeffs) == 1 else None
    shifts: list[tuple[SternLikeSpec, int]] = []  # (v, q) of each term rewritten

    def read(node: Term, n: int | None) -> dict[_Key, int] | None:
        spec, shape = specs[node.seq], _shape(node.arg)
        if shape is None or shape[2]:
            return None
        p, s, _, b, a, g = shape
        # 2^e's factor at r = 0 and r = 2^e, and the rest, at n = n_min
        p0, p1, rest = p + g * n_min, p + s + g * n_min, b + a * n_min
        if min(p0, p1, p0 + rest, p1 + rest) < 0:
            return None
        if n is not None:  # the instance at n: a term free of n
            p, b, a, g = p + g * n, b + a * n, 0, 0
        if not a and not g:
            if not p and not s:
                return {(False, None, None): eval_direct(spec, b)}
            v, least = spec.init, p - (s < 0)
            if b or s not in (1, -1) or any(
                    (v[2 * k], v[2 * k + 1]) != (spec.a * v[k], spec.b * v[k] + spec.c * v[k + 1])
                    for k in range(least, spec.n_eff)):
                return None
            return {(False, ("v", spec, p, s), None): 1}
        if not (p or s or g) and not a & (a - 1):
            q, p = divmod(b, a)
            x, y = coeff_at(spec, a.bit_length() - 1, p)
            shifts.append((spec, q))
            return {(False, None, (spec, q)): x, (False, None, (spec, q + 1)): y}
        if (s, b, a, g) == (1, 0, 0, 1):
            shifts.append((spec, p))
            return {(False, ("A", spec), (spec, p)): 1, (False, ("B", spec), (spec, p + 1)): 1}
        return None

    diff = BinOp("-", identity.lhs, identity.rhs)
    form = _form(diff, lambda node: read(node, None), coeffs)
    if form is None:
        return False
    entries: dict[tuple | None, dict[tuple, int]] = {}  # L: entry -> {(sign, atom): x}
    for (sign, atom, entry), x in form.items():
        entries.setdefault(entry, {})[sign, atom] = x
    forms = []  # in the atoms: {(sign, atom): x}
    if shifts:
        lo = min(q for _, q in shifts)
        width = max(q for _, q in shifts) + 1 - lo
        window = list(dict.fromkeys(spec for spec, _ in shifts))
        start = max(n_min + lo, *(spec.n_eff for spec in window))
        if max(width, start) > _WINDOW:  # `_span` computes at least `start` windows
            return False
        for n in range(n_min, start - lo):
            below = _form(diff, lambda node: read(node, n), coeffs)
            if below is None:
                return False
            forms.append({(sign, atom): x for (sign, atom, _), x in below.items()})
    if any(x for row in entries.values() for x in row.values()):
        if shifts:
            at = {(spec, lo + d): k * (width + 1) + d
                  for k, spec in enumerate(window) for d in range(width + 1)}
            at[None], basis = len(window) * (width + 1), _shifts(window, width, start)
        else:
            at, basis = {None: 0}, [[1]]
        for u in basis:
            forms.append({})
            for entry, row in entries.items():
                for key, x in row.items():
                    forms[-1][key] = forms[-1].get(key, 0) + u[at[entry]] * x
    forms = [form for form in forms if any(form.values())]
    if not forms:
        return True
    atoms = list(dict.fromkeys(key for form in forms for key in form))
    # each form on the windows' first entries (r < 2^e) and on their second (r = 2^e)
    vectors = [[form.get(key, 0) * (k == j) for key in atoms for k in (0, 1)]
               for form in forms for j in (0, 1)]
    return not any(sum(map(mul, vector, row)) for row in _span(1, _rows(atoms))
                   for vector in vectors)


def _rows(atoms: list[tuple[bool, tuple | None]]) -> Callable[[int], list[int]]:
    """The windows w(i), i = 2^e + r >= 1, 0 <= r < 2^e, over the rows of
    `_certified`: per (sign, atom), (x(e, r), x(e, r + 1)), each times (-1)^e
    if `sign`, with x the atom's value (1 for None)."""
    value, coeff = cache(eval_direct), cache(coeff_at)

    def at_row(atom: tuple | None, e: int, r: int) -> int:
        if atom is None:
            return 1
        if atom[0] == "v":
            return value(atom[1], (atom[2] << e) + atom[3] * r)
        return coeff(atom[1], e, r)[atom[0] == "B"]

    def windows(i: int) -> list[int]:
        e = i.bit_length() - 1
        r = i - (1 << e)
        return [(-1) ** (sign and e) * at_row(atom, e, r + k) for sign, atom in atoms for k in (0, 1)]
    return windows


def _span(start: int, window: Callable[[int], list[int]]) -> list[list[int]]:
    """A basis, in integer echelon form, of the span of the windows w(i),
    i >= `start` >= 1, given that the recurrence makes each w(2i + d),
    d in (0, 1), one linear map of w(i) for every i >= `start` (Allouche and
    Shallit, "The ring of k-regular sequences", 1992); fraction-free, each
    new row divided by the gcd of its entries.  Every i >= 2*start is
    2i' + d for some start <= i' < i.  So it suffices to close the indices
    start .. 2*start - 1 under i -> 2i, 2i + 1 from each window that raises
    the rank: a window that does not lies in the span of those that did, and
    so do its images, being in the span of theirs."""
    basis: dict[int, list[int]] = {}  # by the position of a row's first nonzero entry
    todo = list(range(start, 2 * start))
    for i in todo:  # a queue: the loop reaches the indices appended below
        w = window(i)
        for p in sorted(basis):
            if w[p]:
                row = basis[p]
                w = [row[p] * u - w[p] * v for u, v in zip(w, row)]
        if any(w):
            g = gcd(*w)
            w = [u // g for u in w]
            basis[next(p for p, u in enumerate(w) if u)] = w
            todo += [2 * i, 2 * i + 1]
    return list(basis.values())


def _bind(identity: Identity, e: int, limit: int,
          carried: dict[str, object] | None = None) -> dict[str, object]:
    """The names compiled code reads at level e: `_ip`; per bound sequence
    k, its prefix `_v<k>`, the one in `carried` names if given, and lookup
    `_f<k>`, bounded by `limit`; and, when the identity has A(e, r)/B(e, r),
    readers `_cA`/`_cB` of the coefficient table of its one bound sequence,
    rows up to e, `coeff_at` (which validates) beyond.  Binding errors raise
    here."""
    bound = dict(identity.bindings)
    missing = [seq for seq in identity.seq_names if seq not in bound]
    if missing:
        raise DomainError(f"unbound sequence names: {', '.join(missing)}")
    names: dict[str, object] = {"_ip": _int_pow}
    for k, (seq, spec) in enumerate(identity.bindings):
        names[f"_v{k}"], names[f"_f{k}"] = _term_lookup(
            spec, limit, seq, carried and carried[f"_v{k}"])
    if identity.uses_coeffs:
        specs = set(bound.values())
        if len(specs) != 1:
            raise DomainError("A(e, r)/B(e, r) need exactly one bound sequence "
                              "to supply the coefficient table")
        table = coeff_table(specs.pop(), max(e, 0))
        names["_cA"] = _coeff_reader(table, 0)
        names["_cB"] = _coeff_reader(table, 1)
    return names


def _coeff_reader(table: CoeffTable, which: int) -> Callable[[int, int], int]:
    rows = (table.A, table.B)[which]

    def coeff(e: int, r: int) -> int:
        if 0 <= e <= table.e_max and 0 <= r < len(rows[e]):
            return rows[e][r]
        return coeff_at(table.spec, e, r)[which]
    return coeff


def check_instance(identity: Identity, e: int, r: int, n: int) -> tuple[int, int, bool]:
    """Evaluate both sides exactly at one binding of (e, r, n): the kernel's
    `_level(e, r, r, n, n)`, a row's first instance alone.  It generates and
    loads the identity's kernel on every call, so it must not run in a loop;
    `verify` scans a grid."""
    names = _bind(identity, e, 0)
    _, _, lhs, rhs = _load(_kernel_source(identity, tuple(names)))(**names)(e, r, r, n, n)
    return lhs, rhs, lhs == rhs


# The kernel of an identity: `_level(e, r_lo, r_hi, n_lo, n_hi)` scans the
# rows r_lo <= r <= r_hi of one e-level, one pass over n per row (without n,
# n_lo = n_hi), and returns the first (r, n, lhs, rhs) with lhs != rhs in
# lexicographic order, or else the last instance it evaluated.  Each term
# grows its prefix as `recurrence._term_lookup` does: at most one round past
# the index read, and never past the level's limit.  Each row runs its first
# instance inline, naming each subtree that does not mention n, as
# `(_h<k> := ...)`, where it first evaluates it and reads the name after;
# then one plain loop up to n_hi reads those names.  So the kernel computes
# nothing, raises nothing, ahead of the scan.
_KERNEL = """\
def _make({params}):
    def _level(e, r_lo, r_hi, n_lo, n_hi):
{sizes}
        for r in range(r_lo, r_hi + 1):
            n = n_lo
            if (lhs := {lhs}) != (rhs := {rhs}):
                return r, n, lhs, rhs
            for n in range(n_lo + 1, n_hi + 1):
                if (lhs := {lhs_loop}) != (rhs := {rhs_loop}):
                    return r, n, lhs, rhs
        return r, n, lhs, rhs

    return _level
"""


def _kernel_source(identity: Identity, params: tuple[str, ...]) -> str:
    """The source of `_make(**names)`, which returns the identity's kernel
    `_level` bound to one level's `names` (see `_bind`); it is the same text
    at every level.  One `_emit` walk of each side, lhs first, writes both
    its texts: for a row's first instance and for the row's loop over n."""
    slot = {seq: k for k, (seq, _) in enumerate(identity.bindings)}
    sizes = "\n".join(f"        _m{k} = len(_v{k})" for k in slot.values())
    hoisted: dict[Node, str] = {}
    (lhs, lhs_loop, _), (rhs, rhs_loop, _) = (_emit(side, slot, hoisted)
                                              for side in (identity.lhs, identity.rhs))
    return _KERNEL.format(params=", ".join(params), sizes=sizes, lhs=lhs, rhs=rhs,
                          lhs_loop=lhs_loop, rhs_loop=rhs_loop)


def _load(source: str) -> Callable[..., Callable]:
    """Run a kernel source; returns its `_make`, which is kept out of its own
    globals so that no reference cycle pins a level's prefixes."""
    namespace: dict[str, object] = {}
    exec(source, namespace)  # noqa: S102 - source is generated from the validated AST
    return namespace.pop("_make")


def verify(identity: Identity, e_max: int, n_max: int, jobs: int = 1) -> Verdict:
    """Exhaustively check the identity on its grid; failures become verdicts.

    The first counterexample or error in lexicographic (e, r, n) order
    decides.  The count is the full grid, sum over e <= e_max of
    (2^e + 1) * |n range|.  Binding errors, jobs < 1, e_max < 0 and, when the
    identity mentions n, n_max < n_min raise before any level runs.  `jobs` is
    accepted for compatibility; verification runs in one process.  The kernel
    is generated and loaded once per call, and the levels run in e order, each
    growing the prefixes the level before it grew.

    An identity that `_certified` proves from its tree, for every (e, r, n)
    at once, runs no level, loads no kernel and grows no prefix past its
    binding's; every other identity has each instance of its grid scanned.
    Verdict, count, counterexample and error are the scan's; `path` is "all"
    when the identity with n was certified from its tree, "levels" when the
    identity without n was, "grid" when the grid was scanned, and `scope`
    says what it covers.
    """
    return _verify(identity, e_max, n_max, jobs, certify=True)


def _verify(identity: Identity, e_max: int, n_max: int, jobs: int, certify: bool) -> Verdict:
    """`verify`, scanning every instance of the grid unless `certify`."""
    # binding errors surface here, before any level
    names = _bind(identity, 0, 0)
    if jobs < 1:
        raise RangeError(f"jobs must be >= 1, got {jobs}")
    if e_max < 0:
        raise RangeError(f"e_max must be >= 0, got {e_max}")
    if identity.uses_n and n_max < identity.n_min:
        raise RangeError(f"n_max must be >= n_min = {identity.n_min}, got {n_max}")
    n_lo = identity.n_min
    n_hi = n_max if identity.uses_n else n_lo
    count = ((2 << e_max) + e_max) * (n_hi - n_lo + 1)
    if certify and _certified(identity):
        return Verdict(True, count, path="all" if identity.uses_n else "levels")
    make = _load(_kernel_source(identity, tuple(names)))
    for e in range(e_max + 1):
        # every catalog index stays below 8x the level's grid (5*2^e*n + r needs 5x)
        names = _bind(identity, e, 8 * ((1 << e) + 1) * (n_hi - n_lo + 1), names)
        hit = make(**names)(e, 0, 1 << e, n_lo, n_hi)
        if hit[2] != hit[3]:
            return Verdict(False, count, Counterexample(e, *hit))
    return Verdict(True, count)


# ---------------------------------------------------------------------------
# Catalog

_REVERSE_ALIAS = {name: alias for alias, name in PRESET_ALIASES.items()}

# (name, family, variant, n_min, text)
_CATALOG_SOURCES: tuple[tuple[str, str, str, int, str], ...] = (
    ("prop1", "prop1", "", 0,
     "s(2^e*n + r) == s(r)*s(n + 1) + s(2^e - r)*s(n)"),
    ("prop2", "prop2", "", 1,
     "t(2^e*n + r) == (0 - 1)^e*(s(r)*t(n + 1) + s(2^e - r)*t(n))"),
    ("coons", "coons", "", 0,
     "s(r)*s(2*n + 5) + s(2^e - r)*s(2*n + 3) == s(2^e*(n + 2) + r) + s(2^e*(n + 1) + r)"),
    ("stern_reflect", "stern_reflect", "", 0,
     "s(2^e + r) - s(r) == s(2^e - r)"),
    ("t_similar", "t_similar", "", 1,
     "t(2^e*n + r) == -t(2^(e + 1) + r)*t(n) - t(3*2^e - r)*t(n + 1)"),
    ("t_aux", "t_aux", "", 0,
     "t(2^(e + 1) + r) + t(2^e + r) == t(3*2^e - r)"),
    ("z2_aux", "z2_aux", "", 0,
     "z2(2^e + r) - z2(r) == -z2(5*2^e + r)"),
    ("t_corollary_printed", "t_corollary", "printed", 0,
     "t(2^(e + 1) + r)*t(2*n + 3) + t(3*2^e - r)*t(2*n + 5)"
     " == t(2^e*(n + 2) + r) + t(2^e*(n + 1) + r)"),
    ("t_corollary_derived", "t_corollary", "derived", 0,
     "A(e, r)*t(2*n + 3) + B(e, r)*t(2*n + 5)"
     " == -t(2^e*(n + 2) + r) - t(2^e*(n + 1) + r)"),
    ("z1_thm_printed", "z1_thm", "printed", 0,
     "z1(2^e*n + r) == z1(2^(e + 1) + r)*z1(n) + z1(r)*z1(n + 1)"),
    ("z1_thm_derived", "z1_thm", "derived", 0,
     "z1(2^e*n + r) == A(e, r)*z1(n) + B(e, r)*z1(n + 1)"),
    ("z2_thm_printed", "z2_thm", "printed", 0,
     "z2(2^e*n + r) == -z2(5*2^e*n + r)*z2(n) + z2(r)*z2(n + 1)"),
    ("z2_thm_printed_no_n", "z2_thm", "printed_no_n", 0,
     "z2(2^e*n + r) == -z2(5*2^e + r)*z2(n) + z2(r)*z2(n + 1)"),
    ("z2_thm_derived", "z2_thm", "derived", 0,
     "z2(2^e*n + r) == A(e, r)*z2(n) + B(e, r)*z2(n + 1)"),
    ("z3_thm_printed", "z3_thm", "printed", 0,
     "z3(2^e*n + r) == -z3(2^(e + 1) + r)*z3(n) + z3(r)*z3(n + 1)"),
    ("z3_thm_derived", "z3_thm", "derived", 0,
     "z3(2^e*n + r) == A(e, r)*z3(n) + B(e, r)*z3(n + 1)"),
    ("z1_cor_printed", "z1_cor", "printed", 0,
     "z1(2^(e + 1) + r)*z1(2*n + 5) + z1(r)*z1(2*n + 3)"
     " == -z1(2^e*(n + 2) + r) + z1(2^e*(n + 1) + r)"),
    ("z1_cor_derived", "z1_cor", "derived", 0,
     "A(e, r)*z1(2*n + 3) + B(e, r)*z1(2*n + 5)"
     " == z1(2^e*(n + 2) + r) - z1(2^e*(n + 1) + r)"),
    ("z2_cor_printed", "z2_cor", "printed", 0,
     "-z2(5*2^e + r)*z2(2*n + 5) + z2(r)*z2(2*n + 3)"
     " == -z2(2^e*(n + 2) + r) + z2(2^e*(n + 1) + r)"),
    ("z2_cor_derived", "z2_cor", "derived", 0,
     "A(e, r)*z2(2*n + 3) + B(e, r)*z2(2*n + 5)"
     " == z2(2^e*(n + 2) + r) - z2(2^e*(n + 1) + r)"),
    ("z3_cor_printed", "z3_cor", "printed", 0,
     "-z3(2^(e + 1) + r)*z3(2*n + 5) + z3(r)*z3(2*n + 3)"
     " == z3(2^e*(n + 2) + r) + z3(2^e*(n + 1) + r)"),
    ("z3_cor_derived", "z3_cor", "derived", 0,
     "A(e, r)*z3(2*n + 3) + B(e, r)*z3(2*n + 5)"
     " == z3(2^e*(n + 2) + r) + z3(2^e*(n + 1) + r)"),
)


def generic_corollary(spec: SternLikeSpec, name: str | None = None) -> Identity:
    """The coefficient-reference corollary, instantiated for any spec:

        A(e, r)*v(2n+3) + B(e, r)*v(2n+5) == c*v(2^e*(n+2)+r) + b*v(2^e*(n+1)+r)

    with b, c taken from the spec, A/B resolved through its coefficient
    table, and n ranging from n0.
    """
    symbol = _REVERSE_ALIAS.get(spec.name or "")
    if symbol is None:
        symbol = spec.name if spec.name and spec.name.isidentifier() else "v"
    if symbol in (*VARIABLES, *COEFF_NAMES):
        symbol = "v"

    def const(k: int) -> str:
        return str(k) if k >= 0 else f"(0 - {-k})"

    text = (f"A(e, r)*{symbol}(2*n + 3) + B(e, r)*{symbol}(2*n + 5)"
            f" == {const(spec.c)}*{symbol}(2^e*(n + 2) + r)"
            f" + {const(spec.b)}*{symbol}(2^e*(n + 1) + r)")
    lhs, rhs = parse_equation(text)
    return Identity(name or f"generic_cor_{spec.name or 'custom'}", lhs, rhs,
                    ((symbol, spec),), spec.n0, "generic_cor")


# every catalog name, in catalog order
_CATALOG_NAMES = (*(source[0] for source in _CATALOG_SOURCES),
                  *(f"generic_cor_{name}" for name in PRESET_NAMES))


@cache
def catalog() -> tuple[Identity, ...]:
    """All named, fully bound identities: each row of `_CATALOG_SOURCES`,
    then `generic_cor_<preset>` for every preset."""
    return tuple(map(catalog_entry, _CATALOG_NAMES))


def catalog_names() -> tuple[str, ...]:
    return _CATALOG_NAMES


@cache
def catalog_entry(name: str) -> Identity:
    """The catalog entry `name`, the one `catalog()` holds; it parses that
    entry alone, once."""
    for source_name, family, variant, n_min, text in _CATALOG_SOURCES:
        if source_name == name:
            return bind_presets(Identity(name, *parse_equation(text), n_min=n_min,
                                         family=family, variant=variant))
    preset_name = name.removeprefix("generic_cor_")
    if preset_name != name and preset_name in PRESET_NAMES:
        return generic_corollary(preset(preset_name))
    raise UnknownIdentityError(
        f"unknown identity {name!r}; see catalog_names() or the `catalog` subcommand")


# ---------------------------------------------------------------------------
# Discrepancy report

# families with a printed and a derived variant, in catalog order
VARIANT_FAMILIES: tuple[str, ...] = tuple(dict.fromkeys(
    family for _, family, variant, _, _ in _CATALOG_SOURCES if variant))


class DiscrepancyReport(Frozen):
    """Verdicts for every printed/derived variant pair, side by side."""

    __slots__ = ("e_max", "n_max", "rows")

    def __init__(self, e_max: int, n_max: int, rows: tuple[tuple[Identity, Verdict], ...]):
        set_field(self, "e_max", e_max)
        set_field(self, "n_max", n_max)
        set_field(self, "rows", rows)

    @property
    def derived_all_hold(self) -> bool:
        return all(v.holds for ident, v in self.rows if ident.variant == "derived")

    def failing(self) -> tuple[tuple[Identity, Verdict], ...]:
        return tuple((ident, v) for ident, v in self.rows if not v.holds)

    def text(self) -> str:
        lines = [f"variant adjudication over e <= {self.e_max}, n <= {self.n_max}"]
        for family in VARIANT_FAMILIES:
            for ident, verdict in self.rows:
                if ident.family != family:
                    continue
                if verdict.holds:
                    lines.append(f"  {ident.name}: holds ({verdict.checked_count} instances)")
                else:
                    ce = verdict.counterexample
                    lines.append(
                        f"  {ident.name}: FAILS at e={ce.e} r={ce.r} n={ce.n} "
                        f"(lhs={ce.lhs}, rhs={ce.rhs})")
        lines.append("  every derived variant holds" if self.derived_all_hold
                     else "  DERIVED VARIANT FAILURE - investigate")
        return "\n".join(lines)


def discrepancy_report(e_max: int = 6, n_max: int = 32) -> DiscrepancyReport:
    """Run both variants of every two-variant family; never aborts on failure."""
    rows = []
    for identity in catalog():
        if identity.family in VARIANT_FAMILIES:
            rows.append((identity, verify(identity, e_max, n_max)))
    return DiscrepancyReport(e_max, n_max, tuple(rows))
