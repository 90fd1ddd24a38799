"""A small expression language for sequence identities, and a verified catalog.

An identity is `expr == expr` where each side is a sum of products of
integer constants, powers with a constant base such as (0 - 1)^e, sequence
terms like s(2^e*n + r), and coefficient references A(e, r) / B(e, r) that
resolve through the coefficient table of the identity's one bound sequence.
Index expressions use +, -, *, powers of integer literals, and the
quantified variables e, r, n.

Verification is exhaustive and exact over the grid

    0 <= e <= E,   0 <= r <= 2^e,   n_min <= n <= N

scanned in lexicographic (e, r, n) order; the first counterexample or
evaluation error in that order decides, so a failing identity yields the
lexicographically smallest counterexample.  The grid may be sharded by e
across worker processes; the verdict is identical for any worker count.

The catalog ships every identity this library asserts about the presets.
Statements whose published closed form is questionable appear twice, as a
`printed` variant (the closed form, verbatim reading) and a `derived`
variant (coefficient references, which hold by construction); the
discrepancy report runs both and says which survive.
"""

from __future__ import annotations

import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cache
from typing import Callable, NamedTuple

from .errors import DomainError, ParseError, RangeError, UnknownIdentityError
from .linrep import CoeffTable, coeff_at, coeff_table
from .recurrence import PRESET_ALIASES, PRESET_NAMES, SternLikeSpec, _term_lookup, preset

__all__ = [
    "Lit", "Var", "BinOp", "Term", "Coeff",
    "Identity", "Counterexample", "Verdict",
    "parse_identity", "render", "bind_presets",
    "catalog", "catalog_entry", "catalog_names", "generic_corollary",
    "check_instance", "verify",
    "VARIANT_FAMILIES", "DiscrepancyReport", "discrepancy_report",
]


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # a key of _OPS; for "^", lhs is the base and rhs the exponent
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Term:
    seq: str
    arg: "Node"


@dataclass(frozen=True)
class Coeff:
    kind: str  # "A" or "B"
    e_arg: "Node"
    r_arg: "Node"


Node = Lit | Var | BinOp | Term | Coeff

_VARIABLES = ("e", "r", "n")
_COEFF_NAMES = ("A", "B")

# op -> (precedence, lhs context, rhs context, separator), with the grammar's
# levels 1 expr, 2 term, 3 factor and _ATOM for everything else: a child whose
# precedence is below its context is parenthesised.
_ATOM = 4
_OPS: dict[str, tuple[int, int, int, str]] = {
    "+": (1, 1, 2, " + "),
    "-": (1, 1, 2, " - "),
    "*": (2, 2, 3, "*"),
    "^": (3, _ATOM, _ATOM, "^"),
}


def _walk(node: Node):
    yield node
    for attr in ("lhs", "rhs", "arg", "e_arg", "r_arg"):
        child = getattr(node, attr, None)
        if child is not None:
            yield from _walk(child)


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(==)|([+\-*^(),]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            tail = text[pos:].strip()
            if not tail:
                break
            raise ParseError(f"unexpected character {tail[0]!r}", pos + text[pos:].index(tail[0]))
        start = match.start(match.lastindex)
        if match.group(1):
            tokens.append(("int", match.group(1), start))
        elif match.group(2):
            tokens.append(("name", match.group(2), start))
        elif match.group(3):
            tokens.append(("eq", "==", start))
        else:
            tokens.append(("op", match.group(4), start))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


# Bounds the parser's recursion and the AST's depth (to twice this): the AST
# passes and the Python compiler of the generated lambda fail far deeper.
_MAX_DEPTH = 50


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def deeper(self) -> int:
        """Count one more nesting level or chained operator; returns the old depth."""
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {_MAX_DEPTH} levels",
                             self.peek()[2])
        return self.depth - 1

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value or kind
            raise ParseError(f"expected {want!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def parse_expr(self, prec: int = 1) -> Node:
        """Operators of precedence >= prec.  One whose lhs context is its own
        precedence chains, each link one depth level; "^" joins two atoms."""
        if prec == _ATOM:
            return self.parse_atom()
        outer = self.deeper() if prec == 1 else self.depth
        if prec == 1 and self.peek()[:2] == ("op", "-"):
            self.next()
            node: Node = BinOp("-", Lit(0), self.parse_expr(2))
        else:
            node = self.parse_expr(prec + 1)
        while self.peek()[0] == "op" and _OPS.get(self.peek()[1], (0,))[0] == prec:
            op = self.next()[1]
            _, lhs_ctx, rhs_ctx, _ = _OPS[op]
            chains = lhs_ctx == prec
            if chains:
                self.deeper()
            node = BinOp(op, node, self.parse_expr(rhs_ctx))
            if not chains:
                break
        self.depth = outer
        return node

    def parse_atom(self) -> Node:
        kind, value, pos = self.next()
        if kind == "int":
            return Lit(int(value))
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            self.expect("op", ")")
            return inner
        if kind == "name":
            if self.peek()[:2] == ("op", "("):
                self.next()
                first = self.parse_expr()
                if self.peek()[:2] == ("op", ","):
                    self.next()
                    second = self.parse_expr()
                    self.expect("op", ")")
                    if value not in _COEFF_NAMES:
                        raise ParseError(
                            f"{value!r} is not a coefficient reference; only "
                            f"{' and '.join(_COEFF_NAMES)} take two arguments", pos)
                    return Coeff(value, first, second)
                self.expect("op", ")")
                if value in _COEFF_NAMES:
                    raise ParseError(
                        f"{value!r} is reserved for coefficient references "
                        f"{value}(e, r) and takes two arguments", pos)
                return Term(value, first)
            if value in _VARIABLES:
                return Var(value)
            raise ParseError(f"unknown variable {value!r} (variables are e, r, n)", pos)
        raise ParseError(f"unexpected token {value or 'end of input'!r}", pos)


def _is_constant(node: Node) -> bool:
    return all(isinstance(sub, (Lit, BinOp)) for sub in _walk(node))


def _validate(node: Node, in_index: bool) -> None:
    if isinstance(node, Term):
        if in_index:
            raise ParseError(f"sequence term {node.seq}(...) cannot appear inside an index expression")
        _validate(node.arg, True)
    elif isinstance(node, Coeff):
        if in_index:
            raise ParseError(f"coefficient reference {node.kind}(...) cannot appear inside an index expression")
        _validate(node.e_arg, True)
        _validate(node.r_arg, True)
    elif isinstance(node, Var):
        if not in_index:
            raise ParseError(f"bare variable {node.name!r} outside an index or exponent position")
    elif isinstance(node, BinOp):
        if node.op == "^":
            if not _is_constant(node.lhs):
                raise ParseError("the base of a power must be an integer constant expression")
            _validate(node.rhs, True)
        else:
            _validate(node.lhs, in_index)
            _validate(node.rhs, in_index)


# ---------------------------------------------------------------------------
# Printing (canonical form; re-parsing it reproduces the AST)

def render(node: Node, _ctx: int = 1) -> str:
    if isinstance(node, BinOp):
        prec, lhs_ctx, rhs_ctx, sep = _OPS[node.op]
        body = f"{render(node.lhs, lhs_ctx)}{sep}{render(node.rhs, rhs_ctx)}"
        return f"({body})" if prec < _ctx else body
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Term):
        return f"{node.seq}({render(node.arg)})"
    return f"{node.kind}({render(node.e_arg)}, {render(node.r_arg)})"


# ---------------------------------------------------------------------------
# Identities


class Counterexample(NamedTuple):
    e: int
    r: int
    n: int
    lhs: int
    rhs: int


@dataclass(frozen=True)
class Verdict:
    holds: bool
    checked_count: int
    counterexample: Counterexample | None = None


@dataclass(frozen=True)
class Identity:
    """A parsed identity plus its quantifier ranges and sequence bindings.

    `r` always ranges over [0, 2^e].  `n` ranges over [n_min, N] when the
    expression mentions n, and is pinned to n_min otherwise.  A(e, r) /
    B(e, r) references read the coefficient table of the one spec bound to
    the identity's sequence names.
    """

    name: str
    lhs: Node
    rhs: Node
    bindings: tuple[tuple[str, SternLikeSpec], ...] = ()
    n_min: int = 0
    family: str = ""
    variant: str = ""

    @property
    def text(self) -> str:
        return f"{render(self.lhs)} == {render(self.rhs)}"

    @property
    def seq_names(self) -> tuple[str, ...]:
        seen = []
        for node in (*_walk(self.lhs), *_walk(self.rhs)):
            if isinstance(node, Term) and node.seq not in seen:
                seen.append(node.seq)
        return tuple(seen)

    @property
    def uses_coeffs(self) -> bool:
        return any(isinstance(node, Coeff) for node in (*_walk(self.lhs), *_walk(self.rhs)))

    @property
    def uses_n(self) -> bool:
        return any(isinstance(node, Var) and node.name == "n"
                   for node in (*_walk(self.lhs), *_walk(self.rhs)))


def parse_identity(text: str) -> Identity:
    """Parse `expr == expr`; ranges and bindings come later."""
    parser = _Parser(text)
    lhs = parser.parse_expr()
    parser.expect("eq")
    rhs = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    _validate(lhs, False)
    _validate(rhs, False)
    return Identity("", lhs, rhs)


def bind_presets(identity: Identity, **overrides: SternLikeSpec) -> Identity:
    """Bind every sequence name, resolving unbound names as preset aliases."""
    pairs = dict(overrides)
    for seq in identity.seq_names:
        if seq not in pairs:
            pairs[seq] = preset(seq)
    return replace(identity, bindings=tuple(sorted(pairs.items())))


# ---------------------------------------------------------------------------
# Compilation and evaluation

def _int_pow(base: int, exp: int) -> int:
    if exp < 0:
        raise DomainError(f"exponent evaluated negative: {exp}")
    return base ** exp


def _emit(node: Node, seq_slot: dict[str, str]) -> str:
    if isinstance(node, BinOp):
        lhs, rhs = _emit(node.lhs, seq_slot), _emit(node.rhs, seq_slot)
        if node.op == "^":
            return f"_ip({lhs}, {rhs})"
        return f"({lhs}{_OPS[node.op][3]}{rhs})"
    if isinstance(node, Lit):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Term):
        return f"{seq_slot[node.seq]}({_emit(node.arg, seq_slot)})"
    return f"_c{node.kind}({_emit(node.e_arg, seq_slot)}, {_emit(node.r_arg, seq_slot)})"


def _compile(identity: Identity, e: int, limit: int) -> Callable[[int, int, int], tuple[int, int]]:
    """Both sides as one function of (e, r, n) at level e: term lookups bounded
    by `limit`, coefficient rows up to e, and `coeff_at` (which validates) beyond.
    A(e, r)/B(e, r) read the table of the identity's one bound sequence."""
    bound = dict(identity.bindings)
    missing = [seq for seq in identity.seq_names if seq not in bound]
    if missing:
        raise DomainError(f"unbound sequence names: {', '.join(missing)}")
    namespace: dict[str, object] = {"_ip": _int_pow}
    seq_slot: dict[str, str] = {}
    for i, (seq, spec) in enumerate(identity.bindings):
        seq_slot[seq] = f"_f{i}"
        namespace[f"_f{i}"] = _term_lookup(spec, limit, seq)
    if identity.uses_coeffs:
        specs = set(bound.values())
        if len(specs) != 1:
            raise DomainError("A(e, r)/B(e, r) need exactly one bound sequence "
                              "to supply the coefficient table")
        table = coeff_table(specs.pop(), max(e, 0))
        namespace["_cA"] = _coeff_reader(table, 0)
        namespace["_cB"] = _coeff_reader(table, 1)
    source = (f"lambda e, r, n: ({_emit(identity.lhs, seq_slot)}, "
              f"{_emit(identity.rhs, seq_slot)})")
    return eval(source, namespace)  # noqa: S307 - source is generated from the validated AST


def _coeff_reader(table: CoeffTable, which: int) -> Callable[[int, int], int]:
    rows = (table.A, table.B)[which]

    def coeff(e: int, r: int) -> int:
        if 0 <= e <= table.e_max and 0 <= r < len(rows[e]):
            return rows[e][r]
        return coeff_at(table.spec, e, r)[which]
    return coeff


def check_instance(identity: Identity, e: int, r: int, n: int) -> tuple[int, int, bool]:
    """Evaluate both sides exactly at one binding of (e, r, n)."""
    lhs, rhs = _compile(identity, e, 0)(e, r, n)
    return lhs, rhs, lhs == rhs


def _n_range(identity: Identity, n_max: int) -> tuple[int, int]:
    """n's inclusive range: [n_min, n_max], or n_min alone when n is not mentioned."""
    return identity.n_min, (n_max if identity.uses_n else identity.n_min)


def _verify_level(task: tuple[Identity, int, int]) -> Counterexample | None:
    """The first counterexample of one e-level in lexicographic (r, n) order."""
    identity, e, n_max = task
    n_lo, n_hi = _n_range(identity, n_max)
    # every catalog index stays below 8x the level's grid (5*2^e*n + r needs 5x)
    fn = _compile(identity, e, 8 * ((1 << e) + 1) * (n_hi - n_lo + 1))
    for r in range((1 << e) + 1):
        for n in range(n_lo, n_hi + 1):
            lhs, rhs = fn(e, r, n)
            if lhs != rhs:
                return Counterexample(e, r, n, lhs, rhs)
    return None


def verify(identity: Identity, e_max: int, n_max: int, jobs: int = 1) -> Verdict:
    """Exhaustively check the identity on its grid; failures become verdicts.

    The first counterexample or error in lexicographic (e, r, n) order
    decides, whatever the worker count: `jobs > 1` runs e-levels on at most
    min(jobs, levels, CPUs) worker processes, and their results are read in
    e order up to the first counterexample.  The count is the full grid,
    sum over e <= e_max of (2^e + 1) * |n range|.  Binding errors, jobs < 1,
    e_max < 0 and, when the identity mentions n, n_max < n_min raise before
    any level runs.
    """
    _compile(identity, 0, 0)  # binding errors surface here, not in a worker
    if jobs < 1:
        raise RangeError(f"jobs must be >= 1, got {jobs}")
    if e_max < 0:
        raise RangeError(f"e_max must be >= 0, got {e_max}")
    if identity.uses_n and n_max < identity.n_min:
        raise RangeError(f"n_max must be >= n_min = {identity.n_min}, got {n_max}")
    n_lo, n_hi = _n_range(identity, n_max)
    count = ((2 << e_max) + e_max) * (n_hi - n_lo + 1)
    tasks = [(identity, e, n_max) for e in range(e_max + 1)]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            first = next(filter(None, pool.map(_verify_level, tasks)), None)
    else:
        first = next(filter(None, map(_verify_level, tasks)), None)
    return Verdict(first is None, count, first)


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
    if symbol in (*_VARIABLES, *_COEFF_NAMES):
        symbol = "v"

    def const(k: int) -> str:
        return str(k) if k >= 0 else f"(0 - {-k})"

    text = (f"A(e, r)*{symbol}(2*n + 3) + B(e, r)*{symbol}(2*n + 5)"
            f" == {const(spec.c)}*{symbol}(2^e*(n + 2) + r)"
            f" + {const(spec.b)}*{symbol}(2^e*(n + 1) + r)")
    identity = parse_identity(text)
    return replace(identity,
                   name=name or f"generic_cor_{spec.name or 'custom'}",
                   bindings=((symbol, spec),),
                   n_min=spec.n0,
                   family="generic_cor")


@cache
def catalog() -> tuple[Identity, ...]:
    """All named, fully bound identities."""
    entries = []
    for name, family, variant, n_min, text in _CATALOG_SOURCES:
        identity = parse_identity(text)
        identity = bind_presets(identity)
        entries.append(replace(
            identity,
            name=name,
            n_min=n_min,
            family=family,
            variant=variant,
        ))
    for preset_name in PRESET_NAMES:
        entries.append(generic_corollary(preset(preset_name),
                                         name=f"generic_cor_{preset_name}"))
    return tuple(entries)


def catalog_names() -> tuple[str, ...]:
    return tuple(identity.name for identity in catalog())


def catalog_entry(name: str) -> Identity:
    for identity in catalog():
        if identity.name == name:
            return identity
    raise UnknownIdentityError(
        f"unknown identity {name!r}; see catalog_names() or the `catalog` subcommand")


# ---------------------------------------------------------------------------
# Discrepancy report

# families with a printed and a derived variant, in catalog order
VARIANT_FAMILIES: tuple[str, ...] = tuple(dict.fromkeys(
    family for _, family, variant, _, _ in _CATALOG_SOURCES if variant))


@dataclass(frozen=True)
class DiscrepancyReport:
    """Verdicts for every printed/derived variant pair, side by side."""

    e_max: int
    n_max: int
    rows: tuple[tuple[Identity, Verdict], ...]

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


def discrepancy_report(e_max: int = 6, n_max: int = 32, jobs: int = 1) -> DiscrepancyReport:
    """Run both variants of every two-variant family; never aborts on failure."""
    rows = []
    for identity in catalog():
        if identity.family in VARIANT_FAMILIES:
            rows.append((identity, verify(identity, e_max, n_max, jobs=jobs)))
    return DiscrepancyReport(e_max, n_max, tuple(rows))
