"""The expression language of sequence identities: AST, parser and printer.

An identity is `expr == expr` where each side is a sum of products of
integer constants, powers with a constant base such as (0 - 1)^e, sequence
terms like s(2^e*n + r), and coefficient references A(e, r) / B(e, r).
Index expressions use +, -, *, powers of integer literals, and the
quantified variables e, r, n.  `parse_equation` returns both sides,
validated; `render` prints a node in canonical form, which parses back to
the same tree.
"""

from __future__ import annotations

import re

from ._frozen import Frozen, set_field
from .errors import ParseError

__all__ = [
    "Lit", "Var", "BinOp", "Term", "Coeff", "Node",
    "VARIABLES", "COEFF_NAMES", "OPS", "walk", "parse_equation", "render",
]


# ---------------------------------------------------------------------------
# AST


class Lit(Frozen):
    __slots__ = ("value",)

    def __init__(self, value: int):
        set_field(self, "value", value)


class Var(Frozen):
    __slots__ = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)


class BinOp(Frozen):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Node, rhs: Node):
        set_field(self, "op", op)  # a key of OPS; for "^", lhs is the base and rhs the exponent
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)


class Term(Frozen):
    __slots__ = ("seq", "arg")

    def __init__(self, seq: str, arg: Node):
        set_field(self, "seq", seq)
        set_field(self, "arg", arg)


class Coeff(Frozen):
    __slots__ = ("kind", "e_arg", "r_arg")

    def __init__(self, kind: str, e_arg: Node, r_arg: Node):
        set_field(self, "kind", kind)  # "A" or "B"
        set_field(self, "e_arg", e_arg)
        set_field(self, "r_arg", r_arg)


Node = Lit | Var | BinOp | Term | Coeff

VARIABLES = ("e", "r", "n")
COEFF_NAMES = ("A", "B")

# op -> (precedence, lhs context, rhs context, separator), with the grammar's
# levels 1 expr, 2 term, 3 factor and _ATOM for everything else: a child whose
# precedence is below its context is parenthesised.
_ATOM = 4
OPS: dict[str, tuple[int, int, int, str]] = {
    "+": (1, 1, 2, " + "),
    "-": (1, 1, 2, " - "),
    "*": (2, 2, 3, "*"),
    "^": (3, _ATOM, _ATOM, "^"),
}


def walk(node: Node):
    """Every node of the tree under `node`, itself first, in preorder; from a
    stack, since nested generators would pass each node up every level."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, BinOp):  # children pushed last first
            stack += node.rhs, node.lhs
        elif isinstance(node, Term):
            stack.append(node.arg)
        elif isinstance(node, Coeff):
            stack += node.r_arg, node.e_arg


# ---------------------------------------------------------------------------
# Parsing

# a number, a name, "==", an operator or punctuation, or (last) any other
# character, which is an error
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(==)|([+\-*^(),])|(\S))")
_TOKEN_KINDS = (None, "int", "name", "eq", "op")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        group = match.lastindex
        if group == 5:
            raise ParseError(f"unexpected character {match[5]!r}", match.start(5))
        tokens.append((_TOKEN_KINDS[group], match[group], match.start(group)))
    tokens.append(("end", "", len(text)))
    return tokens


# Bounds the parser's recursion and the AST's depth (to twice this): the AST
# passes and the Python compiler of the generated kernel fail far deeper.
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

    # A token's value alone tells an operator or punctuation apart: no name,
    # number or "==" has the value "-", "(" or ",", nor is a key of OPS.
    def parse_expr(self, prec: int = 1) -> Node:
        """Operators of precedence >= prec.  One whose lhs context is its own
        precedence chains, each link one depth level; "^" joins two atoms."""
        if prec == _ATOM:
            return self.parse_atom()
        outer = self.deeper() if prec == 1 else self.depth
        tokens = self.tokens
        if prec == 1 and tokens[self.index][1] == "-":
            self.index += 1
            node: Node = BinOp("-", Lit(0), self.parse_expr(2))
        else:
            node = self.parse_expr(prec + 1)
        while (op := tokens[self.index][1]) in OPS and OPS[op][0] == prec:
            self.index += 1
            _, lhs_ctx, rhs_ctx, _ = OPS[op]
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
            try:
                return Lit(int(value))
            except ValueError:  # sys.get_int_max_str_digits(), which the CLI lifts
                raise ParseError(f"integer literal has {len(value)} digits, past the "
                                 "interpreter's int/str conversion limit", pos) from None
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            self.expect("op", ")")
            return inner
        if kind == "name":
            if self.peek()[1] == "(":
                self.index += 1
                first = self.parse_expr()
                if self.peek()[1] == ",":
                    self.index += 1
                    second = self.parse_expr()
                    self.expect("op", ")")
                    if value not in COEFF_NAMES:
                        raise ParseError(
                            f"{value!r} is not a coefficient reference; only "
                            f"{' and '.join(COEFF_NAMES)} take two arguments", pos)
                    return Coeff(value, first, second)
                self.expect("op", ")")
                if value in COEFF_NAMES:
                    raise ParseError(
                        f"{value!r} is reserved for coefficient references "
                        f"{value}(e, r) and takes two arguments", pos)
                return Term(value, first)
            if value in VARIABLES:
                return Var(value)
            raise ParseError(f"unknown variable {value!r} (variables are e, r, n)", pos)
        raise ParseError(f"unexpected token {value or 'end of input'!r}", pos)


def _is_constant(node: Node) -> bool:
    return all(isinstance(sub, (Lit, BinOp)) for sub in walk(node))


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


def parse_equation(text: str) -> tuple[Node, Node]:
    """The two sides of `expr == expr`, parsed and validated."""
    parser = _Parser(text)
    lhs = parser.parse_expr()
    parser.expect("eq")
    rhs = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    _validate(lhs, False)
    _validate(rhs, False)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Printing (canonical form; re-parsing it reproduces the AST)

def render(node: Node, _ctx: int = 1) -> str:
    if isinstance(node, BinOp):
        prec, lhs_ctx, rhs_ctx, sep = OPS[node.op]
        body = f"{render(node.lhs, lhs_ctx)}{sep}{render(node.rhs, rhs_ctx)}"
        return f"({body})" if prec < _ctx else body
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Term):
        return f"{node.seq}({render(node.arg)})"
    return f"{node.kind}({render(node.e_arg)}, {render(node.r_arg)})"
