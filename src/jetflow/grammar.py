"""The map grammar and the sampling schemes a config may name, in the standard library only.

A map is a ';'-separated list of component expressions in z1..zd: numbers,
+ - * /, integer powers via '^', parentheses and exp/sin/cos.  A leading '+'
or '-' on an expression is accepted as a convenience extension.  `parse_map`
turns one into a `MapExpr` of `Node` trees, which `jetflow.maps` evaluates.

Nothing here needs numpy, so a config is validated (`jetflow validate`, and
the check at the start of every run) without loading it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import MapSyntaxError

# the sampling schemes, and the bases of the Halton sequence: one prime per dimension
_SCHEMES = ("iid", "grid", "halton")

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)

_FUNCTIONS = ("exp", "sin", "cos")


class Node:
    """An expression node; its operators build new nodes, so maps compose by evaluation."""

    def __add__(self, other: Node) -> Node:
        return Bin("+", self, other)

    def __sub__(self, other: Node) -> Node:
        return Bin("-", self, other)

    def __mul__(self, other: Node) -> Node:
        return Bin("*", self, other)

    def __truediv__(self, other: Node) -> Node:
        return Bin("/", self, other)

    def __pow__(self, exponent: int) -> Node:
        return Pow(self, exponent)

    def __neg__(self) -> Node:
        return Neg(self)


@dataclass(frozen=True)
class Const(Node):
    value: float


@dataclass(frozen=True)
class Var(Node):
    index: int  # 1-based


@dataclass(frozen=True)
class Bin(Node):
    op: str  # '+', '-', '*', '/'
    left: Node
    right: Node


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: int


@dataclass(frozen=True)
class Call(Node):
    name: str
    arg: Node


@dataclass(frozen=True)
class Neg(Node):
    operand: Node


@dataclass(frozen=True)
class MapExpr:
    """A parsed analytic map from C^d to C^r."""

    d: int
    r: int
    components: tuple[Node, ...]
    source: str


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<var>z\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^();])"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise MapSyntaxError(f"unexpected character {source[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], d: int):
        self.tokens = tokens
        self.d = d
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise MapSyntaxError(f"expected {op!r}, found {text or 'end of input'!r}", pos)
        self.advance()

    def expr(self) -> Node:
        kind, text, _ = self.peek()
        negate = False
        if kind == "op" and text in "+-":  # sign extension
            self.advance()
            negate = text == "-"
        node = self.term()
        if negate:
            node = Neg(node)
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = Bin(text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = Bin(text, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            kind, text, pos = self.advance()
            if kind != "num" or any(c in text for c in ".eE"):
                raise MapSyntaxError(f"exponent must be a nonnegative integer, found {text!r}", pos)
            node = Pow(node, int(text))
        return node

    def atom(self) -> Node:
        kind, text, pos = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "var":
            index = int(text[1:])
            if not 1 <= index <= self.d:
                raise MapSyntaxError(f"variable {text} out of range z1..z{self.d}", pos)
            return Var(index)
        if kind == "name":
            if text not in _FUNCTIONS:
                raise MapSyntaxError(f"unknown function {text!r}", pos)
            self.expect_op("(")
            arg = self.expr()
            self.expect_op(")")
            return Call(text, arg)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise MapSyntaxError(f"unexpected {text or 'end of input'!r}", pos)


def parse_map(source: str, d: int, r: int) -> MapExpr:
    """Parse a ';'-separated list of r component expressions in z1..zd."""
    tokens = _tokenize(source)
    parser = _Parser(tokens, d)
    components = [parser.expr()]
    while True:
        kind, text, pos = parser.peek()
        if kind == "op" and text == ";":
            parser.advance()
            components.append(parser.expr())
        elif kind == "eof":
            break
        else:
            raise MapSyntaxError(f"unexpected {text!r}", pos)
    if len(components) != r:
        raise MapSyntaxError(
            f"map has {len(components)} components, expected {r}", len(source)
        )
    return MapExpr(d=d, r=r, components=tuple(components), source=source)
