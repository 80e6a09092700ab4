"""Analytic map expressions: parsing, evaluation, and jet lifting.

The expression grammar covers polynomial arithmetic in variables z1..zd plus
exp/sin/cos, integer powers via '^', and components separated by ';'.  A
leading '+' or '-' on an expression is accepted as a convenience extension.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import MapSyntaxError
from .jets import (
    Jet,
    constant_jet,
    jet_cos,
    jet_div,
    jet_exp,
    jet_int_pow,
    jet_mul,
    jet_sin,
    variable_jet,
)
from .multiindex import graded_numbering

_FUNCTIONS = ("exp", "sin", "cos")


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Bin:
    op: str  # '+', '-', '*', '/'
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Call:
    name: str
    arg: "Node"


@dataclass(frozen=True)
class Neg:
    operand: "Node"


Node = Union[Const, Var, Bin, Pow, Call, Neg]


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


def _eval_scalar(node: Node, z: np.ndarray) -> complex:
    if isinstance(node, Const):
        return complex(node.value)
    if isinstance(node, Var):
        return complex(z[node.index - 1])
    if isinstance(node, Neg):
        return -_eval_scalar(node.operand, z)
    if isinstance(node, Bin):
        a = _eval_scalar(node.left, z)
        b = _eval_scalar(node.right, z)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b  # ZeroDivisionError propagates
    if isinstance(node, Pow):
        return _eval_scalar(node.base, z) ** node.exponent
    if isinstance(node, Call):
        a = _eval_scalar(node.arg, z)
        return {"exp": cmath.exp, "sin": cmath.sin, "cos": cmath.cos}[node.name](a)
    raise TypeError(f"unknown node {node!r}")


def eval_map(f: MapExpr, z) -> np.ndarray:
    """Evaluate f at a single point; returns a complex vector of length r."""
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    if z.shape != (f.d,):
        raise ValueError(f"point has shape {z.shape}, expected ({f.d},)")
    return np.array([_eval_scalar(c, z) for c in f.components], dtype=np.complex128)


def _eval_batch(node: Node, Z: np.ndarray) -> np.ndarray:
    if isinstance(node, Const):
        return Z.dtype.type(node.value)  # a scalar; numpy broadcasts it
    if isinstance(node, Var):
        return Z[:, node.index - 1]
    if isinstance(node, Neg):
        return -_eval_batch(node.operand, Z)
    if isinstance(node, Bin):
        a = _eval_batch(node.left, Z)
        b = _eval_batch(node.right, Z)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        with np.errstate(divide="ignore", invalid="ignore"):
            return a / b
    if isinstance(node, Pow):
        return _eval_batch(node.base, Z) ** node.exponent
    if isinstance(node, Call):
        return {"exp": np.exp, "sin": np.sin, "cos": np.cos}[node.name](_eval_batch(node.arg, Z))
    raise TypeError(f"unknown node {node!r}")


def eval_map_batch(f: MapExpr, Z) -> np.ndarray:
    """Evaluate f at N points at once; returns an (N, r) array.

    Every node maps reals to reals, so real input is evaluated in float64 and
    gives a float64 result; complex input gives complex128.
    """
    Z = np.asarray(Z)
    Z = Z.astype(np.complex128 if np.iscomplexobj(Z) else np.float64, copy=False)
    if Z.ndim != 2 or Z.shape[1] != f.d:
        raise ValueError(f"points have shape {Z.shape}, expected (N, {f.d})")
    out = np.empty((Z.shape[0], f.r), dtype=Z.dtype)
    for k, c in enumerate(f.components):
        out[:, k] = _eval_batch(c, Z)  # a constant component broadcasts
    return out


def _eval_jet(node: Node, env: list[Jet], table) -> Jet:
    if isinstance(node, Const):
        return constant_jet(table, node.value)
    if isinstance(node, Var):
        return env[node.index - 1]
    if isinstance(node, Neg):
        return -_eval_jet(node.operand, env, table)
    if isinstance(node, Bin):
        a = _eval_jet(node.left, env, table)
        b = _eval_jet(node.right, env, table)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return jet_mul(a, b)
        return jet_div(a, b)
    if isinstance(node, Pow):
        return jet_int_pow(_eval_jet(node.base, env, table), node.exponent)
    if isinstance(node, Call):
        arg = _eval_jet(node.arg, env, table)
        return {"exp": jet_exp, "sin": jet_sin, "cos": jet_cos}[node.name](arg)
    raise TypeError(f"unknown node {node!r}")


def jet_of_map(f: MapExpr, p, order: int) -> list[Jet]:
    """Order-`order` jets of the components of f about the point p."""
    p = np.atleast_1d(np.asarray(p, dtype=np.complex128))
    if p.shape != (f.d,):
        raise ValueError(f"base point has shape {p.shape}, expected ({f.d},)")
    table = graded_numbering(f.d, order)
    env = [variable_jet(table, k + 1, base=p[k]) for k in range(f.d)]
    return [_eval_jet(c, env, table) for c in f.components]


def _substitute(node: Node, components: tuple[Node, ...]) -> Node:
    if isinstance(node, Const):
        return node
    if isinstance(node, Var):
        return components[node.index - 1]
    if isinstance(node, Neg):
        return Neg(_substitute(node.operand, components))
    if isinstance(node, Bin):
        return Bin(node.op, _substitute(node.left, components), _substitute(node.right, components))
    if isinstance(node, Pow):
        return Pow(_substitute(node.base, components), node.exponent)
    if isinstance(node, Call):
        return Call(node.name, _substitute(node.arg, components))
    raise TypeError(f"unknown node {node!r}")


def compose_maps(outer: MapExpr, inner: MapExpr) -> MapExpr:
    """outer after inner, by substituting inner's components for outer's variables."""
    if outer.d != inner.r:
        raise ValueError(f"cannot compose: outer expects {outer.d} inputs, inner yields {inner.r}")
    components = tuple(_substitute(c, inner.components) for c in outer.components)
    return MapExpr(
        d=inner.d,
        r=outer.r,
        components=components,
        source=f"({outer.source}) after ({inner.source})",
    )
