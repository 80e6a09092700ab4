"""Analytic map expressions: parsing, evaluation, and jet lifting.

The expression grammar covers polynomial arithmetic in variables z1..zd plus
exp/sin/cos, integer powers via '^', and components separated by ';'.  A
leading '+' or '-' on an expression is accepted as a convenience extension.

One tree walk, `_evaluate`, serves every arithmetic with + - * / ** and unary
minus: numpy columns (`eval_map_batch`), jets (`jet_of_map`) and expression
nodes themselves (`compose_maps`).  `_eval_scalar` walks the tree on its own in
complex scalars, as the independent reference the tests compare against.
"""

from __future__ import annotations

import cmath
import operator
import re
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import BlowupError, InputError, MapSyntaxError, PoleError
from .fock import _array
from .jets import Jet, constant_jet, jet_cos, jet_exp, jet_sin, variable_jet
from .multiindex import graded_numbering

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


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_NUMPY_FUNCTIONS = {"exp": np.exp, "sin": np.sin, "cos": np.cos}
_JET_FUNCTIONS = {"exp": jet_exp, "sin": jet_sin, "cos": jet_cos}
_NODE_FUNCTIONS = {name: partial(Call, name) for name in _FUNCTIONS}


def _evaluate(node: Node, variables, constant, functions):
    """Value of node in any arithmetic with + - * / ** and unary minus.

    variables[k] stands for z_{k+1}, constant(c) lifts the literal c, and
    functions maps each of exp, sin and cos to its version in that arithmetic.
    """
    if isinstance(node, Const):
        return constant(node.value)
    if isinstance(node, Var):
        return variables[node.index - 1]
    # no recursive closure: it would be a reference cycle that keeps the
    # variables (whole sample arrays) alive until the cyclic collector runs
    args = (variables, constant, functions)
    if isinstance(node, Neg):
        return -_evaluate(node.operand, *args)
    if isinstance(node, Bin):
        return _BINARY[node.op](_evaluate(node.left, *args), _evaluate(node.right, *args))
    if isinstance(node, Pow):
        return _evaluate(node.base, *args) ** node.exponent
    if isinstance(node, Call):
        return functions[node.name](_evaluate(node.arg, *args))
    raise TypeError(f"unknown node {node!r}")


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
    """Evaluate f at a single point; returns a complex vector of length r.

    A division by zero on the way raises PoleError: f has a pole at z; an
    overflow raises BlowupError.
    """
    z = _array(z, "point", f.d, vector=True, dtype=np.complex128)
    try:
        return np.array([_eval_scalar(c, z) for c in f.components], dtype=np.complex128)
    except ZeroDivisionError:
        raise PoleError("division by zero: the map has a pole at the point") from None
    except OverflowError:
        raise BlowupError("the map's value overflows at the point") from None


def eval_map_batch(f: MapExpr, Z) -> np.ndarray:
    """Evaluate f at N points at once; returns an (N, r) array.

    Every node maps reals to reals, so real input is evaluated in float64 and
    gives a float64 result; complex input gives complex128.
    """
    Z = _array(Z, "points", f.d)
    out = np.empty((Z.shape[0], f.r), dtype=Z.dtype)
    # a pole or an inf - inf gives a non-finite value, which the caller checks
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, c in enumerate(f.components):
            # a Const is a scalar that numpy broadcasts, also to a whole component
            out[:, k] = _evaluate(c, Z.T, Z.dtype.type, _NUMPY_FUNCTIONS)
    return out


def jet_of_map(f: MapExpr, p, order: int) -> list[Jet]:
    """Order-`order` jets of the components of f about the point p; an overflow raises BlowupError."""
    p = _array(p, "base point", f.d, vector=True, dtype=np.complex128)
    table = graded_numbering(f.d, order)
    env = [variable_jet(table, k + 1, base=p[k]) for k in range(f.d)]
    constant = partial(constant_jet, table)
    try:
        return [_evaluate(c, env, constant, _JET_FUNCTIONS) for c in f.components]
    except OverflowError:
        raise BlowupError("the map's jet overflows at the base point") from None


def compose_maps(outer: MapExpr, inner: MapExpr) -> MapExpr:
    """outer after inner, by substituting inner's components for outer's variables."""
    if outer.d != inner.r:
        raise InputError(f"cannot compose: outer expects {outer.d} inputs, inner yields {inner.r}")
    components = tuple(_evaluate(c, inner.components, Const, _NODE_FUNCTIONS)
                       for c in outer.components)
    return MapExpr(
        d=inner.d,
        r=outer.r,
        components=components,
        source=f"({outer.source}) after ({inner.source})",
    )
