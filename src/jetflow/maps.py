"""Analytic map expressions: evaluation and jet lifting.

`jetflow.grammar` parses a map into a `MapExpr`; its names are re-exported
here.  One tree walk, `_evaluate`, serves every arithmetic with + - * / ** and unary
minus: numpy columns (`eval_map_batch`), jets (`jet_of_map`) and expression
nodes themselves (`compose_maps`).  `_eval_scalar` walks the tree on its own in
complex scalars, as the independent reference the tests compare against.
"""

from __future__ import annotations

import cmath
import operator
from functools import partial

import numpy as np

from .errors import BlowupError, InputError, PoleError
from .fock import _array
from .grammar import _FUNCTIONS, Bin, Call, Const, MapExpr, Neg, Node, Pow, Var, parse_map  # noqa: F401
from .jets import Jet, constant_jet, jet_cos, jet_exp, jet_sin, variable_jet
from .multiindex import graded_numbering

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
