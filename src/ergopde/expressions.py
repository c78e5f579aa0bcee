"""Tiny arithmetic expression grammar for coefficient fields.

Supports +, -, *, /, **, unary minus, the variables x and y, the constants
pi and e, numeric literals, and the functions abs, exp, log, sqrt, sin,
cos, tan.  An expression compiles to the bare evaluator of its checked
syntax tree: it takes one coordinate per dimension and returns what numpy
computes from them, an array or a scalar.  `model.ScalarField` alone checks
the coordinate count, shapes the values and checks that they are finite.
The operands are numpy floats even for a single point, so that `x**0.5`
takes numpy's path and a point value equals the array value bit for bit.
"""

from __future__ import annotations

import ast
import math

import numpy as np

from .errors import ConfigError

_FUNCTIONS = {
    "abs": np.abs,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

# the globals of every evaluation; the coordinates are its only locals
_SCOPE = {"__builtins__": {}, **_FUNCTIONS, **_CONSTANTS}

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARYOPS = (ast.UAdd, ast.USub)


def _validate(node: ast.AST, variables: tuple) -> None:
    if isinstance(node, ast.Expression):
        _validate(node.body, variables)
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ConfigError(f"non-numeric literal {node.value!r}")
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise ConfigError(f"operator {type(node.op).__name__} not allowed")
        _validate(node.left, variables)
        _validate(node.right, variables)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _ALLOWED_UNARYOPS):
            raise ConfigError(f"operator {type(node.op).__name__} not allowed")
        _validate(node.operand, variables)
    elif isinstance(node, ast.Name):
        if node.id not in variables and node.id not in _CONSTANTS:
            raise ConfigError(f"unknown name {node.id!r}")
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ConfigError("only abs/exp/log/sqrt/sin/cos/tan calls allowed")
        if node.keywords or len(node.args) != 1:
            raise ConfigError("functions take exactly one positional argument")
        _validate(node.args[0], variables)
    else:
        raise ConfigError(f"syntax element {type(node).__name__} not allowed")


def compile_expression(expr: str, dim: int):
    """Compile an expression string into its evaluator f(x[, y])."""
    if dim not in (1, 2):
        raise ConfigError(f"expression dimension must be 1 or 2, got {dim}")
    variables = ("x", "y")[:dim]
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {expr!r}: {exc}") from exc
    _validate(tree, variables)
    code = compile(tree, "<field>", "eval")

    def fn(*coords):
        operands = {name: np.asarray(c, dtype=float)
                    for name, c in zip(variables, coords)}
        return eval(code, _SCOPE, operands)  # noqa: S307 - whitelisted AST

    return fn
