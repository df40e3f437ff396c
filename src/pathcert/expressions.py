"""Small expression language for scalar fields.

Grammar (recursive descent):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?
    atom    := number | variable | call | '(' expr ')'
    call    := ('abs' | 'norm') '(' args ')'

Variables are x1, x2, ..., x64 (MAX_VARIABLE) indexing coordinates, and
the largest index used is the field's dimension; norm(x) is the
Euclidean norm of the whole point.  '^' is right associative and binds
tighter than unary minus, so -x1^2 is -(x1^2).  Division by zero and
invalid powers evaluate to nan rather than raising.

An expression compiles to operations on whole arrays: its evaluator maps
an (m, n) array of points to float64[m], with no numpy warning, and each
entry has the bits that evaluating its row alone in Python floats gives.
'+', '-', '*', '/', unary minus and abs are single IEEE operations
either way; '^' calls Python's float power on each element, because
numpy's power can round differently in the last bit; norm(x) is
``geometry.row_norms``, which has np.linalg.norm's bits.

The expression tree may be at most MAX_DEPTH levels deep: each
operator, parenthesis pair and abs() is one level, and so is the
number, variable or norm(x) at a leaf.  A chain a + b + c parses as
(a + b) + c, so a chain of n terms is n levels deep.  Parsing and
evaluation both recurse along the tree; the limit keeps them well
inside Python's recursion limit.
"""

from __future__ import annotations

import math
import re
from typing import Callable

import numpy as np

from .errors import ExpressionError
from .geometry import row_norms

_TOKEN = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<ws>\s+)"
)

# (m, n) points -> float64[m]
Evaluator = Callable[[np.ndarray], np.ndarray]

MAX_DEPTH = 100
MAX_VARIABLE = 64


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ExpressionError(f"unexpected character {text[pos]!r}", pos)
            if m.lastgroup != "ws":
                self.tokens.append((m.lastgroup, m.group(), pos))
            pos = m.end()
        self.index = 0
        self.max_var = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression", len(self.text))
        self.index += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok is None or tok[0] != "op" or tok[1] != op:
            pos = tok[2] if tok else len(self.text)
            raise ExpressionError(f"expected {op!r}", pos)
        self.index += 1

    def nest(self, depth: int, pos: int) -> int:
        if depth > MAX_DEPTH:
            raise ExpressionError(f"expression nests deeper than {MAX_DEPTH} levels", pos)
        return depth

    def parse(self) -> Evaluator:
        result, _ = self.expr(1)
        tok = self.peek()
        if tok is not None:
            raise ExpressionError(f"unexpected {tok[1]!r}", tok[2])
        return result

    # Each rule parses a subtree whose root sits at ``depth`` and returns
    # its evaluator with the deepest level inside it.  A chain operator
    # pushes the subtree parsed so far one level down.

    def expr(self, depth: int) -> tuple[Evaluator, int]:
        left, deepest = self.term(depth)
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                return left, deepest
            self.index += 1
            right, right_deepest = self.term(depth + 1)
            deepest = self.nest(max(deepest + 1, right_deepest), tok[2])
            if tok[1] == "+":
                left = _binary(left, right, lambda a, b: a + b)
            else:
                left = _binary(left, right, lambda a, b: a - b)

    def term(self, depth: int) -> tuple[Evaluator, int]:
        left, deepest = self.factor(depth)
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "*/":
                return left, deepest
            self.index += 1
            right, right_deepest = self.factor(depth + 1)
            deepest = self.nest(max(deepest + 1, right_deepest), tok[2])
            if tok[1] == "*":
                left = _binary(left, right, lambda a, b: a * b)
            else:
                left = _binary(left, right, _safe_div)

    def factor(self, depth: int) -> tuple[Evaluator, int]:
        tok = self.peek()
        # every descent passes through here, so the recursion stops at the limit
        self.nest(depth, tok[2] if tok else len(self.text))
        if tok is not None and tok[0] == "op" and tok[1] == "-":
            self.index += 1
            inner, deepest = self.factor(depth + 1)
            return (lambda x: -inner(x)), deepest
        return self.power(depth)

    def power(self, depth: int) -> tuple[Evaluator, int]:
        base, deepest = self.atom(depth)
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "^":
            self.index += 1
            exponent, exponent_deepest = self.factor(depth + 1)
            deepest = self.nest(max(deepest + 1, exponent_deepest), tok[2])
            return _binary(base, exponent, _pow_rows), deepest
        return base, deepest

    def atom(self, depth: int) -> tuple[Evaluator, int]:
        tok = self.take()
        kind, value, pos = tok
        if kind == "num":
            const = float(value)
            return (lambda x: np.full(x.shape[0], const)), depth
        if kind == "op" and value == "(":
            inner, deepest = self.expr(depth + 1)
            self.expect_op(")")
            return inner, deepest
        if kind == "name":
            if value in ("abs", "norm"):
                self.expect_op("(")
                if value == "norm":
                    arg = self.peek()
                    if arg is not None and arg[0] == "name" and arg[1] == "x":
                        self.index += 1
                        self.expect_op(")")
                        return row_norms, depth
                    raise ExpressionError("norm takes the whole point: norm(x)",
                                          arg[2] if arg else len(self.text))
                inner, deepest = self.expr(depth + 1)
                self.expect_op(")")
                return (lambda x, f=inner: np.abs(f(x))), deepest
            m = re.fullmatch(r"x(\d+)", value)
            if m:
                digits = m.group(1).lstrip("0")
                # a long digit string is out of range and never reaches int()
                idx = int(digits) if 0 < len(digits) <= 9 else 0
                if not 1 <= idx <= MAX_VARIABLE:
                    raise ExpressionError(f"variables run from x1 to x{MAX_VARIABLE}", pos)
                self.max_var = max(self.max_var, idx)
                return (lambda x, i=idx - 1: x[:, i]), depth
            raise ExpressionError(f"unknown name {value!r}", pos)
        raise ExpressionError(f"unexpected {value!r}", pos)


def _binary(left: Evaluator, right: Evaluator, op) -> Evaluator:
    return lambda x: op(left(x), right(x))


def _safe_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.where(b == 0.0, math.nan, a / b)


def _pow_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.fromiter(map(_safe_pow, a.tolist(), b.tolist()), float, count=a.size)


def _safe_pow(a: float, b: float) -> float:
    try:
        result = a ** b
    except (ValueError, OverflowError, ZeroDivisionError):
        return math.nan
    if isinstance(result, complex):
        return math.nan
    return float(result)


def parse_expression(text: str) -> tuple[Evaluator, int]:
    """Parse a field expression; returns (evaluator, max variable index).

    The evaluator maps an (m, n) array of points, n at least that index,
    to a new float64[m] array of the expression's values."""
    if not text.strip():
        raise ExpressionError("empty expression", 0)
    parser = _Parser(text)
    root = parser.parse()

    def evaluator(x: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):  # overflow to inf, 0/0 to nan, as Python floats
            return np.array(root(x), dtype=float)

    return evaluator, max(parser.max_var, 1)
