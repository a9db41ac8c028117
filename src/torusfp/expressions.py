"""Tiny arithmetic expression language for coefficient functions.

Variables x1..xd and t, the constant pi, unary minus, binary + - * / ^
(with ``^`` right-associative and binding tighter than unary minus), and the
functions sin, cos, exp, log, sqrt, abs.  Parsing is recursive descent;
errors carry the byte offset into the source string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ExprArityError, ExprDomainError, ExprNameError, ExprSyntaxError

__all__ = [
    "Expr",
    "Num",
    "Var",
    "PiConst",
    "Neg",
    "BinOp",
    "Call",
    "parse_expr",
    "eval_expr",
    "eval_on_grid",
    "to_source",
    "uses_time",
    "max_var_index",
]

_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")
_VARIABLES = ("x1", "x2", "t")


@dataclass(frozen=True)
class Expr:
    pos: int = field(default=-1, compare=False, kw_only=True)


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str  # "x1", "x2" or "t"


@dataclass(frozen=True)
class PiConst(Expr):
    pass


@dataclass(frozen=True)
class Neg(Expr):
    child: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


@dataclass
class _Token:
    kind: str  # "num", "ident", "op", "end"
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    toks = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ExprSyntaxError(f"malformed number {text!r} at offset {i}", i)
            toks.append(_Token("num", text, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Token("ident", src[i:j], i))
            i = j
            continue
        if ch in "+-*/^(),":
            toks.append(_Token("op", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r} at offset {i}", i)
    toks.append(_Token("end", "", n))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            return self.take()
        raise ExprSyntaxError(f"expected {text!r} at offset {tok.pos}", tok.pos)

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected token {tok.text!r} at offset {tok.pos}", tok.pos)
        return e

    def expr(self) -> Expr:
        left = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take()
            right = self.term()
            left = BinOp(op.text, left, right, pos=op.pos)
        return left

    def term(self) -> Expr:
        left = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take()
            right = self.factor()
            left = BinOp(op.text, left, right, pos=op.pos)
        return left

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.take()
            return Neg(self.factor(), pos=tok.pos)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.take()
            # right-associative; the exponent may carry a unary minus
            return BinOp("^", base, self.factor(), pos=tok.pos)
        return base

    def atom(self) -> Expr:
        tok = self.take()
        if tok.kind == "num":
            return Num(float(tok.text), pos=tok.pos)
        if tok.kind == "ident":
            name = tok.text
            if name == "pi":
                return PiConst(pos=tok.pos)
            if name in _VARIABLES:
                return Var(name, pos=tok.pos)
            if name in _FUNCTIONS:
                nxt = self.peek()
                if not (nxt.kind == "op" and nxt.text == "("):
                    raise ExprArityError(
                        f"function {name!r} expects exactly one parenthesized argument "
                        f"at offset {tok.pos}",
                        tok.pos,
                    )
                self.take()
                arg = self.expr()
                sep = self.peek()
                if sep.kind == "op" and sep.text == ",":
                    raise ExprArityError(
                        f"function {name!r} takes exactly one argument "
                        f"(extra argument at offset {sep.pos})",
                        sep.pos,
                    )
                self.expect_op(")")
                return Call(name, arg, pos=tok.pos)
            raise ExprNameError(f"unknown identifier {name!r} at offset {tok.pos}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(
            f"unexpected {'end of input' if tok.kind == 'end' else tok.text!r} "
            f"at offset {tok.pos}",
            tok.pos,
        )


def parse_expr(src: str) -> Expr:
    """Parse an expression string into an AST."""
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(src).parse()


def _check_finite(node: Expr, value, what: str):
    if not np.all(np.isfinite(value)):
        raise ExprDomainError(f"{what} in subexpression '{to_source(node)}'", to_source(node))
    return value


def _eval(node: Expr, env: dict):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, PiConst):
        return math.pi
    if isinstance(node, Var):
        if node.name not in env:
            raise ExprNameError(
                f"variable {node.name!r} is not available in this problem "
                f"(offset {node.pos})",
                node.pos,
            )
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval(node.child, env)
    if isinstance(node, BinOp):
        a = _eval(node.left, env)
        b = _eval(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if np.any(b == 0):
                raise ExprDomainError(
                    f"division by zero in subexpression '{to_source(node)}'",
                    to_source(node),
                )
            return a / b
        if node.op == "^":
            # np.power keeps real semantics: negative base with fractional
            # exponent yields nan, caught below
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                out = np.power(np.asarray(a, dtype=float), b)
            out = _check_finite(node, out, "invalid power")
            return out if out.ndim else float(out)
        raise AssertionError(node.op)
    if isinstance(node, Call):
        arg = _eval(node.arg, env)
        if node.fn == "sin":
            return np.sin(arg)
        if node.fn == "cos":
            return np.cos(arg)
        if node.fn == "exp":
            with np.errstate(over="ignore"):
                return _check_finite(node, np.exp(arg), "overflow in exp")
        if node.fn == "log":
            if np.any(arg <= 0):
                raise ExprDomainError(
                    f"log of non-positive argument in subexpression '{to_source(node)}'",
                    to_source(node),
                )
            return np.log(arg)
        if node.fn == "sqrt":
            if np.any(arg < 0):
                raise ExprDomainError(
                    f"sqrt of negative argument in subexpression '{to_source(node)}'",
                    to_source(node),
                )
            return np.sqrt(arg)
        if node.fn == "abs":
            return np.abs(arg)
        raise AssertionError(node.fn)
    raise AssertionError(type(node))


def eval_expr(e: Expr, point, time: float = 0.0) -> float:
    """Evaluate at a single point (sequence of coordinates) and time."""
    env = {"t": float(time)}
    for i, x in enumerate(point):
        env[f"x{i + 1}"] = float(x)
    return float(_eval(e, env))


def eval_on_grid(e: Expr, grid, time: float = 0.0) -> np.ndarray:
    """Vectorized evaluation on all grid cells; returns a flat array."""
    env = {"t": float(time)}
    for i, xs in enumerate(grid.meshgrid()):
        env[f"x{i + 1}"] = xs
    out = _eval(e, env)
    return np.asarray(out, dtype=float) * np.ones(grid.n_cells)


def uses_time(e: Expr) -> bool:
    if isinstance(e, Var):
        return e.name == "t"
    if isinstance(e, Neg):
        return uses_time(e.child)
    if isinstance(e, BinOp):
        return uses_time(e.left) or uses_time(e.right)
    if isinstance(e, Call):
        return uses_time(e.arg)
    return False


def max_var_index(e: Expr) -> int:
    """Largest spatial variable index used (0 when none)."""
    if isinstance(e, Var) and e.name.startswith("x"):
        return int(e.name[1:])
    if isinstance(e, Neg):
        return max_var_index(e.child)
    if isinstance(e, BinOp):
        return max(max_var_index(e.left), max_var_index(e.right))
    if isinstance(e, Call):
        return max_var_index(e.arg)
    return 0


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["neg"]
    return _PREC["atom"]


def to_source(e: Expr) -> str:
    """Pretty-print with minimal parentheses; reparses to an identical tree."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, PiConst):
        return "pi"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = to_source(e.child)
        if _prec(e.child) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Call):
        return f"{e.fn}({to_source(e.arg)})"
    if isinstance(e, BinOp):
        lp, rp = _prec(e.left), _prec(e.right)
        p = _PREC[e.op]
        left = to_source(e.left)
        right = to_source(e.right)
        if e.op == "^":
            # right-associative: parenthesize a left child of equal precedence
            if lp <= p and lp != _PREC["atom"]:
                left = f"({left})"
            if rp < p and rp != _PREC["neg"]:
                right = f"({right})"
        else:
            if lp < p:
                left = f"({left})"
            # left-associative: a right child of equal precedence regroups
            if rp <= p:
                right = f"({right})"
        return f"{left} {e.op} {right}" if e.op in "+-" else f"{left}{e.op}{right}"
    raise AssertionError(type(e))
